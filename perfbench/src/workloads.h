// The perfbench workloads (README.md gives each one's "why").
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Loopback TCP search service over a saved 200k Hamming index, open-loop
/// Poisson load from two connections.
Report RunServe(const Options& options);
/// Offline deduplication: Session::SelfJoin at two threads over four
/// freshly built databases, one per domain.
Report RunJoin(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
