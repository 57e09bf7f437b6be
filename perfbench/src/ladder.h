// The replay ladder of a traced run: a seeded sample of a workload's own
// Hamming requests is replayed down every rung, outside in, with the same
// queries and batch size at each rung and one thread throughout:
//
//   net::Client -> Session::SubmitBatch -> Session::Search / SearchBatch
//     -> engine::SearchBatch -> HammingSearcher::Search
//     -> AllocateThresholds / kernels::VerifyHammingLeqBatch
//
// Each rung call gets a span whose parent is the span of the workload
// request it replays, and every rung's answer is checked against the
// brute-force oracle.
#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <vector>

#include "api/db.h"
#include "common/bitvector.h"
#include "harness.h"
#include "net/server.h"

namespace perfbench {

struct LadderRequest {
  uint64_t request = 0;  // index of the workload request it replays
  std::vector<pigeonring::BitVector> queries;  // 1 or 16
};

// The Hamming threshold and chain length of every workload's Hamming
// database, and so of every ladder rung.
constexpr int kHammingTau = 8;
constexpr int kHammingChain = 4;

/// Replays `requests` against `db` (served by `server`) and `records`
/// (the records `db` was opened with, in id order); `seed` picks the
/// kernel rung's ids. Writes the kernels, hamming, engine, api and net
/// per-layer metrics into `report`.
void RunLadder(const pigeonring::api::Db& db, const pigeonring::net::Server& server,
               const std::vector<pigeonring::BitVector>& records,
               const std::vector<LadderRequest>& requests, uint64_t seed,
               Tracer* tracer, Report& report);

/// net.server_us.{search,batch}, net.shed and net.protocol_errors from the
/// server's own counters (power-of-two histogram buckets).
void ReportServerSnapshot(const pigeonring::net::Server& server, Report& report);

/// Sorted copy, so result lists from different rungs compare as sets.
std::vector<int> Sorted(std::vector<int> ids);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
