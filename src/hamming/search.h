// Hamming distance search: the GPH pigeonhole baseline and its pigeonring
// (Ring) upgrade (§6.1, §7).
//
// Both use the same PartitionIndex, the same variable threshold allocation
// with integer reduction (||T||_1 = tau - m + 1, Theorem 7), and the same
// first candidate-generation step (probing each part within its threshold).
// With chain_length == 1 the searcher is exactly the GPH baseline; with
// chain_length > 1 every index hit additionally runs the incremental
// prefix-viable chain check with the Corollary-2 skip before the object is
// verified.

#ifndef PIGEONRING_HAMMING_SEARCH_H_
#define PIGEONRING_HAMMING_SEARCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvector.h"
#include "hamming/index.h"
#include "kernels/flat_bit_table.h"

namespace pigeonring::hamming {

/// How per-part thresholds are allocated (§6.1 / GPH cost model).
enum class AllocationMode {
  /// Spread tau + 1 probe units round-robin over the parts.
  kUniform,
  /// Greedy cost-model allocation: repeatedly grant a unit to the part with
  /// the cheapest marginal probe cost for this query (estimated exactly from
  /// the index bucket sizes).
  kCostModel,
  /// Radius-0-only cost model: when tau + 1 <= m, probe the tau + 1 parts
  /// with the smallest exact-match buckets for this query, each at radius
  /// 0. Same threshold mass as kUniform (so equally sound) but the probe
  /// order follows the data, and allocation costs m bucket lookups with no
  /// radius-1 counting — the right trade for high-call-rate searches over
  /// selective indexes. Falls back to kUniform when tau + 1 > m.
  kRadiusZero,
};

/// Counters for one query, matching the quantities reported in the paper's
/// figures.
struct SearchStats {
  int64_t candidates = 0;      // unique objects passing the filter
  int64_t results = 0;         // objects with H(x, q) <= tau
  int64_t index_hits = 0;      // postings touched in step 1
  int64_t chain_checks = 0;    // step-2 prefix-viable checks run
  double filter_millis = 0;    // allocation + probing + chain checks
  double verify_millis = 0;    // final Hamming verification
  double total_millis = 0;
};

/// A reusable searcher over a fixed collection of binary vectors.
///
/// Copies are cheap and parallel-safe: the collection, its FlatBitTable
/// kernel mirror, and the partition index are immutable after construction
/// and shared between copies (concurrent reads, no locks needed); only the
/// per-query epoch-stamped scratch is per-copy. This is what the engine's
/// per-thread searcher clones rely on.
class HammingSearcher {
 public:
  /// Builds the per-part index. `num_parts` defaults to the paper's setting
  /// m = floor(d / 16) when passed 0.
  HammingSearcher(std::vector<BitVector> objects, int num_parts = 0);

  /// Assembles a searcher around an already-built index (the storage layer's
  /// bulk-load path) — no hashing or partitioning is re-derived. `index` must
  /// describe exactly `objects`.
  static HammingSearcher FromBuilt(std::vector<BitVector> objects,
                                   std::shared_ptr<const PartitionIndex> index);

  int num_parts() const { return index_->partition().num_parts(); }
  int num_objects() const { return static_cast<int>(objects_->size()); }
  const std::vector<BitVector>& objects() const { return *objects_; }
  const PartitionIndex& partition_index() const { return *index_; }

  /// Finds all ids with H(x, q) <= tau. `chain_length` = 1 reproduces the
  /// GPH baseline; larger values enable the pigeonring filter. `stats` may
  /// be null.
  std::vector<int> Search(const BitVector& query, int tau, int chain_length,
                          AllocationMode mode = AllocationMode::kCostModel,
                          SearchStats* stats = nullptr);

  /// Exposes the per-part threshold allocation for tests and benches.
  std::vector<int> AllocateThresholds(const BitVector& query, int tau,
                                      AllocationMode mode) const;

 private:
  HammingSearcher() = default;  // for FromBuilt

  // Immutable after construction, shared across copies.
  std::shared_ptr<const std::vector<BitVector>> objects_;
  // Flat, cache-aligned mirror (row i == objects[i]) that the chain-check
  // and verification hot paths read; see kernels/flat_bit_table.h.
  std::shared_ptr<const kernels::FlatBitTable> flat_;
  std::shared_ptr<const PartitionIndex> index_;

  // Per-query scratch, epoch-stamped so no O(N) clearing is needed.
  uint32_t epoch_ = 0;
  std::vector<uint32_t> seen_epoch_;
  std::vector<uint64_t> ruled_out_;  // bitmask of chain starts ruled out
  std::vector<uint8_t> decided_;     // candidate already verified
  std::vector<uint8_t> verdicts_;    // batched-verification output buffer
};

/// Reference result set by exhaustive scan; used by tests and the benches'
/// self-checks.
std::vector<int> BruteForceSearch(const std::vector<BitVector>& objects,
                                  const BitVector& query, int tau);

}  // namespace pigeonring::hamming

#endif  // PIGEONRING_HAMMING_SEARCH_H_
