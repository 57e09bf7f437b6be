// A fixed-bucket log-scale histogram for latency aggregation.
//
// Values land in power-of-two buckets (bucket b covers [2^(b-1), 2^b) for
// b >= 1; bucket 0 holds values < 1), so the memory footprint is a fixed
// 64 counters regardless of range and Record() is branch-light — cheap
// enough to sit on a server's per-op hot path. Percentile() walks the
// counters and interpolates linearly inside the selected bucket, clamped
// to the exact observed min/max, so the error is bounded by the bucket
// width (a factor of 2) and single-value histograms report exactly.
//
// Unit-agnostic: callers pick one unit (the server records microseconds)
// and use it consistently. Merge() adds another histogram's counters,
// which is how per-connection recordings aggregate into per-op totals.
// Not thread-safe; guard with a mutex or merge thread-local instances.

#ifndef PIGEONRING_COMMON_HISTOGRAM_H_
#define PIGEONRING_COMMON_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace pigeonring {

class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  /// Records one value. Negative values clamp to 0; NaN is ignored.
  void Record(double value);

  /// Adds `other`'s counters into this histogram.
  void Merge(const Histogram& other);

  /// The value at quantile `q` in [0, 1] (0.5 = median): linearly
  /// interpolated within the bucket containing the target rank, clamped
  /// to [min(), max()]. Returns 0 on an empty histogram.
  double Percentile(double q) const;

  double P50() const { return Percentile(0.5); }
  double P99() const { return Percentile(0.99); }

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Exact observed extrema; 0 when empty.
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const { return count_ == 0 ? 0 : sum_ / count_; }

  const std::array<int64_t, kNumBuckets>& buckets() const { return buckets_; }

 private:
  std::array<int64_t, kNumBuckets> buckets_{};
  int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace pigeonring

#endif  // PIGEONRING_COMMON_HISTOGRAM_H_
