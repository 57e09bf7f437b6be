#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace pigeonring {

namespace {

// Bucket index for a value: 0 for [0, 1), b for [2^(b-1), 2^b). Values
// beyond 2^62 saturate into the last bucket.
int BucketOf(double value) {
  if (value < 1) return 0;
  const double capped = std::min(value, 0x1p62);
  const uint64_t v = static_cast<uint64_t>(capped);
  return std::min(static_cast<int>(std::bit_width(v)),
                  Histogram::kNumBuckets - 1);
}

// Inclusive value range covered by a bucket.
double BucketLow(int bucket) {
  return bucket == 0 ? 0 : std::ldexp(1.0, bucket - 1);
}
double BucketHigh(int bucket) { return std::ldexp(1.0, bucket); }

}  // namespace

void Histogram::Record(double value) {
  if (std::isnan(value)) return;
  if (value < 0) value = 0;
  buckets_[BucketOf(value)] += 1;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += 1;
  sum_ += value;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kNumBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, count]: the q-quantile is the value of the
  // ceil(q * count)-th smallest recording (nearest-rank definition).
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (seen + buckets_[b] < rank) {
      seen += buckets_[b];
      continue;
    }
    // Interpolate within the bucket by the rank's position in it.
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(buckets_[b]);
    const double low = BucketLow(b);
    const double high = BucketHigh(b);
    return std::clamp(low + frac * (high - low), min_, max_);
  }
  return max_;
}

}  // namespace pigeonring
