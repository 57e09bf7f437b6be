// Shared harness for the perfbench workloads: options, exact percentiles,
// the open-loop schedule, in-memory spans, host calibration and the report
// that prints every metric by name with its unit.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/random.h"
#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Scratch files (the saved index, span dumps) go here.
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Length of one measured phase. A traced run splits its time between an
/// untraced and a traced phase, so every run measures for --seconds.
inline double PhaseSeconds(const Options& options) {
  return options.trace ? options.seconds / 2.0 : options.seconds;
}

/// Aborts the run (non-zero exit, no result line) on a set-up error: a
/// benchmark that cannot stand its workload up has nothing to report.
template <typename T>
T Unwrap(pigeonring::StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 value.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(value).value();
}
void Check(const pigeonring::Status& status, const char* what);

/// Raw samples; percentiles are exact (nearest rank), never bucketed.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Nearest-rank percentile; 0 when there are no samples.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  /// Samples strictly above the nearest-rank position of q.
  size_t Beyond(double q) const;
  /// The highest of p99, p90, p75 that has at least ten samples beyond
  /// it; p50 when none has.
  double TailLevel() const;

 private:
  std::vector<double> values_;
};

/// Samples stamped with when, in seconds into the phase, they were taken.
///
/// The 4-vCPU KVM host this benchmark was tuned on alternates, for seconds
/// at a time, between a normal state and one where memory-bound code runs
/// about 1.6-2x slower. A run-wide percentile then mixes the two states in
/// whatever share the run happened to get, and its tail is set by the few
/// slowest seconds. A latency is therefore taken per window and combined
/// across windows at the median: the figure of a typical window. Windows are
/// 1 s where operations are sub-millisecond, longer where they are not.
class TimedSamples {
 public:
  void Add(double at_s, double value) {
    at_s_.push_back(at_s);
    all_.Add(value);
  }
  void Append(const TimedSamples& other);
  const Samples& all() const { return all_; }
  /// Quantile `within` of each `window_s` window that holds at least ten
  /// samples beyond it, then the median of those per-window values. Falls
  /// back to the run-wide quantile when no window qualifies.
  double Windowed(double window_s, double within) const;

 private:
  std::map<int64_t, Samples> Windows(double window_s) const;
  std::vector<double> at_s_;
  Samples all_;
};

/// Offsets (seconds from the start) of a Poisson arrival process.
std::vector<double> PoissonArrivals(pigeonring::Rng& rng, double rate,
                                    double seconds);

/// Sleeps until `due`; returns immediately when it has passed.
void SleepUntil(Clock::time_point due);

/// A dataset record with `flips` random bit flips.
pigeonring::BitVector Perturb(const pigeonring::BitVector& record, int flips,
                              pigeonring::Rng& rng);

/// Spans recorded around every call the benchmark makes into a layer's
/// public function. Kept in memory; written out once the run ends.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t request = 0;
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Span ids of workload requests are derived from the request index, so
  /// replay spans can name a request span as their parent.
  static uint64_t RequestSpanId(uint64_t request) { return request + 1; }

  uint64_t NewId();
  void Record(const Span& span);
  size_t size() const;
  /// Median self time (duration minus the union of its children's
  /// intervals), in microseconds, per span name.
  std::map<std::string, double> MedianSelfMicros() const;
  /// One JSON object per line: id, parent, request, name, start/end (ns
  /// since the first span), self_ns.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<double> SelfNanos() const;  // parallel to spans_, lock held
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_id_ = uint64_t{1} << 40;  // guarded by mu_
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Tracer::Span span_;
};

struct Report;

struct Host {
  int nproc = 1;
  double effective_cores = 1;
  std::string isa;
};
/// nproc, effective cores (1-thread vs nproc-thread spin) and the active
/// kernel ISA.
Host CalibrateHost();

/// 100 * (traced - untraced) / untraced: the tracing overhead of a median.
double OverheadPct(double untraced, double traced);
/// Writes the run's spans under options.work_dir and reports trace.spans
/// and each span name's median self time.
void FinishTrace(const Options& options, const Tracer& tracer, Report& report);

/// Process high-water RSS in MiB (getrusage; excludes child processes).
double PeakRssMb();
/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports. Wrong answers and failed calls both count
/// in `failed`; nothing is filtered out.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;

  void E2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
  /// A wrong answer: counted as failed, marks the run incorrect, printed.
  void WrongAnswer(const std::string& what);
  /// A failed call (error status, shed request).
  void CallFailed(const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
