#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "kernels/kernels.h"

namespace perfbench {

void Check(const pigeonring::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

namespace {
size_t Rank(size_t n, double q) {
  // Nearest rank: the smallest index with at least q * n samples at or
  // below it.
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n) - 1;
}
}  // namespace

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  const size_t rank = Rank(sorted.size(), q);
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return sorted[rank];
}

size_t Samples::Beyond(double q) const {
  if (values_.empty()) return 0;
  return values_.size() - 1 - Rank(values_.size(), q);
}

double Samples::TailLevel() const {
  for (double q : {0.99, 0.9, 0.75}) {
    if (Beyond(q) >= 10) return q;
  }
  return 0.5;
}

void TimedSamples::Append(const TimedSamples& other) {
  at_s_.insert(at_s_.end(), other.at_s_.begin(), other.at_s_.end());
  all_.Append(other.all_);
}

std::map<int64_t, Samples> TimedSamples::Windows(double window_s) const {
  std::map<int64_t, Samples> windows;
  for (size_t i = 0; i < at_s_.size(); ++i) {
    windows[static_cast<int64_t>(at_s_[i] / window_s)].Add(all_.values()[i]);
  }
  return windows;
}

double TimedSamples::Windowed(double window_s, double within) const {
  Samples per_window;
  for (const auto& [index, samples] : Windows(window_s)) {
    if (samples.Beyond(within) >= 10) per_window.Add(samples.Percentile(within));
  }
  return per_window.empty() ? all_.Percentile(within)
                            : per_window.Median();
}

std::vector<double> PoissonArrivals(pigeonring::Rng& rng, double rate,
                                    double seconds) {
  std::vector<double> arrivals;
  double t = 0;
  while (true) {
    // Exponential inter-arrival gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

void SleepUntil(Clock::time_point due) {
  if (Clock::now() < due) std::this_thread::sleep_until(due);
}

pigeonring::BitVector Perturb(const pigeonring::BitVector& record, int flips,
                              pigeonring::Rng& rng) {
  pigeonring::BitVector out = record;
  for (int i = 0; i < flips; ++i) {
    out.Flip(static_cast<int>(rng.NextBounded(out.dimensions())));
  }
  return out;
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::SelfNanos() const {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent].push_back(i);
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    double covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent's.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> parts;
      for (size_t c : it->second) {
        const auto begin = std::max(spans_[c].start, span.start);
        const auto end = std::min(spans_[c].end, span.end);
        if (begin < end) parts.emplace_back(begin, end);
      }
      std::sort(parts.begin(), parts.end());
      Clock::time_point reach = span.start;
      for (const auto& [begin, end] : parts) {
        const auto from = std::max(begin, reach);
        if (end > from) {
          covered += std::chrono::duration<double, std::nano>(end - from).count();
          reach = end;
        }
      }
    }
    self[i] =
        std::chrono::duration<double, std::nano>(span.end - span.start).count() -
        covered;
  }
  return self;
}

std::map<std::string, double> Tracer::MedianSelfMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfNanos();
  std::map<std::string, Samples> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name].Add(self[i] / 1000.0);
  }
  std::map<std::string, double> medians;
  for (const auto& [name, samples] : by_name) medians[name] = samples.Median();
  return medians;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = SelfNanos();
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << ns(span.start) << ",\"end_ns\":"
        << ns(span.end) << ",\"self_ns\":" << static_cast<int64_t>(self[i])
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = Clock::now();
  tracer_->Record(span_);
}

namespace {

/// Spins on a xorshift chain until `stop`; returns the iteration count.
uint64_t Spin(const std::atomic<bool>& stop) {
  uint64_t x = 88172645463325252ull;
  uint64_t iterations = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 1024; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ++iterations;
  }
  // Keeps the chain observable so the loop is not folded away.
  return iterations + (x == 0 ? 1 : 0);
}

uint64_t SpinThreads(int threads, std::chrono::milliseconds window) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> counts(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] { counts[t] = Spin(stop); });
  }
  std::this_thread::sleep_for(window);
  stop.store(true);
  for (auto& w : workers) w.join();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

}  // namespace

Host CalibrateHost() {
  Host host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    host.nproc = std::max(1, CPU_COUNT(&set));
  } else {
    host.nproc = std::max(1u, std::thread::hardware_concurrency());
  }
  const auto window = std::chrono::milliseconds(150);
  const double one = static_cast<double>(SpinThreads(1, window));
  const double all = static_cast<double>(SpinThreads(host.nproc, window));
  host.effective_cores = one > 0 ? all / one : 1;
  host.isa = pigeonring::kernels::IsaName(pigeonring::kernels::ActiveIsa());
  return host;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double OverheadPct(double untraced, double traced) {
  return untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0;
}

void FinishTrace(const Options& options, const Tracer& tracer, Report& report) {
  report.Layer("trace.spans", static_cast<double>(tracer.size()), "count");
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  if (tracer.WriteJsonLines(path)) {
    report.Note("trace: spans written to " + path);
  } else {
    report.Note("trace: could not write " + path);
  }
  for (const auto& [name, self] : tracer.MedianSelfMicros()) {
    char line[160];
    std::snprintf(line, sizeof(line), "trace: %-28s self p50 %10.2f us",
                  name.c_str(), self);
    report.Note(line);
  }
}

void Report::WrongAnswer(const std::string& what) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", what.c_str());
}

void Report::CallFailed(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "perfbench: call failed: %s\n", what.c_str());
}

}  // namespace perfbench
