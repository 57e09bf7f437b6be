// perfbench: the repository benchmark. Runs one workload (serve or join)
// for a fixed time and prints every metric by name with its unit;
// the last line is one JSON object:
//
//   perfbench --workload serve --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (README.md maps each per-layer metric to the end-to-end metric it moves).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Name {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A metric a workload does not
// exercise prints as n/a and reads 0 in the JSON line.
const std::vector<Name> kPerLayer = {
    {"kernels.verify_ns_per_pair", "ns"},
    {"hamming.alloc_us", "us"},
    {"hamming.search_us", "us"},
    {"hamming.search_l1_us", "us"},
    {"hamming.candidates", "count"},
    {"hamming.candidates_l1", "count"},
    {"hamming.ring_gain", "ratio"},
    {"hamming.index_hits", "count"},
    {"hamming.chain_checks", "count"},
    {"hamming.precision", "ratio"},
    {"engine.search_batch_us", "us"},
    {"engine.join_cpu_util.hamming", "ratio"},
    {"engine.join_cpu_util.sets", "ratio"},
    {"engine.join_cpu_util.strings", "ratio"},
    {"engine.join_cpu_util.graphs", "ratio"},
    {"engine.join_candidates.hamming", "count"},
    {"engine.join_candidates.sets", "count"},
    {"engine.join_candidates.strings", "count"},
    {"engine.join_candidates.graphs", "count"},
    {"engine.join_pairs.hamming", "count"},
    {"engine.join_pairs.sets", "count"},
    {"engine.join_pairs.strings", "count"},
    {"engine.join_pairs.graphs", "count"},
    {"join_s.hamming", "s"},
    {"join_s.sets", "s"},
    {"join_s.strings", "s"},
    {"join_s.graphs", "s"},
    {"api.search_us", "us"},
    {"api.batch_us", "us"},
    {"api.submit_us", "us"},
    {"api.new_session_us", "us"},
    {"api.build_s.hamming", "s"},
    {"api.build_s.sets", "s"},
    {"api.build_s.strings", "s"},
    {"api.build_s.graphs", "s"},
    {"storage.save_s", "s"},
    {"storage.open_s", "s"},
    {"storage.bytes_per_user_byte", "ratio"},
    {"net.ping_us", "us"},
    {"net.rtt_us.search", "us"},
    {"net.rtt_us.batch", "us"},
    {"net.server_us.search", "us"},
    {"net.server_us.batch", "us"},
    {"net.shed", "count"},
    {"net.protocol_errors", "count"},
    {"latency.run_tail_ms", "ms"},
    {"gen.late_ms_p99", "ms"},
    {"host.nproc", "count"},
    {"host.effective_cores", "cores"},
    {"host.oversubscribed", "flag"},
    {"error_rate", "fraction"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

const std::vector<Name> kEndToEnd = {
    {"setup_s", "s"},          {"p50_ms", "ms"},
    {"tail_ms", "ms"},         {"qps", "queries/s"},
    {"success_rate", "fraction"}, {"peak_rss_mb", "MB"},
};

// Threads plus connections each workload keeps busy at once: join runs
// SelfJoin at two threads, serve two connections and one engine thread.
int WorkloadThreads(const std::string& workload) {
  return workload == "join" ? 2 : 3;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|join "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || options.seconds < 1) Usage("--seconds takes a positive integer");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != "serve" && options.workload != "join") {
    Usage("--workload must be serve or join");
  }
  return options;
}

void PrintMetric(const char* name, const Metric* metric, const char* unit) {
  if (metric == nullptr) {
    std::printf("  %-32s %16s %s\n", name, "n/a", unit);
  } else {
    std::printf("  %-32s %16.6f %s\n", name, metric->value, unit);
  }
}

int Main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  std::filesystem::create_directories(options.work_dir);
  const Host host = CalibrateHost();
  const int threads = WorkloadThreads(options.workload);
  const bool oversubscribed = threads > host.effective_cores;

  Report report =
      options.workload == "serve" ? RunServe(options) : RunJoin(options);

  const double error_rate =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 1;
  report.E2e("success_rate", 1 - error_rate, "fraction");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.Layer("error_rate", error_rate, "fraction");
  report.Layer("host.nproc", host.nproc, "count");
  report.Layer("host.effective_cores", host.effective_cores, "cores");
  report.Layer("host.oversubscribed", oversubscribed ? 1 : 0, "flag");

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: nproc=%d effective_cores=%.2f isa=%s workload_threads=%d%s\n",
              host.nproc, host.effective_cores, host.isa.c_str(), threads,
              oversubscribed ? " OVERSUBSCRIBED (threads exceed effective cores)" : "");
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  std::printf("attempted=%lld failed=%lld correct=%s\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), report.correct ? "true" : "false");

  const std::vector<Name>& names = options.trace ? kPerLayer : kEndToEnd;
  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  std::string json = "{\"correct\": " + std::string(report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = metrics.find(names[i].name);
    const Metric* metric = it == metrics.end() ? nullptr : &it->second;
    PrintMetric(names[i].name, metric, names[i].unit);
    const double value =
        metric != nullptr && std::isfinite(metric->value) ? metric->value : 0;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + names[i].name +
            "\": {\"value\": " + buffer + ", \"unit\": \"" + names[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
