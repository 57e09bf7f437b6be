// serve: the served request path. A Hamming index is built and saved in a
// child process (so its build memory never counts against peak RSS), then
// opened with Db::OpenIndex and served by net::Server to two net::Client
// connections under open-loop Poisson load.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "datagen/binary_vectors.h"
#include "hamming/search.h"
#include "ladder.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {

namespace api = pigeonring::api;
namespace net = pigeonring::net;
using pigeonring::BitVector;
using pigeonring::Rng;

namespace {

constexpr int kRecords = 200000;
constexpr int kDims = 128;
// Offered load, requests/s over both connections: about a sixth of what two
// closed-loop connections sustain on a 4-vCPU host. At a third (1500/s) the
// host's slow phases, when memory-bound code runs up to 2x slower, pushed
// the server near saturation and multiplied the tail by four.
constexpr double kOfferedRate = 750;
constexpr int kConnections = 2;
constexpr int kBatch = 16;
constexpr double kBatchShare = 0.2;
constexpr int kSetupReps = 9;
// Share of requests whose answers are checked against the brute-force oracle.
constexpr double kOracleShare = 0.01;
constexpr int kLadderRequests = 60;
// tail_ms: p90 per 1 s window (about 750 requests, 75 beyond the p90).
// A per-window p99 read 2-11 ms over ten seeds: host stalls reach most
// windows.
constexpr double kTail = 0.9;
constexpr double kTailWindowS = 1;

api::IndexSpec Spec() {
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = kHammingTau;
  spec.chain_length = kHammingChain;
  spec.allocation = pigeonring::hamming::AllocationMode::kCostModel;
  spec.num_threads = 1;
  return spec;
}

std::vector<BitVector> Dataset(uint64_t seed) {
  pigeonring::datagen::BinaryVectorConfig config;
  config.dimensions = kDims;
  config.num_objects = kRecords;
  config.seed = seed;
  return pigeonring::datagen::GenerateBinaryVectors(config);
}

struct Prepared {
  double build_s = 0;
  double save_s = 0;
};

// Builds and saves the index in a child process; the parent only waits.
Prepared PrepareIndex(uint64_t seed, const std::string& path) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    std::exit(1);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    Prepared prepared;
    auto t0 = Clock::now();
    auto db = api::Db::Open(Spec(), api::Dataset(Dataset(seed)));
    prepared.build_s = Seconds(Clock::now() - t0);
    if (!db.ok()) _exit(2);
    t0 = Clock::now();
    if (!db->Save(path).ok()) _exit(3);
    prepared.save_s = Seconds(Clock::now() - t0);
    const bool written =
        write(fds[1], &prepared, sizeof(prepared)) == sizeof(prepared);
    _exit(written ? 0 : 4);
  }
  close(fds[1]);
  Prepared prepared;
  const bool got = read(fds[0], &prepared, sizeof(prepared)) == sizeof(prepared);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: index preparation failed (status %d)\n",
                 status);
    std::exit(1);
  }
  return prepared;
}

struct Request {
  uint64_t id = 0;
  double due_s = 0;
};

// A request's queries and whether its answers go to the oracle. They are
// drawn from the request's own seeded stream when it is sent, so that the
// schedule holds only due times and adds nothing to peak RSS.
struct Drawn {
  std::vector<api::Query> queries;
  bool oracle = false;
};

Drawn Draw(uint64_t seed, uint64_t id, const std::vector<BitVector>& records) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + id);
  Drawn drawn;
  const int n = rng.NextDouble() < kBatchShare ? kBatch : 1;
  for (int k = 0; k < n; ++k) {
    const BitVector& base = records[rng.NextBounded(records.size())];
    drawn.queries.push_back(
        Perturb(base, static_cast<int>(rng.NextBounded(kHammingTau + 5)), rng));
  }
  drawn.oracle = rng.NextDouble() < kOracleShare;
  return drawn;
}

struct ConnectionResult {
  TimedSamples latency_ms;  // stamped with the due time
  Samples late_ms;
  Samples rtt_search_us;
  Samples rtt_batch_us;
  int64_t completed_queries = 0;
  std::vector<std::string> errors;
  // (request id, answers) for oracle requests.
  std::vector<std::pair<uint64_t, std::vector<std::vector<int>>>> answers;
  Clock::time_point last_done;
};

// One connection's open loop: each request is sent at its due time (or as
// soon as the previous reply arrives) and timed from its due time.
void DriveConnection(net::Client& client, const std::vector<Request>& requests,
                     const std::vector<BitVector>& records, uint64_t seed,
                     Clock::time_point start, Tracer* tracer,
                     ConnectionResult& out) {
  for (const Request& req : requests) {
    const Drawn drawn = Draw(seed, req.id, records);
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(req.due_s));
    SleepUntil(due);
    const auto sent = Clock::now();
    const uint64_t span_id = Tracer::RequestSpanId(req.id);
    std::vector<std::vector<int>> ids;
    pigeonring::Status status;
    if (drawn.queries.size() == 1) {
      ScopedSpan call(tracer, "net.search", span_id, req.id);
      auto reply = client.Search(drawn.queries[0]);
      status = reply.status();
      if (reply.ok()) ids.push_back(std::move(reply->ids));
    } else {
      ScopedSpan call(tracer, "net.batch", span_id, req.id);
      auto reply = client.SearchBatch(drawn.queries);
      status = reply.status();
      if (reply.ok()) ids = std::move(reply->ids);
    }
    const auto done = Clock::now();
    if (tracer != nullptr) {
      tracer->Record({span_id, 0, req.id, "request", due, done});
    }
    out.latency_ms.Add(req.due_s, Millis(done - due));
    out.late_ms.Add(Millis(sent - due));
    (drawn.queries.size() == 1 ? out.rtt_search_us : out.rtt_batch_us)
        .Add(Micros(done - sent));
    out.last_done = done;
    if (!status.ok()) {
      out.errors.push_back(status.ToString());
      continue;
    }
    out.completed_queries += static_cast<int64_t>(drawn.queries.size());
    if (drawn.oracle) out.answers.emplace_back(req.id, std::move(ids));
  }
}

struct PhaseResult {
  std::vector<ConnectionResult> connections;
  Clock::time_point start;
  double wall_s = 0;
};

PhaseResult RunPhase(int port, const std::vector<std::vector<Request>>& schedule,
                     const std::vector<BitVector>& records, uint64_t seed,
                     Tracer* tracer) {
  std::vector<net::Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(Unwrap(net::Client::Connect("127.0.0.1", port), "connect"));
  }
  PhaseResult phase;
  phase.connections.resize(kConnections);
  phase.start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(DriveConnection, std::ref(clients[c]),
                         std::cref(schedule[c]), std::cref(records), seed,
                         phase.start, tracer, std::ref(phase.connections[c]));
  }
  for (auto& t : threads) t.join();
  Clock::time_point end = phase.start;
  for (const auto& c : phase.connections) end = std::max(end, c.last_done);
  phase.wall_s = Seconds(end - phase.start);
  return phase;
}

struct Merged {
  TimedSamples latency_ms;
  Samples late_ms, rtt_search_us, rtt_batch_us;
  int64_t requests = 0, queries = 0;
};

Merged Merge(const PhaseResult& phase) {
  Merged m;
  for (const auto& c : phase.connections) {
    m.latency_ms.Append(c.latency_ms);
    m.late_ms.Append(c.late_ms);
    m.rtt_search_us.Append(c.rtt_search_us);
    m.rtt_batch_us.Append(c.rtt_batch_us);
    m.requests += static_cast<int64_t>(c.latency_ms.all().size());
    m.queries += c.completed_queries;
  }
  return m;
}

// Counts a phase's requests as attempted, its failed calls as failed, and
// checks its oracle requests' answers against the exhaustive scan. Returns
// the number of queries checked.
int64_t Account(const PhaseResult& phase, const std::vector<BitVector>& records,
                uint64_t seed, const char* what, Report& report) {
  int64_t checked = 0;
  for (const ConnectionResult& c : phase.connections) {
    report.attempted += static_cast<int64_t>(c.latency_ms.all().size());
    for (const auto& [id, answers] : c.answers) {
      const Drawn drawn = Draw(seed, id, records);
      bool right = answers.size() == drawn.queries.size();
      for (size_t k = 0; right && k < drawn.queries.size(); ++k) {
        right = Sorted(answers[k]) ==
                Sorted(pigeonring::hamming::BruteForceSearch(
                    records, std::get<BitVector>(drawn.queries[k]), kHammingTau));
      }
      checked += static_cast<int64_t>(drawn.queries.size());
      if (!right) {
        report.WrongAnswer(std::string(what) + " request " + std::to_string(id));
      }
    }
    for (const std::string& e : c.errors) {
      report.CallFailed(std::string(what) + ": " + e);
    }
  }
  return checked;
}

}  // namespace

Report RunServe(const Options& options) {
  Report report;
  std::filesystem::create_directories(options.work_dir);
  const std::string index_path = options.work_dir + "/serve-" +
                                 std::to_string(options.seed) + "-" +
                                 std::to_string(getpid()) + ".pgri";
  const Prepared prepared = PrepareIndex(options.seed, index_path);
  // The queries and the oracle need the records; this copy is the only
  // benchmark data that stays resident while the server runs.
  const std::vector<BitVector> records = Dataset(options.seed);
  const double prepared_rss_mb = PeakRssMb();

  // Set-up: Db::OpenIndex + Server::Start, several times; the last stays up.
  Samples setup_s, open_s;
  std::optional<api::Db> db;
  std::optional<net::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    db.reset();
    const auto t0 = Clock::now();
    db = Unwrap(api::Db::OpenIndex(Spec(), index_path), "OpenIndex");
    open_s.Add(Seconds(Clock::now() - t0));
    server = Unwrap(net::Server::Start(*db), "Server::Start");
    setup_s.Add(Seconds(Clock::now() - t0));
  }
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(index_path));
  std::filesystem::remove(index_path);

  // The schedule: one independent Poisson stream per connection.
  Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 11);
  std::vector<std::vector<Request>> schedule(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    for (double due : PoissonArrivals(rng, kOfferedRate / kConnections,
                                      PhaseSeconds(options))) {
      const uint64_t id = (static_cast<uint64_t>(c) << 32) | schedule[c].size();
      schedule[c].push_back({id, due});
    }
  }

  const PhaseResult phase =
      RunPhase(server->port(), schedule, records, options.seed, nullptr);
  const Merged m = Merge(phase);
  ReportServerSnapshot(*server, report);
  int64_t checked = Account(phase, records, options.seed, "serve", report);

  Tracer tracer;
  if (options.trace) {
    const PhaseResult traced_phase =
        RunPhase(server->port(), schedule, records, options.seed, &tracer);
    checked += Account(traced_phase, records, options.seed, "serve traced", report);
    const Merged traced = Merge(traced_phase);
    report.Layer("trace.overhead_pct",
                 OverheadPct(m.latency_ms.Windowed(1, 0.5),
                             traced.latency_ms.Windowed(1, 0.5)),
                 "%");
    std::vector<LadderRequest> ladder;
    Rng pick(options.seed + 77);
    for (int k = 0; k < kLadderRequests; ++k) {
      const auto& conn = schedule[pick.NextBounded(kConnections)];
      if (conn.empty()) continue;
      const Request& req = conn[pick.NextBounded(conn.size())];
      LadderRequest lr;
      lr.request = req.id;
      for (const api::Query& q : Draw(options.seed, req.id, records).queries) {
        lr.queries.push_back(std::get<BitVector>(q));
      }
      ladder.push_back(std::move(lr));
    }
    RunLadder(*db, *server, records, ladder, options.seed, &tracer, report);
  }
  server->Stop();

  report.Note("serve: " + std::to_string(m.requests) + " requests (" +
              std::to_string(m.queries) + " queries), " +
              std::to_string(checked) + " answers checked against the oracle");
  char line[240];
  std::snprintf(line, sizeof(line),
                "serve: %zu latency samples; run-wide p50 %.3f ms, p99 %.3f ms; "
                "peak RSS after preparation %.1f MB",
                m.latency_ms.all().size(), m.latency_ms.all().Median(),
                m.latency_ms.all().Percentile(0.99), prepared_rss_mb);
  report.Note(line);

  report.E2e("setup_s", setup_s.Median(), "s");
  report.E2e("p50_ms", m.latency_ms.Windowed(1, 0.5), "ms");
  report.E2e("tail_ms", m.latency_ms.Windowed(kTailWindowS, kTail), "ms");
  report.E2e("qps", m.queries / std::max(phase.wall_s, 1e-9), "queries/s");
  report.Layer("latency.run_tail_ms", m.latency_ms.all().Percentile(0.99), "ms");
  report.Layer("net.rtt_us.search", m.rtt_search_us.Median(), "us");
  report.Layer("net.rtt_us.batch", m.rtt_batch_us.Median(), "us");
  report.Layer("gen.late_ms_p99", m.late_ms.Percentile(m.late_ms.TailLevel()), "ms");
  report.Layer("storage.save_s", prepared.save_s, "s");
  report.Layer("storage.open_s", open_s.Median(), "s");
  report.Layer("storage.bytes_per_user_byte",
               file_bytes / (static_cast<double>(kRecords) * kDims / 8), "ratio");
  report.Layer("api.build_s.hamming", prepared.build_s, "s");
  if (options.trace) FinishTrace(options, tracer, report);
  return report;
}

}  // namespace perfbench
