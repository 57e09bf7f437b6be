// Engine scaling: self-join wall time vs thread count, all four domains.
//
// Not a paper figure — this measures the engine layer itself. Each domain
// runs the same self-join workload through the public api::Db facade
// sequentially and at 2/4/8 threads, asserts the result pairs are
// identical at every thread count, and reports the speedup. The facade
// panel then prices the type-erasure boundary itself: the same Hamming
// search batch through the templated engine::SearchBatch driver vs
// through Db::SearchBatch at one thread (acceptance bar: within 3%).
// The concurrent-clients panel measures the service shape: N client
// threads share one Db, each driving its own Session against the
// snapshot's persistent executor (no thread pool is built per request),
// reporting aggregate throughput and client-side p50/p99 latency; every
// client's results must be byte-identical to the sequential reference at
// every client count (acceptance bar: multi-client throughput >= the
// single-client row). The storage panel prices the persistent index
// format in every domain: index build from raw records vs Db::Save
// (serialization throughput) vs Db::OpenIndex (open latency — the cold
// start a served index avoids), and requires the loaded snapshot's
// self-join to be byte-identical to the built one before any number is
// reported. The churn panel prices the writer/epoch machinery: insert
// throughput and reader p50/p99 while background compactions publish,
// plus the candidate cost of searching through a pending delta vs the
// compacted snapshot; its `quiesce_matches_rebuild` self-check (the
// quiesced database must be byte- and result-identical to a cold rebuild
// over its own records) fails the run like the fast-path parity check
// does. The net panel prices the network service (src/net/): single-query
// search qps and client-observed p50/p99 over loopback TCP at 1/2/4
// connections, the shed rate of a deliberately overloaded server
// (max_inflight = 1), and the `net_matches_inprocess` self-check — every
// TCP reply byte-identical to an in-process Session — which fails the run
// like the other verdicts. `--json FILE` additionally dumps the timings
// machine-readably; BENCH_engine.json at the repo root is a committed
// baseline produced this way (see docs/BENCHMARKS.md for the protocol).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "api/writer.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "engine/engine.h"
#include "kernels/flat_bit_table.h"
#include "kernels/kernels.h"
#include "net/client.h"
#include "net/server.h"

namespace {

using namespace pigeonring;

struct DomainResult {
  std::string name;
  int64_t pairs = 0;
  std::vector<bench::JoinTiming> timings;
};

// Kernel panel: single-thread verification throughput on the Hamming
// dataset, pre-PR scalar loop vs the dispatched batch kernel. The kernel
// win multiplies with the thread scaling measured above it.
struct KernelPanel {
  std::string isa;
  int dimensions = 0;
  int tau = 0;
  double baseline_ns_per_pair = 0;
  double kernel_ns_per_pair = 0;
  double speedup = 0;
};

KernelPanel RunKernelPanel() {
  datagen::BinaryVectorConfig config;
  // d = 256 (4 words): wide enough that the flat layout and the 2-word
  // early exit pay for themselves. Note rows of <= 4 words still verify
  // via the batch kernel's inlined small-row path — the win measured here
  // is layout + early exit; the SIMD paths only engage at d > 256.
  config.dimensions = 256;
  config.num_objects = bench::Scaled(20000);
  config.num_clusters = bench::Scaled(500);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = 9001;
  const auto objects = datagen::GenerateBinaryVectors(config);
  const auto table = kernels::FlatBitTable::FromVectors(objects);
  const BitVector& query = objects.front();
  KernelPanel panel;
  panel.isa = kernels::IsaName(kernels::ActiveIsa());
  panel.dimensions = config.dimensions;
  panel.tau = 25;
  std::vector<int> ids(objects.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  std::vector<uint8_t> verdicts(objects.size());
  const int repeats = 20;
  const double pairs = static_cast<double>(objects.size()) * repeats;
  long long sink = 0;
  StopWatch watch;
  for (int r = 0; r < repeats; ++r) {
    for (const BitVector& x : objects) {
      int total = 0;
      for (size_t w = 0; w < x.words().size(); ++w) {
        total += Popcount64(x.words()[w] ^ query.words()[w]);
      }
      sink += total <= panel.tau ? 1 : 0;
    }
  }
  panel.baseline_ns_per_pair = watch.ElapsedMillis() * 1e6 / pairs;
  watch.Restart();
  for (int r = 0; r < repeats; ++r) {
    sink += kernels::VerifyHammingLeqBatch(
        table, query.words().data(), panel.tau, ids.data(),
        static_cast<int>(ids.size()), verdicts.data());
  }
  panel.kernel_ns_per_pair = watch.ElapsedMillis() * 1e6 / pairs;
  panel.speedup =
      panel.baseline_ns_per_pair / std::max(1e-9, panel.kernel_ns_per_pair);
  if (sink == -1) std::printf(" ");
  Table out("kernel panel: Hamming verification (single thread, d = 256)",
            {"isa", "baseline ns/pair", "kernel ns/pair", "speedup"});
  out.AddRow({panel.isa, Table::Num(panel.baseline_ns_per_pair, 2),
              Table::Num(panel.kernel_ns_per_pair, 2),
              Table::Num(panel.speedup, 2) + "x"});
  out.Print();
  std::printf("\n");
  return panel;
}

const std::vector<int> kThreadCounts = {2, 4, 8};

DomainResult RunHamming() {
  datagen::BinaryVectorConfig config;
  config.dimensions = 128;
  config.num_objects = bench::Scaled(20000);
  config.num_clusters = bench::Scaled(500);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = 9001;
  std::printf("[hamming] generating %d codes...\n", config.num_objects);
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 4;
  api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec,
                    api::Dataset(datagen::GenerateBinaryVectors(config))),
      "open hamming");
  DomainResult result;
  result.name = "hamming";
  result.timings = bench::RunDbJoinScalingTable(
      "hamming: self-join (tau = 8, l = 4)", db, kThreadCounts,
      &result.pairs);
  return result;
}

DomainResult RunSets() {
  datagen::TokenSetConfig config;
  config.num_records = bench::Scaled(20000);
  config.avg_tokens = 14;
  config.universe_size = bench::Scaled(20000);
  config.duplicate_fraction = 0.35;
  config.seed = 9002;
  std::printf("[sets] generating %d sets...\n", config.num_records);
  api::IndexSpec spec;
  spec.domain = api::Domain::kSet;
  spec.tau = 0.8;
  spec.chain_length = 2;
  api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec, api::Dataset(datagen::GenerateTokenSets(config))),
      "open sets");
  DomainResult result;
  result.name = "sets";
  result.timings = bench::RunDbJoinScalingTable(
      "sets: Jaccard self-join (tau = 0.8, l = 2)", db, kThreadCounts,
      &result.pairs);
  return result;
}

DomainResult RunStrings() {
  datagen::StringConfig config;
  config.num_records = bench::Scaled(20000);
  config.avg_length = 16;
  config.duplicate_fraction = 0.35;
  config.max_perturb_edits = 2;
  config.seed = 9003;
  std::printf("[strings] generating %d strings...\n", config.num_records);
  api::IndexSpec spec;
  spec.domain = api::Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec, api::Dataset(datagen::GenerateStrings(config))),
      "open strings");
  DomainResult result;
  result.name = "strings";
  result.timings = bench::RunDbJoinScalingTable(
      "strings: edit-distance self-join (tau = 2, l = 3)", db,
      kThreadCounts, &result.pairs);
  return result;
}

DomainResult RunGraphs() {
  datagen::GraphConfig config;
  config.num_graphs = bench::Scaled(800);
  config.avg_vertices = 10;
  config.avg_edges = 11;
  config.vertex_labels = 20;
  config.edge_labels = 3;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = 9004;
  std::printf("[graphs] generating %d graphs...\n", config.num_graphs);
  api::IndexSpec spec;
  spec.domain = api::Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec, api::Dataset(datagen::GenerateGraphs(config))),
      "open graphs");
  DomainResult result;
  result.name = "graphs";
  result.timings = bench::RunDbJoinScalingTable(
      "graphs: GED self-join (tau = 2, l = 2)", db, kThreadCounts,
      &result.pairs);
  return result;
}

// Facade panel: the cost of the type-erasure boundary. The same Hamming
// query batch runs through the templated engine::SearchBatch over a
// hand-wired adapter (the pre-api consumer path) and through
// Db::SearchBatch at one thread; both repeat `repeats` times and keep
// their best run. The erased path pays one virtual dispatch plus the
// query-list conversion per *batch*, so the overhead bar is 3%.
struct FacadePanel {
  int num_queries = 0;
  double templated_millis = 0;
  double facade_millis = 0;
  double overhead_pct = 0;
};

FacadePanel RunFacadePanel() {
  datagen::BinaryVectorConfig config;
  config.dimensions = 128;
  config.num_objects = bench::Scaled(20000);
  config.num_clusters = bench::Scaled(500);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = 9001;
  const auto objects = datagen::GenerateBinaryVectors(config);
  const auto raw_queries =
      datagen::SampleQueries(objects, bench::Scaled(400), 9005);

  engine::HammingAdapter adapter(hamming::HammingSearcher(objects), 8, 4);
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 4;
  api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec, api::Dataset(objects)), "open hamming");
  std::vector<api::Query> facade_queries(raw_queries.begin(),
                                         raw_queries.end());

  FacadePanel panel;
  panel.num_queries = static_cast<int>(raw_queries.size());
  const int repeats = 5;
  std::vector<std::vector<int>> templated_ids, facade_ids;
  for (int r = 0; r < repeats; ++r) {
    StopWatch watch;
    templated_ids = engine::SearchBatch(adapter, raw_queries);
    const double millis = watch.ElapsedMillis();
    panel.templated_millis = r == 0
                                 ? millis
                                 : std::min(panel.templated_millis, millis);
    watch.Restart();
    api::Session facade_session = db.NewSession();
    auto batch = bench::BenchUnwrap(facade_session.SearchBatch(facade_queries),
                                    "facade SearchBatch");
    const double facade_millis = watch.ElapsedMillis();
    panel.facade_millis =
        r == 0 ? facade_millis : std::min(panel.facade_millis, facade_millis);
    facade_ids = std::move(batch.ids);
  }
  if (facade_ids != templated_ids) {
    std::fprintf(stderr, "FATAL: facade results diverged from templated\n");
    std::exit(1);
  }
  panel.overhead_pct =
      (panel.facade_millis / std::max(1e-9, panel.templated_millis) - 1.0) *
      100.0;
  Table out("facade panel: type-erased Db vs templated driver "
            "(hamming search batch, 1 thread, best of 5)",
            {"queries", "templated (ms)", "Db facade (ms)", "overhead"});
  out.AddRow({Table::Int(panel.num_queries),
              Table::Num(panel.templated_millis, 3),
              Table::Num(panel.facade_millis, 3),
              Table::Num(panel.overhead_pct, 2) + "%"});
  out.Print();
  std::printf("\n");
  return panel;
}

// Concurrent-clients panel: the redesign's acceptance measurement. N
// client threads share one Db; each mints its own Session and issues
// synchronous SearchBatch requests back-to-back (spec threads = 1, so
// parallelism comes purely from overlapping clients, as in a server).
// Each row is the best of `kRepeats` runs; latencies are client-side
// per-request wall times aggregated over all clients of the best run.
struct ClientsRow {
  int clients = 0;
  double wall_millis = 0;
  double qps = 0;  // queries served per second, all clients combined
  double p50_millis = 0;
  double p99_millis = 0;
};

struct ClientsPanel {
  int queries_per_request = 0;
  int requests_per_client = 0;
  std::vector<ClientsRow> rows;
};

ClientsPanel RunClientsPanel() {
  datagen::BinaryVectorConfig config;
  config.dimensions = 128;
  config.num_objects = bench::Scaled(20000);
  config.num_clusters = bench::Scaled(500);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = 9001;
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 4;
  spec.num_threads = 1;
  const api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec,
                    api::Dataset(datagen::GenerateBinaryVectors(config))),
      "open hamming");

  ClientsPanel panel;
  // Enough requests per client that thread startup amortizes away — the
  // panel prices steady-state request service, not client spawn.
  panel.queries_per_request = bench::Scaled(50);
  panel.requests_per_client = 40;
  std::vector<api::Query> request;
  {
    Rng rng(9006);
    for (int i = 0; i < panel.queries_per_request; ++i) {
      const int id = static_cast<int>(rng.NextBounded(db.num_records()));
      request.push_back(
          bench::BenchUnwrap(db.RecordQuery(id), "sample query"));
    }
  }
  api::Session reference_session = db.NewSession();
  const api::BatchResult reference = bench::BenchUnwrap(
      reference_session.SearchBatch(request), "reference batch");

  const int kRepeats = 3;
  for (int clients : {1, 2, 4}) {
    ClientsRow best;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      std::vector<std::vector<double>> latencies(clients);
      std::vector<char> diverged(clients, 0);
      StopWatch wall;
      {
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (int c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            api::Session session = db.NewSession();
            for (int r = 0; r < panel.requests_per_client; ++r) {
              StopWatch request_watch;
              auto batch = session.SearchBatch(request);
              latencies[c].push_back(request_watch.ElapsedMillis());
              if (!batch.ok() || batch->ids != reference.ids) {
                diverged[c] = 1;
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();
      }
      ClientsRow row;
      row.clients = clients;
      row.wall_millis = wall.ElapsedMillis();
      for (int c = 0; c < clients; ++c) {
        if (diverged[c]) {
          std::fprintf(stderr,
                       "FATAL: client %d diverged from the sequential "
                       "reference at %d clients\n",
                       c, clients);
          std::exit(1);
        }
      }
      std::vector<double> all;
      for (const auto& per_client : latencies) {
        all.insert(all.end(), per_client.begin(), per_client.end());
      }
      std::sort(all.begin(), all.end());
      row.p50_millis = all[all.size() / 2];
      row.p99_millis = all[static_cast<size_t>(0.99 * (all.size() - 1))];
      const double queries = static_cast<double>(clients) *
                             panel.requests_per_client *
                             panel.queries_per_request;
      row.qps = queries / std::max(1e-9, row.wall_millis) * 1000.0;
      if (repeat == 0 || row.qps > best.qps) best = row;
    }
    panel.rows.push_back(best);
  }

  Table out("concurrent-clients panel: N sessions x one shared Db "
            "(hamming search batches, 1 thread per request, best of 3)",
            {"clients", "wall (ms)", "queries/s", "p50 (ms)", "p99 (ms)",
             "vs 1 client"});
  for (const ClientsRow& row : panel.rows) {
    out.AddRow({Table::Int(row.clients), Table::Num(row.wall_millis, 1),
                Table::Num(row.qps, 0), Table::Num(row.p50_millis, 3),
                Table::Num(row.p99_millis, 3),
                Table::Num(row.qps / std::max(1e-9, panel.rows.front().qps),
                           2) +
                    "x"});
  }
  out.Print();
  std::printf("\n");
  return panel;
}

// Fast-path panel: the case-decomposition fast path for fixed-length
// edit distance vs the pivotal q-gram filter, same dataset, one thread,
// best of `kRepeats` self-joins each. Parity (identical pair lists) is
// recorded rather than asserted here so the JSON always carries the
// verdict — main() exits nonzero after writing it if parity failed. The
// candidate reduction is the pivotal filter's verified-candidate count
// over the fast path's: how much banded-DP work the decomposition saves.
struct FastPathPanel {
  int records = 0;
  int length = 0;
  int tau = 0;
  int64_t pairs = 0;
  double fast_millis = 0;
  double pivotal_millis = 0;
  double speedup = 0;
  int64_t fast_candidates = 0;
  int64_t pivotal_candidates = 0;
  double candidate_reduction = 0;
  bool parity = false;
};

FastPathPanel RunFastPathPanel() {
  datagen::StringConfig config;
  config.num_records = bench::Scaled(20000);
  config.fixed_length = 16;
  config.duplicate_fraction = 0.35;
  config.max_perturb_edits = 2;
  config.seed = 9007;
  std::printf("[fast path] generating %d fixed-length strings...\n",
              config.num_records);
  const auto records = datagen::GenerateStrings(config);

  api::IndexSpec fast_spec;
  fast_spec.domain = api::Domain::kEdit;
  fast_spec.tau = 2;
  fast_spec.chain_length = 3;
  fast_spec.edit_fast_path = api::EditFastPath::kOn;
  api::IndexSpec pivotal_spec = fast_spec;
  pivotal_spec.edit_fast_path = api::EditFastPath::kOff;
  api::Db fast_db = bench::BenchUnwrap(
      api::Db::Open(fast_spec, api::Dataset(records)), "open fast path");
  api::Db pivotal_db = bench::BenchUnwrap(
      api::Db::Open(pivotal_spec, api::Dataset(records)), "open pivotal");

  FastPathPanel panel;
  panel.records = static_cast<int>(records.size());
  panel.length = config.fixed_length;
  panel.tau = static_cast<int>(fast_spec.tau);
  const int kRepeats = 3;
  api::RunOptions options;
  options.num_threads = 1;
  api::Session fast_session = fast_db.NewSession();
  api::Session pivotal_session = pivotal_db.NewSession();
  std::vector<engine::IdPair> fast_pairs, pivotal_pairs;
  for (int r = 0; r < kRepeats; ++r) {
    auto fast =
        bench::BenchUnwrap(fast_session.SelfJoin(options), "fast join");
    panel.fast_millis = r == 0 ? fast.stats.total_millis
                               : std::min(panel.fast_millis,
                                          fast.stats.total_millis);
    panel.fast_candidates = fast.stats.candidates;
    fast_pairs = std::move(fast.pairs);
    auto pivotal =
        bench::BenchUnwrap(pivotal_session.SelfJoin(options), "pivotal join");
    panel.pivotal_millis = r == 0 ? pivotal.stats.total_millis
                                  : std::min(panel.pivotal_millis,
                                             pivotal.stats.total_millis);
    panel.pivotal_candidates = pivotal.stats.candidates;
    pivotal_pairs = std::move(pivotal.pairs);
  }
  panel.pairs = static_cast<int64_t>(fast_pairs.size());
  panel.parity = fast_pairs == pivotal_pairs;
  panel.speedup = panel.pivotal_millis / std::max(1e-9, panel.fast_millis);
  panel.candidate_reduction =
      static_cast<double>(panel.pivotal_candidates) /
      std::max<int64_t>(1, panel.fast_candidates);

  Table out("fast-path panel: case decomposition vs pivotal q-gram filter "
            "(fixed-length strings self-join, 1 thread, best of 3)",
            {"records", "length", "tau", "pairs", "pivotal (ms)", "fast (ms)",
             "speedup", "cand. reduction", "parity"});
  out.AddRow({Table::Int(panel.records), Table::Int(panel.length),
              Table::Int(panel.tau), Table::Int(panel.pairs),
              Table::Num(panel.pivotal_millis, 1),
              Table::Num(panel.fast_millis, 1),
              Table::Num(panel.speedup, 2) + "x",
              Table::Num(panel.candidate_reduction, 1) + "x",
              panel.parity ? "ok" : "DIVERGED"});
  out.Print();
  std::printf("\n");
  return panel;
}

// Storage panel: the persistent index format, priced per domain. Each row
// builds an index from raw records (the cold path a saved index replaces),
// saves it (serialization throughput), and re-opens it (open latency: file
// read + checksum verification + bulk adoption of every section — nothing
// is re-derived). Before any number is reported the loaded snapshot must
// reproduce the built one's self-join byte-for-byte; a divergence is a
// correctness bug in the format, not a measurement artifact, and aborts.
struct StorageRow {
  std::string name;
  int records = 0;
  double build_millis = 0;
  double save_millis = 0;
  double open_millis = 0;
  double file_mb = 0;
  int64_t pairs = 0;
};

StorageRow MeasureStorage(const std::string& name, const api::IndexSpec& spec,
                          api::Dataset dataset) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / ("pigeonring_bench_" + name + ".pgri"))
          .string();
  StorageRow row;
  row.name = name;

  StopWatch watch;
  api::Db built = bench::BenchUnwrap(api::Db::Open(spec, std::move(dataset)),
                                     ("build " + name).c_str());
  row.build_millis = watch.ElapsedMillis();
  row.records = built.num_records();

  watch.Restart();
  const Status saved = built.Save(path);
  row.save_millis = watch.ElapsedMillis();
  if (!saved.ok()) {
    std::fprintf(stderr, "FATAL: save %s: %s\n", name.c_str(),
                 saved.ToString().c_str());
    std::exit(1);
  }
  row.file_mb = static_cast<double>(fs::file_size(path)) / (1024.0 * 1024.0);

  watch.Restart();
  api::Db loaded = bench::BenchUnwrap(api::Db::OpenIndex(spec, path),
                                      ("open " + name).c_str());
  row.open_millis = watch.ElapsedMillis();

  api::Session built_session = built.NewSession();
  api::Session loaded_session = loaded.NewSession();
  const api::JoinResult built_join =
      bench::BenchUnwrap(built_session.SelfJoin(), "built join");
  const api::JoinResult loaded_join =
      bench::BenchUnwrap(loaded_session.SelfJoin(), "loaded join");
  if (loaded_join.pairs != built_join.pairs ||
      loaded_join.stats.candidates != built_join.stats.candidates) {
    std::fprintf(stderr,
                 "FATAL: %s loaded snapshot diverged from the built one\n",
                 name.c_str());
    std::exit(1);
  }
  row.pairs = built_join.stats.pairs;
  fs::remove(path);
  return row;
}

std::vector<StorageRow> RunStoragePanel() {
  std::vector<StorageRow> rows;
  {
    datagen::BinaryVectorConfig config;
    config.dimensions = 128;
    config.num_objects = bench::Scaled(20000);
    config.num_clusters = bench::Scaled(500);
    config.cluster_fraction = 0.5;
    config.flip_rate = 0.05;
    config.bit_bias = 0.3;
    config.seed = 9001;
    api::IndexSpec spec;
    spec.domain = api::Domain::kHamming;
    spec.tau = 8;
    spec.chain_length = 4;
    rows.push_back(MeasureStorage(
        "hamming", spec,
        api::Dataset(datagen::GenerateBinaryVectors(config))));
  }
  {
    datagen::TokenSetConfig config;
    config.num_records = bench::Scaled(20000);
    config.avg_tokens = 14;
    config.universe_size = bench::Scaled(20000);
    config.duplicate_fraction = 0.35;
    config.seed = 9002;
    api::IndexSpec spec;
    spec.domain = api::Domain::kSet;
    spec.tau = 0.8;
    spec.chain_length = 2;
    rows.push_back(MeasureStorage(
        "sets", spec, api::Dataset(datagen::GenerateTokenSets(config))));
  }
  {
    datagen::StringConfig config;
    config.num_records = bench::Scaled(20000);
    config.avg_length = 16;
    config.duplicate_fraction = 0.35;
    config.max_perturb_edits = 2;
    config.seed = 9003;
    api::IndexSpec spec;
    spec.domain = api::Domain::kEdit;
    spec.tau = 2;
    spec.chain_length = 3;
    rows.push_back(MeasureStorage(
        "strings", spec, api::Dataset(datagen::GenerateStrings(config))));
  }
  {
    datagen::GraphConfig config;
    config.num_graphs = bench::Scaled(800);
    config.avg_vertices = 10;
    config.avg_edges = 11;
    config.vertex_labels = 20;
    config.edge_labels = 3;
    config.duplicate_fraction = 0.4;
    config.max_perturb_ops = 2;
    config.seed = 9004;
    api::IndexSpec spec;
    spec.domain = api::Domain::kGraph;
    spec.tau = 2;
    spec.chain_length = 2;
    rows.push_back(MeasureStorage(
        "graphs", spec, api::Dataset(datagen::GenerateGraphs(config))));
  }

  Table out("storage panel: build vs save vs open "
            "(loaded snapshot verified byte-identical before timing counts)",
            {"domain", "records", "build (ms)", "save (ms)", "file (MB)",
             "save MB/s", "open (ms)", "open vs rebuild"});
  for (const StorageRow& row : rows) {
    out.AddRow(
        {row.name, Table::Int(row.records), Table::Num(row.build_millis, 1),
         Table::Num(row.save_millis, 1), Table::Num(row.file_mb, 2),
         Table::Num(row.file_mb / std::max(1e-9, row.save_millis) * 1000.0,
                    1),
         Table::Num(row.open_millis, 1),
         Table::Num(row.build_millis / std::max(1e-9, row.open_millis), 1) +
             "x"});
  }
  out.Print();
  std::printf("\n");
  return rows;
}

// Churn panel: the writer/epoch machinery under load. Three measurements:
//
//  1. delta vs compacted reads (deterministic, auto-compaction off): the
//     same query batch through a snapshot carrying the whole insert pool
//     as a pending delta, then again after Writer::Compact folds it in.
//     The candidate gap is the price of the brute-force delta scan that
//     compaction retires.
//  2. concurrent churn: one writer inserts the pool (with removals mixed
//     in) under a small delta_compact_threshold so background compactions
//     publish repeatedly, while reader threads hammer fresh Sessions with
//     the query batch. Reports insert throughput, observed compactions,
//     and client-side read p50/p99 over the churn window.
//  3. quiesce self-check: after the churn the delta is compacted and the
//     database is compared against a cold Db::Open over its own records
//     (reconstructed via RecordQuery) — Save bytes, self-join pairs and
//     candidates must all match. Written to the JSON as
//     `quiesce_matches_rebuild`; main() exits nonzero when it fails.
struct ChurnPanel {
  int base_records = 0;
  int pool_records = 0;
  int inserts = 0;
  int removals = 0;
  int64_t compactions = 0;
  double insert_qps = 0;
  double read_p50_millis = 0;
  double read_p99_millis = 0;
  int64_t delta_candidates = 0;
  int64_t compacted_candidates = 0;
  double delta_batch_millis = 0;
  double compacted_batch_millis = 0;
  bool quiesce_matches_rebuild = false;
};

ChurnPanel RunChurnPanel() {
  datagen::BinaryVectorConfig config;
  config.dimensions = 128;
  config.num_objects = bench::Scaled(20000) + bench::Scaled(4000);
  config.num_clusters = bench::Scaled(500);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = 9008;
  const auto objects = datagen::GenerateBinaryVectors(config);
  ChurnPanel panel;
  panel.base_records = bench::Scaled(20000);
  panel.pool_records = static_cast<int>(objects.size()) - panel.base_records;
  const std::vector<BitVector> base(objects.begin(),
                                    objects.begin() + panel.base_records);
  const std::vector<BitVector> pool(objects.begin() + panel.base_records,
                                    objects.end());

  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 4;
  spec.num_threads = 1;

  std::vector<api::Query> request;
  {
    Rng rng(9009);
    for (int i = 0; i < bench::Scaled(50); ++i) {
      request.push_back(
          base[rng.NextBounded(static_cast<uint64_t>(base.size()))]);
    }
  }

  // 1. Delta vs compacted reads, deterministic: auto-compaction disabled,
  // the whole pool rides as a pending delta.
  {
    api::IndexSpec manual = spec;
    manual.delta_compact_threshold = 0;
    api::Db db = bench::BenchUnwrap(api::Db::Open(manual, api::Dataset(base)),
                                    "open churn base");
    auto writer = bench::BenchUnwrap(db.NewWriter(), "churn writer");
    for (const BitVector& record : pool) {
      bench::BenchUnwrap(writer.Insert(api::Query(record)), "delta insert");
    }
    api::Session delta_session = db.NewSession();
    StopWatch watch;
    auto delta_batch = bench::BenchUnwrap(delta_session.SearchBatch(request),
                                          "delta batch");
    panel.delta_batch_millis = watch.ElapsedMillis();
    panel.delta_candidates = delta_batch.stats.candidates;
    const Status compacted = writer.Compact();
    if (!compacted.ok()) {
      std::fprintf(stderr, "FATAL: churn compact: %s\n",
                   compacted.ToString().c_str());
      std::exit(1);
    }
    api::Session compacted_session = db.NewSession();
    watch.Restart();
    auto compacted_batch = bench::BenchUnwrap(
        compacted_session.SearchBatch(request), "compacted batch");
    panel.compacted_batch_millis = watch.ElapsedMillis();
    panel.compacted_candidates = compacted_batch.stats.candidates;
  }

  // 2. Concurrent churn: background compactions publish while readers
  // measure. The threshold splits the pool into ~8 compaction rounds.
  api::IndexSpec churn_spec = spec;
  churn_spec.delta_compact_threshold =
      std::max(16, panel.pool_records / 8);
  api::Db db = bench::BenchUnwrap(
      api::Db::Open(churn_spec, api::Dataset(base)), "open churn db");
  std::atomic<bool> stop(false);
  const int kReaders = 2;
  std::vector<std::vector<double>> read_latencies(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        api::Session session = db.NewSession();
        StopWatch request_watch;
        auto batch = session.SearchBatch(request);
        if (!batch.ok()) {
          std::fprintf(stderr, "FATAL: churn read: %s\n",
                       batch.status().ToString().c_str());
          std::exit(1);
        }
        read_latencies[r].push_back(request_watch.ElapsedMillis());
      }
    });
  }
  {
    auto writer = bench::BenchUnwrap(db.NewWriter(), "churn writer");
    StopWatch wall;
    int step = 0;
    for (const BitVector& record : pool) {
      if (step % 5 == 4) {
        // Ids renumber at every published compaction, so just target a
        // always-populated slot and accept the typed no-op.
        const Status removed = writer.Remove(step % writer.num_records());
        if (removed.ok()) ++panel.removals;
      }
      bench::BenchUnwrap(writer.Insert(api::Query(record)), "churn insert");
      ++panel.inserts;
      ++step;
    }
    panel.insert_qps =
        panel.inserts / std::max(1e-9, wall.ElapsedMillis()) * 1000.0;
    // ~Writer waits out the in-flight background compaction, if any.
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  panel.compactions = static_cast<int64_t>(db.epoch());
  std::vector<double> all;
  for (const auto& per_reader : read_latencies) {
    all.insert(all.end(), per_reader.begin(), per_reader.end());
  }
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    panel.read_p50_millis = all[all.size() / 2];
    panel.read_p99_millis = all[static_cast<size_t>(0.99 * (all.size() - 1))];
  }

  // 3. Quiesce and compare against a cold rebuild over the database's own
  // records.
  {
    auto writer = bench::BenchUnwrap(db.NewWriter(), "quiesce writer");
    const Status compacted = writer.Compact();
    if (!compacted.ok()) {
      std::fprintf(stderr, "FATAL: quiesce compact: %s\n",
                   compacted.ToString().c_str());
      std::exit(1);
    }
  }
  std::vector<BitVector> survivors;
  for (int i = 0; i < db.num_records(); ++i) {
    auto query = bench::BenchUnwrap(db.RecordQuery(i), "record query");
    survivors.push_back(std::get<BitVector>(query));
  }
  const api::Db cold = bench::BenchUnwrap(
      api::Db::Open(churn_spec, api::Dataset(survivors)), "cold rebuild");
  const auto save_bytes = [](const api::Db& snapshot,
                             const std::string& name) {
    namespace fs = std::filesystem;
    const std::string path = (fs::temp_directory_path() / name).string();
    const Status saved = snapshot.Save(path);
    if (!saved.ok()) {
      std::fprintf(stderr, "FATAL: churn save: %s\n",
                   saved.ToString().c_str());
      std::exit(1);
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    fs::remove(path);
    return buffer.str();
  };
  api::Session churned_session = db.NewSession();
  api::Session cold_session = cold.NewSession();
  const api::JoinResult churned_join =
      bench::BenchUnwrap(churned_session.SelfJoin(), "churned join");
  const api::JoinResult cold_join =
      bench::BenchUnwrap(cold_session.SelfJoin(), "cold join");
  panel.quiesce_matches_rebuild =
      save_bytes(db, "pigeonring_bench_churned.pgri") ==
          save_bytes(cold, "pigeonring_bench_cold.pgri") &&
      churned_join.pairs == cold_join.pairs &&
      churned_join.stats.candidates == cold_join.stats.candidates;

  Table out("churn panel: writer + background compaction vs readers "
            "(hamming, 2 reader threads, 1 thread per request)",
            {"base", "inserts", "removals", "insert/s", "compactions",
             "read p50 (ms)", "read p99 (ms)", "delta cand.",
             "compacted cand.", "quiesce"});
  out.AddRow({Table::Int(panel.base_records), Table::Int(panel.inserts),
              Table::Int(panel.removals), Table::Num(panel.insert_qps, 0),
              Table::Int(panel.compactions),
              Table::Num(panel.read_p50_millis, 3),
              Table::Num(panel.read_p99_millis, 3),
              Table::Int(panel.delta_candidates),
              Table::Int(panel.compacted_candidates),
              panel.quiesce_matches_rebuild ? "ok" : "DIVERGED"});
  out.Print();
  std::printf("\n");
  return panel;
}

// Net panel: the network service priced over loopback TCP. One
// net::Server wraps the Hamming Db; each row runs N client connections
// (own socket + thread each) issuing single-query searches back-to-back,
// round-robin over a sampled query pool — qps counts completed replies,
// latencies are client-observed round-trip times. The overload row
// restarts the service with max_inflight = 1 and hammers it from 4
// connections: the shed rate is the fraction of requests answered with
// the typed ResourceExhausted frame (admission control working, not an
// error). Self-check `net_matches_inprocess`: every TCP reply's ids must
// equal the in-process Session answer for the same query — recorded in
// the JSON, and main() exits nonzero after writing it on a mismatch.
struct NetRow {
  int connections = 0;
  double wall_millis = 0;
  double qps = 0;
  double p50_millis = 0;
  double p99_millis = 0;
};

struct NetPanel {
  int requests_per_connection = 0;
  int query_pool = 0;
  std::vector<NetRow> rows;
  long long overload_attempts = 0;
  long long overload_shed = 0;
  double overload_shed_rate = 0;
  bool net_matches_inprocess = false;
};

NetPanel RunNetPanel() {
  datagen::BinaryVectorConfig config;
  config.dimensions = 128;
  config.num_objects = bench::Scaled(20000);
  config.num_clusters = bench::Scaled(500);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = 9001;
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 4;
  spec.num_threads = 1;
  const api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec,
                    api::Dataset(datagen::GenerateBinaryVectors(config))),
      "open hamming");

  NetPanel panel;
  panel.query_pool = std::max(4, bench::Scaled(16));
  panel.requests_per_connection = std::max(20, bench::Scaled(400));
  std::vector<api::Query> pool;
  std::vector<std::vector<int>> expected;
  {
    Rng rng(9010);
    api::Session session = db.NewSession();
    for (int i = 0; i < panel.query_pool; ++i) {
      const int id = static_cast<int>(rng.NextBounded(db.num_records()));
      pool.push_back(bench::BenchUnwrap(db.RecordQuery(id), "sample query"));
      expected.push_back(
          bench::BenchUnwrap(session.Search(pool.back()), "reference search")
              .ids);
    }
  }

  bool matches = true;
  // One connection's timed workload; latencies in, mismatch flag out.
  const auto run_connection = [&](int port, std::vector<double>* latencies,
                                  std::atomic<bool>* ok) {
    auto client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      ok->store(false);
      return;
    }
    for (int r = 0; r < panel.requests_per_connection; ++r) {
      const int q = r % panel.query_pool;
      StopWatch watch;
      auto reply = client->Search(pool[q]);
      if (!reply.ok() || reply->ids != expected[q]) {
        ok->store(false);
        return;
      }
      latencies->push_back(watch.ElapsedMillis());
    }
  };

  {
    net::Server server = bench::BenchUnwrap(net::Server::Start(db),
                                            "start net server");
    for (int connections : {1, 2, 4}) {
      std::vector<std::vector<double>> latencies(connections);
      std::atomic<bool> ok(true);
      StopWatch wall;
      {
        std::vector<std::thread> threads;
        threads.reserve(connections);
        for (int c = 0; c < connections; ++c) {
          threads.emplace_back([&, c] {
            run_connection(server.port(), &latencies[c], &ok);
          });
        }
        for (std::thread& t : threads) t.join();
      }
      NetRow row;
      row.connections = connections;
      row.wall_millis = wall.ElapsedMillis();
      if (!ok.load()) matches = false;
      std::vector<double> all;
      for (const auto& per_conn : latencies) {
        all.insert(all.end(), per_conn.begin(), per_conn.end());
      }
      std::sort(all.begin(), all.end());
      if (!all.empty()) {
        row.p50_millis = all[all.size() / 2];
        row.p99_millis = all[static_cast<size_t>(0.99 * (all.size() - 1))];
      }
      row.qps = static_cast<double>(all.size()) /
                std::max(1e-9, row.wall_millis) * 1000.0;
      panel.rows.push_back(row);
    }
    server.Stop();
  }

  // Overload: max_inflight = 1, four connections hammering. Shed replies
  // are typed ResourceExhausted frames; anything else failing is a bug.
  {
    net::ServerOptions options;
    options.max_inflight = 1;
    net::Server server = bench::BenchUnwrap(net::Server::Start(db, options),
                                            "start overload server");
    const int kOverloadConns = 4;
    std::vector<long long> sheds(kOverloadConns, 0);
    std::atomic<bool> ok(true);
    {
      std::vector<std::thread> threads;
      threads.reserve(kOverloadConns);
      for (int c = 0; c < kOverloadConns; ++c) {
        threads.emplace_back([&, c] {
          auto client = net::Client::Connect("127.0.0.1", server.port());
          if (!client.ok()) {
            ok.store(false);
            return;
          }
          for (int r = 0; r < panel.requests_per_connection; ++r) {
            const int q = r % panel.query_pool;
            auto reply = client->Search(pool[q]);
            if (reply.ok()) {
              if (reply->ids != expected[q]) ok.store(false);
            } else if (reply.status().code() ==
                       StatusCode::kResourceExhausted) {
              ++sheds[c];
            } else {
              ok.store(false);
              return;
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    if (!ok.load()) matches = false;
    panel.overload_attempts =
        static_cast<long long>(kOverloadConns) * panel.requests_per_connection;
    for (long long shed : sheds) panel.overload_shed += shed;
    panel.overload_shed_rate =
        static_cast<double>(panel.overload_shed) /
        std::max<long long>(1, panel.overload_attempts);
    server.Stop();
  }
  panel.net_matches_inprocess = matches;

  Table out("net panel: loopback TCP service vs in-process sessions "
            "(hamming single-query searches, 1 thread per request)",
            {"connections", "wall (ms)", "requests/s", "p50 (ms)",
             "p99 (ms)", "identity"});
  for (const NetRow& row : panel.rows) {
    out.AddRow({Table::Int(row.connections), Table::Num(row.wall_millis, 1),
                Table::Num(row.qps, 0), Table::Num(row.p50_millis, 3),
                Table::Num(row.p99_millis, 3),
                panel.net_matches_inprocess ? "ok" : "DIVERGED"});
  }
  out.Print();
  std::printf("net overload (max_inflight = 1, 4 connections): "
              "%lld of %lld requests shed (%.1f%%)\n\n",
              panel.overload_shed, panel.overload_attempts,
              panel.overload_shed_rate * 100.0);
  return panel;
}

void WriteJson(const std::string& path,
               const std::vector<DomainResult>& results,
               const KernelPanel& kernel, const FacadePanel& facade,
               const ClientsPanel& clients,
               const std::vector<StorageRow>& storage,
               const FastPathPanel& fastpath, const ChurnPanel& churn,
               const NetPanel& net) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"engine_scaling\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", bench::Scale());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"kernel_isa\": \"%s\",\n", kernel.isa.c_str());
  std::fprintf(f,
               "  \"kernel_panel\": {\"dimensions\": %d, \"tau\": %d, "
               "\"baseline_ns_per_pair\": %.3f, \"kernel_ns_per_pair\": "
               "%.3f, \"speedup\": %.3f},\n",
               kernel.dimensions, kernel.tau, kernel.baseline_ns_per_pair,
               kernel.kernel_ns_per_pair, kernel.speedup);
  std::fprintf(f,
               "  \"facade_panel\": {\"queries\": %d, \"templated_millis\": "
               "%.3f, \"facade_millis\": %.3f, \"overhead_pct\": %.3f},\n",
               facade.num_queries, facade.templated_millis,
               facade.facade_millis, facade.overhead_pct);
  std::fprintf(f,
               "  \"clients_panel\": {\"queries_per_request\": %d, "
               "\"requests_per_client\": %d, \"rows\": [",
               clients.queries_per_request, clients.requests_per_client);
  for (size_t i = 0; i < clients.rows.size(); ++i) {
    const ClientsRow& row = clients.rows[i];
    std::fprintf(f,
                 "%s{\"clients\": %d, \"wall_millis\": %.3f, \"qps\": %.1f, "
                 "\"p50_millis\": %.4f, \"p99_millis\": %.4f}",
                 i == 0 ? "" : ", ", row.clients, row.wall_millis, row.qps,
                 row.p50_millis, row.p99_millis);
  }
  std::fprintf(f, "]},\n");
  std::fprintf(f, "  \"storage_panel\": [");
  for (size_t i = 0; i < storage.size(); ++i) {
    const StorageRow& row = storage[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"records\": %d, \"build_millis\": "
                 "%.3f, \"save_millis\": %.3f, \"open_millis\": %.3f, "
                 "\"file_mb\": %.3f, \"pairs\": %lld}",
                 i == 0 ? "" : ", ", row.name.c_str(), row.records,
                 row.build_millis, row.save_millis, row.open_millis,
                 row.file_mb, static_cast<long long>(row.pairs));
  }
  std::fprintf(f, "],\n");
  std::fprintf(f,
               "  \"strings_fastpath_panel\": {\"records\": %d, \"length\": "
               "%d, \"tau\": %d, \"pairs\": %lld, \"pivotal_millis\": %.3f, "
               "\"fast_millis\": %.3f, \"speedup\": %.3f, "
               "\"pivotal_candidates\": %lld, \"fast_candidates\": %lld, "
               "\"candidate_reduction\": %.3f, \"parity\": %s},\n",
               fastpath.records, fastpath.length, fastpath.tau,
               static_cast<long long>(fastpath.pairs),
               fastpath.pivotal_millis, fastpath.fast_millis,
               fastpath.speedup,
               static_cast<long long>(fastpath.pivotal_candidates),
               static_cast<long long>(fastpath.fast_candidates),
               fastpath.candidate_reduction,
               fastpath.parity ? "true" : "false");
  std::fprintf(f,
               "  \"churn_panel\": {\"base_records\": %d, \"inserts\": %d, "
               "\"removals\": %d, \"insert_qps\": %.1f, \"compactions\": "
               "%lld, \"read_p50_millis\": %.4f, \"read_p99_millis\": %.4f, "
               "\"delta_candidates\": %lld, \"compacted_candidates\": %lld, "
               "\"delta_batch_millis\": %.3f, \"compacted_batch_millis\": "
               "%.3f, \"quiesce_matches_rebuild\": %s},\n",
               churn.base_records, churn.inserts, churn.removals,
               churn.insert_qps, static_cast<long long>(churn.compactions),
               churn.read_p50_millis, churn.read_p99_millis,
               static_cast<long long>(churn.delta_candidates),
               static_cast<long long>(churn.compacted_candidates),
               churn.delta_batch_millis, churn.compacted_batch_millis,
               churn.quiesce_matches_rebuild ? "true" : "false");
  std::fprintf(f,
               "  \"net_panel\": {\"requests_per_connection\": %d, "
               "\"query_pool\": %d, \"rows\": [",
               net.requests_per_connection, net.query_pool);
  for (size_t i = 0; i < net.rows.size(); ++i) {
    const NetRow& row = net.rows[i];
    std::fprintf(f,
                 "%s{\"connections\": %d, \"wall_millis\": %.3f, "
                 "\"qps\": %.1f, \"p50_millis\": %.4f, \"p99_millis\": "
                 "%.4f}",
                 i == 0 ? "" : ", ", row.connections, row.wall_millis,
                 row.qps, row.p50_millis, row.p99_millis);
  }
  std::fprintf(f,
               "], \"overload\": {\"max_inflight\": 1, \"attempts\": %lld, "
               "\"shed\": %lld, \"shed_rate\": %.4f}, "
               "\"net_matches_inprocess\": %s},\n",
               net.overload_attempts, net.overload_shed,
               net.overload_shed_rate,
               net.net_matches_inprocess ? "true" : "false");
  // Per-timing speedups are vs the sequential row of the same domain;
  // `oversubscribed` marks rows asking for more threads than the machine
  // has, where flat speedup is expected rather than a regression.
  const unsigned hardware = std::thread::hardware_concurrency();
  std::fprintf(f, "  \"domains\": [\n");
  for (size_t d = 0; d < results.size(); ++d) {
    const DomainResult& r = results[d];
    std::fprintf(f, "    {\"name\": \"%s\", \"pairs\": %lld, \"timings\": [",
                 r.name.c_str(), static_cast<long long>(r.pairs));
    const double base_millis =
        r.timings.empty() ? 0 : r.timings.front().millis;
    for (size_t t = 0; t < r.timings.size(); ++t) {
      std::fprintf(
          f,
          "%s{\"threads\": %d, \"millis\": %.3f, "
          "\"speedup_vs_1thread\": %.3f, \"oversubscribed\": %s}",
          t == 0 ? "" : ", ", r.timings[t].threads, r.timings[t].millis,
          base_millis / std::max(1e-9, r.timings[t].millis),
          static_cast<unsigned>(r.timings[t].threads) > hardware ? "true"
                                                                 : "false");
    }
    std::fprintf(f, "]}%s\n", d + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  std::printf("== Engine scaling: parallel self-join across domains ==\n");
  std::printf("(hardware threads: %u; speedups saturate at that count)\n\n",
              std::thread::hardware_concurrency());
  std::vector<DomainResult> results;
  results.push_back(RunHamming());
  results.push_back(RunSets());
  results.push_back(RunStrings());
  results.push_back(RunGraphs());
  const KernelPanel kernel = RunKernelPanel();
  const FacadePanel facade = RunFacadePanel();
  const ClientsPanel clients = RunClientsPanel();
  const std::vector<StorageRow> storage = RunStoragePanel();
  const FastPathPanel fastpath = RunFastPathPanel();
  const ChurnPanel churn = RunChurnPanel();
  const NetPanel net = RunNetPanel();
  if (!json_path.empty()) {
    WriteJson(json_path, results, kernel, facade, clients, storage,
              fastpath, churn, net);
  }
  // The self-check verdicts are written to the JSON above even on failure
  // so downstream tooling sees `false` rather than a missing file.
  if (!fastpath.parity) {
    std::fprintf(stderr,
                 "FATAL: fast-path self-join diverged from pivotal\n");
    return 1;
  }
  if (!churn.quiesce_matches_rebuild) {
    std::fprintf(stderr,
                 "FATAL: quiesced churn database diverged from a cold "
                 "rebuild over its own records\n");
    return 1;
  }
  if (!net.net_matches_inprocess) {
    std::fprintf(stderr,
                 "FATAL: TCP search replies diverged from in-process "
                 "sessions\n");
    return 1;
  }
  return 0;
}
