// pigeonring_cli — generate datasets, build persistent indexes, run
// thresholded similarity searches, and run self-joins from the command
// line.
//
// Usage:
//   pigeonring_cli gen    <vectors|sets|strings|graphs> --out FILE
//       [--n N] [--seed S] [--dim D] [--bias B] [--avg A] [--fixed L]
//   pigeonring_cli build  <hamming|sets|strings|graphs> --data FILE
//       --out INDEX --tau T [--measure jaccard|overlap] [--kappa K]
//       [--fast-path auto|on|off]
//   pigeonring_cli search <hamming|sets|strings|graphs>
//       (--data FILE | --index INDEX)
//       --tau T [--chain L] [--queries N] [--measure jaccard|overlap]
//       [--kappa K] [--fast-path auto|on|off] [--alloc uniform|costmodel]
//       [--threads N] [--clients N] [--stats kv]
//   pigeonring_cli join <hamming|sets|strings|graphs>
//       (--data FILE | --index INDEX)
//       --tau T [--chain L] [--measure jaccard|overlap] [--kappa K]
//       [--fast-path auto|on|off] [--alloc uniform|costmodel] [--threads N]
//       [--clients N] [--stats kv] [--print N]
//   pigeonring_cli insert <hamming|sets|strings|graphs> --index INDEX
//       --data FILE --tau T [--out INDEX2]
//       [--measure jaccard|overlap] [--kappa K] [--fast-path auto|on|off]
//   pigeonring_cli remove <hamming|sets|strings|graphs> --index INDEX
//       --ids 3,17,42 --tau T [--out INDEX2]
//       [--measure jaccard|overlap] [--kappa K] [--fast-path auto|on|off]
//   pigeonring_cli compact <hamming|sets|strings|graphs> --index INDEX
//       --tau T [--out INDEX2]
//       [--measure jaccard|overlap] [--kappa K] [--fast-path auto|on|off]
//   pigeonring_cli serve  <hamming|sets|strings|graphs>
//       (--data FILE | --index INDEX) --tau T [--chain L] [--port P]
//       [--host H] [--max-inflight N] [--measure jaccard|overlap]
//       [--kappa K] [--fast-path auto|on|off] [--alloc uniform|costmodel]
//       [--threads N]
//
// `serve` opens the database like search/join and exposes it over TCP via
// the net/ subsystem's length-prefixed binary protocol (net/protocol.h).
// --port 0 (the default) binds an ephemeral port; the chosen port is
// announced on stdout as `serving <kind> on <host>:<port> (...)` — a
// stable, parseable line. --max-inflight caps concurrently executing
// search/join/mutation ops; excess requests are shed with typed
// ResourceExhausted error frames rather than queued. SIGINT/SIGTERM stop
// the server gracefully: in-flight ops drain and deliver their replies
// before the process exits and prints its admission counters.
// pigeonring_loadgen (tools/pigeonring_loadgen.cc) is the matching
// load-generating client.
//
// `build` indexes a raw dataset once and persists the built state in the
// storage layer's container format (storage/index_file.h); `search` /
// `join` with --index serve from such a file without re-deriving anything
// — the spec flags must repeat the build-relevant values (--tau, and
// --measure / --kappa where they apply), or the library rejects the open
// with a typed kFailedPrecondition. Query-time flags (--chain, --alloc,
// --threads, --clients) are free to differ from build time. Results are
// byte-identical between --data and --index serving.
//
// --fast-path (strings only) selects the fixed-length case-decomposition
// index: `on` demands a fixed-length dataset (a mixed-length dataset under
// `on` is a usage error, exit 2), `off` forces the pivotal q-gram path,
// and `auto` (default) lets the library's advisor decide; the resolved
// choice is reported as stat.fast_path under --stats kv. Result ids and
// pairs are byte-identical across all three modes — only the candidate
// counters and timings move.
//
// `insert` / `remove` / `compact` mutate a persisted index through the
// library's api::Writer surface. `insert` appends every record of a raw
// dataset file; `remove` drops the given record ids (comma-separated; a
// nonexistent id is the library's typed kNotFound, exit 1); both write the
// compacted merged state back to --index (or --out, leaving the input
// untouched). `compact` rewrites the index in its canonical compacted form
// — a cheap open/verify/rewrite cycle, since a persisted index never
// carries pending mutations. Like search/join with --index, the spec flags
// must repeat the build-relevant values.
//
// `search` samples N query objects from the dataset (the paper's protocol)
// and prints per-query averages; `join` reports all result pairs. With
// --chain 1 every command runs the pigeonhole baseline; larger values
// enable the pigeonring filter. Both commands build an api::IndexSpec from
// the flags and run through api::Db + api::Session — the same facade
// library users get: --threads N spreads each call over N threads,
// --clients N runs the workload from N concurrent client threads (one
// Session each) over one shared Db and verifies their results are
// byte-identical (exit 1 otherwise) — results never depend on either
// flag. --stats kv replaces the human-readable summary with
// machine-readable key=value lines; search's stat.query_millis_sum sums
// per-query times (so it exceeds the wall clock when queries run in
// parallel), join's stat.join_millis is one client's join driver time, and
// stat.wall_millis is true wall clock over ALL clients' requests (for
// search, stat.served_queries / stat.wall_millis is the throughput —
// with N clients the wall covers N executions of the batch).
//
// Exit codes: 0 on success; 1 when the library reports a typed Status
// error (invalid spec, unreadable dataset, corrupt or mismatched index
// file) or concurrent clients diverge; 2 for usage errors (unknown
// command, unknown or misplaced flags, malformed numeric values).

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/db.h"
#include "common/random.h"
#include "common/table.h"
#include "common/timer.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "editdist/casedec.h"
#include "io/dataset_io.h"
#include "kernels/kernels.h"
#include "net/server.h"
#include "storage/index_file.h"

#include "flag_parser.h"

namespace {

using namespace pigeonring;
using tools::Check;
using tools::Flags;
using tools::Unwrap;

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pigeonring_cli gen    <vectors|sets|strings|graphs> --out FILE\n"
      "                        [--n N] [--seed S] [--dim D] [--bias B]\n"
      "                        [--avg A] [--fixed L]\n"
      "  pigeonring_cli build  <hamming|sets|strings|graphs> --data FILE\n"
      "                        --out INDEX --tau T\n"
      "                        [--measure jaccard|overlap] [--kappa K]\n"
      "                        [--fast-path auto|on|off]\n"
      "  pigeonring_cli search <hamming|sets|strings|graphs>\n"
      "                        (--data FILE | --index INDEX)\n"
      "                        --tau T [--chain L] [--queries N] [--seed S]\n"
      "                        [--measure jaccard|overlap] [--kappa K]\n"
      "                        [--fast-path auto|on|off]\n"
      "                        [--alloc uniform|costmodel]\n"
      "                        [--threads N] [--clients N] [--stats kv]\n"
      "  pigeonring_cli join   <hamming|sets|strings|graphs>\n"
      "                        (--data FILE | --index INDEX)\n"
      "                        --tau T [--chain L]\n"
      "                        [--measure jaccard|overlap] [--kappa K]\n"
      "                        [--fast-path auto|on|off]\n"
      "                        [--alloc uniform|costmodel]\n"
      "                        [--threads N] [--clients N] [--stats kv]\n"
      "                        [--print N]\n"
      "  pigeonring_cli insert <hamming|sets|strings|graphs> --index INDEX\n"
      "                        --data FILE --tau T [--out INDEX2]\n"
      "                        [--measure jaccard|overlap] [--kappa K]\n"
      "                        [--fast-path auto|on|off]\n"
      "  pigeonring_cli remove <hamming|sets|strings|graphs> --index INDEX\n"
      "                        --ids 3,17,42 --tau T [--out INDEX2]\n"
      "                        [--measure jaccard|overlap] [--kappa K]\n"
      "                        [--fast-path auto|on|off]\n"
      "  pigeonring_cli compact <hamming|sets|strings|graphs> --index "
      "INDEX\n"
      "                        --tau T [--out INDEX2]\n"
      "                        [--measure jaccard|overlap] [--kappa K]\n"
      "                        [--fast-path auto|on|off]\n"
      "  pigeonring_cli serve  <hamming|sets|strings|graphs>\n"
      "                        (--data FILE | --index INDEX)\n"
      "                        --tau T [--chain L] [--port P] [--host H]\n"
      "                        [--max-inflight N]\n"
      "                        [--measure jaccard|overlap] [--kappa K]\n"
      "                        [--fast-path auto|on|off]\n"
      "                        [--alloc uniform|costmodel] [--threads N]\n");
  std::exit(2);
}

/// The flag vocabulary of one command/domain combination.
std::set<std::string> AllowedFlags(const std::string& command,
                                   const std::string& kind) {
  if (command == "gen") {
    std::set<std::string> allowed = {"out", "n", "seed"};
    if (kind == "vectors") {
      allowed.insert("dim");
      allowed.insert("bias");
    } else {
      allowed.insert("avg");
    }
    if (kind == "strings") allowed.insert("fixed");
    return allowed;
  }
  if (command == "build") {
    std::set<std::string> allowed = {"data", "out", "tau"};
    if (kind == "sets") allowed.insert("measure");
    if (kind == "strings") {
      allowed.insert("kappa");
      allowed.insert("fast-path");
    }
    return allowed;
  }
  if (command == "insert" || command == "remove" || command == "compact") {
    std::set<std::string> allowed = {"index", "tau", "out"};
    if (command == "insert") allowed.insert("data");
    if (command == "remove") allowed.insert("ids");
    if (kind == "sets") allowed.insert("measure");
    if (kind == "strings") {
      allowed.insert("kappa");
      allowed.insert("fast-path");
    }
    return allowed;
  }
  if (command == "serve") {
    std::set<std::string> allowed = {"data",  "index",   "tau",
                                     "chain", "threads", "port",
                                     "host",  "max-inflight"};
    if (kind == "hamming") allowed.insert("alloc");
    if (kind == "sets") allowed.insert("measure");
    if (kind == "strings") {
      allowed.insert("kappa");
      allowed.insert("fast-path");
    }
    return allowed;
  }
  std::set<std::string> allowed = {"data",    "index",   "tau",
                                   "chain",   "seed",    "threads",
                                   "clients", "stats"};
  if (command == "search") allowed.insert("queries");
  if (command == "join") allowed.insert("print");
  if (kind == "hamming") allowed.insert("alloc");
  if (kind == "sets") allowed.insert("measure");
  if (kind == "strings") {
    allowed.insert("kappa");
    allowed.insert("fast-path");
  }
  return allowed;
}

/// Resolves the (--data FILE | --index INDEX) alternative of search/join
/// into an opened Db: --data builds from raw, --index bulk-loads a
/// persisted index (strictly — a non-index file under --index is an
/// error, not a fallback to the dataset loaders).
api::Db OpenFromFlags(const api::IndexSpec& spec, const Flags& flags) {
  const std::string data = flags.Get("data", "");
  const std::string index = flags.Get("index", "");
  if (data.empty() == index.empty()) {
    std::fprintf(stderr, "exactly one of --data or --index is required\n");
    std::exit(2);
  }
  if (!index.empty()) return Unwrap(api::Db::OpenIndex(spec, index));
  return Unwrap(api::Db::Open(spec, data));
}

/// Parses --fast-path (default auto); an unknown value is a usage error.
api::EditFastPath FastPathFromFlags(const Flags& flags) {
  const std::string value = flags.Get("fast-path", "auto");
  auto mode = api::ParseEditFastPath(value);
  if (!mode.ok()) {
    std::fprintf(stderr, "unknown --fast-path mode '%s' (allowed: auto, on, "
                         "off)\n",
                 value.c_str());
    std::exit(2);
  }
  return mode.value();
}

/// --fast-path on is part of the flag contract, not a property the user
/// discovers after a full index build: when the dataset is raw (--data) and
/// readable, a mixed-length collection under `on` is rejected up front as
/// a usage error (exit 2), like any other invalid flag/data combination.
/// Unreadable files and --index serving fall through — the library's typed
/// errors (exit 1) cover those.
void CheckFastPathUsable(const api::IndexSpec& spec, const Flags& flags) {
  if (spec.domain != api::Domain::kEdit ||
      spec.edit_fast_path != api::EditFastPath::kOn) {
    return;
  }
  const std::string data = flags.Get("data", "");
  if (data.empty() || storage::LooksLikeIndexFile(data)) return;
  auto strings = io::LoadStrings(data);
  if (!strings.ok()) return;
  if (!editdist::CaseDecSearcher::Eligible(*strings)) {
    std::fprintf(stderr,
                 "--fast-path on requires a fixed-length dataset: every "
                 "string in %s must share one length in [1, %d]\n",
                 data.c_str(), editdist::CaseDecSearcher::kMaxLength);
    std::exit(2);
  }
}

/// True iff --stats kv was requested; any other --stats value exits 2.
bool StatsKv(const Flags& flags) {
  const std::string stats = flags.Get("stats", "");
  if (stats.empty()) return false;
  if (stats == "kv") return true;
  std::fprintf(stderr, "unknown --stats mode '%s' (supported: kv)\n",
               stats.c_str());
  std::exit(2);
}

int RunGen(const std::string& kind, const Flags& flags) {
  const std::string out = flags.Require("out");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int n = static_cast<int>(flags.GetInt("n", 10000));
  if (kind == "vectors") {
    datagen::BinaryVectorConfig config;
    config.num_objects = n;
    config.dimensions = static_cast<int>(flags.GetInt("dim", 256));
    config.num_clusters = std::max(1, n / 50);
    config.bit_bias = flags.GetDouble("bias", 0.0);
    config.seed = seed;
    Check(io::SaveBitVectors(out, datagen::GenerateBinaryVectors(config)));
  } else if (kind == "sets") {
    datagen::TokenSetConfig config;
    config.num_records = n;
    config.avg_tokens = static_cast<int>(flags.GetInt("avg", 14));
    config.universe_size = std::max(100, n);
    config.seed = seed;
    Check(io::SaveTokenSets(out, datagen::GenerateTokenSets(config)));
  } else if (kind == "strings") {
    datagen::StringConfig config;
    config.num_records = n;
    config.avg_length = static_cast<int>(flags.GetInt("avg", 16));
    config.fixed_length = static_cast<int>(flags.GetInt("fixed", 0));
    config.seed = seed;
    Check(io::SaveStrings(out, datagen::GenerateStrings(config)));
  } else if (kind == "graphs") {
    datagen::GraphConfig config;
    config.num_graphs = n;
    config.avg_vertices = static_cast<int>(flags.GetInt("avg", 12));
    config.avg_edges = config.avg_vertices + 1;
    config.seed = seed;
    Check(io::SaveGraphs(out, datagen::GenerateGraphs(config)));
  } else {
    Usage();
  }
  std::printf("wrote %d objects to %s\n", n, out.c_str());
  return 0;
}

int RunBuild(const std::string& kind, const Flags& flags) {
  api::IndexSpec spec;
  auto domain = api::ParseDomain(kind);
  if (!domain.ok()) Usage();
  spec.domain = domain.value();
  spec.tau = flags.RequireDouble("tau");
  spec.kappa = static_cast<int>(flags.GetInt("kappa", 2));
  if (spec.domain == api::Domain::kEdit) {
    spec.edit_fast_path = FastPathFromFlags(flags);
  }
  const std::string measure = flags.Get("measure", "jaccard");
  if (measure == "jaccard") {
    spec.measure = setsim::SetMeasure::kJaccard;
  } else if (measure == "overlap") {
    spec.measure = setsim::SetMeasure::kOverlap;
  } else {
    std::fprintf(stderr, "unknown --measure '%s'\n", measure.c_str());
    std::exit(2);
  }
  CheckFastPathUsable(spec, flags);
  const api::Db db = Unwrap(api::Db::Open(spec, flags.Require("data")));
  const std::string out = flags.Require("out");
  Check(db.Save(out));
  std::printf("indexed %d objects into %s\n", db.num_records(), out.c_str());
  return 0;
}

/// The spec an insert/remove/compact invocation opens its index under:
/// the build-relevant flags (--tau, --measure, --kappa, --fast-path) must
/// repeat the build's values, exactly like search/join with --index.
api::IndexSpec MutationSpecFromFlags(const std::string& kind,
                                     const Flags& flags) {
  api::IndexSpec spec;
  auto domain = api::ParseDomain(kind);
  if (!domain.ok()) Usage();
  spec.domain = domain.value();
  spec.tau = flags.RequireDouble("tau");
  spec.kappa = static_cast<int>(flags.GetInt("kappa", 2));
  if (spec.domain == api::Domain::kEdit) {
    spec.edit_fast_path = FastPathFromFlags(flags);
  }
  const std::string measure = flags.Get("measure", "jaccard");
  if (measure == "jaccard") {
    spec.measure = setsim::SetMeasure::kJaccard;
  } else if (measure == "overlap") {
    spec.measure = setsim::SetMeasure::kOverlap;
  } else {
    std::fprintf(stderr, "unknown --measure '%s'\n", measure.c_str());
    std::exit(2);
  }
  return spec;
}

/// Loads the raw dataset `path` in `kind`'s format as a list of
/// insertable records. Set records stay raw token ids — Writer::Insert
/// maps them through the index's dictionary like any other raw SetQuery.
std::vector<api::Query> LoadInsertRecords(const std::string& kind,
                                          const std::string& path) {
  std::vector<api::Query> records;
  if (kind == "hamming") {
    for (auto& vector : Unwrap(io::LoadBitVectors(path))) {
      records.emplace_back(std::move(vector));
    }
  } else if (kind == "sets") {
    for (auto& tokens : Unwrap(io::LoadTokenSets(path))) {
      records.emplace_back(api::SetQuery{std::move(tokens), false});
    }
  } else if (kind == "strings") {
    for (auto& text : Unwrap(io::LoadStrings(path))) {
      records.emplace_back(std::move(text));
    }
  } else {
    for (auto& graph : Unwrap(io::LoadGraphs(path))) {
      records.emplace_back(std::move(graph));
    }
  }
  return records;
}

/// Parses the --ids comma list strictly: every token must be a whole
/// integer, and an empty list is a usage error.
std::vector<int> ParseIdList(const std::string& value) {
  std::vector<int> ids;
  size_t pos = 0;
  while (pos <= value.size()) {
    const size_t comma = value.find(',', pos);
    const std::string token =
        value.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(token.c_str(), &end, 10);
    if (token.empty() || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "--ids expects comma-separated integers, got '%s'\n",
                   value.c_str());
      std::exit(2);
    }
    ids.push_back(static_cast<int>(parsed));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return ids;
}

int RunInsert(const std::string& kind, const Flags& flags) {
  const api::IndexSpec spec = MutationSpecFromFlags(kind, flags);
  const std::string index = flags.Require("index");
  const api::Db db = Unwrap(api::Db::OpenIndex(spec, index));
  const std::vector<api::Query> records =
      LoadInsertRecords(kind, flags.Require("data"));
  api::Writer writer = Unwrap(db.NewWriter());
  for (size_t i = 0; i < records.size(); ++i) {
    auto id = writer.Insert(records[i]);
    if (!id.ok()) {
      std::fprintf(stderr, "error: record %zu: %s\n", i,
                   id.status().ToString().c_str());
      std::exit(1);
    }
  }
  // Save serializes the compacted merged state even while the delta is
  // pending, so no explicit Compact() is needed before persisting.
  const std::string out = flags.Get("out", index);
  Check(db.Save(out));
  std::printf("inserted %zu records into %s (%d records total)\n",
              records.size(), out.c_str(), db.num_records());
  return 0;
}

int RunRemove(const std::string& kind, const Flags& flags) {
  const api::IndexSpec spec = MutationSpecFromFlags(kind, flags);
  const std::string index = flags.Require("index");
  const api::Db db = Unwrap(api::Db::OpenIndex(spec, index));
  const std::vector<int> ids = ParseIdList(flags.Require("ids"));
  api::Writer writer = Unwrap(db.NewWriter());
  for (int id : ids) Check(writer.Remove(id));
  // Removals do not shrink the id space until compaction packs the
  // survivors; compact before reporting so the count matches the file.
  Check(writer.Compact());
  const std::string out = flags.Get("out", index);
  Check(db.Save(out));
  std::printf("removed %zu records from %s (%d records remain)\n", ids.size(),
              out.c_str(), db.num_records());
  return 0;
}

int RunCompact(const std::string& kind, const Flags& flags) {
  const api::IndexSpec spec = MutationSpecFromFlags(kind, flags);
  const std::string index = flags.Require("index");
  const api::Db db = Unwrap(api::Db::OpenIndex(spec, index));
  api::Writer writer = Unwrap(db.NewWriter());
  Check(writer.Compact());
  const std::string out = flags.Get("out", index);
  Check(db.Save(out));
  std::printf("compacted %s (%d records)\n", out.c_str(), db.num_records());
  return 0;
}

std::vector<int> SampleQueryIds(int count, int population, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(static_cast<int>(rng.NextBounded(population)));
  }
  return ids;
}

/// Builds the declarative spec every search/join flag maps into; the Db
/// layer owns all further validation.
api::IndexSpec SpecFromFlags(const std::string& kind, const Flags& flags,
                             int default_chain) {
  api::IndexSpec spec;
  auto domain = api::ParseDomain(kind);
  if (!domain.ok()) Usage();
  spec.domain = domain.value();
  spec.tau = flags.RequireDouble("tau");
  spec.chain_length =
      static_cast<int>(flags.GetInt("chain", default_chain));
  spec.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  spec.kappa = static_cast<int>(flags.GetInt("kappa", 2));
  if (spec.domain == api::Domain::kEdit) {
    spec.edit_fast_path = FastPathFromFlags(flags);
  }
  const std::string measure = flags.Get("measure", "jaccard");
  if (measure == "jaccard") {
    spec.measure = setsim::SetMeasure::kJaccard;
  } else if (measure == "overlap") {
    spec.measure = setsim::SetMeasure::kOverlap;
  } else {
    std::fprintf(stderr, "unknown --measure '%s'\n", measure.c_str());
    std::exit(2);
  }
  const std::string alloc = flags.Get("alloc", "costmodel");
  if (alloc == "uniform") {
    spec.allocation = hamming::AllocationMode::kUniform;
  } else if (alloc == "costmodel") {
    spec.allocation = hamming::AllocationMode::kCostModel;
  } else {
    std::fprintf(stderr, "unknown --alloc '%s'\n", alloc.c_str());
    std::exit(2);
  }
  return spec;
}

/// Runs `work` (one client's whole workload, through its own Session) from
/// `clients` concurrent threads over the shared `db`. Every client must
/// succeed and `same` must hold between client 0's result and every
/// other's — concurrent sessions are contractually byte-identical, so a
/// divergence is a library bug and exits 1. Returns client 0's result and
/// stores the wall-clock time of the whole fan-out in `wall_millis`.
template <typename Result>
Result RunClients(const api::Db& db, int clients,
                  const std::function<StatusOr<Result>(api::Session&)>& work,
                  const std::function<bool(const Result&, const Result&)>& same,
                  double* wall_millis) {
  StopWatch watch;
  std::vector<std::optional<StatusOr<Result>>> outs(clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&db, &work, &outs, c] {
        api::Session session = db.NewSession();
        outs[c].emplace(work(session));
      });
    }
    for (std::thread& t : threads) t.join();
  }
  *wall_millis = watch.ElapsedMillis();
  Result first = Unwrap(std::move(*outs[0]));
  for (int c = 1; c < clients; ++c) {
    const Result other = Unwrap(std::move(*outs[c]));
    if (!same(first, other)) {
      std::fprintf(stderr, "error: client %d diverged from client 0\n", c);
      std::exit(1);
    }
  }
  return first;
}

/// Parses --clients (>= 1; anything else is a usage error).
int ClientCount(const Flags& flags) {
  const int clients = static_cast<int>(flags.GetInt("clients", 1));
  if (clients < 1) {
    std::fprintf(stderr, "--clients expects a count >= 1, got %d\n", clients);
    std::exit(2);
  }
  return clients;
}

int RunSearch(const std::string& kind, const Flags& flags) {
  const int num_queries = static_cast<int>(flags.GetInt("queries", 100));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool stats_kv = StatsKv(flags);
  const int clients = ClientCount(flags);
  const api::IndexSpec spec = SpecFromFlags(kind, flags, 1);
  CheckFastPathUsable(spec, flags);

  const api::Db db = OpenFromFlags(spec, flags);
  if (db.num_records() == 0) {
    std::fprintf(stderr, "empty dataset\n");
    return 1;
  }
  std::vector<api::Query> queries;
  for (int id : SampleQueryIds(num_queries, db.num_records(), seed)) {
    queries.push_back(Unwrap(db.RecordQuery(id)));
  }
  double wall_millis = 0;
  const api::BatchResult batch = RunClients<api::BatchResult>(
      db, clients,
      [&queries](api::Session& session) {
        return session.SearchBatch(queries);
      },
      [](const api::BatchResult& a, const api::BatchResult& b) {
        return a.ids == b.ids;
      },
      &wall_millis);
  const engine::QueryStats& totals = batch.stats;
  const int executed = static_cast<int>(queries.size());

  if (stats_kv) {
    std::printf("stat.command=search\n");
    std::printf("stat.kind=%s\n", kind.c_str());
    std::printf("stat.threads=%d\n", spec.num_threads);
    std::printf("stat.clients=%d\n", clients);
    std::printf("stat.kernel_isa=%s\n",
                kernels::IsaName(kernels::ActiveIsa()));
    std::printf("stat.queries=%d\n", executed);
    // Every client runs the whole batch, so the wall clock below covers
    // served_queries = clients * queries — the matching numerator for
    // throughput math.
    std::printf("stat.served_queries=%d\n", executed * clients);
    std::printf("stat.candidates=%lld\n",
                static_cast<long long>(totals.candidates));
    std::printf("stat.results=%lld\n",
                static_cast<long long>(totals.results));
    if (spec.domain == api::Domain::kEdit) {
      // The resolved choice (never "auto" here: Open pins it down).
      std::printf("stat.fast_path=%s\n",
                  api::EditFastPathName(db.spec().edit_fast_path));
      std::printf("stat.fast_path_candidates=%lld\n",
                  static_cast<long long>(totals.fast_path_candidates));
      std::printf("stat.fast_path_hits=%lld\n",
                  static_cast<long long>(totals.fast_path_hits));
    }
    std::printf("stat.query_millis_sum=%.4f\n", totals.total_millis);
    std::printf("stat.wall_millis=%.4f\n", wall_millis);
  } else {
    Table table("search " + kind + " tau=" + flags.Require("tau") +
                    " chain=" + Table::Int(spec.chain_length) +
                    " threads=" + Table::Int(spec.num_threads) +
                    " clients=" + Table::Int(clients),
                {"queries", "avg candidates", "avg results", "avg time (ms)",
                 "wall (ms)"});
    table.AddRow(
        {Table::Int(executed),
         Table::Num(static_cast<double>(totals.candidates) / executed, 1),
         Table::Num(static_cast<double>(totals.results) / executed, 1),
         Table::Num(totals.total_millis / executed, 4),
         Table::Num(wall_millis, 1)});
    table.Print();
  }
  return 0;
}

int RunJoin(const std::string& kind, const Flags& flags) {
  const bool stats_kv = StatsKv(flags);
  const int clients = ClientCount(flags);
  const api::IndexSpec spec = SpecFromFlags(kind, flags, 2);
  CheckFastPathUsable(spec, flags);

  const api::Db db = OpenFromFlags(spec, flags);
  double wall_millis = 0;
  const api::JoinResult join = RunClients<api::JoinResult>(
      db, clients,
      [](api::Session& session) { return session.SelfJoin(); },
      [](const api::JoinResult& a, const api::JoinResult& b) {
        return a.pairs == b.pairs &&
               a.stats.candidates == b.stats.candidates;
      },
      &wall_millis);
  const engine::JoinStats& stats = join.stats;
  const std::vector<api::IdPair>& pairs = join.pairs;

  if (stats_kv) {
    std::printf("stat.command=join\n");
    std::printf("stat.kind=%s\n", kind.c_str());
    std::printf("stat.threads=%d\n", spec.num_threads);
    std::printf("stat.clients=%d\n", clients);
    std::printf("stat.kernel_isa=%s\n",
                kernels::IsaName(kernels::ActiveIsa()));
    std::printf("stat.pairs=%lld\n", static_cast<long long>(stats.pairs));
    std::printf("stat.candidates=%lld\n",
                static_cast<long long>(stats.candidates));
    if (spec.domain == api::Domain::kEdit) {
      std::printf("stat.fast_path=%s\n",
                  api::EditFastPathName(db.spec().edit_fast_path));
    }
    std::printf("stat.join_millis=%.4f\n", stats.total_millis);
    std::printf("stat.wall_millis=%.4f\n", wall_millis);
  } else {
    std::printf(
        "pairs: %lld (candidates: %lld, threads: %d, clients: %d, %.1f ms)\n",
        static_cast<long long>(stats.pairs),
        static_cast<long long>(stats.candidates), spec.num_threads, clients,
        wall_millis);
  }
  const int limit = static_cast<int>(flags.GetInt("print", 20));
  for (int i = 0; i < std::min<int>(limit, pairs.size()); ++i) {
    std::printf("%d %d\n", pairs[i].first, pairs[i].second);
  }
  if (static_cast<int>(pairs.size()) > limit) {
    std::printf("... (%zu total, raise --print to see more)\n", pairs.size());
  }
  return 0;
}

// Signal-driven shutdown for `serve`: the handlers only set a flag (the
// async-signal-safe minimum); the main thread polls it and drives the
// graceful Server::Stop() drain.
volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int RunServe(const std::string& kind, const Flags& flags) {
  const api::IndexSpec spec = SpecFromFlags(kind, flags, 2);
  CheckFastPathUsable(spec, flags);
  const api::Db db = OpenFromFlags(spec, flags);

  net::ServerOptions options;
  options.host = flags.Get("host", "127.0.0.1");
  const long long port = flags.GetInt("port", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--port expects a port in [0, 65535], got %lld\n",
                 port);
    std::exit(2);
  }
  options.port = static_cast<int>(port);
  const long long max_inflight = flags.GetInt("max-inflight", 64);
  if (max_inflight < 0) {
    std::fprintf(stderr, "--max-inflight expects a count >= 0, got %lld\n",
                 max_inflight);
    std::exit(2);
  }
  options.max_inflight = static_cast<int>(max_inflight);

  net::Server server = Unwrap(net::Server::Start(db, options));
  // Scripts (and the smoke tests) parse this line to learn the ephemeral
  // port — keep its shape stable.
  std::printf("serving %s on %s:%d (%d records)\n", kind.c_str(),
              options.host.c_str(), server.port(), db.num_records());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  const net::ServerStats stats = server.Snapshot();
  std::printf("shutdown: accepted=%lld shed=%lld protocol_errors=%lld\n",
              static_cast<long long>(stats.accepted),
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.protocol_errors));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) Usage();
  const std::string command = argv[1];
  const std::string kind = argv[2];
  if (command != "gen" && command != "build" && command != "search" &&
      command != "join" && command != "insert" && command != "remove" &&
      command != "compact" && command != "serve") {
    Usage();
  }
  const Flags flags(argc, argv, 3, AllowedFlags(command, kind));
  if (command == "gen") return RunGen(kind, flags);
  if (command == "build") return RunBuild(kind, flags);
  if (command == "search") return RunSearch(kind, flags);
  if (command == "insert") return RunInsert(kind, flags);
  if (command == "remove") return RunRemove(kind, flags);
  if (command == "compact") return RunCompact(kind, flags);
  if (command == "serve") return RunServe(kind, flags);
  return RunJoin(kind, flags);
}
