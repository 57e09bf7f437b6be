// join: offline deduplication. Four databases, one per domain, are built
// with Db::Open and self-joined with Session::SelfJoin at two threads, in
// rounds, for the run's duration.
#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "api/db.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "editdist/pivotal.h"
#include "graphed/pars.h"
#include "hamming/search.h"
#include "ladder.h"
#include "net/server.h"
#include "setsim/pkwise.h"
#include "setsim/record.h"
#include "workloads.h"

namespace perfbench {

namespace api = pigeonring::api;
namespace datagen = pigeonring::datagen;
namespace net = pigeonring::net;
using pigeonring::BitVector;
using pigeonring::Rng;

namespace {

constexpr int kThreads = 2;
constexpr int kSetupReps = 9;
constexpr int kLadderRequests = 24;
constexpr int kLadderBatch = 16;
// Rounds take 0.1-0.15 s. A window needs 21 rounds for ten beyond its
// median and 42 for ten beyond its p75, so 4 s and 8 s windows (five per
// 40 s run) qualify for rounds up to 0.19 s.
constexpr double kP50WindowS = 4;
constexpr double kTailWindowS = 8;

enum DomainIndex { kHamming, kSets, kStrings, kGraphs, kNumDomains };
constexpr std::array<const char*, kNumDomains> kNames = {"hamming", "sets",
                                                         "strings", "graphs"};
constexpr std::array<const char*, kNumDomains> kJoinSpans = {
    "api.self_join.hamming", "api.self_join.sets", "api.self_join.strings",
    "api.self_join.graphs"};
// Records per domain, and records per domain checked against the oracle
// (graph edit distance is by far the dearest exhaustive scan).
constexpr std::array<int, kNumDomains> kRecords = {8000, 16000, 4000, 600};
constexpr std::array<int, kNumDomains> kOracleRecords = {16, 16, 16, 4};
constexpr int kSources = 4;

struct Data {
  std::vector<BitVector> vectors;
  std::vector<std::vector<int>> sets;
  std::vector<std::string> strings;
  std::vector<pigeonring::graphed::Graph> graphs;
};

Data Generate(uint64_t seed) {
  Data data;
  datagen::BinaryVectorConfig vectors;
  vectors.dimensions = 128;
  vectors.num_objects = kRecords[kHamming];
  vectors.seed = seed;
  data.vectors = datagen::GenerateBinaryVectors(vectors);
  datagen::TokenSetConfig sets;
  sets.num_records = kRecords[kSets];
  sets.seed = seed;
  data.sets = datagen::GenerateTokenSets(sets);
  // Strings and graphs come from several independently seeded sources:
  // one source's syllable or label inventory can double its join's work,
  // and a mix keeps that from dominating a seed.
  for (int k = 0; k < kSources; ++k) {
    datagen::StringConfig strings;
    strings.num_records = kRecords[kStrings] / kSources;
    strings.seed = seed * kSources + k;
    for (std::string& s : datagen::GenerateStrings(strings)) {
      data.strings.push_back(std::move(s));
    }
    datagen::GraphConfig graphs;
    graphs.num_graphs = kRecords[kGraphs] / kSources;
    graphs.seed = seed * kSources + k;
    for (auto& g : datagen::GenerateGraphs(graphs)) data.graphs.push_back(std::move(g));
  }
  return data;
}

api::IndexSpec Spec(int domain) {
  api::IndexSpec spec;
  switch (domain) {
    case kHamming:
      spec.domain = api::Domain::kHamming;
      spec.tau = kHammingTau;
      spec.chain_length = kHammingChain;
      break;
    case kSets:
      spec.domain = api::Domain::kSet;
      spec.tau = 0.8;
      spec.chain_length = 2;
      break;
    case kStrings:
      // Variable-length strings on the pivotal q-gram (Ring) path of §6.3.
      spec.domain = api::Domain::kEdit;
      spec.tau = 2;
      spec.chain_length = 3;
      spec.edit_fast_path = api::EditFastPath::kOff;
      break;
    default:
      spec.domain = api::Domain::kGraph;
      spec.tau = 2;
      spec.chain_length = 2;
      break;
  }
  return spec;
}

api::Dataset DatasetOf(const Data& data, int domain) {
  switch (domain) {
    case kHamming:
      return api::Dataset(data.vectors);
    case kSets:
      return api::Dataset(data.sets);
    case kStrings:
      return api::Dataset(data.strings);
    default:
      return api::Dataset(data.graphs);
  }
}

// Exhaustive partners of record `r` (excluding r itself).
std::vector<int> OraclePartners(const Data& data, int domain, int r,
                                const pigeonring::setsim::SetCollection& sets) {
  std::vector<int> ids;
  switch (domain) {
    case kHamming:
      ids = pigeonring::hamming::BruteForceSearch(data.vectors, data.vectors[r],
                                                 kHammingTau);
      break;
    case kSets:
      ids = pigeonring::setsim::BruteForceJaccardSearch(sets, sets.record(r), 0.8);
      break;
    case kStrings:
      ids = pigeonring::editdist::BruteForceEditSearch(data.strings,
                                                       data.strings[r], 2);
      break;
    default:
      ids = pigeonring::graphed::BruteForceGedSearch(data.graphs, data.graphs[r], 2);
      break;
  }
  ids.erase(std::remove(ids.begin(), ids.end(), r), ids.end());
  return Sorted(std::move(ids));
}

std::vector<int> JoinPartners(const std::vector<api::IdPair>& pairs, int r) {
  std::vector<int> ids;
  for (const api::IdPair& p : pairs) {
    if (p.first == r) ids.push_back(p.second);
    if (p.second == r) ids.push_back(p.first);
  }
  return Sorted(std::move(ids));
}

struct DomainRun {
  Samples wall_s;
  Samples cpu_util;
  int64_t candidates = -1;
  int64_t pairs = -1;
  std::vector<api::IdPair> first_pairs;
};

struct PhaseResult {
  std::array<DomainRun, kNumDomains> domains;
  TimedSamples round_ms;  // stamped with the round's start
  double join_wall_s = 0;
  int64_t probes = 0;
  int64_t joins = 0;
};

PhaseResult RunPhase(std::array<api::Session, kNumDomains>& sessions,
                     double seconds, Tracer* tracer, Report& report) {
  PhaseResult phase;
  const api::RunOptions options{kThreads, -1};
  const auto start = Clock::now();
  for (uint64_t round = 0;
       Clock::now() - start < std::chrono::duration<double>(seconds); ++round) {
    const uint64_t span_id = Tracer::RequestSpanId(round);
    const auto round_start = Clock::now();
    double round_ms = 0;
    for (int d = 0; d < kNumDomains; ++d) {
      DomainRun& run = phase.domains[d];
      const double cpu0 = ProcessCpuSeconds();
      const auto t0 = Clock::now();
      auto joined = [&] {
        ScopedSpan span(tracer, kJoinSpans[d], span_id, round);
        return sessions[d].SelfJoin(options);
      }();
      const double wall = Seconds(Clock::now() - t0);
      const double cpu = ProcessCpuSeconds() - cpu0;
      ++phase.joins;
      if (!joined.ok()) {
        report.CallFailed(std::string("SelfJoin ") + kNames[d] + ": " +
                          joined.status().ToString());
        continue;
      }
      run.wall_s.Add(wall);
      run.cpu_util.Add(cpu / (wall * kThreads));
      round_ms += wall * 1000;
      phase.join_wall_s += wall;
      phase.probes += sessions[d].num_records();
      if (run.pairs < 0) {
        run.pairs = joined->stats.pairs;
        run.candidates = joined->stats.candidates;
        run.first_pairs = std::move(joined->pairs);
      } else if (joined->stats.pairs != run.pairs ||
                 joined->stats.candidates != run.candidates) {
        report.WrongAnswer(std::string("SelfJoin ") + kNames[d] +
                           " changed its counts between rounds");
      }
    }
    if (tracer != nullptr) {
      tracer->Record({span_id, 0, round, "round", round_start, Clock::now()});
    }
    phase.round_ms.Add(Seconds(round_start - start), round_ms);
  }
  return phase;
}

}  // namespace

Report RunJoin(const Options& options) {
  Report report;
  const Data data = Generate(options.seed);

  // Set-up: the four Db::Open builds, several times; the last are kept.
  Samples setup_s;
  std::array<Samples, kNumDomains> build_s;
  std::array<std::optional<api::Db>, kNumDomains> dbs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double total = 0;
    for (int d = 0; d < kNumDomains; ++d) {
      dbs[d].reset();
      api::Dataset dataset = DatasetOf(data, d);
      const auto t0 = Clock::now();
      dbs[d] = Unwrap(api::Db::Open(Spec(d), std::move(dataset)), "Db::Open");
      const double s = Seconds(Clock::now() - t0);
      build_s[d].Add(s);
      total += s;
    }
    setup_s.Add(total);
  }
  std::array<api::Session, kNumDomains> sessions = {
      dbs[0]->NewSession(), dbs[1]->NewSession(), dbs[2]->NewSession(),
      dbs[3]->NewSession()};

  const PhaseResult phase =
      RunPhase(sessions, PhaseSeconds(options), nullptr, report);
  report.attempted += phase.joins;

  Tracer tracer;
  if (options.trace) {
    const PhaseResult traced =
        RunPhase(sessions, PhaseSeconds(options), &tracer, report);
    report.attempted += traced.joins;
    report.Layer("trace.overhead_pct",
                 OverheadPct(phase.round_ms.Windowed(kP50WindowS, 0.5),
                             traced.round_ms.Windowed(kP50WindowS, 0.5)),
                 "%");
    // The join's probes are its records: replay seeded groups of them as
    // 16-query batches under the first traced round.
    Rng pick(options.seed + 77);
    std::vector<LadderRequest> ladder(kLadderRequests);
    for (LadderRequest& lr : ladder) {
      lr.request = 0;
      for (int k = 0; k < kLadderBatch; ++k) {
        lr.queries.push_back(data.vectors[pick.NextBounded(data.vectors.size())]);
      }
    }
    net::Server server =
        Unwrap(net::Server::Start(*dbs[kHamming]), "Server::Start");
    RunLadder(*dbs[kHamming], server, data.vectors, ladder, options.seed, &tracer,
              report);
    ReportServerSnapshot(server, report);
  }

  // Oracle: seeded records' partners in each domain's pair list.
  const pigeonring::setsim::SetCollection set_collection(data.sets);
  Rng rng(options.seed * 31 + 5);
  int64_t checked = 0;
  for (int d = 0; d < kNumDomains; ++d) {
    for (int k = 0; k < kOracleRecords[d]; ++k) {
      const int r = static_cast<int>(rng.NextBounded(kRecords[d]));
      ++checked;
      ++report.attempted;
      if (OraclePartners(data, d, r, set_collection) !=
          JoinPartners(phase.domains[d].first_pairs, r)) {
        report.WrongAnswer(std::string("join ") + kNames[d] + " record " +
                           std::to_string(r) + " partners differ from the oracle");
      }
    }
  }

  double records = 0;
  for (int n : kRecords) records += n;
  report.E2e("setup_s", setup_s.Median(), "s");
  report.E2e("p50_ms", phase.round_ms.Windowed(kP50WindowS, 0.5), "ms");
  report.E2e("tail_ms", phase.round_ms.Windowed(kTailWindowS, 0.75), "ms");
  report.E2e("qps", phase.probes / std::max(phase.join_wall_s, 1e-9), "queries/s");
  const Samples& rounds = phase.round_ms.all();
  report.Layer("latency.run_tail_ms", rounds.Percentile(rounds.TailLevel()), "ms");
  for (int d = 0; d < kNumDomains; ++d) {
    const std::string name = kNames[d];
    const DomainRun& run = phase.domains[d];
    report.Layer("join_s." + name, run.wall_s.Median(), "s");
    report.Layer("engine.join_cpu_util." + name, run.cpu_util.Median(), "ratio");
    report.Layer("engine.join_candidates." + name,
                 static_cast<double>(run.candidates), "count");
    report.Layer("engine.join_pairs." + name, static_cast<double>(run.pairs),
                 "count");
    report.Layer("api.build_s." + name, build_s[d].Median(), "s");
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "join: %zu rounds of %d records; run-wide round p50 %.1f ms, "
                "p90 %.1f ms; %lld records' partners checked against the oracle",
                phase.round_ms.all().size(), static_cast<int>(records),
                phase.round_ms.all().Median(), phase.round_ms.all().Percentile(0.9),
                static_cast<long long>(checked));
  report.Note(line);
  if (options.trace) FinishTrace(options, tracer, report);
  return report;
}

}  // namespace perfbench
