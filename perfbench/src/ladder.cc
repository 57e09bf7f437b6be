#include "ladder.h"

#include <algorithm>
#include <string>

#include "engine/engine.h"
#include "hamming/search.h"
#include "kernels/flat_bit_table.h"
#include "kernels/kernels.h"
#include "net/client.h"

namespace perfbench {

namespace api = pigeonring::api;
namespace engine = pigeonring::engine;
namespace hamming = pigeonring::hamming;
namespace kernels = pigeonring::kernels;
namespace net = pigeonring::net;
using pigeonring::BitVector;

namespace {

// Ids verified per query by the kernel rung.
constexpr int kVerifyIds = 1024;

std::vector<api::Query> AsQueries(const std::vector<BitVector>& vectors) {
  return std::vector<api::Query>(vectors.begin(), vectors.end());
}

// Times one call and records it as a span under `parent`.
template <typename F>
auto Timed(Tracer* tracer, const char* name, uint64_t parent, uint64_t request,
           Samples& micros, F&& call) {
  const auto start = Clock::now();
  auto result = [&] {
    ScopedSpan span(tracer, name, parent, request);
    return call();
  }();
  micros.Add(Micros(Clock::now() - start));
  return result;
}

}  // namespace

std::vector<int> Sorted(std::vector<int> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ReportServerSnapshot(const net::Server& server, Report& report) {
  const net::ServerStats stats = server.Snapshot();
  for (const net::OpStats& op : stats.ops) {
    if (op.op == static_cast<uint8_t>(net::Op::kSearch)) {
      report.Layer("net.server_us.search", op.p50_micros, "us");
    } else if (op.op == static_cast<uint8_t>(net::Op::kBatch)) {
      report.Layer("net.server_us.batch", op.p50_micros, "us");
    }
  }
  report.Layer("net.shed", static_cast<double>(stats.shed), "count");
  report.Layer("net.protocol_errors", static_cast<double>(stats.protocol_errors),
               "count");
}

void RunLadder(const api::Db& db, const net::Server& server,
               const std::vector<BitVector>& records,
               const std::vector<LadderRequest>& requests, uint64_t seed,
               Tracer* tracer, Report& report) {
  net::Client client =
      Unwrap(net::Client::Connect("127.0.0.1", server.port()), "ladder connect");
  engine::HammingAdapter adapter(hamming::HammingSearcher(records), kHammingTau,
                                 kHammingChain);
  hamming::HammingSearcher searcher = adapter.searcher();
  const kernels::FlatBitTable flat = kernels::FlatBitTable::FromVectors(records);
  engine::Executor executor(1);
  const engine::ExecutionContext context(executor, engine::ExecutionOptions{1, 8});
  pigeonring::Rng rng(seed ^ 0x1adde5ull);
  std::vector<int> verify_ids(kVerifyIds);
  std::vector<uint8_t> verdicts(kVerifyIds);

  Samples ping, rtt_search, rtt_batch, new_session, submit, search, batch,
      engine_batch, alloc, filter, filter_l1, verify_ns;
  int64_t candidates = 0, candidates_l1 = 0, results = 0, index_hits = 0,
          chain_checks = 0, num_queries = 0;

  // Every checked rung answer and every failed rung call counts as one
  // attempted operation.
  const auto call_failed = [&](const char* rung, const pigeonring::Status& status) {
    ++report.attempted;
    report.CallFailed(std::string("ladder ") + rung + ": " + status.ToString());
  };
  const auto expect = [&](const std::vector<int>& want,
                          const std::vector<int>& got, const char* rung,
                          uint64_t request) {
    ++report.attempted;
    if (Sorted(got) != want) {
      report.WrongAnswer(std::string("ladder rung ") + rung + " request " +
                         std::to_string(request) + ": " +
                         std::to_string(got.size()) + " ids, oracle has " +
                         std::to_string(want.size()));
    }
  };

  for (const LadderRequest& req : requests) {
    const uint64_t parent = Tracer::RequestSpanId(req.request);
    const uint64_t r = req.request;
    const std::vector<api::Query> queries = AsQueries(req.queries);
    std::vector<std::vector<int>> oracle;
    for (const BitVector& q : req.queries) {
      oracle.push_back(Sorted(hamming::BruteForceSearch(records, q, kHammingTau)));
    }

    Check(Timed(tracer, "net.ping", parent, r, ping, [&] { return client.Ping(); }),
          "ladder ping");
    api::Session session = Timed(tracer, "api.new_session", parent, r,
                                 new_session, [&] { return db.NewSession(); });
    for (size_t i = 0; i < queries.size(); ++i) {
      const api::Query& q = queries[i];
      auto net_reply = Timed(tracer, "net.search", parent, r, rtt_search,
                             [&] { return client.Search(q); });
      if (!net_reply.ok()) {
        call_failed("net.search", net_reply.status());
      } else {
        expect(oracle[i], net_reply->ids, "net.search", r);
      }
      auto submitted = Timed(tracer, "api.submit", parent, r, submit,
                             [&] { return session.SubmitBatch({q}).Get(); });
      if (!submitted.ok()) {
        call_failed("api.submit", submitted.status());
      } else {
        expect(oracle[i], submitted->ids.at(0), "api.submit", r);
      }
      auto single = Timed(tracer, "api.search", parent, r, search,
                          [&] { return session.Search(q); });
      if (!single.ok()) {
        call_failed("api.search", single.status());
      } else {
        expect(oracle[i], single->ids, "api.search", r);
      }

      const BitVector& v = req.queries[i];
      Timed(tracer, "hamming.alloc", parent, r, alloc, [&] {
        return searcher.AllocateThresholds(v, kHammingTau,
                                           hamming::AllocationMode::kCostModel);
      });
      hamming::SearchStats stats;
      auto ids = Timed(tracer, "hamming.search", parent, r, filter, [&] {
        return searcher.Search(v, kHammingTau, kHammingChain,
                               hamming::AllocationMode::kCostModel, &stats);
      });
      expect(oracle[i], ids, "hamming.search", r);
      hamming::SearchStats stats_l1;
      auto ids_l1 = Timed(tracer, "hamming.search_l1", parent, r, filter_l1, [&] {
        return searcher.Search(v, kHammingTau, 1, hamming::AllocationMode::kCostModel,
                               &stats_l1);
      });
      expect(oracle[i], ids_l1, "hamming.search_l1", r);
      candidates += stats.candidates;
      candidates_l1 += stats_l1.candidates;
      results += stats.results;
      index_hits += stats.index_hits;
      chain_checks += stats.chain_checks;
      ++num_queries;

      for (int& id : verify_ids) {
        id = static_cast<int>(rng.NextBounded(records.size()));
      }
      Samples verify_us;
      const int passed = Timed(tracer, "kernels.verify", parent, r, verify_us, [&] {
        return kernels::VerifyHammingLeqBatch(flat, v.words().data(), kHammingTau,
                                              verify_ids.data(), kVerifyIds,
                                              verdicts.data());
      });
      int want = 0;
      for (int id : verify_ids) want += records[id].HammingDistance(v) <= kHammingTau;
      ++report.attempted;
      if (passed != want) {
        report.WrongAnswer("ladder kernels.verify request " + std::to_string(r));
      }
      verify_ns.Add(verify_us.Sum() * 1000.0 / kVerifyIds);
    }

    if (queries.size() > 1) {
      const double per_query = 1.0 / static_cast<double>(queries.size());
      Samples call;
      auto net_batch = Timed(tracer, "net.batch", parent, r, rtt_batch,
                             [&] { return client.SearchBatch(queries); });
      if (!net_batch.ok()) {
        call_failed("net.batch", net_batch.status());
      } else {
        for (size_t i = 0; i < queries.size(); ++i) {
          expect(oracle[i], net_batch->ids[i], "net.batch", r);
        }
      }
      auto api_batch = Timed(tracer, "api.batch", parent, r, call,
                             [&] { return session.SearchBatch(queries); });
      batch.Add(call.Sum() * per_query);
      if (!api_batch.ok()) {
        call_failed("api.batch", api_batch.status());
      } else {
        for (size_t i = 0; i < queries.size(); ++i) {
          expect(oracle[i], api_batch->ids[i], "api.batch", r);
        }
      }
      Samples engine_call;
      auto engine_ids = Timed(tracer, "engine.batch", parent, r, engine_call, [&] {
        return engine::SearchBatch(adapter, req.queries, context);
      });
      engine_batch.Add(engine_call.Sum() * per_query);
      for (size_t i = 0; i < queries.size(); ++i) {
        expect(oracle[i], engine_ids[i], "engine.batch", r);
      }
    }
  }

  const double n = std::max<int64_t>(1, num_queries);
  report.Layer("net.ping_us", ping.Median(), "us");
  report.Layer("net.rtt_us.search", rtt_search.Median(), "us");
  report.Layer("net.rtt_us.batch", rtt_batch.Median(), "us");
  report.Layer("api.new_session_us", new_session.Median(), "us");
  report.Layer("api.submit_us", submit.Median(), "us");
  report.Layer("api.search_us", search.Median(), "us");
  report.Layer("api.batch_us", batch.Median(), "us");
  report.Layer("engine.search_batch_us", engine_batch.Median(), "us");
  report.Layer("hamming.alloc_us", alloc.Median(), "us");
  report.Layer("hamming.search_us", filter.Median(), "us");
  report.Layer("hamming.search_l1_us", filter_l1.Median(), "us");
  report.Layer("hamming.candidates", candidates / n, "count");
  report.Layer("hamming.candidates_l1", candidates_l1 / n, "count");
  report.Layer("hamming.ring_gain",
               candidates > 0 ? static_cast<double>(candidates_l1) / candidates : 1,
               "ratio");
  report.Layer("hamming.index_hits", index_hits / n, "count");
  report.Layer("hamming.chain_checks", chain_checks / n, "count");
  report.Layer("hamming.precision",
               candidates > 0 ? static_cast<double>(results) / candidates : 1,
               "ratio");
  report.Layer("kernels.verify_ns_per_pair", verify_ns.Median(), "ns");
  report.Note("ladder: " + std::to_string(requests.size()) + " requests, " +
              std::to_string(num_queries) + " queries replayed");
}

}  // namespace perfbench
