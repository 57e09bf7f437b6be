// Figure 9: GPH vs Ring on Hamming distance search across thresholds.
//
// GIST-like: tau = 8..64 step 8; SIFT-like: tau = 16..128 step 16 (the
// paper's sweep ranges). Ring uses the paper's best chain length (l = 5).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "datagen/binary_vectors.h"
#include "hamming/search.h"

namespace {

using namespace pigeonring;

void RunPanel(const char* name, int dimensions, int tau_step, int tau_max,
              uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = dimensions;
  config.num_objects = bench::Scaled(100000);
  config.num_clusters = bench::Scaled(2000);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = seed;
  std::printf("[%s] generating %d codes (d = %d)...\n", name,
              config.num_objects, dimensions);
  auto objects = datagen::GenerateBinaryVectors(config);
  auto queries =
      datagen::SampleQueries(objects, bench::Scaled(100), seed + 1);
  hamming::HammingSearcher searcher(std::move(objects));

  Table table(std::string(name) + ": GPH (l=1) vs Ring (l=5), avg per query",
              {"tau", "GPH cand.", "Ring cand.", "results", "GPH time (ms)",
               "Ring time (ms)", "speedup"});
  for (int tau = tau_step; tau <= tau_max; tau += tau_step) {
    bench::Avg gph_cand, ring_cand, results, gph_ms, ring_ms;
    for (const auto& q : queries) {
      hamming::SearchStats stats;
      searcher.Search(q, tau, 1, hamming::AllocationMode::kCostModel,
                      &stats);
      gph_cand.Add(static_cast<double>(stats.candidates));
      gph_ms.Add(stats.total_millis);
      searcher.Search(q, tau, 5, hamming::AllocationMode::kCostModel,
                      &stats);
      ring_cand.Add(static_cast<double>(stats.candidates));
      ring_ms.Add(stats.total_millis);
      results.Add(static_cast<double>(stats.results));
    }
    table.AddRow({Table::Int(tau), Table::Num(gph_cand.Mean(), 1),
                  Table::Num(ring_cand.Mean(), 1),
                  Table::Num(results.Mean(), 1), Table::Num(gph_ms.Mean(), 4),
                  Table::Num(ring_ms.Mean(), 4),
                  Table::Num(gph_ms.Mean() / std::max(1e-9, ring_ms.Mean()),
                             2) +
                      "x"});
  }
  table.Print();
  std::printf("\n");
}

// Engine extension (not in the paper): the same workload as a parallel
// self-join through the public api::Db facade, sequential vs multi-threaded.
void RunJoinPanel() {
  datagen::BinaryVectorConfig config;
  config.dimensions = 128;
  config.num_objects = bench::Scaled(20000);
  config.num_clusters = bench::Scaled(500);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = 1003;
  std::printf("[join] generating %d codes (d = %d)...\n", config.num_objects,
              config.dimensions);
  auto objects = datagen::GenerateBinaryVectors(config);
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 4;
  api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec, api::Dataset(std::move(objects))), "open hamming");
  bench::RunDbJoinScalingTable(
      "Hamming self-join (tau = 8, l = 4): Db thread scaling", db, {2, 4});
}

}  // namespace

int main() {
  std::printf("== Figure 9: comparison on Hamming distance search ==\n\n");
  RunPanel("GIST-like", 256, 8, 64, 1001);
  RunPanel("SIFT-like", 512, 16, 128, 2002);
  RunJoinPanel();
  std::printf(
      "Paper shape check: Ring candidates are a subset of GPH's at every\n"
      "threshold; the speedup grows with tau and is larger on the\n"
      "higher-dimensional dataset (more expensive verification).\n");
  return 0;
}
