// Golden-file tests for the persistent index format: a tiny committed
// index per domain under tests/data/ must (a) still open and answer
// queries identically to an index rebuilt from the same raw records, and
// (b) be byte-identical to what today's writer emits for those records.
// (b) is the load-bearing half: any accidental encoding change — field
// order, alignment, map iteration order — flips the diff and forces a
// deliberate kFormatVersion bump instead of a silently unreadable corpus.
//
// Regenerating after an *intentional* format change:
//   PIGEONRING_REGEN_GOLDEN=1 ./storage_golden_test
// rewrites the committed files in the source tree, then re-verifies.
// golden_hamming_sharded.pgri is the exception: an earlier release wrote
// it, today's writer cannot, and regeneration leaves it alone.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "common/bitvector.h"
#include "graphed/graph.h"
#include "storage/index_file.h"
#include "test_scratch.h"

#ifndef PIGEONRING_TEST_DATA_DIR
#error "build must define PIGEONRING_TEST_DATA_DIR (see tests/CMakeLists.txt)"
#endif

namespace pigeonring::api {
namespace {

namespace fs = std::filesystem;

std::string DataPath(const std::string& name) {
  return (fs::path(PIGEONRING_TEST_DATA_DIR) / name).string();
}

// The golden datasets are spelled out literally — they must never drift,
// and at this size literals read better than generator configs.
std::vector<BitVector> GoldenVectors() {
  // 16-dimensional vectors, bit i of record r set iff patterns[r] has it.
  const std::vector<uint16_t> patterns = {
      0x0000, 0xFFFF, 0x00FF, 0xFF00, 0x0F0F, 0xF0F0,
      0x3333, 0xCCCC, 0x0001, 0x8000, 0x00FE, 0x7FFF,
  };
  std::vector<BitVector> vectors;
  for (uint16_t pattern : patterns) {
    BitVector v(16);
    for (int i = 0; i < 16; ++i) {
      if ((pattern >> i) & 1) v.Set(i, true);
    }
    vectors.push_back(std::move(v));
  }
  return vectors;
}

std::vector<std::vector<int>> GoldenSets() {
  return {
      {1, 2, 3, 4},  {1, 2, 3, 5},   {1, 2, 3, 4}, {7, 8, 9},
      {7, 8, 9, 10}, {2, 4, 6, 8},   {1, 3, 5, 7}, {11, 12},
      {11, 12, 13},  {1, 2, 3, 4, 5}, {6, 7, 8, 9}, {42},
  };
}

std::vector<std::string> GoldenStrings() {
  return {
      "pigeon",  "pigeons", "pigeonhole", "ring",  "rings", "wring",
      "holes",   "whole",   "pigeonring", "robin", "robins", "ping",
  };
}

std::vector<std::string> GoldenFixedStrings() {
  // One shared length (6) with substitution- and rotation-style
  // near-duplicates, so the fast-path index has non-trivial postings in
  // every indel case at tau = 2.
  return {
      "pigeon", "pigeop", "igeonp", "wrings", "wrings", "rrings",
      "holesz", "wholes", "robins", "robinz", "obinsr", "zzzzzz",
  };
}

std::vector<graphed::Graph> GoldenGraphs() {
  // Small labeled graphs: triangles, paths, and near-duplicates one edit
  // apart, so a tau=1 join has both matches and non-matches.
  auto triangle = [](int l0, int l1, int l2, int el) {
    graphed::Graph g;
    g.AddVertex(l0);
    g.AddVertex(l1);
    g.AddVertex(l2);
    g.AddEdge(0, 1, el);
    g.AddEdge(1, 2, el);
    g.AddEdge(0, 2, el);
    return g;
  };
  auto path3 = [](int l0, int l1, int l2, int el) {
    graphed::Graph g;
    g.AddVertex(l0);
    g.AddVertex(l1);
    g.AddVertex(l2);
    g.AddEdge(0, 1, el);
    g.AddEdge(1, 2, el);
    return g;
  };
  return {
      triangle(1, 1, 1, 0), triangle(1, 1, 2, 0), path3(1, 1, 1, 0),
      path3(1, 2, 1, 0),    triangle(3, 3, 3, 1), path3(3, 3, 3, 1),
      triangle(1, 1, 1, 1), path3(2, 2, 2, 0),
  };
}

struct GoldenCase {
  std::string file;
  IndexSpec spec;
  Dataset dataset;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  {
    IndexSpec spec;
    spec.domain = Domain::kHamming;
    spec.tau = 4;
    spec.chain_length = 2;
    spec.num_parts = 4;
    cases.push_back({"golden_hamming.pgri", spec, Dataset(GoldenVectors())});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kSet;
    spec.tau = 0.6;
    spec.chain_length = 2;
    spec.num_boxes = 3;
    cases.push_back({"golden_sets.pgri", spec, Dataset(GoldenSets())});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 2;
    spec.chain_length = 2;
    spec.kappa = 2;
    cases.push_back({"golden_strings.pgri", spec, Dataset(GoldenStrings())});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 2;
    spec.chain_length = 2;
    spec.edit_fast_path = EditFastPath::kOn;
    cases.push_back(
        {"golden_strings_fast.pgri", spec, Dataset(GoldenFixedStrings())});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kGraph;
    spec.tau = 1;
    spec.chain_length = 2;
    cases.push_back({"golden_graphs.pgri", spec, Dataset(GoldenGraphs())});
  }
  return cases;
}

bool RegenRequested() {
  const char* regen = std::getenv("PIGEONRING_REGEN_GOLDEN");
  return regen != nullptr && regen[0] != '\0' && std::string(regen) != "0";
}

TEST(StorageGoldenTest, CommittedIndexesMatchTodaysWriter) {
  for (GoldenCase& c : GoldenCases()) {
    SCOPED_TRACE(c.file);
    auto built = Db::Open(c.spec, std::move(c.dataset));
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    const std::string golden_path = DataPath(c.file);
    if (RegenRequested()) {
      ASSERT_TRUE(built->Save(golden_path).ok());
    }
    ASSERT_TRUE(fs::exists(golden_path))
        << golden_path
        << " missing — run with PIGEONRING_REGEN_GOLDEN=1 to create it";

    // (b) Byte-stability: today's writer reproduces the committed bytes.
    const std::string fresh_path = testing_util::ScratchPath(c.file);
    ASSERT_TRUE(built->Save(fresh_path).ok());
    EXPECT_EQ(testing_util::ReadFileBytes(fresh_path),
              testing_util::ReadFileBytes(golden_path))
        << c.file
        << " diverged from the current encoder. If the format change is "
           "intentional, bump storage::kFormatVersion and regenerate with "
           "PIGEONRING_REGEN_GOLDEN=1.";

    // (a) The committed file opens and answers like the built index.
    auto loaded = Db::OpenIndex(c.spec, golden_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->num_records(), built->num_records());

    Session built_session = built->NewSession();
    Session loaded_session = loaded->NewSession();
    for (int id = 0; id < built->num_records(); ++id) {
      auto query = built->RecordQuery(id);
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      auto a = built_session.Search(*query);
      auto b = loaded_session.Search(*query);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(b->ids, a->ids) << "record " << id;
    }
    auto join_a = built_session.SelfJoin();
    auto join_b = loaded_session.SelfJoin();
    ASSERT_TRUE(join_a.ok() && join_b.ok());
    EXPECT_EQ(join_b->pairs, join_a->pairs);
    EXPECT_EQ(join_b->stats.candidates, join_a->stats.candidates);
  }
}

// golden_hamming_sharded.pgri is golden_hamming's records and spec saved by
// a release that still had in-process sharding, with two shards, so it
// carries the now-reserved kShardMap section. Today's OpenIndex skips
// that section and serves the file unsharded, answering exactly like
// golden_hamming.pgri.
TEST(StorageGoldenTest, ShardedSaveOfAnEarlierReleaseOpensUnsharded) {
  const std::string legacy_path = DataPath("golden_hamming_sharded.pgri");
  auto reader = storage::IndexFileReader::Open(legacy_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(reader->HasSection(storage::SectionId::kShardMap));

  const GoldenCase golden = std::move(GoldenCases().front());
  ASSERT_EQ(golden.file, "golden_hamming.pgri");
  auto legacy = Db::OpenIndex(golden.spec, legacy_path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  auto current = Db::OpenIndex(golden.spec, DataPath(golden.file));
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  ASSERT_EQ(legacy->num_records(), current->num_records());

  Session legacy_session = legacy->NewSession();
  Session current_session = current->NewSession();
  std::vector<Query> queries;
  for (int id = 0; id < current->num_records(); ++id) {
    auto query = current->RecordQuery(id);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto a = current_session.Search(*query);
    auto b = legacy_session.Search(*query);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(b->ids, a->ids) << "record " << id;
    EXPECT_EQ(b->stats.candidates, a->stats.candidates) << "record " << id;
    queries.push_back(*std::move(query));
  }
  auto batch_a = current_session.SearchBatch(queries);
  auto batch_b = legacy_session.SearchBatch(queries);
  ASSERT_TRUE(batch_a.ok() && batch_b.ok());
  EXPECT_EQ(batch_b->ids, batch_a->ids);
  EXPECT_EQ(batch_b->stats.candidates, batch_a->stats.candidates);
  EXPECT_EQ(batch_b->stats.index_hits, batch_a->stats.index_hits);

  auto join_a = current_session.SelfJoin();
  auto join_b = legacy_session.SelfJoin();
  ASSERT_TRUE(join_a.ok() && join_b.ok());
  EXPECT_FALSE(join_a->pairs.empty());
  EXPECT_EQ(join_b->pairs, join_a->pairs);
  EXPECT_EQ(join_b->stats.candidates, join_a->stats.candidates);

  // Re-saving drops the reserved section: the bytes are the golden file's.
  const std::string resaved = testing_util::ScratchPath("resaved.pgri");
  ASSERT_TRUE(legacy->Save(resaved).ok());
  EXPECT_EQ(testing_util::ReadFileBytes(resaved),
            testing_util::ReadFileBytes(DataPath(golden.file)));
}

}  // namespace
}  // namespace pigeonring::api
