// Tests for api::Writer — the delta-index / epoch-publishing mutation
// surface (api/writer.h).
//
// The load-bearing suites:
//  * InsertsConverge*: starting from a prefix of a dataset and inserting
//    the rest through a Writer must (a) merge into session results
//    exactly like the cold index over the full dataset (pre-compaction,
//    ids only — the delta path's counters legitimately differ), (b) Save
//    byte-identically to the cold index even while the delta is pending,
//    and (c) after Compact() answer byte-identically *including* the
//    deterministic counters. All four domains + the edit fast path.
//  * RemovesConverge*: removals filter results in place (ids unchanged
//    within the epoch) and compact to the byte-identical index over the
//    filtered dataset.
//  * Epoch lifetime: sessions pin their epoch across any number of
//    compactions; futures outlive the Db AND the Writer.
//  * The documented typed errors: single-writer exclusivity, Remove
//    no-ops, per-domain insert validation, and the compaction-failure
//    lifecycle (the one reachable failure: an empty-base open whose
//    chain length exceeds the partitions derived from inserted data).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "api/db.h"
#include "api_test_util.h"
#include "common/bitvector.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "test_scratch.h"

namespace pigeonring::api {
namespace {

using testing_util::SaveBytes;
using testing_util::ScratchPath;

Db OpenOrDie(const IndexSpec& spec, Dataset dataset) {
  auto opened = Db::Open(spec, std::move(dataset));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

Writer WriterOrDie(const Db& db) {
  auto writer = db.NewWriter();
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  return std::move(writer).value();
}

IndexSpec HammingSpec() {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  spec.delta_compact_threshold = 0;  // explicit Compact() only
  return spec;
}

Dataset HammingData(int n) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = n;
  config.num_clusters = 8;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = 2401;
  return Dataset(datagen::GenerateBinaryVectors(config));
}

IndexSpec SetSpec() {
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.7;
  spec.chain_length = 2;
  spec.delta_compact_threshold = 0;
  return spec;
}

Dataset SetData(int n) {
  datagen::TokenSetConfig config;
  config.num_records = n;
  config.avg_tokens = 12;
  config.universe_size = 500;
  config.duplicate_fraction = 0.4;
  config.seed = 2403;
  return Dataset(datagen::GenerateTokenSets(config));
}

IndexSpec EditSpec() {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  spec.delta_compact_threshold = 0;
  return spec;
}

Dataset EditData(int n) {
  datagen::StringConfig config;
  config.num_records = n;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 2405;
  return Dataset(datagen::GenerateStrings(config));
}

IndexSpec EditFastSpec() {
  IndexSpec spec = EditSpec();
  spec.edit_fast_path = EditFastPath::kOn;
  return spec;
}

Dataset EditFastData(int n) {
  datagen::StringConfig config;
  config.num_records = n;
  config.fixed_length = 12;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 2406;
  return Dataset(datagen::GenerateStrings(config));
}

IndexSpec GraphSpec() {
  IndexSpec spec;
  spec.domain = Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  spec.delta_compact_threshold = 0;
  return spec;
}

Dataset GraphData(int n) {
  datagen::GraphConfig config;
  config.num_graphs = n;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = 2407;
  return Dataset(datagen::GenerateGraphs(config));
}

/// Records [begin, end) of `dataset`, in the same domain representation.
Dataset Slice(const Dataset& dataset, int begin, int end) {
  return std::visit(
      [&](const auto& records) {
        using T = std::decay_t<decltype(records)>;
        return Dataset(T(records.begin() + begin, records.begin() + end));
      },
      dataset);
}

/// `dataset` without the records whose indexes appear in `drop` (sorted).
Dataset SliceWithout(const Dataset& dataset, const std::vector<int>& drop) {
  return std::visit(
      [&](const auto& records) {
        std::decay_t<decltype(records)> kept;
        for (size_t i = 0; i < records.size(); ++i) {
          if (std::find(drop.begin(), drop.end(), static_cast<int>(i)) ==
              drop.end()) {
            kept.push_back(records[i]);
          }
        }
        return Dataset(std::move(kept));
      },
      dataset);
}

std::vector<Query> AllRecords(const Db& db) {
  std::vector<Query> records;
  for (int i = 0; i < db.num_records(); ++i) {
    auto query = db.RecordQuery(i);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    records.push_back(std::move(query).value());
  }
  return records;
}

// The golden convergence arc: open over a prefix, insert the rest, and
// compare against the cold index over the full dataset at every stage.
void ExpectInsertsConvergeToColdRebuild(const IndexSpec& spec, Dataset full,
                                        int base_count,
                                        const std::string& tag) {
  const Db cold = OpenOrDie(spec, full);
  const int n = cold.num_records();
  const std::vector<Query> records = AllRecords(cold);

  Db db = OpenOrDie(spec, Slice(full, 0, base_count));
  Writer writer = WriterOrDie(db);
  for (int i = base_count; i < n; ++i) {
    auto id = writer.Insert(records[i]);
    ASSERT_TRUE(id.ok()) << tag << ": " << id.status().ToString();
    EXPECT_EQ(*id, i) << tag;
  }
  EXPECT_EQ(db.num_records(), n) << tag;
  EXPECT_EQ(writer.num_records(), n) << tag;
  EXPECT_EQ(writer.num_pending(), n - base_count) << tag;

  // Pre-compaction: the delta merge must produce the cold index's ids for
  // every search and the cold pair list for the join. (Counters differ:
  // delta records are brute-forced, not filtered.)
  Session merged = db.NewSession();
  Session reference = cold.NewSession();
  for (int i = 0; i < n; i += 3) {
    auto got = merged.Search(records[i]);
    auto want = reference.Search(records[i]);
    ASSERT_TRUE(got.ok() && want.ok()) << tag;
    EXPECT_EQ(got->ids, want->ids) << tag << " record " << i;
  }
  auto merged_join = merged.SelfJoin();
  auto reference_join = reference.SelfJoin();
  ASSERT_TRUE(merged_join.ok() && reference_join.ok()) << tag;
  EXPECT_EQ(merged_join->pairs, reference_join->pairs) << tag;

  // Save with the delta still pending serializes the compacted state.
  EXPECT_EQ(SaveBytes(db, tag + "_pending.pgri"),
            SaveBytes(cold, tag + "_cold.pgri"))
      << tag;
  EXPECT_EQ(writer.num_pending(), n - base_count)
      << tag << ": Save must not publish";

  // After explicit compaction the rebuilt epoch is the cold index:
  // byte-identical results including the deterministic counters.
  Status compacted = writer.Compact();
  ASSERT_TRUE(compacted.ok()) << tag << ": " << compacted.ToString();
  EXPECT_EQ(writer.num_pending(), 0) << tag;
  EXPECT_EQ(db.epoch(), 1u) << tag;
  Session fresh = db.NewSession();
  for (int i = 0; i < n; i += 3) {
    auto got = fresh.Search(records[i]);
    auto want = reference.Search(records[i]);
    ASSERT_TRUE(got.ok() && want.ok()) << tag;
    EXPECT_EQ(got->ids, want->ids) << tag << " record " << i;
    ExpectSameCounters(got->stats, want->stats);
  }
  auto fresh_join = fresh.SelfJoin();
  ASSERT_TRUE(fresh_join.ok()) << tag;
  EXPECT_EQ(fresh_join->pairs, reference_join->pairs) << tag;
  EXPECT_EQ(fresh_join->stats.candidates, reference_join->stats.candidates)
      << tag;
}

TEST(WriterInsertTest, InsertsConvergeHamming) {
  ExpectInsertsConvergeToColdRebuild(HammingSpec(), HammingData(120), 80,
                                     "hamming");
}

TEST(WriterInsertTest, InsertsConvergeSets) {
  // The inserted records carry raw token ids, some outside the base
  // dictionary — compaction rebuilds the dictionary over the merged data.
  ExpectInsertsConvergeToColdRebuild(SetSpec(), SetData(120), 80, "sets");
}

TEST(WriterInsertTest, InsertsConvergeStrings) {
  ExpectInsertsConvergeToColdRebuild(EditSpec(), EditData(100), 70,
                                     "strings");
}

TEST(WriterInsertTest, InsertsConvergeStringsFastPath) {
  ExpectInsertsConvergeToColdRebuild(EditFastSpec(), EditFastData(100), 70,
                                     "strings_fast");
}

TEST(WriterInsertTest, InsertsConvergeGraphs) {
  ExpectInsertsConvergeToColdRebuild(GraphSpec(), GraphData(40), 25,
                                     "graphs");
}

TEST(WriterInsertTest, InsertsIntoAnEmptyDatabase) {
  // Every domain opens empty and grows from nothing through the Writer.
  struct Case {
    IndexSpec spec;
    Dataset data;
    std::string tag;
  };
  std::vector<Case> cases;
  {
    IndexSpec hamming = HammingSpec();
    hamming.chain_length = 1;  // an empty open cannot check chain vs parts
    cases.push_back({hamming, HammingData(30), "hamming"});
  }
  cases.push_back({SetSpec(), SetData(30), "sets"});
  cases.push_back({EditSpec(), EditData(30), "strings"});
  cases.push_back({EditFastSpec(), EditFastData(30), "strings_fast"});
  cases.push_back({GraphSpec(), GraphData(15), "graphs"});
  for (auto& c : cases) {
    ExpectInsertsConvergeToColdRebuild(c.spec, std::move(c.data), 0, c.tag);
  }
}

// Removals: results filter in place pre-compaction (ids unchanged within
// the epoch), and compaction converges on the cold index over the
// filtered dataset.
void ExpectRemovesConvergeToColdRebuild(const IndexSpec& spec, Dataset full,
                                        const std::vector<int>& removed,
                                        const std::string& tag) {
  const Db cold_full = OpenOrDie(spec, full);
  const Db cold_filtered = OpenOrDie(spec, SliceWithout(full, removed));
  const std::vector<Query> records = AllRecords(cold_full);
  const int n = cold_full.num_records();

  Db db = OpenOrDie(spec, std::move(full));
  Writer writer = WriterOrDie(db);
  for (int id : removed) {
    Status status = writer.Remove(id);
    ASSERT_TRUE(status.ok()) << tag << ": " << status.ToString();
  }
  // Removal does not renumber or shrink the epoch's id space; the count
  // drops only when compaction packs the survivors.
  EXPECT_EQ(db.num_records(), n) << tag;
  EXPECT_EQ(writer.num_pending(), static_cast<int64_t>(removed.size()))
      << tag;

  // Pre-compaction: the full index's results minus the removed ids.
  Session merged = db.NewSession();
  Session full_reference = cold_full.NewSession();
  for (int id : removed) {
    EXPECT_FALSE(merged.IsLive(id)) << tag;
    // Removed ids stay addressable within their epoch.
    EXPECT_TRUE(merged.RecordQuery(id).ok()) << tag;
  }
  for (int i = 0; i < n; i += 3) {
    auto got = merged.Search(records[i]);
    auto want = full_reference.Search(records[i]);
    ASSERT_TRUE(got.ok() && want.ok()) << tag;
    std::vector<int> expected;
    for (int id : want->ids) {
      if (std::find(removed.begin(), removed.end(), id) == removed.end()) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(got->ids, expected) << tag << " record " << i;
  }

  EXPECT_EQ(SaveBytes(db, tag + "_removed.pgri"),
            SaveBytes(cold_filtered, tag + "_filtered.pgri"))
      << tag;

  // Compaction packs the survivors in id order — the filtered cold index.
  ASSERT_TRUE(writer.Compact().ok()) << tag;
  Session fresh = db.NewSession();
  Session filtered_reference = cold_filtered.NewSession();
  EXPECT_EQ(fresh.num_records(), filtered_reference.num_records()) << tag;
  for (int i = 0; i < fresh.num_records(); i += 3) {
    auto probe = filtered_reference.RecordQuery(i);
    ASSERT_TRUE(probe.ok()) << tag;
    auto got = fresh.Search(*probe);
    auto want = filtered_reference.Search(*probe);
    ASSERT_TRUE(got.ok() && want.ok()) << tag;
    EXPECT_EQ(got->ids, want->ids) << tag << " record " << i;
    ExpectSameCounters(got->stats, want->stats);
  }
}

TEST(WriterRemoveTest, RemovesConvergeHamming) {
  ExpectRemovesConvergeToColdRebuild(HammingSpec(), HammingData(100),
                                     {0, 7, 8, 41, 99}, "hamming");
}

TEST(WriterRemoveTest, RemovesConvergeSets) {
  ExpectRemovesConvergeToColdRebuild(SetSpec(), SetData(100),
                                     {3, 50, 51, 98}, "sets");
}

TEST(WriterRemoveTest, RemoveIsATypedNoOp) {
  const Db db = OpenOrDie(HammingSpec(), HammingData(20));
  Writer writer = WriterOrDie(db);

  // Outside the id space: kNotFound, nothing changes.
  Status outside = writer.Remove(20);
  EXPECT_EQ(outside.code(), StatusCode::kNotFound);
  EXPECT_NE(outside.message().find("outside [0, 20)"), std::string::npos);
  EXPECT_EQ(writer.Remove(-1).code(), StatusCode::kNotFound);
  EXPECT_EQ(writer.num_pending(), 0);

  // Double removal: the second is kNotFound and the database unchanged.
  ASSERT_TRUE(writer.Remove(5).ok());
  Status again = writer.Remove(5);
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
  EXPECT_NE(again.message().find("already removed"), std::string::npos);
  EXPECT_EQ(writer.num_pending(), 1);
  EXPECT_EQ(db.num_records(), 20) << "ids do not renumber before compaction";

  // A removed delta insert is just as dead.
  auto probe = db.RecordQuery(0);
  ASSERT_TRUE(probe.ok());
  auto id = writer.Insert(*probe);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(writer.Remove(*id).ok());
  EXPECT_EQ(writer.Remove(*id).code(), StatusCode::kNotFound);
}

TEST(WriterTest, SingleWriterExclusivity) {
  const Db db = OpenOrDie(HammingSpec(), HammingData(20));
  std::optional<Writer> writer(WriterOrDie(db));
  auto second = db.NewWriter();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(second.status().message().find("single-writer"),
            std::string::npos);
  // A copy of the Db handle is the same database — still excluded.
  const Db copy = db;
  EXPECT_FALSE(copy.NewWriter().ok());
  // Destroying the writer frees the slot.
  writer.reset();
  EXPECT_TRUE(db.NewWriter().ok());
}

TEST(WriterTest, InsertValidatesDomainAndShape) {
  const Db hamming = OpenOrDie(HammingSpec(), HammingData(20));
  Writer hamming_writer = WriterOrDie(hamming);
  // Wrong domain.
  auto wrong_domain = hamming_writer.Insert(Query(std::string("abc")));
  ASSERT_FALSE(wrong_domain.ok());
  EXPECT_EQ(wrong_domain.status().code(), StatusCode::kInvalidArgument);
  // Wrong dimensionality.
  auto wrong_dims = hamming_writer.Insert(Query(BitVector(16)));
  ASSERT_FALSE(wrong_dims.ok());
  EXPECT_EQ(wrong_dims.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_dims.status().message().find("dimensions"),
            std::string::npos);

  // Ranked set queries only insert when every rank maps into the base
  // dictionary; raw token ids are always accepted.
  const Db sets = OpenOrDie(SetSpec(), SetData(20));
  Writer sets_writer = WriterOrDie(sets);
  auto bad_rank = sets_writer.Insert(
      Query(SetQuery{{0, 1, 1000000}, /*ranked=*/true}));
  ASSERT_FALSE(bad_rank.ok());
  EXPECT_EQ(bad_rank.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_rank.status().message().find("raw token ids"),
            std::string::npos);
  EXPECT_TRUE(
      sets_writer.Insert(Query(SetQuery{{0, 1, 1000000}, /*ranked=*/false}))
          .ok());

  // The edit fast path only takes strings of the collection's length.
  const Db fast = OpenOrDie(EditFastSpec(), EditFastData(20));
  Writer fast_writer = WriterOrDie(fast);
  auto wrong_length = fast_writer.Insert(Query(std::string("short")));
  ASSERT_FALSE(wrong_length.ok());
  EXPECT_EQ(wrong_length.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_length.status().message().find("fixed-length"),
            std::string::npos);
}

TEST(WriterTest, SessionsPinTheirEpochAcrossCompactions) {
  const Db db = OpenOrDie(HammingSpec(), HammingData(60));
  const std::vector<Query> records = AllRecords(db);
  Session pinned = db.NewSession();
  std::vector<std::vector<int>> before;
  for (int i = 0; i < 12; ++i) {
    auto result = pinned.Search(records[i]);
    ASSERT_TRUE(result.ok());
    before.push_back(result->ids);
  }
  auto join_before = pinned.SelfJoin();
  ASSERT_TRUE(join_before.ok());

  Writer writer = WriterOrDie(db);
  ASSERT_TRUE(writer.Remove(0).ok());
  ASSERT_TRUE(writer.Insert(records[1]).ok());
  ASSERT_TRUE(writer.Compact().ok());
  ASSERT_TRUE(writer.Insert(records[2]).ok());
  ASSERT_TRUE(writer.Compact().ok());
  EXPECT_EQ(db.epoch(), 2u);

  // The pinned session still answers from its original epoch, exactly.
  for (int i = 0; i < 12; ++i) {
    auto result = pinned.Search(records[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->ids, before[i]) << "record " << i;
  }
  auto join_after = pinned.SelfJoin();
  ASSERT_TRUE(join_after.ok());
  EXPECT_EQ(join_after->pairs, join_before->pairs);
  EXPECT_TRUE(pinned.IsLive(0)) << "the pinned epoch predates the removal";

  // A fresh session sees the mutations.
  Session fresh = db.NewSession();
  EXPECT_EQ(fresh.num_records(), 61);
}

TEST(WriterTest, FuturesOutliveTheDbAndTheWriter) {
  std::optional<Db> db(OpenOrDie(HammingSpec(), HammingData(50)));
  const std::vector<Query> records = AllRecords(*db);
  std::vector<Query> queries(records.begin(), records.begin() + 10);

  Session session = db->NewSession();
  auto expected = session.SearchBatch(queries);
  ASSERT_TRUE(expected.ok());

  std::optional<Writer> writer(WriterOrDie(*db));
  ASSERT_TRUE(writer->Insert(records[0]).ok());
  Future<BatchResult> in_flight = session.SubmitBatch(queries);
  writer.reset();  // waits out any compaction, releases the writer slot
  db.reset();      // the session and future keep the epoch alive
  auto result = in_flight.Get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ids, expected->ids);
  auto after = session.SearchBatch(queries);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->ids, expected->ids);
}

TEST(WriterTest, WriterKeepsTheDatabaseAlive) {
  std::optional<Db> db(OpenOrDie(HammingSpec(), HammingData(40)));
  const std::vector<Query> records = AllRecords(*db);
  Writer writer = WriterOrDie(*db);
  Session session = db->NewSession();
  db.reset();
  ASSERT_TRUE(writer.Insert(records[3]).ok());
  ASSERT_TRUE(writer.Remove(0).ok());
  ASSERT_TRUE(writer.Compact().ok());
  EXPECT_EQ(writer.num_records(), 40);
  // The pre-mutation session still works from its pinned epoch.
  auto result = session.Search(records[3]);
  ASSERT_TRUE(result.ok());
}

TEST(WriterTest, BackgroundCompactionPublishesWithoutExplicitCompact) {
  IndexSpec spec = HammingSpec();
  spec.delta_compact_threshold = 5;
  Dataset full = HammingData(80);
  const Db cold = OpenOrDie(spec, full);
  const std::vector<Query> records = AllRecords(cold);

  Db db = OpenOrDie(spec, Slice(full, 0, 40));
  {
    Writer writer = WriterOrDie(db);
    for (int i = 40; i < 80; ++i) {
      ASSERT_TRUE(writer.Insert(records[i]).ok());
    }
    // 40 inserts at threshold 5 launch background compactions; destroying
    // the writer waits for the in-flight one and publishes it.
  }
  EXPECT_GE(db.epoch(), 1u);
  EXPECT_EQ(db.num_records(), 80);
  EXPECT_EQ(SaveBytes(db, "background.pgri"),
            SaveBytes(cold, "background_cold.pgri"));
}

TEST(WriterTest, CompactionFailureSurfacesAndTheDeltaSurvives) {
  // The one reachable rebuild failure: an empty open skips the
  // chain-vs-partitions check (there is no dimensionality yet), and the
  // inserted vectors are too narrow for the spec's chain length.
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 2;
  spec.chain_length = 3;
  spec.delta_compact_threshold = 0;
  Db db = OpenOrDie(spec, Dataset(std::vector<BitVector>{}));
  Writer writer = WriterOrDie(db);
  ASSERT_TRUE(writer.Insert(Query(BitVector(16))).ok());
  ASSERT_TRUE(writer.Insert(Query(BitVector(16))).ok());

  // Synchronous compaction returns the rebuild error; the delta is intact
  // and sessions keep serving it brute-force.
  Status failed = writer.Compact();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(failed.message().find("chain_length"), std::string::npos);
  EXPECT_EQ(writer.num_pending(), 2);
  Session session = db.NewSession();
  auto result = session.Search(Query(BitVector(16)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ids, (std::vector<int>{0, 1}));

  // Removing the offending inserts recovers: the delta empties and
  // Compact is a clean no-op again.
  ASSERT_TRUE(writer.Remove(0).ok());
  ASSERT_TRUE(writer.Remove(1).ok());
  EXPECT_TRUE(writer.Compact().ok());
}

TEST(WriterTest, BackgroundCompactionFailureSurfacesOnTheNextMutation) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 2;
  spec.chain_length = 3;
  spec.delta_compact_threshold = 2;  // the second insert launches the job
  Db db = OpenOrDie(spec, Dataset(std::vector<BitVector>{}));
  Writer writer = WriterOrDie(db);
  ASSERT_TRUE(writer.Insert(Query(BitVector(16))).ok());
  ASSERT_TRUE(writer.Insert(Query(BitVector(16))).ok());

  // The failed background job parks its status; it surfaces exactly once
  // on a later mutation (retrying until the job has finished).
  Status surfaced = Status::Ok();
  for (int tries = 0; tries < 10000 && surfaced.ok(); ++tries) {
    surfaced = writer.Remove(99);  // itself a typed no-op when healthy
    if (surfaced.code() == StatusCode::kNotFound) surfaced = Status::Ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(surfaced.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(surfaced.message().find("chain_length"), std::string::npos);
  // Exactly once: the next mutation is healthy again.
  EXPECT_EQ(writer.Remove(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(writer.num_pending(), 2);
}

TEST(WriterTest, SaveWithPendingDeltaDoesNotPublish) {
  const Db db = OpenOrDie(HammingSpec(), HammingData(30));
  const std::vector<Query> records = AllRecords(db);
  Writer writer = WriterOrDie(db);
  ASSERT_TRUE(writer.Insert(records[0]).ok());
  Session before = db.NewSession();

  const std::vector<uint8_t> pending =
      SaveBytes(db, "publish_pending.pgri");
  // Save rebuilt inline but must not have published a new epoch.
  EXPECT_EQ(db.epoch(), 0u);
  EXPECT_EQ(writer.num_pending(), 1);
  ASSERT_TRUE(writer.Compact().ok());
  EXPECT_EQ(SaveBytes(db, "publish_compacted.pgri"), pending);

  // And the saved file round-trips with the merged record count.
  const std::string path = ScratchPath("publish_pending.pgri");
  auto reopened = Db::OpenIndex(db.spec(), path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_records(), 31);
}

TEST(WriterTest, EmptyEditDatabaseResolvesAutoToThePivotalPath) {
  // kAuto over an empty collection must NOT latch the fixed-length fast
  // path (that would pin every future insert to one string length);
  // it resolves to the permissive pivotal path and stays there across
  // compactions.
  Db db = OpenOrDie(EditSpec(), Dataset(std::vector<std::string>{}));
  EXPECT_EQ(db.spec().edit_fast_path, EditFastPath::kOff);
  Writer writer = WriterOrDie(db);
  ASSERT_TRUE(writer.Insert(Query(std::string("ab"))).ok());
  ASSERT_TRUE(writer.Insert(Query(std::string("a much longer string"))).ok());
  ASSERT_TRUE(writer.Compact().ok());
  EXPECT_EQ(db.spec().edit_fast_path, EditFastPath::kOff);
  Session session = db.NewSession();
  auto result = session.Search(Query(std::string("ab")));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ids, std::vector<int>{0});
}

TEST(WriterTest, WriterIsMovable) {
  const Db db = OpenOrDie(HammingSpec(), HammingData(20));
  const std::vector<Query> records = AllRecords(db);
  Writer writer = WriterOrDie(db);
  ASSERT_TRUE(writer.Insert(records[0]).ok());
  Writer moved = std::move(writer);
  EXPECT_EQ(moved.num_pending(), 1);
  ASSERT_TRUE(moved.Insert(records[1]).ok());
  // Move assignment releases the old target's slot... which is the same
  // hub here, so the moved-into writer keeps it.
  writer = std::move(moved);
  EXPECT_EQ(writer.num_pending(), 2);
  ASSERT_TRUE(writer.Compact().ok());
  EXPECT_EQ(db.num_records(), 22);
}

}  // namespace
}  // namespace pigeonring::api
