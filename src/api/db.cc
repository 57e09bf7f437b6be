#include "api/db.h"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>

#include "api/internal.h"
#include "core/advisor.h"
#include "editdist/casedec.h"
#include "editdist/pivotal.h"
#include "editdist/verify.h"
#include "engine/engine.h"
#include "graphed/ged.h"
#include "graphed/pars.h"
#include "hamming/search.h"
#include "io/dataset_io.h"
#include "setsim/pkwise.h"
#include "setsim/record.h"
#include "storage/bytes.h"
#include "storage/index_file.h"
#include "storage/index_io.h"

namespace pigeonring::api {

namespace internal {
namespace {

Status QueryDomainError(Domain query_domain, Domain index_domain) {
  return Status::InvalidArgument(
      "query is a " + std::string(DomainName(query_domain)) +
      " query but the index domain is " + DomainName(index_domain));
}

// CRTP base: Derived supplies ToDomain(query) -> S::Query. The model holds
// the *prototype* adapter, immutable after construction; every cursor gets
// its own copy (cheap — the searchers share their index state behind
// shared_ptr) and forwards to the templated engine drivers, so the only
// erased work per call is the query-list conversion.
//
// The delta hooks live on the models too: DeltaMatch is the domain's
// exact threshold predicate — deliberately the same test the searchers'
// verification step runs, so a record matched out of the delta side table
// and the same record matched after compaction agree bit for bit.
template <typename Derived, engine::Searcher S>
class ModelBase : public AnySearcher {
 public:
  explicit ModelBase(S adapter) : adapter_(std::move(adapter)) {}

  int size() const override { return adapter_.size(); }

  std::unique_ptr<AnyCursor> NewCursor() const override {
    return std::make_unique<Cursor>(derived(), adapter_);
  }

  /// Domains without a ranked/raw duality pass probes through unchanged.
  Query CanonicalizeProbe(const Query& query) const override { return query; }

 protected:
  class Cursor : public AnyCursor {
   public:
    Cursor(const Derived& model, S adapter)
        : model_(model), adapter_(std::move(adapter)) {}

    std::vector<int> SearchOne(const Query& query,
                               engine::QueryStats* stats) override {
      return adapter_.Search(model_.ToDomain(query), stats);
    }

    std::vector<std::vector<int>> SearchBatch(
        const std::vector<Query>& queries,
        const engine::ExecutionContext& ctx,
        engine::QueryStats* stats) override {
      std::vector<typename S::Query> domain_queries;
      domain_queries.reserve(queries.size());
      for (const Query& query : queries) {
        domain_queries.push_back(model_.ToDomain(query));
      }
      return engine::SearchBatch(adapter_, domain_queries, ctx, stats);
    }

    std::vector<engine::IdPair> SelfJoin(const engine::ExecutionContext& ctx,
                                         engine::JoinStats* stats) override {
      return engine::SelfJoin(adapter_, ctx, stats);
    }

   private:
    // The owning snapshot outlives every cursor (sessions and in-flight
    // submissions pin it), so a plain reference is safe.
    const Derived& model_;
    S adapter_;
  };

  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }

  S adapter_;  // the prototype; only read and copied after construction
};

class HammingModel : public ModelBase<HammingModel, engine::HammingAdapter> {
 public:
  HammingModel(engine::HammingAdapter adapter, int dimensions, int tau)
      : ModelBase(std::move(adapter)), dimensions_(dimensions), tau_(tau) {}

  Status ValidateQuery(const Query& query) const override {
    if (!std::holds_alternative<BitVector>(query)) {
      return QueryDomainError(QueryDomain(query), Domain::kHamming);
    }
    const int d = std::get<BitVector>(query).dimensions();
    if (adapter_.size() > 0 && d != dimensions_) {
      return Status::InvalidArgument(
          "query has " + std::to_string(d) +
          " dimensions but the index has " + std::to_string(dimensions_));
    }
    return Status::Ok();
  }

  StatusOr<Query> RecordQuery(int id) const override {
    return Query(adapter_.query(id));
  }

  StatusOr<Query> CanonicalizeInsert(const Query& query) const override {
    Status valid = ValidateQuery(query);
    if (!valid.ok()) return valid;
    if (std::get<BitVector>(query).dimensions() < 1) {
      return Status::InvalidArgument(
          "cannot insert a 0-dimensional vector");
    }
    return query;
  }

  bool DeltaMatch(const Query& probe, const Query& record) const override {
    // On an empty base a probe of any width validates; a width mismatch
    // with the pending inserts is simply no match.
    const BitVector& p = std::get<BitVector>(probe);
    const BitVector& r = std::get<BitVector>(record);
    return p.dimensions() == r.dimensions() &&
           p.HammingDistance(r) <= tau_;
  }

  Dataset RawDataset() const override {
    return adapter_.searcher().objects();
  }

  const BitVector& ToDomain(const Query& query) const {
    return std::get<BitVector>(query);
  }

  void SaveSections(storage::IndexFileWriter& writer) const override {
    storage::SaveHammingSections(adapter_.searcher(), writer);
  }

 private:
  int dimensions_;
  int tau_;
};

class SetModel : public ModelBase<SetModel, engine::SetAdapter> {
 public:
  SetModel(std::unique_ptr<setsim::SetCollection> collection,
           engine::SetAdapter adapter, double tau, setsim::SetMeasure measure)
      : ModelBase(std::move(adapter)),
        collection_(std::move(collection)),
        tau_(tau),
        measure_(measure),
        rank_to_token_(collection_->universe_size()) {
    for (const auto& [token, rank] : collection_->ExportDictionary()) {
      // A well-formed dictionary is a permutation of [0, universe); a
      // corrupted-but-decodable index file may not be. Skipping bad ranks
      // keeps the no-crash contract — the storage tests load such files.
      if (rank >= 0 && rank < static_cast<int>(rank_to_token_.size())) {
        rank_to_token_[rank] = token;
      }
    }
  }

  Status ValidateQuery(const Query& query) const override {
    if (!std::holds_alternative<SetQuery>(query)) {
      return QueryDomainError(QueryDomain(query), Domain::kSet);
    }
    return Status::Ok();
  }

  StatusOr<Query> RecordQuery(int id) const override {
    return Query(SetQuery{RawRecord(id), /*ranked=*/false});
  }

  StatusOr<Query> CanonicalizeInsert(const Query& query) const override {
    Status valid = ValidateQuery(query);
    if (!valid.ok()) return valid;
    const SetQuery& set_query = std::get<SetQuery>(query);
    std::vector<int> tokens;
    tokens.reserve(set_query.tokens.size());
    if (set_query.ranked) {
      // A ranked query only round-trips to tokens when every rank exists
      // in the base dictionary; a placeholder token would insert garbage.
      for (int rank : set_query.tokens) {
        if (rank < 0 || rank >= static_cast<int>(rank_to_token_.size())) {
          return Status::InvalidArgument(
              "cannot insert a ranked set query: rank " +
              std::to_string(rank) + " is outside the base dictionary [0, " +
              std::to_string(rank_to_token_.size()) +
              "); pass raw token ids instead");
        }
        tokens.push_back(rank_to_token_[rank]);
      }
    } else {
      tokens = set_query.tokens;
    }
    SortUnique(tokens);
    return Query(SetQuery{std::move(tokens), /*ranked=*/false});
  }

  Query CanonicalizeProbe(const Query& query) const override {
    const SetQuery& set_query = std::get<SetQuery>(query);
    std::vector<int> tokens;
    tokens.reserve(set_query.tokens.size());
    if (set_query.ranked) {
      // Ranks outside the dictionary (possible only for hand-built
      // queries) become unique placeholder tokens: inert for matching but
      // still counted in set sizes, mirroring MapQuery's treatment of
      // unseen raw tokens.
      int placeholders = 0;
      for (int rank : set_query.tokens) {
        if (rank >= 0 && rank < static_cast<int>(rank_to_token_.size())) {
          tokens.push_back(rank_to_token_[rank]);
        } else {
          tokens.push_back(std::numeric_limits<int>::min() + placeholders++);
        }
      }
    } else {
      tokens = set_query.tokens;
    }
    SortUnique(tokens);
    return Query(SetQuery{std::move(tokens), /*ranked=*/false});
  }

  bool DeltaMatch(const Query& probe, const Query& record) const override {
    // Both sides are canonical: raw tokens, sorted and deduplicated.
    // Exactly the predicate the pkwise searcher verifies with, expressed
    // in token space (overlap is invariant under the rank relabeling).
    const std::vector<int>& x = std::get<SetQuery>(probe).tokens;
    const std::vector<int>& y = std::get<SetQuery>(record).tokens;
    if (measure_ == setsim::SetMeasure::kJaccard) {
      return setsim::OverlapAtLeast(
          x, y,
          setsim::JaccardOverlapThreshold(static_cast<int>(x.size()),
                                          static_cast<int>(y.size()), tau_));
    }
    return setsim::OverlapAtLeast(x, y, static_cast<int>(tau_));
  }

  Dataset RawDataset() const override {
    std::vector<std::vector<int>> raw;
    raw.reserve(collection_->num_records());
    for (int id = 0; id < collection_->num_records(); ++id) {
      raw.push_back(RawRecord(id));
    }
    return raw;
  }

  setsim::RankedSet ToDomain(const Query& query) const {
    const SetQuery& set_query = std::get<SetQuery>(query);
    if (set_query.ranked) return set_query.tokens;
    return collection_->MapQuery(set_query.tokens);
  }

  void SaveSections(storage::IndexFileWriter& writer) const override {
    storage::SaveSetSections(*collection_, adapter_.searcher(), writer);
  }

 private:
  static void SortUnique(std::vector<int>& tokens) {
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  }

  /// Record `id` unranked back to raw token ids, sorted ascending. A
  /// well-formed record's ranks are always within the dictionary; ranks a
  /// corrupted index file smuggled past the decoder map to themselves
  /// (no-crash contract — the result is garbage either way).
  std::vector<int> RawRecord(int id) const {
    const setsim::RankedSet& ranks = collection_->record(id);
    std::vector<int> tokens;
    tokens.reserve(ranks.size());
    for (int rank : ranks) {
      tokens.push_back(rank >= 0 &&
                               rank < static_cast<int>(rank_to_token_.size())
                           ? rank_to_token_[rank]
                           : rank);
    }
    std::sort(tokens.begin(), tokens.end());
    return tokens;
  }

  std::unique_ptr<setsim::SetCollection> collection_;
  double tau_;
  setsim::SetMeasure measure_;
  std::vector<int> rank_to_token_;  // inverse of the frequency dictionary
};

class EditModel : public ModelBase<EditModel, engine::EditAdapter> {
 public:
  EditModel(std::unique_ptr<std::vector<std::string>> data,
            engine::EditAdapter adapter, int tau)
      : ModelBase(std::move(adapter)), data_(std::move(data)), tau_(tau) {}

  Status ValidateQuery(const Query& query) const override {
    if (!std::holds_alternative<std::string>(query)) {
      return QueryDomainError(QueryDomain(query), Domain::kEdit);
    }
    return Status::Ok();
  }

  StatusOr<Query> RecordQuery(int id) const override {
    return Query((*data_)[id]);
  }

  StatusOr<Query> CanonicalizeInsert(const Query& query) const override {
    Status valid = ValidateQuery(query);
    if (!valid.ok()) return valid;
    return query;
  }

  bool DeltaMatch(const Query& probe, const Query& record) const override {
    const std::string& a = std::get<std::string>(probe);
    const std::string& b = std::get<std::string>(record);
    return editdist::BandedEditDistance(a, b, tau_) <= tau_;
  }

  Dataset RawDataset() const override { return *data_; }

  const std::string& ToDomain(const Query& query) const {
    return std::get<std::string>(query);
  }

  void SaveSections(storage::IndexFileWriter& writer) const override {
    storage::SaveEditSections(*data_, adapter_.searcher(), writer);
  }

 private:
  std::unique_ptr<std::vector<std::string>> data_;
  int tau_;
};

class EditFastModel
    : public ModelBase<EditFastModel, engine::EditFastAdapter> {
 public:
  EditFastModel(std::unique_ptr<std::vector<std::string>> data,
                engine::EditFastAdapter adapter, int tau)
      : ModelBase(std::move(adapter)), data_(std::move(data)), tau_(tau) {}

  Status ValidateQuery(const Query& query) const override {
    if (!std::holds_alternative<std::string>(query)) {
      return QueryDomainError(QueryDomain(query), Domain::kEdit);
    }
    return Status::Ok();
  }

  StatusOr<Query> RecordQuery(int id) const override {
    return Query((*data_)[id]);
  }

  StatusOr<Query> CanonicalizeInsert(const Query& query) const override {
    Status valid = ValidateQuery(query);
    if (!valid.ok()) return valid;
    // The case-decomposition index only covers one fixed length; inserts
    // must keep the collection eligible so compaction can rebuild under
    // the resolved edit_fast_path=on. (On an empty base any legal length
    // is fine; the writer cross-checks pending inserts against each
    // other.)
    const std::string& s = std::get<std::string>(query);
    const int max_length = editdist::CaseDecSearcher::kMaxLength;
    if (!data_->empty()) {
      const int length = static_cast<int>(data_->front().size());
      if (static_cast<int>(s.size()) != length) {
        return Status::InvalidArgument(
            "edit_fast_path=on indexes fixed-length strings: cannot "
            "insert a " +
            std::to_string(s.size()) + "-char string into a length-" +
            std::to_string(length) + " collection");
      }
    } else if (s.empty() ||
               static_cast<int>(s.size()) > max_length) {
      return Status::InvalidArgument(
          "edit_fast_path=on requires string lengths in [1, " +
          std::to_string(max_length) + "]");
    }
    return query;
  }

  bool DeltaMatch(const Query& probe, const Query& record) const override {
    const std::string& a = std::get<std::string>(probe);
    const std::string& b = std::get<std::string>(record);
    return editdist::BandedEditDistance(a, b, tau_) <= tau_;
  }

  Dataset RawDataset() const override { return *data_; }

  const std::string& ToDomain(const Query& query) const {
    return std::get<std::string>(query);
  }

  void SaveSections(storage::IndexFileWriter& writer) const override {
    storage::SaveEditFastSections(*data_, adapter_.searcher(), writer);
  }

 private:
  std::unique_ptr<std::vector<std::string>> data_;
  int tau_;
};

class GraphModel : public ModelBase<GraphModel, engine::GraphAdapter> {
 public:
  GraphModel(std::unique_ptr<std::vector<graphed::Graph>> data,
             engine::GraphAdapter adapter, int tau)
      : ModelBase(std::move(adapter)), data_(std::move(data)), tau_(tau) {}

  Status ValidateQuery(const Query& query) const override {
    if (!std::holds_alternative<graphed::Graph>(query)) {
      return QueryDomainError(QueryDomain(query), Domain::kGraph);
    }
    return Status::Ok();
  }

  StatusOr<Query> RecordQuery(int id) const override {
    return Query((*data_)[id]);
  }

  StatusOr<Query> CanonicalizeInsert(const Query& query) const override {
    Status valid = ValidateQuery(query);
    if (!valid.ok()) return valid;
    return query;
  }

  bool DeltaMatch(const Query& probe, const Query& record) const override {
    return graphed::GraphEditDistanceWithin(std::get<graphed::Graph>(probe),
                                            std::get<graphed::Graph>(record),
                                            tau_) <= tau_;
  }

  Dataset RawDataset() const override { return *data_; }

  const graphed::Graph& ToDomain(const Query& query) const {
    return std::get<graphed::Graph>(query);
  }

  void SaveSections(storage::IndexFileWriter& writer) const override {
    storage::SaveGraphSections(*data_, adapter_.searcher(), writer);
  }

 private:
  std::unique_ptr<std::vector<graphed::Graph>> data_;
  int tau_;
};

bool RingEnabled(const IndexSpec& spec) {
  switch (spec.filter) {
    case FilterMode::kBaseline:
      return false;
    case FilterMode::kRing:
      return true;
    case FilterMode::kAuto:
      break;
  }
  return spec.chain_length > 1;
}

StatusOr<std::unique_ptr<const AnySearcher>> BuildHamming(
    const IndexSpec& spec, std::vector<BitVector> objects) {
  int dimensions = 0;
  if (!objects.empty()) {
    dimensions = objects.front().dimensions();
    for (const BitVector& v : objects) {
      if (v.dimensions() != dimensions) {
        return Status::InvalidArgument(
            "inconsistent dimensionalities in the dataset: " +
            std::to_string(dimensions) + " vs " +
            std::to_string(v.dimensions()));
      }
    }
  }
  // Resolve the partition count the searcher will use so its PR_CHECK
  // preconditions become typed errors. An empty collection indexes a
  // single degenerate part.
  int num_parts = 1;
  if (!objects.empty()) {
    num_parts = spec.num_parts > 0 ? spec.num_parts
                                   : std::max(1, dimensions / 16);
    if (num_parts > dimensions) {
      return Status::InvalidArgument(
          "num_parts=" + std::to_string(num_parts) + " exceeds the " +
          std::to_string(dimensions) + " dimensions of the dataset");
    }
    if ((dimensions + num_parts - 1) / num_parts > 64) {
      return Status::InvalidArgument(
          "num_parts=" + std::to_string(num_parts) +
          " gives parts wider than 64 bits at d=" +
          std::to_string(dimensions) + "; use at least " +
          std::to_string((dimensions + 63) / 64) + " parts");
    }
    if (num_parts > 64) {
      return Status::InvalidArgument(
          "num_parts=" + std::to_string(num_parts) +
          " exceeds the 64-part limit of the chain bitmask");
    }
    if (spec.chain_length > num_parts) {
      return Status::InvalidArgument(
          "chain_length=" + std::to_string(spec.chain_length) +
          " exceeds the " + std::to_string(num_parts) +
          " partitions of a d=" + std::to_string(dimensions) + " index");
    }
  }
  const int chain = RingEnabled(spec) ? spec.chain_length : 1;
  engine::HammingAdapter adapter(
      hamming::HammingSearcher(std::move(objects), num_parts),
      static_cast<int>(spec.tau), chain, spec.allocation);
  return std::unique_ptr<const AnySearcher>(new HammingModel(
      std::move(adapter), dimensions, static_cast<int>(spec.tau)));
}

StatusOr<std::unique_ptr<const AnySearcher>> BuildSet(
    const IndexSpec& spec, std::vector<std::vector<int>> raw) {
  auto collection = std::make_unique<setsim::SetCollection>(raw);
  setsim::PkwiseSearcher searcher(collection.get(), spec.tau, spec.num_boxes,
                                  spec.measure);
  const int chain = RingEnabled(spec) ? spec.chain_length : 1;
  engine::SetAdapter adapter(std::move(searcher), collection.get(), chain);
  return std::unique_ptr<const AnySearcher>(
      new SetModel(std::move(collection), std::move(adapter), spec.tau,
                   spec.measure));
}

/// Resolves edit_fast_path=kAuto against the dataset's shape (kOn / kOff
/// pass through, except that kOn on an ineligible collection is a typed
/// error). On return `spec.edit_fast_path` is kOn or kOff — the resolved
/// value is what Db::spec() reports and what Save persists.
Status ResolveEditFastPath(IndexSpec& spec,
                           const std::vector<std::string>& data) {
  const int uniform_length = editdist::CaseDecSearcher::UniformLength(data);
  switch (spec.edit_fast_path) {
    case EditFastPath::kOff:
      return Status::Ok();
    case EditFastPath::kOn:
      if (uniform_length < 0) {
        return Status::InvalidArgument(
            "edit_fast_path=on requires a fixed-length collection: every "
            "string must share one length in [1, " +
            std::to_string(editdist::CaseDecSearcher::kMaxLength) + "]");
      }
      return Status::Ok();
    case EditFastPath::kAuto:
      break;
  }
  // An empty collection gives the advisor nothing to go on, and the fast
  // path would latch every future Writer::Insert to one string length.
  // Resolve kAuto to the permissive pivotal path so an empty database can
  // grow arbitrary strings; kOn stays available for callers who want the
  // fixed-length contract from the start.
  if (data.empty()) {
    spec.edit_fast_path = EditFastPath::kOff;
    return Status::Ok();
  }
  const core::EditFastPathAdvice advice = core::AdviseEditFastPath(
      static_cast<int64_t>(data.size()), uniform_length,
      static_cast<int>(spec.tau));
  spec.edit_fast_path =
      advice.use_fast_path ? EditFastPath::kOn : EditFastPath::kOff;
  return Status::Ok();
}

StatusOr<std::unique_ptr<const AnySearcher>> BuildEdit(
    IndexSpec& spec, std::vector<std::string> strings) {
  auto data =
      std::make_unique<std::vector<std::string>>(std::move(strings));
  Status resolved = ResolveEditFastPath(spec, *data);
  if (!resolved.ok()) return resolved;
  if (spec.edit_fast_path == EditFastPath::kOn) {
    editdist::CaseDecSearcher searcher(data.get(),
                                       static_cast<int>(spec.tau));
    engine::EditFastAdapter adapter(std::move(searcher), data.get(),
                                    spec.chain_length);
    return std::unique_ptr<const AnySearcher>(
        new EditFastModel(std::move(data), std::move(adapter),
                          static_cast<int>(spec.tau)));
  }
  editdist::EditDistanceSearcher searcher(
      data.get(), static_cast<int>(spec.tau), spec.kappa);
  const editdist::EditFilter filter = RingEnabled(spec)
                                          ? editdist::EditFilter::kRing
                                          : editdist::EditFilter::kPivotal;
  engine::EditAdapter adapter(std::move(searcher), data.get(), filter,
                              spec.chain_length);
  return std::unique_ptr<const AnySearcher>(new EditModel(
      std::move(data), std::move(adapter), static_cast<int>(spec.tau)));
}

StatusOr<std::unique_ptr<const AnySearcher>> BuildGraph(
    const IndexSpec& spec, std::vector<graphed::Graph> graphs) {
  auto data =
      std::make_unique<std::vector<graphed::Graph>>(std::move(graphs));
  graphed::GraphSearcher searcher(data.get(), static_cast<int>(spec.tau),
                                  spec.partition_seed);
  const graphed::GraphFilter filter = RingEnabled(spec)
                                          ? graphed::GraphFilter::kRing
                                          : graphed::GraphFilter::kPars;
  engine::GraphAdapter adapter(std::move(searcher), data.get(), filter,
                               spec.chain_length);
  return std::unique_ptr<const AnySearcher>(new GraphModel(
      std::move(data), std::move(adapter), static_cast<int>(spec.tau)));
}

// --- Persisted-index support ---
//
// The kSpec section stores the canonical build-relevant spec fields so a
// mismatched open can name the exact disagreeing field instead of only
// failing the header fingerprint check. Encoding: u32 domain, f64 tau,
// i32 num_parts, u32 measure, i32 num_boxes, i32 kappa, u64 partition_seed,
// u32 fast_path_built (1 iff the edit domain persisted the
// case-decomposition index instead of the gram machinery — a structural
// fact about the file, deliberately outside BuildFingerprint so either
// pipeline's index satisfies the same fingerprint).

void AddSpecSection(const IndexSpec& spec, storage::IndexFileWriter& writer) {
  storage::ByteWriter w;
  w.U32(static_cast<uint32_t>(spec.domain));
  w.F64(spec.tau);
  w.I32(spec.num_parts);
  w.U32(static_cast<uint32_t>(spec.measure));
  w.I32(spec.num_boxes);
  w.I32(spec.kappa);
  w.U64(spec.partition_seed);
  w.U32(spec.domain == Domain::kEdit &&
                spec.edit_fast_path == EditFastPath::kOn
            ? 1
            : 0);
  writer.AddSection(storage::SectionId::kSpec, std::move(w).Take());
}

Status SpecMismatch(const std::string& field, const std::string& built,
                    const std::string& requested) {
  return Status::FailedPrecondition(
      "index was built with " + field + "=" + built +
      " but the spec requests " + field + "=" + requested +
      "; rebuild the index or adjust the spec");
}

/// Cross-checks the opening spec against the file's kSpec section,
/// comparing only the fields that shaped the persisted structures. For the
/// edit domain this also *resolves* `spec.edit_fast_path`: kAuto adopts
/// whatever index the file actually holds, while an explicit kOn / kOff
/// that contradicts it is a named mismatch.
Status CheckSpecSection(IndexSpec& spec,
                        const storage::IndexFileReader& reader) {
  auto section = reader.Section(storage::SectionId::kSpec);
  if (!section.ok()) return section.status();
  storage::ByteReader r = *section;
  const uint32_t domain = r.U32();
  const double tau = r.F64();
  const int num_parts = r.I32();
  const uint32_t measure = r.U32();
  const int num_boxes = r.I32();
  const int kappa = r.I32();
  const uint64_t partition_seed = r.U64();
  const uint32_t fast_path_built = r.U32();
  if (!r.AtEnd()) {
    return Status::DataLoss("index section 1 corrupt: malformed spec");
  }
  if (domain != static_cast<uint32_t>(spec.domain)) {
    return SpecMismatch("domain",
                        DomainName(static_cast<Domain>(domain)),
                        DomainName(spec.domain));
  }
  if (tau != spec.tau) {
    return SpecMismatch("tau", std::to_string(tau),
                        std::to_string(spec.tau));
  }
  switch (spec.domain) {
    case Domain::kHamming:
      if (num_parts != spec.num_parts) {
        return SpecMismatch("num_parts", std::to_string(num_parts),
                            std::to_string(spec.num_parts));
      }
      break;
    case Domain::kSet:
      if (measure != static_cast<uint32_t>(spec.measure)) {
        return SpecMismatch("measure",
                            measure == 0 ? "jaccard" : "overlap",
                            spec.measure == setsim::SetMeasure::kJaccard
                                ? "jaccard"
                                : "overlap");
      }
      if (num_boxes != spec.num_boxes) {
        return SpecMismatch("num_boxes", std::to_string(num_boxes),
                            std::to_string(spec.num_boxes));
      }
      break;
    case Domain::kEdit: {
      if (kappa != spec.kappa) {
        return SpecMismatch("kappa", std::to_string(kappa),
                            std::to_string(spec.kappa));
      }
      const bool built_fast = fast_path_built != 0;
      if (spec.edit_fast_path == EditFastPath::kAuto) {
        spec.edit_fast_path =
            built_fast ? EditFastPath::kOn : EditFastPath::kOff;
      } else if ((spec.edit_fast_path == EditFastPath::kOn) != built_fast) {
        return SpecMismatch("fast_path", built_fast ? "on" : "off",
                            EditFastPathName(spec.edit_fast_path));
      }
      break;
    }
    case Domain::kGraph:
      if (partition_seed != spec.partition_seed) {
        return SpecMismatch("partition_seed",
                            std::to_string(partition_seed),
                            std::to_string(spec.partition_seed));
      }
      break;
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<const AnySearcher>> LoadHamming(
    const IndexSpec& spec, const storage::IndexFileReader& reader) {
  auto loaded = storage::LoadHammingSections(reader);
  if (!loaded.ok()) return loaded.status();
  const int dimensions =
      loaded->objects.empty() ? 0 : loaded->objects.front().dimensions();
  const int num_parts = loaded->index->partition().num_parts();
  // The same dataset-dependent check the build path runs: the partition
  // count only becomes known here.
  if (!loaded->objects.empty() && spec.chain_length > num_parts) {
    return Status::InvalidArgument(
        "chain_length=" + std::to_string(spec.chain_length) +
        " exceeds the " + std::to_string(num_parts) +
        " partitions of the saved index");
  }
  const int chain = RingEnabled(spec) ? spec.chain_length : 1;
  engine::HammingAdapter adapter(
      hamming::HammingSearcher::FromBuilt(std::move(loaded->objects),
                                          std::move(loaded->index)),
      static_cast<int>(spec.tau), chain, spec.allocation);
  return std::unique_ptr<const AnySearcher>(new HammingModel(
      std::move(adapter), dimensions, static_cast<int>(spec.tau)));
}

StatusOr<std::unique_ptr<const AnySearcher>> LoadSet(
    const IndexSpec& spec, const storage::IndexFileReader& reader) {
  auto loaded = storage::LoadSetSections(reader, spec.num_boxes);
  if (!loaded.ok()) return loaded.status();
  setsim::PkwiseSearcher searcher = setsim::PkwiseSearcher::FromBuilt(
      loaded->collection.get(), spec.tau, spec.num_boxes, spec.measure,
      std::move(loaded->index));
  const int chain = RingEnabled(spec) ? spec.chain_length : 1;
  engine::SetAdapter adapter(std::move(searcher), loaded->collection.get(),
                             chain);
  return std::unique_ptr<const AnySearcher>(
      new SetModel(std::move(loaded->collection), std::move(adapter),
                   spec.tau, spec.measure));
}

StatusOr<std::unique_ptr<const AnySearcher>> LoadEditFast(
    const IndexSpec& spec, const storage::IndexFileReader& reader) {
  auto loaded =
      storage::LoadEditFastSections(reader, static_cast<int>(spec.tau));
  if (!loaded.ok()) return loaded.status();
  editdist::CaseDecSearcher searcher = editdist::CaseDecSearcher::FromBuilt(
      loaded->data.get(), static_cast<int>(spec.tau),
      std::move(loaded->cases));
  engine::EditFastAdapter adapter(std::move(searcher), loaded->data.get(),
                                  spec.chain_length);
  return std::unique_ptr<const AnySearcher>(
      new EditFastModel(std::move(loaded->data), std::move(adapter),
                        static_cast<int>(spec.tau)));
}

StatusOr<std::unique_ptr<const AnySearcher>> LoadEdit(
    const IndexSpec& spec, const storage::IndexFileReader& reader) {
  if (spec.edit_fast_path == EditFastPath::kOn) {
    return LoadEditFast(spec, reader);
  }
  auto loaded = storage::LoadEditSections(reader, static_cast<int>(spec.tau),
                                          spec.kappa);
  if (!loaded.ok()) return loaded.status();
  editdist::EditDistanceSearcher searcher =
      editdist::EditDistanceSearcher::FromBuilt(
          loaded->data.get(), static_cast<int>(spec.tau), spec.kappa,
          std::move(loaded->index));
  const editdist::EditFilter filter = RingEnabled(spec)
                                          ? editdist::EditFilter::kRing
                                          : editdist::EditFilter::kPivotal;
  engine::EditAdapter adapter(std::move(searcher), loaded->data.get(),
                              filter, spec.chain_length);
  return std::unique_ptr<const AnySearcher>(
      new EditModel(std::move(loaded->data), std::move(adapter),
                    static_cast<int>(spec.tau)));
}

StatusOr<std::unique_ptr<const AnySearcher>> LoadGraph(
    const IndexSpec& spec, const storage::IndexFileReader& reader) {
  auto loaded =
      storage::LoadGraphSections(reader, static_cast<int>(spec.tau));
  if (!loaded.ok()) return loaded.status();
  graphed::GraphSearcher searcher = graphed::GraphSearcher::FromBuilt(
      loaded->data.get(), static_cast<int>(spec.tau),
      std::move(loaded->state));
  const graphed::GraphFilter filter = RingEnabled(spec)
                                          ? graphed::GraphFilter::kRing
                                          : graphed::GraphFilter::kPars;
  engine::GraphAdapter adapter(std::move(searcher), loaded->data.get(),
                               filter, spec.chain_length);
  return std::unique_ptr<const AnySearcher>(
      new GraphModel(std::move(loaded->data), std::move(adapter),
                     static_cast<int>(spec.tau)));
}

/// Wraps a fresh searcher + executor into an epoch-0 hub.
std::shared_ptr<DbHub> MakeHub(
    IndexSpec spec, std::unique_ptr<const AnySearcher> searcher) {
  auto state = std::make_shared<DbState>();
  state->spec = std::move(spec);
  state->searcher =
      std::shared_ptr<const AnySearcher>(std::move(searcher));
  // The snapshot-scoped executor starts at the spec's default width and
  // grows (once per width) when a RunOptions override asks for more.
  state->executor =
      std::make_unique<engine::Executor>(state->spec.num_threads);
  auto hub = std::make_shared<DbHub>();
  hub->current = std::move(state);
  hub->delta = std::make_shared<DeltaSnapshot>();
  return hub;
}

}  // namespace

StatusOr<std::unique_ptr<const AnySearcher>> BuildSearcher(IndexSpec& spec,
                                                           Dataset dataset) {
  switch (spec.domain) {
    case Domain::kHamming:
      return BuildHamming(
          spec, std::get<std::vector<BitVector>>(std::move(dataset)));
    case Domain::kSet:
      return BuildSet(
          spec, std::get<std::vector<std::vector<int>>>(std::move(dataset)));
    case Domain::kEdit:
      return BuildEdit(spec,
                       std::get<std::vector<std::string>>(std::move(dataset)));
    case Domain::kGraph:
      break;
  }
  return BuildGraph(spec,
                    std::get<std::vector<graphed::Graph>>(std::move(dataset)));
}

StatusOr<std::unique_ptr<const AnySearcher>> RebuildWithDelta(
    const IndexSpec& spec, const AnySearcher& base,
    const DeltaSnapshot& delta) {
  // Reconstruct the merged raw dataset in post-compaction id order: base
  // survivors in id order, then live inserts in log order. A cold
  // Db::Open over this dataset builds the identical searcher — the
  // byte-identity the churn tests pin.
  Dataset dataset = base.RawDataset();
  std::visit(
      [&delta](auto& records) {
        using Records = std::decay_t<decltype(records)>;
        using T = typename Records::value_type;
        if (!delta.removed_base.empty()) {
          Records kept;
          kept.reserve(records.size() - delta.removed_base.size());
          for (int id = 0; id < static_cast<int>(records.size()); ++id) {
            if (!engine::SortedContains(delta.removed_base, id)) {
              kept.push_back(std::move(records[id]));
            }
          }
          records = std::move(kept);
        }
        for (int k = 0; k < static_cast<int>(delta.inserts.size()); ++k) {
          if (engine::SortedContains(delta.removed_delta, k)) continue;
          if constexpr (std::is_same_v<T, std::vector<int>>) {
            records.push_back(std::get<SetQuery>(delta.inserts[k]).tokens);
          } else {
            records.push_back(std::get<T>(delta.inserts[k]));
          }
        }
      },
      dataset);
  // The spec is already resolved (edit_fast_path is kOn or kOff, never
  // kAuto), so the rebuild cannot silently switch pipelines mid-life.
  IndexSpec resolved = spec;
  return BuildSearcher(resolved, std::move(dataset));
}

}  // namespace internal

Db::Db(std::shared_ptr<internal::DbHub> hub)
    : hub_(std::move(hub)), spec_(hub_->current->spec) {}

// Copies share the hub (and so the epochs and any writer's mutations).
Db::Db(const Db& other) = default;
Db& Db::operator=(const Db& other) = default;
Db::Db(Db&&) noexcept = default;
Db& Db::operator=(Db&&) noexcept = default;
Db::~Db() = default;

StatusOr<Db> Db::Open(const IndexSpec& spec, Dataset dataset) {
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  if (DatasetDomain(dataset) != spec.domain) {
    return Status::InvalidArgument(
        "dataset holds " + std::string(DomainName(DatasetDomain(dataset))) +
        " records but the spec's domain is " + DomainName(spec.domain));
  }
  // BuildSearcher resolves edit_fast_path=kAuto against the dataset's
  // shape; the resolved spec is what the database reports, what Save
  // persists, and what every compaction rebuilds under.
  IndexSpec resolved = spec;
  auto searcher = internal::BuildSearcher(resolved, std::move(dataset));
  if (!searcher.ok()) return searcher.status();
  return Db(internal::MakeHub(std::move(resolved),
                              std::move(searcher).value()));
}

StatusOr<Db> Db::Open(const IndexSpec& spec,
                      const std::string& dataset_path) {
  // Validate before touching the filesystem so spec errors win over load
  // errors, and load in the domain's format.
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  // A persisted index announces itself by its magic; everything else goes
  // through the raw dataset loaders.
  if (storage::LooksLikeIndexFile(dataset_path)) {
    return OpenIndex(spec, dataset_path);
  }
  switch (spec.domain) {
    case Domain::kHamming: {
      auto loaded = io::LoadBitVectors(dataset_path);
      if (!loaded.ok()) return loaded.status();
      return Open(spec, Dataset(std::move(loaded).value()));
    }
    case Domain::kSet: {
      auto loaded = io::LoadTokenSets(dataset_path);
      if (!loaded.ok()) return loaded.status();
      return Open(spec, Dataset(std::move(loaded).value()));
    }
    case Domain::kEdit: {
      auto loaded = io::LoadStrings(dataset_path);
      if (!loaded.ok()) return loaded.status();
      return Open(spec, Dataset(std::move(loaded).value()));
    }
    case Domain::kGraph:
      break;
  }
  auto loaded = io::LoadGraphs(dataset_path);
  if (!loaded.ok()) return loaded.status();
  return Open(spec, Dataset(std::move(loaded).value()));
}

StatusOr<Db> Db::OpenIndex(const IndexSpec& spec,
                           const std::string& index_path) {
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  auto reader = storage::IndexFileReader::Open(index_path);
  if (!reader.ok()) return reader.status();
  if (reader->domain() != static_cast<uint32_t>(spec.domain)) {
    const uint32_t d = reader->domain();
    return Status::FailedPrecondition(
        "index file holds a " +
        std::string(d <= 3 ? DomainName(static_cast<Domain>(d)) : "unknown") +
        " index but the spec's domain is " + DomainName(spec.domain) +
        "; rebuild the index or adjust the spec");
  }
  // The kSpec section names the exact disagreeing build field; the header
  // fingerprint is the backstop (it also catches a spec section that was
  // tampered into agreement). For the edit domain the check also resolves
  // edit_fast_path=kAuto from the file's fast_path_built flag.
  IndexSpec resolved = spec;
  Status spec_check = internal::CheckSpecSection(resolved, *reader);
  if (!spec_check.ok()) return spec_check;
  if (reader->spec_fingerprint() != BuildFingerprint(resolved)) {
    return Status::FailedPrecondition(
        "index file was built under a different spec (fingerprint "
        "mismatch); rebuild the index");
  }
  // kShardMap (written by sharded saves of earlier releases) is a reserved
  // section this reader skips: such files open and serve unsharded.
  StatusOr<std::unique_ptr<const internal::AnySearcher>> searcher = [&] {
    switch (resolved.domain) {
      case Domain::kHamming:
        return internal::LoadHamming(resolved, *reader);
      case Domain::kSet:
        return internal::LoadSet(resolved, *reader);
      case Domain::kEdit:
        return internal::LoadEdit(resolved, *reader);
      case Domain::kGraph:
        break;
    }
    return internal::LoadGraph(resolved, *reader);
  }();
  if (!searcher.ok()) return searcher.status();
  return Db(internal::MakeHub(std::move(resolved),
                              std::move(searcher).value()));
}

Status Db::Save(const std::string& path) const {
  // Freeze a consistent (epoch, delta) pair; with pending mutations the
  // compacted state is serialized (without publishing it), so the file is
  // byte-identical to saving after Writer::Compact().
  internal::HubView view = internal::AcquireView(*hub_);
  const internal::AnySearcher* to_save = view.state->searcher.get();
  std::unique_ptr<const internal::AnySearcher> compacted;
  if (!view.delta->Empty()) {
    auto rebuilt = internal::RebuildWithDelta(view.state->spec,
                                              *view.state->searcher,
                                              *view.delta);
    if (!rebuilt.ok()) return rebuilt.status();
    compacted = std::move(rebuilt).value();
    to_save = compacted.get();
  }
  storage::IndexFileWriter writer;
  internal::AddSpecSection(view.state->spec, writer);
  to_save->SaveSections(writer);
  return writer.WriteTo(path, static_cast<uint32_t>(view.state->spec.domain),
                        BuildFingerprint(view.state->spec));
}

const IndexSpec& Db::spec() const { return spec_; }

Domain Db::domain() const { return spec_.domain; }

int Db::num_records() const {
  internal::HubView view = internal::AcquireView(*hub_);
  return internal::MergedSize(*view.state->searcher, *view.delta);
}

StatusOr<Query> Db::RecordQuery(int id) const {
  internal::HubView view = internal::AcquireView(*hub_);
  return internal::MergedRecordQuery(*view.state->searcher, *view.delta, id);
}

uint64_t Db::epoch() const {
  return internal::AcquireView(*hub_).epoch;
}

int Db::pending_mutations() const {
  return static_cast<int>(internal::AcquireView(*hub_).delta->NumMutations());
}

Session Db::NewSession() const {
  internal::HubView view = internal::AcquireView(*hub_);
  return Session(std::move(view.state), std::move(view.delta));
}

StatusOr<Writer> Db::NewWriter() const {
  std::shared_ptr<const internal::DbState> retired;
  {
    std::lock_guard<std::mutex> lock(hub_->mu);
    retired = internal::InstallPendingLocked(*hub_);
    if (hub_->writer_alive) {
      return Status::FailedPrecondition(
          "a Writer for this database is already active (single-writer, "
          "many-reader); destroy it before minting another");
    }
    hub_->writer_alive = true;
  }
  // `retired` (if any) dies here, on a user thread and outside the lock.
  return Writer(hub_, spec_);
}

}  // namespace pigeonring::api
