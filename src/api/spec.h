// Declarative index specification and the type-erased query/dataset types
// of the public API (api/db.h).
//
// An IndexSpec names a domain (one of the paper's four case studies) and
// every knob the engine needs — selection threshold, pigeonring chain
// length, measure / filter / allocation mode, threading — so that opening
// an index is one declarative call instead of hand-wiring a domain
// searcher, its collection, and an engine adapter. Validate() front-runs
// every constructor precondition of the wrapped searchers with a typed
// Status error, so invalid specs never reach a PR_CHECK abort.
//
// Query and Dataset are the type-erased counterparts of the per-domain
// query/record types: a Query holds exactly one of the four domain query
// representations, a Dataset one of the four collection representations.
// Db validates both against the index's domain and returns
// kInvalidArgument on mismatch rather than crashing.

#ifndef PIGEONRING_API_SPEC_H_
#define PIGEONRING_API_SPEC_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "graphed/graph.h"
#include "hamming/search.h"
#include "setsim/pkwise.h"

namespace pigeonring::api {

/// The four case-study domains of §6.
enum class Domain {
  kHamming,  // binary vectors under Hamming distance (§6.1)
  kSet,      // token sets under Jaccard / overlap similarity (§6.2)
  kEdit,     // strings under edit distance (§6.3)
  kGraph,    // labeled graphs under graph edit distance (§6.4)
};

/// CLI-facing domain names: "hamming", "sets", "strings", "graphs".
const char* DomainName(Domain domain);
StatusOr<Domain> ParseDomain(const std::string& name);

/// Which filter the searcher runs. kAuto derives the mode from the chain
/// length (chain_length > 1 enables the pigeonring filter, otherwise the
/// domain's pigeonhole baseline: GPH, pkwise, Pivotal, or Pars).
enum class FilterMode {
  kAuto,
  kBaseline,  // force the pigeonhole baseline; requires chain_length == 1
  kRing,      // force the pigeonring filter (chain_length 1 is legal and
              // degenerates to single-box chains)
};

/// Whether the edit domain uses the fixed-length case-decomposition fast
/// path (editdist/casedec.h) instead of the pivotal q-gram pipeline. kAuto
/// lets Db::Open ask core/advisor once the dataset's shape is known; kOn
/// demands the fast path and fails with kInvalidArgument when the dataset
/// is not eligible (mixed lengths, empty strings, or strings longer than
/// CaseDecSearcher::kMaxLength); kOff forces the pivotal path. Both paths
/// return identical results, so the choice is excluded from
/// BuildFingerprint — but the persisted index structures differ, so
/// Db::OpenIndex resolves kAuto from what the file actually holds and
/// rejects a kOn/kOff contradiction with kFailedPrecondition.
enum class EditFastPath {
  kAuto,
  kOn,
  kOff,
};

/// CLI-facing fast-path names: "auto", "on", "off".
const char* EditFastPathName(EditFastPath mode);
StatusOr<EditFastPath> ParseEditFastPath(const std::string& name);

/// Everything needed to open a Db over one dataset. Domain-specific fields
/// are ignored by the other domains except where Validate() flags a
/// contradiction (e.g. a non-default measure outside the set domain).
struct IndexSpec {
  Domain domain = Domain::kHamming;

  /// Selection threshold. Hamming / edit / graph distances require a
  /// non-negative integral tau; Jaccard requires tau in (0, 1]; overlap
  /// requires an integral tau >= 1.
  double tau = -1;

  /// Pigeonring chain length l; 1 is the pigeonhole baseline. Must not
  /// exceed the number of boxes (m partitions for Hamming, num_boxes for
  /// sets, tau + 1 for edit / graph distance).
  int chain_length = 1;

  FilterMode filter = FilterMode::kAuto;

  /// Default threading for SearchBatch / SelfJoin (overridable per call):
  /// 0 = hardware concurrency, 1 = sequential.
  int num_threads = 1;
  /// Probes claimed per scheduling step by the thread pool.
  int chunk = 8;

  // --- Hamming ---
  /// Partition count m; 0 = the paper's default floor(d / 16) (min 1).
  int num_parts = 0;
  hamming::AllocationMode allocation = hamming::AllocationMode::kCostModel;

  // --- Sets ---
  setsim::SetMeasure measure = setsim::SetMeasure::kJaccard;
  /// m of §6.2 (m - 1 token classes + 1 suffix box); the paper's default
  /// is 5. Must be >= 2.
  int num_boxes = 5;

  // --- Edit distance ---
  /// q-gram length kappa (the paper uses 2..3 for short strings).
  int kappa = 2;
  /// Fixed-length case-decomposition fast path selection.
  EditFastPath edit_fast_path = EditFastPath::kAuto;

  // --- Graph edit distance ---
  uint64_t partition_seed = 1;

  // --- Mutability (api::Writer, api/writer.h) ---
  /// Background compaction triggers when the writer's pending mutation
  /// count (inserts + removals since the last compaction) reaches this
  /// many entries. 0 disables the size trigger (explicit Writer::Compact()
  /// and the ratio trigger still apply). Serving-time knob: excluded from
  /// BuildFingerprint and never persisted, so it can differ between the
  /// saving and the opening process.
  int delta_compact_threshold = 256;
  /// Background compaction also triggers when the pending mutation count
  /// reaches this fraction of the base snapshot's record count (only
  /// meaningful while the base is nonempty). 0 disables the ratio trigger.
  double delta_compact_ratio = 0;

  /// Checks every dataset-independent invariant (thresholds, chain length
  /// vs box counts, measure / filter / domain consistency, thread counts).
  /// Dataset-dependent checks (e.g. chain length vs the Hamming partition
  /// count derived from the dimensionality) happen in Db::Open.
  Status Validate() const;
};

/// FNV-1a hash over the *build-relevant* spec fields — the ones that shape
/// the persisted index structures: domain, tau, and the domain's structural
/// knobs (num_parts / measure + num_boxes / kappa / partition_seed).
/// Query-time and serving-time fields (chain_length, filter, allocation,
/// threading, the delta_compact_* writer knobs) are deliberately excluded
/// so an index saved under one serving configuration opens under any
/// other. Stored in the index file header; Db::OpenIndex rejects a
/// mismatch with kFailedPrecondition.
uint64_t BuildFingerprint(const IndexSpec& spec);

/// A query in exactly one domain representation. The set alternative
/// carries raw token ids by default; Db maps them through the collection's
/// frequency-rank dictionary. Queries returned by Db::RecordQuery carry
/// raw token ids too (sorted, deduplicated), so a record query can be
/// re-inserted through a Writer or compared against raw data directly.
struct SetQuery {
  std::vector<int> tokens;
  /// True iff `tokens` are frequency ranks of the opened collection
  /// instead of raw token ids. Ranked queries remain accepted as input
  /// for callers that precomputed ranks against the base dictionary.
  bool ranked = false;
};

using Query = std::variant<BitVector,        // kHamming
                           SetQuery,         // kSet
                           std::string,      // kEdit
                           graphed::Graph>;  // kGraph

/// The domain a query value belongs to.
Domain QueryDomain(const Query& query);

using Dataset = std::variant<std::vector<BitVector>,         // kHamming
                             std::vector<std::vector<int>>,  // kSet (raw)
                             std::vector<std::string>,       // kEdit
                             std::vector<graphed::Graph>>;   // kGraph

/// The domain a dataset value belongs to.
Domain DatasetDomain(const Dataset& dataset);

}  // namespace pigeonring::api

#endif  // PIGEONRING_API_SPEC_H_
