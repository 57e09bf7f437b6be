// pigeonring::api::Db — the library's stable, runtime-polymorphic face.
//
// A Db is opened from a declarative IndexSpec plus a dataset (in memory or
// on disk) and answers thresholded similarity queries in whichever of the
// four §6 domains the spec names. A Db is a cheap handle on an epoch of
// immutable state — the domain index, the collection, and a persistent
// engine::Executor — and all querying goes through per-caller handles:
// api::Session for reads (api/session.h), api::Writer for mutations
// (api/writer.h):
//
//   auto db = api::Db::Open(spec, "vectors.ds");
//   if (!db.ok()) { ... db.status() ... }
//   api::Session session = db->NewSession();       // one per caller
//   auto result = session.Search(query);           // StatusOr<SearchResult>
//   auto batch  = session.SearchBatch(queries);    // StatusOr<BatchResult>
//   auto join   = session.SelfJoin();              // StatusOr<JoinResult>
//   auto future = session.SubmitBatch(queries);    // Future<BatchResult>
//   auto writer = db->NewWriter();                 // StatusOr<Writer>
//
// (The transitional Db::Search / SearchBatch / SelfJoin shims are gone:
// Sessions and Writers are the only call surface.)
//
// Sharing: a Db is copyable and movable; copies are handles on the same
// database — they observe the same epochs and the same Writer mutations.
// Everything on Db itself is const and concurrently callable — any number
// of threads may hold the same Db (or copies of it) and mint Sessions
// from it. Sessions pin their epoch, so they and their in-flight futures
// survive the Db handle's destruction.
//
// Every fallible step returns Status / StatusOr — spec validation, dataset
// loading, query/domain mismatches — never exit() or a PR_CHECK abort.
//
// Type-erasure boundary and its cost model: the snapshot wraps the
// compile-time engine::Searcher concept behind one virtual interface, but
// the erasure happens at the *batch* boundary, not per probe. A
// SearchBatch or SelfJoin call costs exactly one virtual dispatch plus one
// conversion of the query list into the domain representation; inside, the
// templated engine::SearchBatch / engine::SelfJoin drivers, their loop
// sharding, and the per-candidate kernels run unchanged and fully inlined.
// Search costs one virtual call per query — fine for interactive use;
// batch paths stay within noise of the templated drivers
// (bench_engine_scaling's facade panel measures this).
//
// Threading: spec.num_threads / spec.chunk are the defaults; RunOptions
// overrides them per call. Every call borrows the snapshot's persistent
// executor — no thread pool is constructed on the steady-state query path.
// Results are byte-identical at every thread count and under any number of
// concurrent sessions (the engine's determinism guarantee).

#ifndef PIGEONRING_API_DB_H_
#define PIGEONRING_API_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/spec.h"
#include "api/writer.h"
#include "common/status.h"

namespace pigeonring::api {

class Db {
 public:
  /// Validates `spec` against `dataset` and builds the domain index.
  /// Typed errors: invalid spec fields, dataset/domain mismatch,
  /// inconsistent record dimensionalities.
  static StatusOr<Db> Open(const IndexSpec& spec, Dataset dataset);

  /// Opens from a file path. If the file starts with the index magic
  /// (storage/index_file.h) it is loaded as a persisted index via
  /// OpenIndex; otherwise it is loaded as a raw dataset in the spec's
  /// domain format (io/dataset_io.h) and indexed from scratch. Load errors
  /// (missing file, malformed content) surface as the loader's Status.
  static StatusOr<Db> Open(const IndexSpec& spec,
                           const std::string& dataset_path);

  /// Opens a persisted index written by Save. The file must carry the same
  /// format version, domain, and build fingerprint as `spec` (chain length,
  /// filter mode, allocation, and threading may differ — they are
  /// query-time knobs). Built state is bulk-loaded; nothing is re-derived,
  /// and the loaded snapshot answers queries byte-identically to one built
  /// from the raw dataset. Typed errors: kInvalidArgument (not an index
  /// file), kDataLoss (checksum mismatch / truncation / corrupt section),
  /// kFailedPrecondition (version or spec mismatch), kNotFound (unreadable
  /// path).
  static StatusOr<Db> OpenIndex(const IndexSpec& spec,
                                const std::string& index_path);

  /// Persists this database's built state (collection + every derived
  /// index structure) to `path` in the storage layer's container format,
  /// replacing any existing file. If a Writer holds pending mutations, the
  /// *compacted* state is serialized — the saved file is byte-identical to
  /// saving after Writer::Compact(), and reopening it yields the merged
  /// records. Deterministic: saving the same state twice produces
  /// byte-identical files.
  Status Save(const std::string& path) const;

  /// Copies are cheap handles on the same database.
  Db(const Db& other);
  Db& operator=(const Db& other);
  Db(Db&&) noexcept;
  Db& operator=(Db&&) noexcept;
  ~Db();

  const IndexSpec& spec() const;
  Domain domain() const;

  /// Record count of the current epoch including live pending inserts.
  int num_records() const;

  /// Record `id` of the opened dataset viewed as a query (the paper's
  /// sample-queries-from-the-dataset protocol). kOutOfRange for bad ids.
  StatusOr<Query> RecordQuery(int id) const;

  /// The number of compactions published so far (0 for a freshly opened
  /// database). Diagnostics only: it says nothing about which mutations a
  /// given Session observes.
  uint64_t epoch() const;

  /// Writer mutations not yet folded in by a compaction: pending inserts
  /// (including ones already removed again) plus pending removals. 0 for a
  /// freshly opened or just-compacted database; the writer-backlog signal
  /// the net stats op serves.
  int pending_mutations() const;

  /// Mints a per-caller query handle over the current epoch + pending
  /// mutations. Cheap (the scratch clone shares all immutable index
  /// state); call it once per caller thread. The Session keeps its epoch
  /// alive independently of this Db.
  Session NewSession() const;

  /// Mints the database's single mutation handle (single-writer,
  /// many-reader). kFailedPrecondition while another Writer is alive —
  /// destroy it first. The Writer keeps the database alive independently
  /// of this Db.
  StatusOr<Writer> NewWriter() const;

 private:
  explicit Db(std::shared_ptr<internal::DbHub> hub);

  std::shared_ptr<internal::DbHub> hub_;
  // The resolved spec is immutable for the database's whole life (epochs
  // rebuild under it), so each handle keeps a plain copy — spec() needs
  // no locking.
  IndexSpec spec_;
};

}  // namespace pigeonring::api

#endif  // PIGEONRING_API_DB_H_
