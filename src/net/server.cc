#include "net/server.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "api/writer.h"
#include "common/histogram.h"
#include "common/timer.h"
#include "net/socket.h"
#include "storage/bytes.h"

namespace pigeonring::net {

namespace {

using storage::ByteReader;
using storage::ByteWriter;

constexpr auto kDrainPoll = std::chrono::milliseconds(20);

Status SendReply(Socket& socket, Op op, const std::vector<uint8_t>& payload) {
  return SendFrame(socket, static_cast<uint8_t>(op) | kReplyBit, payload);
}

Status SendErrorFrame(Socket& socket, const Status& error) {
  ByteWriter w;
  EncodeErrorPayload(w, error);
  return SendFrame(socket, kErrorOp, w.data());
}

}  // namespace

struct Server::Impl {
  Impl(api::Db db_in, ServerOptions options_in)
      : db(std::move(db_in)), options(std::move(options_in)) {}

  api::Db db;
  ServerOptions options;
  Listener listener;
  std::thread accept_thread;

  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conn_mu;
  std::vector<std::unique_ptr<Connection>> connections;

  std::atomic<bool> stopping{false};
  std::mutex stop_mu;  // serializes Stop(); `stopped` latches completion
  bool stopped = false;

  // Admission control + drain signal: inflight counts admission-controlled
  // ops between Admit() and Done(); Stop() waits for it to hit 0.
  std::atomic<int> inflight{0};
  std::mutex drain_mu;
  std::condition_variable drain_cv;

  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> protocol_errors{0};

  // Bumped by every successful mutation; connection threads re-mint their
  // session when it moved, so every connection reads its (and everyone
  // else's) committed writes.
  std::atomic<uint64_t> mutation_seq{0};

  // The shared single-writer mutation handle, created on first use.
  std::mutex writer_mu;
  std::optional<api::Writer> writer;

  // Per-op latency digests, indexed by raw op code (microseconds).
  mutable std::mutex hist_mu;
  std::array<Histogram, 16> op_hist;

  bool Admit() {
    int cur = inflight.load(std::memory_order_relaxed);
    while (cur < options.max_inflight) {
      if (inflight.compare_exchange_weak(cur, cur + 1)) return true;
    }
    return false;
  }

  void Done() {
    if (inflight.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(drain_mu);
      drain_cv.notify_all();
    }
  }

  void RecordLatency(uint8_t op, double micros) {
    std::lock_guard<std::mutex> lock(hist_mu);
    op_hist[op % op_hist.size()].Record(micros);
  }

  ServerStats Snapshot() const {
    ServerStats stats;
    stats.num_records = db.num_records();
    stats.epoch = db.epoch();
    stats.accepted = accepted.load();
    stats.shed = shed.load();
    stats.protocol_errors = protocol_errors.load();
    stats.pending_mutations = db.pending_mutations();
    std::lock_guard<std::mutex> lock(hist_mu);
    for (size_t op = 0; op < op_hist.size(); ++op) {
      if (op_hist[op].count() == 0) continue;
      OpStats row;
      row.op = static_cast<uint8_t>(op);
      row.count = op_hist[op].count();
      row.p50_micros = op_hist[op].P50();
      row.p99_micros = op_hist[op].P99();
      stats.ops.push_back(row);
    }
    return stats;
  }

  // Runs a mutation under the shared writer, creating it on first use.
  // The callback returns the encoded success payload or an error.
  template <typename Fn>
  Status WithWriter(Fn&& fn) {
    std::lock_guard<std::mutex> lock(writer_mu);
    if (!writer.has_value()) {
      auto minted = db.NewWriter();
      if (!minted.ok()) return minted.status();
      writer.emplace(std::move(minted).value());
    }
    return fn(*writer);
  }

  // Handles one decoded request; returns the status of the socket write
  // (a failed write ends the connection; a typed op error does not).
  Status Dispatch(Socket& socket, api::Session& session, Op op,
                  const std::vector<uint8_t>& payload);

  void ServeConnection(Connection* conn);
  void AcceptLoop();
};

namespace {

// Drains a future without burning a core; WaitFor keeps the loop finite
// even on an empty handle.
template <typename T>
StatusOr<T> Drain(api::Future<T> future) {
  while (!future.WaitFor(kDrainPoll)) {
  }
  return future.Get();
}

}  // namespace

Status Server::Impl::Dispatch(Socket& socket, api::Session& session, Op op,
                              const std::vector<uint8_t>& payload) {
  ByteReader r(payload.data(), payload.size());
  switch (op) {
    case Op::kPing: {
      if (!payload.empty()) {
        return SendErrorFrame(socket,
                              Status::InvalidArgument("ping takes no payload"));
      }
      return SendReply(socket, op, {});
    }
    case Op::kSearch: {
      api::Query query;
      if (!DecodeQuery(r, &query) || !r.AtEnd()) {
        return SendErrorFrame(
            socket, Status::InvalidArgument("malformed search payload"));
      }
      auto result = Drain(session.SubmitBatch({std::move(query)}));
      if (!result.ok()) return SendErrorFrame(socket, result.status());
      SearchReply reply;
      reply.ids = std::move(result->ids[0]);
      reply.candidates = result->stats.candidates;
      reply.results = result->stats.results;
      ByteWriter w;
      EncodeSearchReply(w, reply);
      return SendReply(socket, op, w.data());
    }
    case Op::kBatch: {
      std::vector<api::Query> queries;
      if (!DecodeQueries(r, &queries) || !r.AtEnd()) {
        return SendErrorFrame(
            socket, Status::InvalidArgument("malformed batch payload"));
      }
      auto result = Drain(session.SubmitBatch(std::move(queries)));
      if (!result.ok()) return SendErrorFrame(socket, result.status());
      BatchReply reply;
      reply.ids = std::move(result->ids);
      reply.candidates = result->stats.candidates;
      reply.results = result->stats.results;
      reply.server_millis = result->wall_millis;
      ByteWriter w;
      EncodeBatchReply(w, reply);
      return SendReply(socket, op, w.data());
    }
    case Op::kSelfJoin: {
      if (!payload.empty()) {
        return SendErrorFrame(socket,
                              Status::InvalidArgument("join takes no payload"));
      }
      auto result = Drain(session.SubmitSelfJoin());
      if (!result.ok()) return SendErrorFrame(socket, result.status());
      JoinReply reply;
      reply.pairs = std::move(result->pairs);
      reply.candidates = result->stats.candidates;
      reply.server_millis = result->wall_millis;
      ByteWriter w;
      EncodeJoinReply(w, reply);
      return SendReply(socket, op, w.data());
    }
    case Op::kInsert: {
      api::Query query;
      if (!DecodeQuery(r, &query) || !r.AtEnd()) {
        return SendErrorFrame(
            socket, Status::InvalidArgument("malformed insert payload"));
      }
      int id = -1;
      Status s = WithWriter([&](api::Writer& w) -> Status {
        auto assigned = w.Insert(query);
        if (!assigned.ok()) return assigned.status();
        id = *assigned;
        return Status::Ok();
      });
      if (!s.ok()) return SendErrorFrame(socket, s);
      mutation_seq.fetch_add(1);
      ByteWriter w;
      w.I32(id);
      return SendReply(socket, op, w.data());
    }
    case Op::kRemove: {
      const int32_t id = r.I32();
      if (!r.ok() || !r.AtEnd()) {
        return SendErrorFrame(
            socket, Status::InvalidArgument("malformed remove payload"));
      }
      Status s =
          WithWriter([&](api::Writer& w) -> Status { return w.Remove(id); });
      if (!s.ok()) return SendErrorFrame(socket, s);
      mutation_seq.fetch_add(1);
      return SendReply(socket, op, {});
    }
    case Op::kCompact: {
      if (!payload.empty()) {
        return SendErrorFrame(
            socket, Status::InvalidArgument("compact takes no payload"));
      }
      Status s =
          WithWriter([&](api::Writer& w) -> Status { return w.Compact(); });
      if (!s.ok()) return SendErrorFrame(socket, s);
      mutation_seq.fetch_add(1);
      return SendReply(socket, op, {});
    }
    case Op::kStats: {
      if (!payload.empty()) {
        return SendErrorFrame(
            socket, Status::InvalidArgument("stats takes no payload"));
      }
      ByteWriter w;
      EncodeServerStats(w, Snapshot());
      return SendReply(socket, op, w.data());
    }
    case Op::kRecord: {
      const int32_t id = r.I32();
      if (!r.ok() || !r.AtEnd()) {
        return SendErrorFrame(
            socket, Status::InvalidArgument("malformed record payload"));
      }
      auto query = session.RecordQuery(id);
      if (!query.ok()) return SendErrorFrame(socket, query.status());
      ByteWriter w;
      EncodeQuery(w, *query);
      return SendReply(socket, op, w.data());
    }
  }
  return SendErrorFrame(socket, Status::InvalidArgument("unknown op code"));
}

void Server::Impl::ServeConnection(Connection* conn) {
  // The per-connection session, re-minted when the database mutated so
  // every request sees all previously acknowledged writes.
  api::Session session = db.NewSession();
  uint64_t session_seq = mutation_seq.load();
  while (true) {
    FrameResult in = RecvFrame(conn->socket);
    if (!in.status.ok()) {
      if (in.status.code() == StatusCode::kUnavailable) break;  // peer closed
      protocol_errors.fetch_add(1);
      // Best-effort typed error; a recoverable (still-framed) stream keeps
      // the connection, anything else closes it.
      const Status sent = SendErrorFrame(conn->socket, in.status);
      if (!in.stream_intact || !sent.ok()) break;
      continue;
    }
    if (!KnownRequestOp(in.frame.op)) {
      protocol_errors.fetch_add(1);
      const Status sent = SendErrorFrame(
          conn->socket, Status::InvalidArgument(
                            "unknown op code " + std::to_string(in.frame.op)));
      if (!sent.ok()) break;
      continue;
    }
    const Op op = static_cast<Op>(in.frame.op);
    // Admission control for the ops that hit the executor or the writer;
    // ping / stats / record stay cheap control-plane ops.
    const bool controlled =
        op != Op::kPing && op != Op::kStats && op != Op::kRecord;
    if (controlled && !Admit()) {
      shed.fetch_add(1);
      const Status sent = SendErrorFrame(
          conn->socket,
          Status::ResourceExhausted(
              "server at capacity: " + std::to_string(options.max_inflight) +
              " ops in flight"));
      if (!sent.ok()) break;
      continue;
    }
    // `accepted` is the admission counterpart of `shed`: it counts only
    // admission-controlled ops, not the ping/stats/record control plane.
    if (controlled) accepted.fetch_add(1);
    const uint64_t seq = mutation_seq.load();
    if (seq != session_seq) {
      session = db.NewSession();
      session_seq = seq;
    }
    StopWatch watch;
    const Status sent = Dispatch(conn->socket, session, op, in.frame.payload);
    RecordLatency(in.frame.op, watch.ElapsedMillis() * 1000.0);
    if (controlled) Done();
    if (!sent.ok()) break;
  }
  // Shutdown (not Close): the peer must see EOF promptly, but Stop() may
  // concurrently call Shutdown() on this socket from another thread, so
  // the fd has to stay valid until the Connection is destroyed after join
  // (by the reaper or by Stop) — the destructor closes it then. Closing
  // here would race that Shutdown() and could hit a recycled fd; shutdown
  // only reads the fd, which both threads may do freely.
  conn->socket.Shutdown();
  conn->done.store(true);
}

void Server::Impl::AcceptLoop() {
  while (!stopping.load()) {
    auto accepted_socket = listener.Accept();
    if (!accepted_socket.ok()) break;  // listener shut down
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(accepted_socket).value();
    Connection* raw = conn.get();
    std::lock_guard<std::mutex> lock(conn_mu);
    // Reap finished connections so a long-lived server with churning
    // clients does not accumulate dead threads.
    std::erase_if(connections, [](const std::unique_ptr<Connection>& c) {
      if (!c->done.load()) return false;
      if (c->thread.joinable()) c->thread.join();
      return true;
    });
    connections.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

StatusOr<Server> Server::Start(api::Db db, const ServerOptions& options) {
  if (options.max_inflight < 0) {
    return Status::InvalidArgument("max_inflight must be >= 0, got " +
                                   std::to_string(options.max_inflight));
  }
  auto listener = Listener::Bind(options.host, options.port);
  if (!listener.ok()) return listener.status();
  auto impl = std::make_unique<Impl>(std::move(db), options);
  impl->listener = std::move(listener).value();
  Impl* raw = impl.get();
  impl->accept_thread = std::thread([raw] { raw->AcceptLoop(); });
  return Server(std::move(impl));
}

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::Server(Server&&) noexcept = default;
Server& Server::operator=(Server&&) noexcept = default;

Server::~Server() { Stop(); }

int Server::port() const { return impl_->listener.port(); }

ServerStats Server::Snapshot() const { return impl_->Snapshot(); }

void Server::Stop() {
  if (!impl_) return;  // moved-from
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> stop_lock(impl.stop_mu);
  if (impl.stopped) return;
  impl.stopping.store(true);
  // 1. Stop accepting; no new connections once the accept thread exits.
  impl.listener.Shutdown();
  if (impl.accept_thread.joinable()) impl.accept_thread.join();
  // 2. Drain: every admitted op finishes and delivers its reply.
  {
    std::unique_lock<std::mutex> lock(impl.drain_mu);
    impl.drain_cv.wait(lock, [&] { return impl.inflight.load() == 0; });
  }
  // 3. Wake idle connection readers and join every connection thread.
  {
    std::lock_guard<std::mutex> lock(impl.conn_mu);
    for (auto& conn : impl.connections) conn->socket.Shutdown();
  }
  for (auto& conn : impl.connections) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  impl.connections.clear();
  impl.listener.Close();
  // 4. Release the writer (waits out a background compaction).
  {
    std::lock_guard<std::mutex> lock(impl.writer_mu);
    impl.writer.reset();
  }
  impl.stopped = true;
}

}  // namespace pigeonring::net
