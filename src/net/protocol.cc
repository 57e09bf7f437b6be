#include "net/protocol.h"

#include <cstring>
#include <utility>
#include <variant>

#include "common/bitvector.h"
#include "graphed/graph.h"
#include "storage/crc32c.h"

namespace pigeonring::net {

namespace {

using storage::ByteReader;
using storage::ByteWriter;

// Query domain tags on the wire (independent of api::Domain's order).
constexpr uint8_t kTagHamming = 0;
constexpr uint8_t kTagSet = 1;
constexpr uint8_t kTagEdit = 2;
constexpr uint8_t kTagGraph = 3;

}  // namespace

bool KnownRequestOp(uint8_t op) {
  return op >= static_cast<uint8_t>(Op::kPing) &&
         op <= static_cast<uint8_t>(Op::kRecord);
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing:
      return "ping";
    case Op::kSearch:
      return "search";
    case Op::kBatch:
      return "batch";
    case Op::kSelfJoin:
      return "join";
    case Op::kInsert:
      return "insert";
    case Op::kRemove:
      return "remove";
    case Op::kCompact:
      return "compact";
    case Op::kStats:
      return "stats";
    case Op::kRecord:
      return "record";
  }
  return "?";
}

WireError WireErrorFromStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
      return WireError::kInvalidArgument;
    case StatusCode::kOutOfRange:
      return WireError::kOutOfRange;
    case StatusCode::kNotFound:
      return WireError::kNotFound;
    case StatusCode::kFailedPrecondition:
      return WireError::kFailedPrecondition;
    case StatusCode::kDataLoss:
      return WireError::kDataLoss;
    case StatusCode::kResourceExhausted:
      return WireError::kResourceExhausted;
    case StatusCode::kUnavailable:
      return WireError::kUnavailable;
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return WireError::kInternal;
}

Status StatusFromWire(uint8_t wire_code, std::string message) {
  switch (static_cast<WireError>(wire_code)) {
    case WireError::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case WireError::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case WireError::kNotFound:
      return Status::NotFound(std::move(message));
    case WireError::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case WireError::kInternal:
      return Status::Internal(std::move(message));
    case WireError::kDataLoss:
      return Status::DataLoss(std::move(message));
    case WireError::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case WireError::kUnavailable:
      return Status::Unavailable(std::move(message));
  }
  return Status::Internal("unknown wire error code " +
                          std::to_string(wire_code) + ": " +
                          std::move(message));
}

// --- Frame I/O ---

Status SendFrame(Socket& socket, uint8_t op,
                 const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  ByteWriter header;
  header.U32(kFrameMagic);
  header.U8(kProtocolVersion);
  header.U8(op);
  header.U8(0);
  header.U8(0);
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U32(storage::Crc32c(payload.data(), payload.size()));
  Status s = socket.SendAll(header.data().data(), header.data().size());
  if (!s.ok()) return s;
  if (payload.empty()) return Status::Ok();
  return socket.SendAll(payload.data(), payload.size());
}

FrameResult RecvFrame(Socket& socket) {
  FrameResult out;
  uint8_t header[kFrameHeaderBytes];
  Status s = socket.RecvAll(header, sizeof(header));
  if (!s.ok()) {
    // Clean EOF between frames stays kUnavailable; a partial header is a
    // truncated frame.
    out.status = std::move(s);
    return out;
  }
  ByteReader r(header, sizeof(header));
  const uint32_t magic = r.U32();
  const uint8_t version = r.U8();
  const uint8_t op = r.U8();
  const uint16_t reserved =
      static_cast<uint16_t>(r.U8()) | static_cast<uint16_t>(r.U8()) << 8;
  const uint32_t payload_len = r.U32();
  const uint32_t payload_crc = r.U32();
  if (magic != kFrameMagic) {
    out.status = Status::InvalidArgument("bad frame magic");
    return out;
  }
  if (payload_len > kMaxPayloadBytes) {
    out.status = Status::InvalidArgument(
        "oversized frame: declared payload of " + std::to_string(payload_len) +
        " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
        "-byte limit");
    return out;
  }
  // From here the declared frame length is trustworthy, so even on a
  // version/reserved/CRC failure the whole frame can be consumed and the
  // stream stays aligned for the next one.
  std::vector<uint8_t> payload(payload_len);
  if (payload_len > 0) {
    s = socket.RecvAll(payload.data(), payload.size());
    if (!s.ok()) {
      out.status = Status::DataLoss("truncated frame: " + s.message());
      return out;
    }
  }
  if (version != kProtocolVersion) {
    out.status = Status::FailedPrecondition(
        "protocol version mismatch: peer speaks v" + std::to_string(version) +
        ", this server speaks v" + std::to_string(kProtocolVersion));
    out.stream_intact = true;
    return out;
  }
  if (reserved != 0) {
    out.status = Status::InvalidArgument("reserved frame bits set");
    out.stream_intact = true;
    return out;
  }
  if (storage::Crc32c(payload.data(), payload.size()) != payload_crc) {
    out.status = Status::DataLoss("frame checksum mismatch");
    out.stream_intact = true;
    return out;
  }
  out.frame.op = op;
  out.frame.payload = std::move(payload);
  out.stream_intact = true;
  return out;
}

// --- Query codec ---

void EncodeQuery(ByteWriter& w, const api::Query& query) {
  switch (api::QueryDomain(query)) {
    case api::Domain::kHamming: {
      const BitVector& v = std::get<BitVector>(query);
      w.U8(kTagHamming);
      w.I32(v.dimensions());
      w.VecU64(v.words());
      return;
    }
    case api::Domain::kSet: {
      const api::SetQuery& q = std::get<api::SetQuery>(query);
      w.U8(kTagSet);
      w.VecI32(q.tokens);
      w.U8(q.ranked ? 1 : 0);
      return;
    }
    case api::Domain::kEdit:
      w.U8(kTagEdit);
      w.Str(std::get<std::string>(query));
      return;
    case api::Domain::kGraph: {
      const graphed::Graph& g = std::get<graphed::Graph>(query);
      w.U8(kTagGraph);
      w.VecI32(g.vertex_labels());
      w.U32(static_cast<uint32_t>(g.num_edges()));
      for (const graphed::Edge& e : g.edges()) {
        w.I32(e.u);
        w.I32(e.v);
        w.I32(e.label);
      }
      return;
    }
  }
}

bool DecodeQuery(ByteReader& r, api::Query* query) {
  switch (r.U8()) {
    case kTagHamming: {
      const int32_t dimensions = r.I32();
      std::vector<uint64_t> words = r.VecU64();
      if (!r.ok() || dimensions < 0 ||
          words.size() !=
              static_cast<size_t>((static_cast<int64_t>(dimensions) + 63) /
                                  64)) {
        return false;
      }
      // Bits past `dimensions` must be zero (FromWords' documented
      // caller-side invariant — hostile payloads must not plant them).
      const int rem = dimensions % 64;
      if (rem != 0 && (words.back() >> rem) != 0) return false;
      *query = BitVector::FromWords(dimensions, std::move(words));
      return true;
    }
    case kTagSet: {
      api::SetQuery q;
      q.tokens = r.VecI32();
      const uint8_t ranked = r.U8();
      if (!r.ok() || ranked > 1) return false;
      q.ranked = ranked == 1;
      *query = std::move(q);
      return true;
    }
    case kTagEdit: {
      std::string s = r.Str();
      if (!r.ok()) return false;
      *query = std::move(s);
      return true;
    }
    case kTagGraph: {
      std::vector<int> labels = r.VecI32();
      if (!r.ok()) return false;
      graphed::Graph g(std::move(labels));
      const uint32_t num_edges = r.U32();
      if (!r.ok() || num_edges > r.remaining() / 12) return false;
      for (uint32_t i = 0; i < num_edges; ++i) {
        const int u = r.I32();
        const int v = r.I32();
        const int label = r.I32();
        // Validated before AddEdge so hostile payloads yield a typed
        // error instead of tripping the graph's PR_CHECKs.
        if (!r.ok() || u < 0 || v < 0 || u >= g.num_vertices() ||
            v >= g.num_vertices() || u == v || g.HasEdge(u, v)) {
          return false;
        }
        g.AddEdge(u, v, label);
      }
      *query = std::move(g);
      return true;
    }
    default:
      return false;
  }
}

void EncodeQueries(ByteWriter& w, const std::vector<api::Query>& queries) {
  w.U32(static_cast<uint32_t>(queries.size()));
  for (const api::Query& q : queries) EncodeQuery(w, q);
}

bool DecodeQueries(ByteReader& r, std::vector<api::Query>* queries) {
  const uint32_t count = r.U32();
  // Every encoded query occupies at least its 1-byte tag, so a count
  // beyond the remaining bytes is malformed by construction.
  if (!r.ok() || count > r.remaining()) return false;
  queries->clear();
  queries->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    api::Query q;
    if (!DecodeQuery(r, &q)) return false;
    queries->push_back(std::move(q));
  }
  return true;
}

// --- Reply codecs ---

void EncodeSearchReply(ByteWriter& w, const SearchReply& reply) {
  w.VecI32(reply.ids);
  w.I64(reply.candidates);
  w.I64(reply.results);
}

bool DecodeSearchReply(ByteReader& r, SearchReply* reply) {
  reply->ids = r.VecI32();
  reply->candidates = r.I64();
  reply->results = r.I64();
  return r.ok();
}

void EncodeBatchReply(ByteWriter& w, const BatchReply& reply) {
  w.U64(reply.ids.size());
  for (const std::vector<int>& ids : reply.ids) w.VecI32(ids);
  w.I64(reply.candidates);
  w.I64(reply.results);
  w.F64(reply.server_millis);
}

bool DecodeBatchReply(ByteReader& r, BatchReply* reply) {
  const uint64_t count = r.Count(8);  // each list holds at least its u64 size
  if (!r.ok()) return false;
  reply->ids.clear();
  reply->ids.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    reply->ids.push_back(r.VecI32());
    if (!r.ok()) return false;
  }
  reply->candidates = r.I64();
  reply->results = r.I64();
  reply->server_millis = r.F64();
  return r.ok();
}

void EncodeJoinReply(ByteWriter& w, const JoinReply& reply) {
  w.U64(reply.pairs.size());
  for (const api::IdPair& p : reply.pairs) {
    w.I32(p.first);
    w.I32(p.second);
  }
  w.I64(reply.candidates);
  w.F64(reply.server_millis);
}

bool DecodeJoinReply(ByteReader& r, JoinReply* reply) {
  const uint64_t count = r.Count(8);  // two i32 per pair
  if (!r.ok()) return false;
  reply->pairs.clear();
  reply->pairs.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    api::IdPair p;
    p.first = r.I32();
    p.second = r.I32();
    reply->pairs.push_back(p);
  }
  reply->candidates = r.I64();
  reply->server_millis = r.F64();
  return r.ok();
}

void EncodeServerStats(ByteWriter& w, const ServerStats& stats) {
  w.I32(stats.num_records);
  w.U64(stats.epoch);
  w.I64(stats.accepted);
  w.I64(stats.shed);
  w.I64(stats.protocol_errors);
  w.U32(static_cast<uint32_t>(stats.ops.size()));
  for (const OpStats& op : stats.ops) {
    w.U8(op.op);
    w.I64(op.count);
    w.F64(op.p50_micros);
    w.F64(op.p99_micros);
  }
  w.I32(stats.pending_mutations);
}

bool DecodeServerStats(ByteReader& r, ServerStats* stats) {
  stats->num_records = r.I32();
  stats->epoch = r.U64();
  stats->accepted = r.I64();
  stats->shed = r.I64();
  stats->protocol_errors = r.I64();
  const uint32_t count = r.U32();
  if (!r.ok() || count > r.remaining() / 25) return false;  // 1+8+8+8 each
  stats->ops.clear();
  stats->ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    OpStats op;
    op.op = r.U8();
    op.count = r.I64();
    op.p50_micros = r.F64();
    op.p99_micros = r.F64();
    stats->ops.push_back(op);
  }
  stats->pending_mutations = r.I32();
  return r.ok();
}

void EncodeErrorPayload(ByteWriter& w, const Status& status) {
  w.U8(static_cast<uint8_t>(WireErrorFromStatus(status.code())));
  w.Str(status.message());
}

Status DecodeErrorPayload(ByteReader& r) {
  const uint8_t code = r.U8();
  std::string message = r.Str();
  if (!r.ok()) return Status::Internal("malformed error frame");
  return StatusFromWire(code, std::move(message));
}

}  // namespace pigeonring::net
