// The pigeonring wire protocol: length-prefixed, CRC-guarded binary
// frames over TCP.
//
// Frame layout (all integers little-endian, header is 16 bytes):
//
//   offset  size  field
//        0     4  magic        "PRN1" (0x31 0x4E 0x52 0x50 as a u32)
//        4     1  version      kProtocolVersion (1)
//        5     1  op           Op (request) / Op | kReplyBit (reply)
//        6     2  reserved     must be 0
//        8     4  payload_len  <= kMaxPayloadBytes
//       12     4  payload_crc  storage::Crc32c over the payload bytes
//   [16, 16 + payload_len)     op-specific payload
//
// Every request op N is answered by exactly one frame: op N | kReplyBit
// on success, or kErrorOp carrying {wire error code, message} on failure.
// Payloads reuse the storage layer's bounds-checked ByteWriter/ByteReader,
// so a corrupt length field inside a payload can neither read out of
// bounds nor drive a runaway allocation — decoders return false and the
// server answers kInvalidArgument instead of crashing.
//
// RecvFrame distinguishes recoverable from fatal framing errors via
// FrameResult::stream_intact: a payload CRC mismatch or a stale version
// consumes the whole declared frame (the stream stays in sync → reply a
// typed error, keep the connection), while a bad magic, an oversized
// declared length, or a truncated read leaves the stream unframed → reply
// best-effort and close.

#ifndef PIGEONRING_NET_PROTOCOL_H_
#define PIGEONRING_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/spec.h"
#include "common/status.h"
#include "net/socket.h"
#include "storage/bytes.h"

namespace pigeonring::net {

inline constexpr uint32_t kFrameMagic = 0x314E5250;  // "PRN1"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Upper bound on a declared payload length; larger declarations are
/// rejected before any allocation (a flipped length bit must not commit
/// gigabytes).
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Request op codes. Replies echo the op with kReplyBit set; errors use
/// kErrorOp. Values are wire-stable — append, never renumber.
enum class Op : uint8_t {
  kPing = 1,      // -> empty
  kSearch = 2,    // Query -> SearchReply
  kBatch = 3,     // [Query] -> BatchReply
  kSelfJoin = 4,  // -> JoinReply
  kInsert = 5,    // Query -> i32 id
  kRemove = 6,    // i32 id -> empty
  kCompact = 7,   // -> empty
  kStats = 8,     // -> ServerStats
  kRecord = 9,    // i32 id -> Query (sample a record as a query)
};

inline constexpr uint8_t kReplyBit = 0x80;
inline constexpr uint8_t kErrorOp = 0xFF;

/// True iff `op` names a request this protocol version understands.
bool KnownRequestOp(uint8_t op);
/// CLI/stat-facing op names ("ping", "search", ...); "?" when unknown.
const char* OpName(Op op);

/// Wire-stable error codes carried by kErrorOp frames. Values mirror
/// StatusCode but are pinned independently: StatusCode may be reordered,
/// the wire may not.
enum class WireError : uint8_t {
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kFailedPrecondition = 4,
  kInternal = 5,
  kDataLoss = 6,
  kResourceExhausted = 7,
  kUnavailable = 8,
};

/// StatusCode -> wire code (kOk is a caller bug and maps to kInternal).
WireError WireErrorFromStatus(StatusCode code);
/// Wire code -> Status with the transported message; unknown codes decode
/// as kInternal (a newer peer may send codes we do not know).
Status StatusFromWire(uint8_t wire_code, std::string message);

// --- Frame I/O ---

struct Frame {
  uint8_t op = 0;
  std::vector<uint8_t> payload;
};

/// One RecvFrame outcome. When !status.ok(), stream_intact says whether
/// the connection's byte stream is still frame-aligned (the whole declared
/// frame was consumed) — the server's keep-alive-or-close signal.
struct FrameResult {
  Status status;
  Frame frame;
  bool stream_intact = false;
};

Status SendFrame(Socket& socket, uint8_t op,
                 const std::vector<uint8_t>& payload);

/// Reads one frame. Error taxonomy:
///   kUnavailable "connection closed"  clean EOF between frames
///   kDataLoss                         truncated frame / payload CRC
///                                     mismatch (CRC keeps stream_intact)
///   kInvalidArgument                  bad magic, nonzero reserved bits,
///                                     oversized declared length
///   kFailedPrecondition               protocol version mismatch
///                                     (stream_intact: frame was consumed)
FrameResult RecvFrame(Socket& socket);

// --- Payload codecs ---
// Encode* append to a ByteWriter; Decode* consume from a ByteReader and
// return false on any malformed input (never crash, never over-read).

void EncodeQuery(storage::ByteWriter& w, const api::Query& query);
bool DecodeQuery(storage::ByteReader& r, api::Query* query);

void EncodeQueries(storage::ByteWriter& w,
                   const std::vector<api::Query>& queries);
bool DecodeQueries(storage::ByteReader& r, std::vector<api::Query>* queries);

/// Search / batch / join replies carry the result ids plus the counters a
/// remote caller can act on. Ids round-trip exactly (i32), which is what
/// makes client results byte-comparable with an in-process Session.
struct SearchReply {
  std::vector<int> ids;
  int64_t candidates = 0;
  int64_t results = 0;
};

struct BatchReply {
  std::vector<std::vector<int>> ids;
  int64_t candidates = 0;
  int64_t results = 0;
  double server_millis = 0;
};

struct JoinReply {
  std::vector<api::IdPair> pairs;
  int64_t candidates = 0;
  double server_millis = 0;
};

void EncodeSearchReply(storage::ByteWriter& w, const SearchReply& reply);
bool DecodeSearchReply(storage::ByteReader& r, SearchReply* reply);
void EncodeBatchReply(storage::ByteWriter& w, const BatchReply& reply);
bool DecodeBatchReply(storage::ByteReader& r, BatchReply* reply);
void EncodeJoinReply(storage::ByteWriter& w, const JoinReply& reply);
bool DecodeJoinReply(storage::ByteReader& r, JoinReply* reply);

/// Per-op latency digest exported by the stats op (microsecond unit).
struct OpStats {
  uint8_t op = 0;
  int64_t count = 0;
  double p50_micros = 0;
  double p99_micros = 0;
};

/// The stats op's reply: dataset shape, the writer backlog, the server's
/// admission / error counters, and per-op latency digests.
struct ServerStats {
  int32_t num_records = 0;
  uint64_t epoch = 0;
  int64_t accepted = 0;
  int64_t shed = 0;
  int64_t protocol_errors = 0;
  std::vector<OpStats> ops;
  /// Writer mutations awaiting compaction (Db::pending_mutations()).
  int32_t pending_mutations = 0;
};

void EncodeServerStats(storage::ByteWriter& w, const ServerStats& stats);
bool DecodeServerStats(storage::ByteReader& r, ServerStats* stats);

void EncodeErrorPayload(storage::ByteWriter& w, const Status& status);
/// Decodes a kErrorOp payload into the transported Status. A malformed
/// error payload decodes as kInternal (never a crash).
Status DecodeErrorPayload(storage::ByteReader& r);

}  // namespace pigeonring::net

#endif  // PIGEONRING_NET_PROTOCOL_H_
