// Wire-protocol tests in the spirit of storage_corruption_test: codec
// round-trips for every payload type, then a live loopback server fed
// truncated frames, flipped bytes, oversized declared lengths, stale
// protocol versions, and seeded random mutations — every one must yield
// a typed error frame (or a clean close), never a crash or a hang, and
// recoverable corruption must leave the connection serving.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/db.h"
#include "common/bitvector.h"
#include "common/random.h"
#include "datagen/binary_vectors.h"
#include "graphed/graph.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/bytes.h"
#include "storage/crc32c.h"

namespace pigeonring::net {
namespace {

using storage::ByteReader;
using storage::ByteWriter;

std::vector<uint8_t> EncodeQueryBytes(const api::Query& query) {
  ByteWriter w;
  EncodeQuery(w, query);
  return std::move(w).Take();
}

api::Query RoundTripQuery(const api::Query& query) {
  const std::vector<uint8_t> bytes = EncodeQueryBytes(query);
  ByteReader r(bytes.data(), bytes.size());
  api::Query out;
  EXPECT_TRUE(DecodeQuery(r, &out));
  EXPECT_TRUE(r.AtEnd());
  return out;
}

TEST(ProtocolCodecTest, QueriesRoundTripInAllDomains) {
  BitVector bits(70);
  bits.Set(0, true);
  bits.Set(65, true);
  auto hamming = RoundTripQuery(api::Query(bits));
  EXPECT_EQ(std::get<BitVector>(hamming).words(), bits.words());
  EXPECT_EQ(std::get<BitVector>(hamming).dimensions(), 70);

  api::SetQuery set;
  set.tokens = {3, 1, 4, 1, 5};
  set.ranked = true;
  auto sets = RoundTripQuery(api::Query(set));
  EXPECT_EQ(std::get<api::SetQuery>(sets).tokens, set.tokens);
  EXPECT_TRUE(std::get<api::SetQuery>(sets).ranked);

  auto edit = RoundTripQuery(api::Query(std::string("pigeonring")));
  EXPECT_EQ(std::get<std::string>(edit), "pigeonring");

  graphed::Graph g({1, 2, 3});
  g.AddEdge(0, 1, 7);
  g.AddEdge(1, 2, 8);
  auto graph = RoundTripQuery(api::Query(g));
  EXPECT_EQ(std::get<graphed::Graph>(graph).vertex_labels(),
            g.vertex_labels());
  EXPECT_EQ(std::get<graphed::Graph>(graph).edges(), g.edges());

  // An empty-domain record round-trips too.
  auto empty = RoundTripQuery(api::Query(BitVector(0)));
  EXPECT_EQ(std::get<BitVector>(empty).dimensions(), 0);
}

bool DecodeQueryBytes(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes.data(), bytes.size());
  api::Query out;
  return DecodeQuery(r, &out) && r.AtEnd();
}

TEST(ProtocolCodecTest, MalformedQueriesAreRejectedNotCrashed) {
  // Unknown domain tag.
  EXPECT_FALSE(DecodeQueryBytes({9, 0, 0, 0}));
  EXPECT_FALSE(DecodeQueryBytes({}));

  // Hamming: planted bits past `dimensions` must be rejected, as must a
  // word count that disagrees with the dimensionality.
  {
    ByteWriter w;
    w.U8(0);
    w.I32(70);  // needs 2 words; bit 71 is out of range
    w.VecU64({0, 1ull << 62});
    EXPECT_FALSE(DecodeQueryBytes(w.data()));
  }
  {
    ByteWriter w;
    w.U8(0);
    w.I32(70);
    w.VecU64({1});  // one word cannot carry 70 dimensions
    EXPECT_FALSE(DecodeQueryBytes(w.data()));
  }
  {
    ByteWriter w;
    w.U8(0);
    w.I32(-64);
    w.VecU64({});
    EXPECT_FALSE(DecodeQueryBytes(w.data()));
  }

  // Sets: the ranked flag is strictly 0/1.
  {
    ByteWriter w;
    w.U8(1);
    w.VecI32({1, 2});
    w.U8(2);
    EXPECT_FALSE(DecodeQueryBytes(w.data()));
  }

  // Graphs: self-loops, out-of-range endpoints, duplicate edges.
  for (auto [u, v] : {std::pair<int, int>{0, 0}, {0, 5}, {-1, 1}}) {
    ByteWriter w;
    w.U8(3);
    w.VecI32({1, 2});
    w.U32(1);
    w.I32(u);
    w.I32(v);
    w.I32(0);
    EXPECT_FALSE(DecodeQueryBytes(w.data())) << u << "," << v;
  }
  {
    ByteWriter w;
    w.U8(3);
    w.VecI32({1, 2});
    w.U32(2);  // the same edge twice
    for (int i = 0; i < 2; ++i) {
      w.I32(0);
      w.I32(1);
      w.I32(4);
    }
    EXPECT_FALSE(DecodeQueryBytes(w.data()));
  }

  // Every truncation of a valid encoding fails cleanly.
  graphed::Graph g({1, 2, 3});
  g.AddEdge(0, 2, 9);
  for (const api::Query& query :
       {api::Query(BitVector(64)), api::Query(std::string("abc")),
        api::Query(g)}) {
    const std::vector<uint8_t> bytes = EncodeQueryBytes(query);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      EXPECT_FALSE(DecodeQueryBytes(prefix)) << "cut=" << cut;
    }
  }
}

TEST(ProtocolCodecTest, RepliesRoundTrip) {
  BatchReply batch;
  batch.ids = {{1, 2, 3}, {}, {7}};
  batch.candidates = 42;
  batch.results = 4;
  batch.server_millis = 1.5;
  ByteWriter w;
  EncodeBatchReply(w, batch);
  ByteReader r(w.data().data(), w.data().size());
  BatchReply batch_out;
  ASSERT_TRUE(DecodeBatchReply(r, &batch_out));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(batch_out.ids, batch.ids);
  EXPECT_EQ(batch_out.candidates, 42);
  EXPECT_EQ(batch_out.server_millis, 1.5);

  JoinReply join;
  join.pairs = {{0, 3}, {1, 2}};
  join.candidates = 9;
  ByteWriter wj;
  EncodeJoinReply(wj, join);
  ByteReader rj(wj.data().data(), wj.data().size());
  JoinReply join_out;
  ASSERT_TRUE(DecodeJoinReply(rj, &join_out));
  EXPECT_EQ(join_out.pairs, join.pairs);

  ServerStats stats;
  stats.num_records = 100;
  stats.epoch = 3;
  stats.accepted = 50;
  stats.shed = 2;
  stats.protocol_errors = 1;
  stats.ops.push_back({static_cast<uint8_t>(Op::kSearch), 10, 120.0, 900.0});
  stats.pending_mutations = 3;
  ByteWriter ws;
  EncodeServerStats(ws, stats);
  ByteReader rs(ws.data().data(), ws.data().size());
  ServerStats stats_out;
  ASSERT_TRUE(DecodeServerStats(rs, &stats_out));
  EXPECT_EQ(stats_out.num_records, 100);
  EXPECT_EQ(stats_out.shed, 2);
  ASSERT_EQ(stats_out.ops.size(), 1u);
  EXPECT_EQ(stats_out.ops[0].p99_micros, 900.0);
  EXPECT_EQ(stats_out.pending_mutations, 3);

  // A reply cut short of its trailing field is rejected, not half-read.
  std::vector<uint8_t> bytes = std::move(ws).Take();
  bytes.resize(bytes.size() - 4);  // drop pending_mutations
  ByteReader truncated(bytes.data(), bytes.size());
  ServerStats rejected;
  EXPECT_FALSE(DecodeServerStats(truncated, &rejected));
}

TEST(ProtocolCodecTest, WireErrorsTransportEveryStatusCode) {
  const Status statuses[] = {
      Status::InvalidArgument("a"),    Status::OutOfRange("b"),
      Status::NotFound("c"),           Status::FailedPrecondition("d"),
      Status::Internal("e"),           Status::DataLoss("f"),
      Status::ResourceExhausted("g"),  Status::Unavailable("h"),
  };
  for (const Status& status : statuses) {
    ByteWriter w;
    EncodeErrorPayload(w, status);
    ByteReader r(w.data().data(), w.data().size());
    const Status decoded = DecodeErrorPayload(r);
    EXPECT_EQ(decoded.code(), status.code());
    EXPECT_EQ(decoded.message(), status.message());
  }
  // Unknown wire codes (a newer peer) decode as kInternal, not a crash.
  EXPECT_EQ(StatusFromWire(200, "future code").code(), StatusCode::kInternal);
  // A malformed error payload decodes as kInternal too.
  ByteReader r(nullptr, 0);
  EXPECT_EQ(DecodeErrorPayload(r).code(), StatusCode::kInternal);
}

// --- Live-server corruption tests ---

class ProtocolCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::BinaryVectorConfig config;
    config.dimensions = 64;
    config.num_objects = 120;
    config.num_clusters = 10;
    config.seed = 2201;
    api::IndexSpec spec;
    spec.domain = api::Domain::kHamming;
    spec.tau = 8;
    spec.chain_length = 3;
    auto db =
        api::Db::Open(spec, api::Dataset(datagen::GenerateBinaryVectors(config)));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto server = Server::Start(std::move(db).value());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = new Server(std::move(server).value());
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
  }

  static int port() { return server_->port(); }

  // The server must answer a fresh, well-formed connection — the "did the
  // corruption kill it?" probe used after every attack.
  static void ExpectServerAlive() {
    auto client = Client::Connect("127.0.0.1", port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_TRUE(client->Ping().ok());
  }

  static Socket RawConnect() {
    auto socket = ConnectTcp("127.0.0.1", port());
    EXPECT_TRUE(socket.ok()) << socket.status().ToString();
    return std::move(socket).value();
  }

  // A frame with every field under the test's control.
  static std::vector<uint8_t> RawFrame(uint32_t magic, uint8_t version,
                                       uint8_t op, uint16_t reserved,
                                       uint32_t declared_len,
                                       const std::vector<uint8_t>& payload,
                                       uint32_t crc) {
    ByteWriter w;
    w.U32(magic);
    w.U8(version);
    w.U8(op);
    w.U8(static_cast<uint8_t>(reserved & 0xFF));
    w.U8(static_cast<uint8_t>(reserved >> 8));
    w.U32(declared_len);
    w.U32(crc);
    w.Bytes(payload.data(), payload.size());
    return std::move(w).Take();
  }

  static std::vector<uint8_t> ValidFrame(uint8_t op,
                                         const std::vector<uint8_t>& payload) {
    return RawFrame(kFrameMagic, kProtocolVersion, op, 0,
                    static_cast<uint32_t>(payload.size()), payload,
                    storage::Crc32c(payload.data(), payload.size()));
  }

  // Sends raw bytes and expects a typed error frame back.
  static Status SendAndReadError(Socket& socket,
                                 const std::vector<uint8_t>& bytes) {
    EXPECT_TRUE(socket.SendAll(bytes.data(), bytes.size()).ok());
    FrameResult in = RecvFrame(socket);
    EXPECT_TRUE(in.status.ok()) << in.status.ToString();
    EXPECT_EQ(in.frame.op, kErrorOp);
    ByteReader r(in.frame.payload.data(), in.frame.payload.size());
    return DecodeErrorPayload(r);
  }

  static void ExpectConnectionStillServes(Socket& socket) {
    const std::vector<uint8_t> ping = ValidFrame(
        static_cast<uint8_t>(Op::kPing), {});
    ASSERT_TRUE(socket.SendAll(ping.data(), ping.size()).ok());
    FrameResult in = RecvFrame(socket);
    ASSERT_TRUE(in.status.ok()) << in.status.ToString();
    EXPECT_EQ(in.frame.op, static_cast<uint8_t>(Op::kPing) | kReplyBit);
  }

  static Server* server_;
};

Server* ProtocolCorruptionTest::server_ = nullptr;

TEST_F(ProtocolCorruptionTest, TruncatedHeaderNeverCrashes) {
  for (size_t len : {1u, 5u, 15u}) {
    Socket socket = RawConnect();
    const std::vector<uint8_t> frame =
        ValidFrame(static_cast<uint8_t>(Op::kPing), {});
    ASSERT_TRUE(socket.SendAll(frame.data(), len).ok());
    socket.Close();  // EOF mid-header
  }
  ExpectServerAlive();
}

TEST_F(ProtocolCorruptionTest, TruncatedPayloadNeverCrashes) {
  Socket socket = RawConnect();
  std::vector<uint8_t> payload(100, 0xAB);
  std::vector<uint8_t> frame =
      ValidFrame(static_cast<uint8_t>(Op::kSearch), payload);
  frame.resize(kFrameHeaderBytes + 10);  // EOF mid-payload
  ASSERT_TRUE(socket.SendAll(frame.data(), frame.size()).ok());
  socket.Close();
  ExpectServerAlive();
}

TEST_F(ProtocolCorruptionTest, BadMagicGetsTypedErrorAndClose) {
  Socket socket = RawConnect();
  const Status error = SendAndReadError(
      socket, RawFrame(0xDEADBEEF, kProtocolVersion,
                       static_cast<uint8_t>(Op::kPing), 0, 0, {}, 0));
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(error.message().find("magic"), std::string::npos);
  // The stream is unframed after a magic mismatch: the server closes.
  FrameResult next = RecvFrame(socket);
  EXPECT_EQ(next.status.code(), StatusCode::kUnavailable);
  ExpectServerAlive();
}

TEST_F(ProtocolCorruptionTest, OversizedDeclaredLengthIsRejectedAndClosed) {
  Socket socket = RawConnect();
  const Status error = SendAndReadError(
      socket,
      RawFrame(kFrameMagic, kProtocolVersion, static_cast<uint8_t>(Op::kPing),
               0, kMaxPayloadBytes + 1, {}, 0));
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(error.message().find("oversized"), std::string::npos);
  FrameResult next = RecvFrame(socket);
  EXPECT_EQ(next.status.code(), StatusCode::kUnavailable);
  ExpectServerAlive();
}

TEST_F(ProtocolCorruptionTest, StaleVersionGetsTypedErrorAndKeepsConnection) {
  Socket socket = RawConnect();
  const std::vector<uint8_t> payload = {1, 2, 3};
  const Status error = SendAndReadError(
      socket,
      RawFrame(kFrameMagic, 9, static_cast<uint8_t>(Op::kPing), 0,
               static_cast<uint32_t>(payload.size()), payload,
               storage::Crc32c(payload.data(), payload.size())));
  EXPECT_EQ(error.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(error.message().find("version"), std::string::npos);
  // The whole stale frame was consumed — the connection still serves.
  ExpectConnectionStillServes(socket);
}

TEST_F(ProtocolCorruptionTest, CrcMismatchGetsTypedErrorAndKeepsConnection) {
  Socket socket = RawConnect();
  for (int i = 0; i < 3; ++i) {
    std::vector<uint8_t> payload = {10, 20, 30, 40};
    std::vector<uint8_t> frame =
        ValidFrame(static_cast<uint8_t>(Op::kSearch), payload);
    frame[kFrameHeaderBytes + 1] ^= 0x40;  // flip a payload bit
    const Status error = SendAndReadError(socket, frame);
    EXPECT_EQ(error.code(), StatusCode::kDataLoss);
    EXPECT_NE(error.message().find("checksum"), std::string::npos);
  }
  ExpectConnectionStillServes(socket);
}

TEST_F(ProtocolCorruptionTest, ReservedBitsGetTypedErrorAndKeepConnection) {
  Socket socket = RawConnect();
  const Status error = SendAndReadError(
      socket, RawFrame(kFrameMagic, kProtocolVersion,
                       static_cast<uint8_t>(Op::kPing), 0x0100, 0, {}, 0));
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  ExpectConnectionStillServes(socket);
}

TEST_F(ProtocolCorruptionTest, UnknownOpGetsTypedErrorAndKeepsConnection) {
  Socket socket = RawConnect();
  const Status error =
      SendAndReadError(socket, ValidFrame(0x42, {1, 2, 3}));
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(error.message().find("op"), std::string::npos);
  ExpectConnectionStillServes(socket);
}

TEST_F(ProtocolCorruptionTest, GarbageInsideValidFrameKeepsConnection) {
  Socket socket = RawConnect();
  // A CRC-valid search frame whose payload is not a query.
  const Status error = SendAndReadError(
      socket,
      ValidFrame(static_cast<uint8_t>(Op::kSearch), {0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  // Same connection, now a real search: must work.
  BitVector query(64);
  ByteWriter w;
  EncodeQuery(w, api::Query(query));
  const std::vector<uint8_t> frame =
      ValidFrame(static_cast<uint8_t>(Op::kSearch), w.data());
  ASSERT_TRUE(socket.SendAll(frame.data(), frame.size()).ok());
  FrameResult in = RecvFrame(socket);
  ASSERT_TRUE(in.status.ok()) << in.status.ToString();
  EXPECT_EQ(in.frame.op, static_cast<uint8_t>(Op::kSearch) | kReplyBit);
}

TEST_F(ProtocolCorruptionTest, TrailingGarbageAfterPayloadIsTypedError) {
  Socket socket = RawConnect();
  // Valid query encoding plus trailing bytes, CRC recomputed to match:
  // the frame is well-formed, the payload is not.
  BitVector query(64);
  ByteWriter w;
  EncodeQuery(w, api::Query(query));
  std::vector<uint8_t> payload = w.data();
  payload.push_back(0);
  const Status error = SendAndReadError(
      socket, ValidFrame(static_cast<uint8_t>(Op::kSearch), payload));
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  ExpectConnectionStillServes(socket);
}

TEST_F(ProtocolCorruptionTest, FuzzedFramesNeverCrashTheServer) {
  // Seeded random mutations of a valid search frame, fired one connection
  // each with no reply read (so no mutation can deadlock the test), then
  // a liveness probe. The ctest timeout is the hang detector.
  BitVector bits(64);
  bits.Set(3, true);
  ByteWriter w;
  EncodeQuery(w, api::Query(bits));
  const std::vector<uint8_t> valid =
      ValidFrame(static_cast<uint8_t>(Op::kSearch), w.data());

  Rng rng(20260808);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<uint8_t> frame = valid;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.NextBounded(frame.size());
      frame[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    if (rng.NextBernoulli(0.3)) {
      frame.resize(1 + rng.NextBounded(frame.size()));  // truncate too
    }
    Socket socket = RawConnect();
    ASSERT_TRUE(socket.valid());
    (void)socket.SendAll(frame.data(), frame.size());
    socket.Close();
  }
  ExpectServerAlive();
}

}  // namespace
}  // namespace pigeonring::net
