// Wire protocol codec (server/wire_protocol.h): framing round-trips,
// incremental decoding, malformed-frame poisoning, request/response
// grammar, and the Status <-> wire error code mapping. Pure string tests —
// exactly the bytes docs/SERVING.md specifies.

#include "server/wire_protocol.h"

#include <gtest/gtest.h>

namespace entropydb {
namespace {

TEST(FrameTest, EncodesFixedWidthHexLength) {
  EXPECT_EQ(EncodeFrame(""), "00000000\n");
  EXPECT_EQ(EncodeFrame("OK"), "00000002\nOK");
  EXPECT_EQ(EncodeFrame("QUERY COUNT(*)"), "0000000e\nQUERY COUNT(*)");
}

TEST(FrameTest, DecoderRoundTripsWholeFrames) {
  FrameDecoder d;
  d.Feed(EncodeFrame("first"));
  d.Feed(EncodeFrame(""));
  d.Feed(EncodeFrame("third\nwith\nlines"));
  auto f = d.Next();
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(**f, "first");
  f = d.Next();
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(**f, "");
  f = d.Next();
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(**f, "third\nwith\nlines");
  f = d.Next();
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(f->has_value());
}

TEST(FrameTest, DecoderHandlesBytewiseArrival) {
  const std::string frame = EncodeFrame("trickle");
  FrameDecoder d;
  for (size_t i = 0; i < frame.size(); ++i) {
    auto f = d.Next();
    ASSERT_TRUE(f.ok());
    EXPECT_FALSE(f->has_value()) << "complete after " << i << " bytes?";
    d.Feed(std::string_view(&frame[i], 1));
  }
  auto f = d.Next();
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(**f, "trickle");
}

TEST(FrameTest, NonHexHeaderPoisonsTheDecoder) {
  FrameDecoder d;
  d.Feed("QUERY CO\nUNT(*)");  // a peer that skipped framing entirely
  auto f = d.Next();
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
  // Poisoned: even a valid frame afterwards is refused — with a corrupt
  // length prefix there is no way to resynchronize the stream.
  d.Feed(EncodeFrame("STATS"));
  EXPECT_FALSE(d.Next().ok());
}

TEST(FrameTest, MissingNewlinePoisonsTheDecoder) {
  FrameDecoder d;
  d.Feed("00000002XOK");
  EXPECT_FALSE(d.Next().ok());
}

TEST(FrameTest, OversizedLengthPoisonsTheDecoder) {
  FrameDecoder d;
  d.Feed("ffffffff\n");
  auto f = d.Next();
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestTest, QueryRoundTrip) {
  Request req;
  req.type = CommandType::kQuery;
  req.query = "COUNT(*) WHERE origin = 'S3'";
  auto parsed = ParseRequest(EncodeRequest(req));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, CommandType::kQuery);
  EXPECT_EQ(parsed->query, req.query);
  EXPECT_EQ(parsed->deadline_ms, 0u);
}

TEST(RequestTest, QueryCarriesDeadlineOnTheCommandWord) {
  Request req;
  req.type = CommandType::kQuery;
  req.deadline_ms = 250;
  req.query = "COUNT(*)";
  EXPECT_EQ(EncodeRequest(req), "QUERY/250 COUNT(*)");
  auto parsed = ParseRequest("QUERY/250 COUNT(*)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->deadline_ms, 250u);
  EXPECT_EQ(parsed->query, "COUNT(*)");
}

TEST(RequestTest, BatchRoundTrip) {
  Request req;
  req.type = CommandType::kBatch;
  req.deadline_ms = 1000;
  req.queries = {"COUNT(*)", "COUNT(*) WHERE a = 1"};
  EXPECT_EQ(EncodeRequest(req),
            "BATCH/1000 2\nCOUNT(*)\nCOUNT(*) WHERE a = 1");
  auto parsed = ParseRequest(EncodeRequest(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, CommandType::kBatch);
  EXPECT_EQ(parsed->queries, req.queries);
  EXPECT_EQ(parsed->deadline_ms, 1000u);
}

TEST(RequestTest, OpenRoundTrip) {
  Request req;
  req.type = CommandType::kOpen;
  req.version = 7;
  EXPECT_EQ(EncodeRequest(req), "OPEN 7");
  auto parsed = ParseRequest("OPEN 7");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->version, 7u);

  req.version = 0;
  EXPECT_EQ(EncodeRequest(req), "OPEN live");
  parsed = ParseRequest("OPEN live");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->version, 0u);
}

TEST(RequestTest, StatsAndVersionRoundTrip) {
  auto stats = ParseRequest("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->type, CommandType::kStats);
  auto version = ParseRequest("VERSION");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version->type, CommandType::kVersion);
}

TEST(RequestTest, JoinRoundTrip) {
  Request req;
  req.type = CommandType::kJoin;
  req.query = "COUNT(*) ON carrier WHERE left.distance BETWEEN 100 AND 500";
  EXPECT_EQ(EncodeRequest(req),
            "JOIN COUNT(*) ON carrier WHERE left.distance BETWEEN 100 AND "
            "500");
  auto parsed = ParseRequest(EncodeRequest(req));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, CommandType::kJoin);
  EXPECT_EQ(parsed->query, req.query);
  EXPECT_EQ(parsed->deadline_ms, 0u);

  // JOIN carries a deadline on the command word like QUERY does.
  req.deadline_ms = 250;
  EXPECT_EQ(EncodeRequest(req).substr(0, 9), "JOIN/250 ");
  auto timed = ParseRequest(EncodeRequest(req));
  ASSERT_TRUE(timed.ok());
  EXPECT_EQ(timed->deadline_ms, 250u);
  EXPECT_EQ(timed->query, req.query);
}

TEST(RequestTest, MalformedRequestsAreRejected) {
  const char* bad[] = {
      "",                        // empty
      "PING",                    // unknown command
      "STATS now",               // STATS takes no arguments
      "VERSION 3",               // VERSION takes no arguments
      "OPEN",                    // OPEN wants an id or 'live'
      "OPEN v3",                 // not a bare id
      "OPEN 0",                  // 0 is reserved for 'live'
      "QUERY",                   // no query text
      "QUERY/ COUNT(*)",         // empty deadline
      "QUERY/0 COUNT(*)",        // zero deadline
      "QUERY/abc COUNT(*)",      // non-numeric deadline
      "QUERY COUNT(*)\nextra",   // trailing lines on a one-line command
      "JOIN",                    // no join query text
      "JOIN/0 COUNT(*) ON a",    // zero deadline
      "BATCH two\nCOUNT(*)",     // non-numeric count
      "BATCH 2\nCOUNT(*)",       // count does not match lines
      "BATCH 1\nCOUNT(*)\nx",    // count does not match lines
      "BATCH 2\nCOUNT(*)\n\n",   // empty query in batch
  };
  for (const char* payload : bad) {
    auto parsed = ParseRequest(payload);
    EXPECT_FALSE(parsed.ok()) << "accepted: \"" << payload << '"';
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << payload;
    }
  }
}

TEST(RequestTest, NumbersPastUint64MaxAreRejected) {
  // 2^64 + 1 used to wrap to 1 and pin version 1; past UINT64_MAX every
  // number on the command line is BAD_REQUEST instead.
  auto expect_rejected = [](const char* payload) {
    auto parsed = ParseRequest(payload);
    ASSERT_FALSE(parsed.ok()) << payload;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << payload;
  };
  expect_rejected("OPEN 18446744073709551617");
  expect_rejected("OPEN 99999999999999999999999");
  expect_rejected("QUERY/18446744073709551616 COUNT(*)");
  expect_rejected("BATCH 18446744073709551617");
  auto max = ParseRequest("OPEN 18446744073709551615");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->version, UINT64_MAX);
}

TEST(RequestTest, BatchOverTheCeilingIsRejected) {
  std::string payload = "BATCH " + std::to_string(kMaxBatchQueries + 1);
  for (size_t i = 0; i <= kMaxBatchQueries; ++i) payload += "\nCOUNT(*)";
  auto parsed = ParseRequest(payload);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResponseTest, OkRoundTrip) {
  const std::string payload =
      EncodeOkResponse({"estimate 12.5 3.25", "cached 0"});
  EXPECT_EQ(payload, "OK\nestimate 12.5 3.25\ncached 0");
  auto parsed = ParseResponse(payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->lines,
            (std::vector<std::string>{"estimate 12.5 3.25", "cached 0"}));
}

TEST(ResponseTest, ErrorRoundTripKeepsTheTypedCode) {
  const Status busy = Status::ResourceExhausted("admission queue full");
  const std::string payload = EncodeErrorResponse(busy);
  EXPECT_EQ(payload, "ERR SERVER_BUSY admission queue full");
  auto parsed = ParseResponse(payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->code, "SERVER_BUSY");
  const Status back = StatusFromWire(parsed->code, parsed->message);
  EXPECT_EQ(back.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(back.message(), "admission queue full");
}

TEST(ResponseTest, ErrorMessagesAreFlattenedToOneLine) {
  const std::string payload =
      EncodeErrorResponse(Status::InvalidArgument("two\nlines"));
  EXPECT_EQ(payload, "ERR BAD_REQUEST two lines");
}

TEST(ResponseTest, MalformedResponsesAreRejected) {
  EXPECT_FALSE(ParseResponse("").ok());
  EXPECT_FALSE(ParseResponse("YES").ok());
  EXPECT_FALSE(ParseResponse("ERR ").ok());
}

TEST(ResponseTest, EveryStatusCodeMapsToAWireCode) {
  EXPECT_EQ(WireErrorCode(StatusCode::kInvalidArgument), "BAD_REQUEST");
  EXPECT_EQ(WireErrorCode(StatusCode::kOutOfRange), "BAD_REQUEST");
  EXPECT_EQ(WireErrorCode(StatusCode::kNotSupported), "BAD_REQUEST");
  EXPECT_EQ(WireErrorCode(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(WireErrorCode(StatusCode::kResourceExhausted), "SERVER_BUSY");
  EXPECT_EQ(WireErrorCode(StatusCode::kDeadlineExceeded),
            "DEADLINE_EXCEEDED");
  EXPECT_EQ(WireErrorCode(StatusCode::kFailedPrecondition),
            "FAILED_PRECONDITION");
  EXPECT_EQ(WireErrorCode(StatusCode::kIOError), "INTERNAL");
  EXPECT_EQ(WireErrorCode(StatusCode::kCorruption), "INTERNAL");
  // And the client-side inverse restores the typed code.
  EXPECT_EQ(StatusFromWire("DEADLINE_EXCEEDED", "m").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(StatusFromWire("NOT_FOUND", "m").code(), StatusCode::kNotFound);
  EXPECT_EQ(StatusFromWire("FAILED_PRECONDITION", "m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusFromWire("BAD_REQUEST", "m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromWire("SOMETHING_NEW", "m").code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace entropydb
