// Codec tests for net/wire.hpp: round-trip every registered message kind,
// then hold the malformed-input contract — truncated, bit-flipped, and
// hostile-length-prefix frames must be *rejected* (nullopt), never crash,
// never read out of bounds, never allocate unboundedly. The corruption
// corpus is seeded and deterministic; the CI sanitize job (ASan/UBSan) runs
// this binary, which is what turns "no crash" into a checked property.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/wire.hpp"

namespace hkws::net {
namespace {

std::vector<WireHit> sample_hits() {
  return {WireHit{7, {"database", "peer"}}, WireHit{91, {"overlay"}},
          WireHit{12, {}}};
}

/// One representative message per registered kind (shared layouts get the
/// same struct with kind-appropriate field values).
std::vector<std::pair<MsgKind, WireMessage>> sample_frames() {
  std::vector<std::pair<MsgKind, WireMessage>> out;
  const RefMsg ref{0x1234'5678'9abc'def0ull, 42, 7};
  for (const MsgKind k : {MsgKind::kDolrInsert, MsgKind::kDolrReplicate,
                          MsgKind::kDolrDelete, MsgKind::kDolrUnreplicate})
    out.emplace_back(k, ref);
  out.emplace_back(MsgKind::kDolrRead, ReadMsg{42, 9});
  out.emplace_back(MsgKind::kDolrReply, HoldersMsg{42, {1, 2, 0xffffffffull}});
  const EntryMsg entry{42, {"keyword", "search", "dht"}, 0x9001, 3};
  for (const MsgKind k : {MsgKind::kKwsInsert, MsgKind::kKwsDelete,
                          MsgKind::kHcInsert, MsgKind::kHcDelete})
    out.emplace_back(k, entry);
  const PinMsg pin{5, 3, {"exact", "set"}};
  for (const MsgKind k : {MsgKind::kKwsPin, MsgKind::kHcPin})
    out.emplace_back(k, pin);
  const HitsMsg hits{5, 17, sample_hits()};
  for (const MsgKind k :
       {MsgKind::kKwsPinReply, MsgKind::kKwsResults, MsgKind::kKwsCResults,
        MsgKind::kHcPinReply, MsgKind::kHcResults})
    out.emplace_back(k, hits);
  const QueryMsg query{5, 17, 3, 10, 2, {"a", "bb"}};
  for (const MsgKind k :
       {MsgKind::kKwsTQuery, MsgKind::kKwsCQuery, MsgKind::kHcSQuery})
    out.emplace_back(k, query);
  const ControlMsg control{5, 17, 4, true};
  for (const MsgKind k : {MsgKind::kKwsTCont, MsgKind::kKwsTStop,
                          MsgKind::kKwsCCont, MsgKind::kHcSDone})
    out.emplace_back(k, control);
  const DoneMsg done{5, 12};
  for (const MsgKind k :
       {MsgKind::kKwsDone, MsgKind::kKwsCDone, MsgKind::kHcDone})
    out.emplace_back(k, done);
  out.emplace_back(MsgKind::kKwsSReply,
                   SearchReplyMsg{5, 4, 9, 3, 1, true, false, sample_hits()});
  out.emplace_back(MsgKind::kKwsVisitBatch,
                   VisitBatchMsg{5, 10, {3, 9, 12}, {"a", "bb"}});
  out.emplace_back(
      MsgKind::kKwsBatchResults,
      BatchResultsMsg{5,
                      {BatchResultsMsg::NodeBatch{3, sample_hits()},
                       BatchResultsMsg::NodeBatch{9, {}}}});
  out.emplace_back(MsgKind::kKwsBatchReply,
                   BatchReplyMsg{5,
                                 {BatchReplyMsg::NodeVerdict{3, 2, false},
                                  BatchReplyMsg::NodeVerdict{9, 0, true}}});
  out.emplace_back(MsgKind::kKwsCOpen, COpenMsg{77, 3, {"browse"}});
  out.emplace_back(MsgKind::kKwsCNext, CNextMsg{77, 20});
  out.emplace_back(MsgKind::kDhtJoin, JoinMsg{11, 2});
  out.emplace_back(MsgKind::kDhtFixFinger, FixFingerMsg{11, 30});
  out.emplace_back(MsgKind::kFeQuery, FeQueryMsg{4, 1, {"web", "index"}});
  out.emplace_back(MsgKind::kFeReply, FeReplyMsg{true, 123, sample_hits()});
  EnvelopeMsg env;
  env.inner_kind = MsgKind::kKwsTQuery;
  env.msg_id = 99;
  env.from = 3;
  env.to = 7;
  env.declared_bytes = 512;
  env.pad = 16;
  out.emplace_back(MsgKind::kEnvelope, env);
  EnvelopeMsg opaque;
  opaque.inner_kind = MsgKind::kOpaque;
  opaque.label = "maint.ping";
  opaque.msg_id = 100;
  opaque.from = 1;
  opaque.to = 2;
  opaque.declared_bytes = 8;
  opaque.pad = 8;
  out.emplace_back(MsgKind::kEnvelope, opaque);
  EnvelopeMsg addressed;  // cross-process mode: payload carries inner frame
  addressed.inner_kind = MsgKind::kKwsTQuery;
  addressed.msg_id = 101;
  addressed.from = 3;
  addressed.to = 7;
  addressed.payload = encode_frame(MsgKind::kKwsTQuery, WireMessage{query});
  addressed.declared_bytes = addressed.payload.size();
  out.emplace_back(MsgKind::kEnvelope, addressed);
  return out;
}

TEST(Wire, RoundTripEveryKind) {
  for (const auto& [kind, msg] : sample_frames()) {
    SCOPED_TRACE(kind_name(kind));
    const std::vector<std::uint8_t> frame = encode_frame(kind, msg);
    ASSERT_FALSE(frame.empty());
    ASSERT_GE(frame.size(), kWireHeaderSize);

    const auto sized = frame_size(frame.data(), frame.size());
    ASSERT_TRUE(sized.has_value());
    EXPECT_EQ(*sized, frame.size());

    const auto decoded = decode_frame(frame.data(), frame.size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->frame_size, frame.size());
    EXPECT_EQ(decoded->msg, msg);
  }
}

/// The checked-in encoding of sample_frames(), in order: the wire format
/// pinned byte for byte, so an encoder (or decoder) rewrite that changed the
/// layout on both sides — which every round-trip test would still pass —
/// fails here.
const char* const kGoldenFrames[] = {
    // dolr.insert
    "484b01000100000018000000f0debc9a785634122a0000000000000007000000"
    "00000000",
    // dolr.replicate
    "484b01000200000018000000f0debc9a785634122a0000000000000007000000"
    "00000000",
    // dolr.delete
    "484b01000300000018000000f0debc9a785634122a0000000000000007000000"
    "00000000",
    // dolr.unreplicate
    "484b01000400000018000000f0debc9a785634122a0000000000000007000000"
    "00000000",
    // dolr.read
    "484b010005000000100000002a000000000000000900000000000000",
    // dolr.reply
    "484b010006000000240000002a00000000000000030000000100000000000000"
    "0200000000000000ffffffff00000000",
    // kws.insert
    "484b010010000000380000002a0000000000000003000000070000006b657977"
    "6f72640600000073656172636803000000646874019000000000000003000000"
    "00000000",
    // kws.delete
    "484b010011000000380000002a0000000000000003000000070000006b657977"
    "6f72640600000073656172636803000000646874019000000000000003000000"
    "00000000",
    // hc.insert
    "484b010040000000380000002a0000000000000003000000070000006b657977"
    "6f72640600000073656172636803000000646874019000000000000003000000"
    "00000000",
    // hc.delete
    "484b010041000000380000002a0000000000000003000000070000006b657977"
    "6f72640600000073656172636803000000646874019000000000000003000000"
    "00000000",
    // kws.pin
    "484b010018000000240000000500000000000000030000000000000002000000"
    "05000000657861637403000000736574",
    // hc.pin
    "484b010042000000240000000500000000000000030000000000000002000000"
    "05000000657861637403000000736574",
    // kws.pin_reply
    "484b010019000000570000000500000000000000110000000000000003000000"
    "0700000000000000020000000800000064617461626173650400000070656572"
    "5b0000000000000001000000070000006f7665726c61790c0000000000000000"
    "000000",
    // kws.results
    "484b010023000000570000000500000000000000110000000000000003000000"
    "0700000000000000020000000800000064617461626173650400000070656572"
    "5b0000000000000001000000070000006f7665726c61790c0000000000000000"
    "000000",
    // kws.c_results
    "484b010034000000570000000500000000000000110000000000000003000000"
    "0700000000000000020000000800000064617461626173650400000070656572"
    "5b0000000000000001000000070000006f7665726c61790c0000000000000000"
    "000000",
    // hc.pin_reply
    "484b010043000000570000000500000000000000110000000000000003000000"
    "0700000000000000020000000800000064617461626173650400000070656572"
    "5b0000000000000001000000070000006f7665726c61790c0000000000000000"
    "000000",
    // hc.results
    "484b010045000000570000000500000000000000110000000000000003000000"
    "0700000000000000020000000800000064617461626173650400000070656572"
    "5b0000000000000001000000070000006f7665726c61790c0000000000000000"
    "000000",
    // kws.t_query
    "484b010020000000370000000500000000000000110000000000000003000000"
    "000000000a000000000000000200000000000000020000000100000061020000"
    "006262",
    // kws.c_query
    "484b010032000000370000000500000000000000110000000000000003000000"
    "000000000a000000000000000200000000000000020000000100000061020000"
    "006262",
    // hc.s_query
    "484b010044000000370000000500000000000000110000000000000003000000"
    "000000000a000000000000000200000000000000020000000100000061020000"
    "006262",
    // kws.t_cont
    "484b010021000000190000000500000000000000110000000000000004000000"
    "0000000001",
    // kws.t_stop
    "484b010022000000190000000500000000000000110000000000000004000000"
    "0000000001",
    // kws.c_cont
    "484b010033000000190000000500000000000000110000000000000004000000"
    "0000000001",
    // hc.s_done
    "484b010046000000190000000500000000000000110000000000000004000000"
    "0000000001",
    // kws.done
    "484b0100240000001000000005000000000000000c00000000000000",
    // kws.c_done
    "484b0100350000001000000005000000000000000c00000000000000",
    // hc.done
    "484b0100470000001000000005000000000000000c00000000000000",
    // kws.s_reply
    "484b010025000000710000000500000000000000040000000000000009000000"
    "0000000003000000000000000100000000000000010003000000070000000000"
    "00000200000008000000646174616261736504000000706565725b0000000000"
    "000001000000070000006f7665726c61790c0000000000000000000000",
    // kws.visit_batch
    "484b0100280000003b00000005000000000000000a0000000000000003000000"
    "030000000000000009000000000000000c000000000000000200000001000000"
    "61020000006262",
    // kws.batch_results
    "484b010029000000670000000500000000000000020000000300000000000000"
    "0300000007000000000000000200000008000000646174616261736504000000"
    "706565725b0000000000000001000000070000006f7665726c61790c00000000"
    "00000000000000090000000000000000000000",
    // kws.batch_reply
    "484b01002a0000002e0000000500000000000000020000000300000000000000"
    "0200000000000000000900000000000000000000000000000001",
    // kws.c_open
    "484b0100300000001e0000004d00000000000000030000000000000001000000"
    "0600000062726f777365",
    // kws.c_next
    "484b010031000000100000004d000000000000001400000000000000",
    // dht.join
    "484b010050000000100000000b000000000000000200000000000000",
    // dht.fix_finger
    "484b0100510000000c0000000b000000000000001e000000",
    // fe.query
    "484b0100600000001d0000000400000000000000010200000003000000776562"
    "05000000696e646578",
    // fe.reply
    "484b01006100000050000000017b000000000000000300000007000000000000"
    "000200000008000000646174616261736504000000706565725b000000000000"
    "0001000000070000006f7665726c61790c0000000000000000000000",
    // net.envelope, parked: pad 16
    "484b0100800000003a0000002000630000000000000003000000000000000700"
    "0000000000000002000000000000000000001000000000000000000000000000"
    "000000000000",
    // net.envelope, parked opaque label: pad 8
    "484b0100800000004000000000000a0000006d61696e742e70696e6764000000"
    "0000000001000000000000000200000000000000080000000000000000000000"
    "080000000000000000000000",
    // net.envelope, addressed: kws.t_query frame as payload
    "484b0100800000006d0000002000650000000000000003000000000000000700"
    "000000000000430000000000000043000000484b010020000000370000000500"
    "000000000000110000000000000003000000000000000a000000000000000200"
    "00000000000002000000010000006102000000626200000000",
};

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::vector<std::uint8_t> unhex(const std::string& text) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(text.substr(i, 2), nullptr, 16)));
  return out;
}

TEST(Wire, EveryKindEncodesToItsCheckedInBytes) {
  const auto frames = sample_frames();
  ASSERT_EQ(frames.size(), std::size(kGoldenFrames));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& [kind, msg] = frames[i];
    SCOPED_TRACE(testing::Message()
                 << "frame " << i << ": " << kind_name(kind));
    EXPECT_EQ(hex(encode_frame(kind, msg)), kGoldenFrames[i]);
    // The pinned bytes decode to the message: the decoder is held to the
    // layout independently of the encoder.
    const std::vector<std::uint8_t> golden = unhex(kGoldenFrames[i]);
    const auto decoded = decode_frame(golden.data(), golden.size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->frame_size, golden.size());
    EXPECT_EQ(decoded->msg, msg);
  }
}

TEST(Wire, KindNamesRoundTrip) {
  for (const auto& [kind, msg] : sample_frames()) {
    const std::string name = kind_name(kind);
    ASSERT_FALSE(name.empty());
    const auto back = kind_of(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_STREQ(kind_name(MsgKind::kOpaque), "");
  EXPECT_STREQ(kind_name(static_cast<MsgKind>(0x7777)), "");
  EXPECT_FALSE(kind_of("no.such.kind").has_value());
  EXPECT_FALSE(kind_of("").has_value());
}

TEST(Wire, ExtraBytesAfterFrameAreIgnored) {
  auto frame = encode_frame(MsgKind::kKwsCNext, WireMessage{CNextMsg{1, 2}});
  const std::size_t size = frame.size();
  frame.push_back(0xAA);
  frame.push_back(0xBB);
  const auto decoded = decode_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->frame_size, size);  // caller resumes at the next frame
}

TEST(Wire, EncodeRejectsLayoutMismatch) {
  // dolr.insert carries a RefMsg; handing it a DoneMsg is a programming
  // error encode reports by returning an empty vector (as it does for a
  // body over kMaxBody) rather than framing garbage.
  EXPECT_TRUE(encode_frame(MsgKind::kDolrInsert, WireMessage{DoneMsg{}}).empty());
  EXPECT_TRUE(encode_frame(MsgKind::kOpaque, WireMessage{DoneMsg{}}).empty());
  EXPECT_TRUE(
      encode_frame(static_cast<MsgKind>(0x7777), WireMessage{DoneMsg{}}).empty());
}

TEST(Wire, EncodeRefusesABodyOverMaxBody) {
  // 257 hits of one kMaxString-byte keyword each: every string and count is
  // within its own cap, but the body is over kMaxBody, so there is no frame.
  HitsMsg big{1, 2, {}};
  for (std::uint64_t i = 0; i < 257; ++i)
    big.hits.push_back(WireHit{i, {std::string(kMaxString, 'k')}});
  EXPECT_TRUE(encode_frame(MsgKind::kKwsResults, WireMessage{big}).empty());

  // append_envelope refuses such a payload and leaves the buffer's earlier
  // frame as it was.
  EnvelopeMsg env;
  env.inner_kind = MsgKind::kKwsDone;
  env.msg_id = 1;
  std::vector<std::uint8_t> out;
  const std::size_t first = append_envelope(out, env);
  ASSERT_GT(first, 0u);
  const std::vector<std::uint8_t> before = out;
  env.payload.assign(kMaxBody + 1, 0xAB);
  EXPECT_EQ(append_envelope(out, env), 0u);
  EXPECT_EQ(out.size(), first);
  EXPECT_EQ(out, before);
}

TEST(Wire, HeaderRejections) {
  const auto good =
      encode_frame(MsgKind::kDolrRead, WireMessage{ReadMsg{1, 2}});
  ASSERT_FALSE(good.empty());

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(frame_size(bad_magic.data(), bad_magic.size()).has_value());
  EXPECT_FALSE(decode_frame(bad_magic.data(), bad_magic.size()).has_value());

  auto bad_version = good;
  bad_version[2] = kWireVersion + 1;
  EXPECT_FALSE(decode_frame(bad_version.data(), bad_version.size()).has_value());

  auto bad_kind = good;
  bad_kind[4] = 0x77;
  bad_kind[5] = 0x77;
  EXPECT_FALSE(decode_frame(bad_kind.data(), bad_kind.size()).has_value());

  auto huge_body = good;
  huge_body[11] = 0xFF;  // body length high byte -> > kMaxBody
  EXPECT_FALSE(frame_size(huge_body.data(), huge_body.size()).has_value());
}

TEST(Wire, IncompleteHeaderWantsMoreBytes) {
  const auto frame =
      encode_frame(MsgKind::kDolrRead, WireMessage{ReadMsg{1, 2}});
  for (std::size_t n = 0; n < kWireHeaderSize; ++n) {
    const auto sized = frame_size(frame.data(), n);
    ASSERT_TRUE(sized.has_value()) << n;
    EXPECT_EQ(*sized, 0u) << n;  // 0 = incomplete, keep reading
  }
}

TEST(Wire, EveryTruncationRejected) {
  for (const auto& [kind, msg] : sample_frames()) {
    SCOPED_TRACE(kind_name(kind));
    const auto frame = encode_frame(kind, msg);
    for (std::size_t n = 0; n < frame.size(); ++n)
      EXPECT_FALSE(decode_frame(frame.data(), n).has_value()) << n;
  }
}

TEST(Wire, TrailingGarbageInsideBodyRejected) {
  // Grow the declared body by one byte the decoder will not consume:
  // bodies must be read exactly, so this is malformed, not padding.
  auto frame = encode_frame(MsgKind::kDolrRead, WireMessage{ReadMsg{5, 6}});
  frame[8] = static_cast<std::uint8_t>(frame[8] + 1);  // body_len += 1
  frame.push_back(0);
  EXPECT_FALSE(decode_frame(frame.data(), frame.size()).has_value());
}

TEST(Wire, HostileLengthPrefixesRejectedBeforeAllocation) {
  // A dolr.reply whose holder count claims 2^32-1 elements in a 12-byte
  // body. The codec must reject against bytes-present, not trust the count.
  std::vector<std::uint8_t> frame = {
      0x48, 0x4B, kWireVersion, 0,              // magic, version, reserved
      0x06, 0x00, 0x00, 0x00,                   // kind = kDolrReply
      12,   0x00, 0x00, 0x00,                   // body_len = 12
      0,    0,    0,    0,    0, 0, 0, 0,       // object
      0xFF, 0xFF, 0xFF, 0xFF,                   // count = 0xFFFFFFFF
  };
  EXPECT_FALSE(decode_frame(frame.data(), frame.size()).has_value());

  // Same attack through the string-vector path (kws.insert).
  frame[4] = 0x10;  // kind = kKwsInsert
  EXPECT_FALSE(decode_frame(frame.data(), frame.size()).has_value());

  // And through the hit-vector path (kws.results): request + node + count.
  std::vector<std::uint8_t> hitsf = {
      0x48, 0x4B, kWireVersion, 0,
      0x23, 0x00, 0x00, 0x00,                   // kind = kKwsResults
      20,   0x00, 0x00, 0x00,                   // body_len = 20
      0,    0,    0,    0,    0, 0, 0, 0,       // request
      0,    0,    0,    0,    0, 0, 0, 0,       // node
      0xFF, 0xFF, 0xFF, 0xFF,                   // hit count = 0xFFFFFFFF
  };
  EXPECT_FALSE(decode_frame(hitsf.data(), hitsf.size()).has_value());

  // Every other collection field, and one keyword's string length: the
  // body is the fields before it, then a length prefix of 2^32-1.
  const std::vector<std::uint8_t> one = {1, 0, 0, 0};  // a count of 1
  const auto zeros = [](std::size_t n) {
    return std::vector<std::uint8_t>(n, 0);
  };
  const auto cat = [](std::vector<std::uint8_t> a,
                      const std::vector<std::uint8_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  const struct {
    const char* field;
    MsgKind kind;
    std::vector<std::uint8_t> before;
  } cases[] = {
      {"visit_batch nodes", MsgKind::kKwsVisitBatch, zeros(16)},
      {"batch_results batches", MsgKind::kKwsBatchResults, zeros(8)},
      {"batch_results hits", MsgKind::kKwsBatchResults,
       cat(cat(zeros(8), one), zeros(8))},
      {"batch_reply verdicts", MsgKind::kKwsBatchReply, zeros(8)},
      {"s_reply hits", MsgKind::kKwsSReply, zeros(8 * 5 + 2)},
      {"fe.reply hits", MsgKind::kFeReply, zeros(1 + 8)},
      {"pin keyword length", MsgKind::kKwsPin, cat(zeros(16), one)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    const auto id = static_cast<std::uint16_t>(c.kind);
    std::vector<std::uint8_t> f = {
        0x48, 0x4B, kWireVersion, 0,
        static_cast<std::uint8_t>(id & 0xFF), static_cast<std::uint8_t>(id >> 8),
        0,    0,
        static_cast<std::uint8_t>(c.before.size() + 4), 0, 0, 0,
    };
    f = cat(cat(f, c.before), {0xFF, 0xFF, 0xFF, 0xFF});
    EXPECT_FALSE(decode_frame(f.data(), f.size()).has_value());
  }
}

TEST(Wire, EnvelopePadMustFitBody) {
  EnvelopeMsg env;
  env.inner_kind = MsgKind::kKwsDone;
  env.msg_id = 1;
  env.pad = 32;
  auto frame = encode_frame(MsgKind::kEnvelope, WireMessage{env});
  ASSERT_FALSE(frame.empty());
  // Corrupt the pad count upward without providing the bytes. Body layout:
  // inner_kind(2) msg_id(8) from(8) to(8) declared(8) payload_len(4) pad(4).
  const std::size_t pad_off = kWireHeaderSize + 2 + 8 * 4 + 4;
  frame[pad_off] = 0xFF;
  frame[pad_off + 1] = 0xFF;
  EXPECT_FALSE(decode_frame(frame.data(), frame.size()).has_value());
}

TEST(Wire, AddressedEnvelopeRoundTripsPayloadBytes) {
  // The cross-process delivery frame: from/to endpoints plus a complete
  // encoded inner frame in the payload field, decodable after the hop.
  const QueryMsg inner{9, 0b1010, 3, 5, 0, {"peer", "network"}};
  EnvelopeMsg env;
  env.inner_kind = MsgKind::kKwsTQuery;
  env.msg_id = 424242;
  env.from = 11;
  env.to = 205;
  env.payload = encode_frame(MsgKind::kKwsTQuery, WireMessage{inner});
  env.declared_bytes = env.payload.size();
  ASSERT_FALSE(env.payload.empty());

  const auto frame = encode_frame(MsgKind::kEnvelope, WireMessage{env});
  ASSERT_FALSE(frame.empty());
  const auto decoded = decode_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<EnvelopeMsg>(decoded->msg);
  EXPECT_EQ(got, env);
  EXPECT_EQ(got.from, 11u);
  EXPECT_EQ(got.to, 205u);

  // The payload is itself a valid frame for the declared inner kind.
  const auto inner_decoded = decode_frame(got.payload.data(),
                                          got.payload.size());
  ASSERT_TRUE(inner_decoded.has_value());
  EXPECT_EQ(inner_decoded->kind, MsgKind::kKwsTQuery);
  EXPECT_EQ(std::get<QueryMsg>(inner_decoded->msg), inner);
}

TEST(Wire, EnvelopePayloadLengthMustFitBody) {
  EnvelopeMsg env;
  env.inner_kind = MsgKind::kKwsDone;
  env.msg_id = 1;
  env.payload = {1, 2, 3, 4};
  auto frame = encode_frame(MsgKind::kEnvelope, WireMessage{env});
  ASSERT_FALSE(frame.empty());
  // Inflate the payload length prefix beyond the bytes present.
  const std::size_t len_off = kWireHeaderSize + 2 + 8 * 4;
  frame[len_off] = 0xFF;
  frame[len_off + 1] = 0xFF;
  frame[len_off + 2] = 0xFF;
  EXPECT_FALSE(decode_frame(frame.data(), frame.size()).has_value());
}

TEST(Wire, TruncatedAddressedEnvelopeIsRejected) {
  EnvelopeMsg env;
  env.inner_kind = MsgKind::kKwsInsert;
  env.msg_id = 77;
  env.from = 1;
  env.to = 2;
  env.payload = encode_frame(
      MsgKind::kKwsInsert, WireMessage{EntryMsg{42, {"truncate", "me"}}});
  env.declared_bytes = env.payload.size();
  const auto frame = encode_frame(MsgKind::kEnvelope, WireMessage{env});
  ASSERT_FALSE(frame.empty());
  // Every truncation point: either "need more bytes" (frame_size bigger
  // than what's offered) or a hard reject — never a successful decode.
  for (std::size_t len = 0; len < frame.size(); ++len)
    EXPECT_FALSE(decode_frame(frame.data(), len).has_value()) << len;
}

/// FNV-1a, folded one value at a time (little-endian bytes).
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const std::vector<std::uint8_t>& v) {
    for (const std::uint8_t b : v) byte(b);
  }
};

// The fuzz-ish corpus: seeded random corruptions of valid frames. Every
// outcome must be "decoded something" or "rejected" — never a crash, hang,
// or sanitizer report. Single-bit flips, multi-byte stomps, and random
// splices all run through the same decode entry points the transport uses.
// Each verdict folds into a digest — a rejection as such, an acceptance
// with its kind, frame size and re-encoded bytes — pinned to the value the
// codec gave when the corpus was recorded, so a decoder that accepts a
// different set of frames, or reads an accepted one differently, fails.
TEST(Wire, SeededCorruptionCorpusNeverMisbehaves) {
  const auto frames = sample_frames();
  Rng corrupt(0x5eed'c0de'2026'0808ull);
  constexpr std::size_t kCorpus = 80000;
  std::size_t rejected = 0, survived = 0;
  Fnv1a verdicts;

  for (std::size_t iter = 0; iter < kCorpus; ++iter) {
    const auto& [kind, msg] =
        frames[corrupt.next_below(frames.size())];
    std::vector<std::uint8_t> frame = encode_frame(kind, msg);
    const int mode = static_cast<int>(corrupt.next_below(3));
    if (mode == 0) {
      // Single bit flip anywhere in the frame.
      const std::size_t bit = corrupt.next_below(frame.size() * 8);
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    } else if (mode == 1) {
      // Stomp 1-8 random bytes.
      const std::size_t n = 1 + corrupt.next_below(8);
      for (std::size_t i = 0; i < n; ++i)
        frame[corrupt.next_below(frame.size())] =
            static_cast<std::uint8_t>(corrupt.next_below(256));
    } else {
      // Random truncation (header kept so decode gets past frame_size).
      const std::size_t keep =
          kWireHeaderSize + corrupt.next_below(frame.size() - kWireHeaderSize + 1);
      frame.resize(keep);
    }
    const auto decoded = decode_frame(frame.data(), frame.size());
    verdicts.byte(decoded.has_value() ? 1 : 0);
    if (decoded.has_value()) {
      ++survived;  // corruption hit padding/ignored bits; still well-formed
      verdicts.u64(static_cast<std::uint64_t>(decoded->kind));
      verdicts.u64(decoded->frame_size);
      verdicts.bytes(encode_frame(decoded->kind, decoded->msg));
    } else {
      ++rejected;
    }
  }
  // The corpus must actually exercise the rejection paths.
  EXPECT_GT(rejected, kCorpus / 4);
  EXPECT_EQ(rejected + survived, kCorpus);
  EXPECT_EQ(survived, 25757u);
  EXPECT_EQ(verdicts.h, 0xd587'7a9d'0e56'7807ull);
}

TEST(Wire, PureGarbageNeverDecodes) {
  Rng rng(0xdeadbeefull);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.next_below(256));
    for (auto& b : junk)
      b = static_cast<std::uint8_t>(rng.next_below(256));
    // Without the magic, frame_size must reject or want more; decode_frame
    // must never produce a message from noise (magic collision odds are
    // ~2^-16 per draw; assert no crash rather than no decode).
    const auto decoded = decode_frame(junk.data(), junk.size());
    if (decoded.has_value()) {
      EXPECT_LE(decoded->frame_size, junk.size());
    }
  }
}

}  // namespace
}  // namespace hkws::net
