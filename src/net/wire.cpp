#include "net/wire.hpp"

#include <algorithm>
#include <array>
#include <concepts>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>

namespace hkws::net {
namespace {

// --- Primitives -------------------------------------------------------------

/// Appends one frame, field by field in little-endian order, to the end of
/// a byte vector the caller owns. The vector is grown ahead of the write
/// position and trimmed back to it by end_frame(), so a field costs one
/// bounds check and one store, and a buffer reused across frames stops
/// allocating.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out)
      : out_(out), start_(out.size()), pos_(out.size()) {}

  /// Writes the frame header; end_frame() patches its body length.
  void begin_frame(MsgKind kind) {
    u16(kWireMagic);
    u8(kWireVersion);
    u8(0);
    u16(static_cast<std::uint16_t>(kind));
    u16(0);
    length_at_ = pos_;
    u32(0);
  }
  /// Patches the body length and trims the vector to the frame. Returns
  /// the frame size, or 0 (and the vector as it was) if the body exceeds
  /// kMaxBody.
  std::size_t end_frame() {
    const std::size_t body = pos_ - length_at_ - 4;
    if (body > kMaxBody) {
      out_.resize(start_);
      return 0;
    }
    store_le(out_.data() + length_at_, static_cast<std::uint32_t>(body));
    out_.resize(pos_);
    return pos_ - start_;
  }

  void u8(std::uint8_t v) { *room(1) = v; }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(const std::vector<std::uint8_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    raw(v.data(), v.size());
  }
  /// `n` zero bytes, written as one fill.
  void zeros(std::size_t n) {
    if (n > 0) std::memset(room(n), 0, n);
  }

 private:
  template <typename T>
  static void store_le(std::uint8_t* p, T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  template <typename T>
  void put_le(T v) {
    store_le(room(sizeof(T)), v);
  }
  void raw(const void* data, std::size_t n) {
    if (n > 0) std::memcpy(room(n), data, n);
  }
  /// Reserves the next `n` bytes and returns where they start. Grows by at
  /// least what this writer has written so far, so a frame costs O(log n)
  /// resizes however long the vector already is.
  std::uint8_t* room(std::size_t n) {
    if (out_.size() - pos_ < n)
      out_.resize(pos_ + std::max({n, pos_ - start_, kMinGrowth}));
    std::uint8_t* p = out_.data() + pos_;
    pos_ += n;
    return p;
  }

  static constexpr std::size_t kMinGrowth = 128;
  std::vector<std::uint8_t>& out_;
  std::size_t start_;
  std::size_t pos_;
  std::size_t length_at_ = 0;  ///< offset of the header's body length
};

/// Bounds-checked reader. Every accessor validates the remaining length
/// first and latches a failure flag; after a failure all reads return
/// zero values and ok() is false. Length prefixes are checked against the
/// bytes actually remaining before anything is allocated.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : p_(data), end_(data + len) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return *p_++;
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(p_[0] | (p_[1] << 8));
    p_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (n > kMaxString || !need(n)) {
      fail();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    if (n > kMaxBody || !need(n)) {
      fail();
      return {};
    }
    std::vector<std::uint8_t> v(p_, p_ + n);
    p_ += n;
    return v;
  }
  void skip(std::size_t n) {
    if (need(n)) p_ += n;
  }

  std::size_t remaining() const {
    return ok_ ? static_cast<std::size_t>(end_ - p_) : 0;
  }
  bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  /// Frame bodies must be fully consumed: trailing garbage is a malformed
  /// frame, not padding.
  bool done() const { return ok_ && p_ == end_; }

 private:
  bool need(std::size_t n) {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

// --- Field lists ------------------------------------------------------------
//
// Each payload layout's fields, once, in wire order. The write() and read()
// overloads below derive from these lists the encoder, the decoder and the
// bound that rejects a hostile collection count before allocating, so a
// layout is changed here and nowhere else. net.envelope alone is written
// out by hand, after the generic overloads.

/// M is T or const T, so one list serves the encoder and the decoder.
template <typename M, typename T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

auto fields(Is<WireHit> auto& m) { return std::tie(m.object, m.keywords); }
auto fields(Is<RefMsg> auto& m) { return std::tie(m.key, m.object, m.holder); }
auto fields(Is<ReadMsg> auto& m) { return std::tie(m.object, m.reader); }
auto fields(Is<HoldersMsg> auto& m) { return std::tie(m.object, m.holders); }
auto fields(Is<EntryMsg> auto& m) {
  return std::tie(m.object, m.keywords, m.request, m.publisher);
}
auto fields(Is<PinMsg> auto& m) {
  return std::tie(m.request, m.searcher, m.keywords);
}
auto fields(Is<HitsMsg> auto& m) { return std::tie(m.request, m.node, m.hits); }
auto fields(Is<QueryMsg> auto& m) {
  return std::tie(m.request, m.node, m.searcher, m.want, m.offset, m.query);
}
auto fields(Is<ControlMsg> auto& m) {
  return std::tie(m.request, m.node, m.count, m.stop);
}
auto fields(Is<DoneMsg> auto& m) {
  return std::tie(m.request, m.results_expected);
}
auto fields(Is<SearchReplyMsg> auto& m) {
  return std::tie(m.request, m.nodes_contacted, m.messages, m.rounds,
                  m.retransmits, m.complete, m.failed, m.hits);
}
auto fields(Is<VisitBatchMsg> auto& m) {
  return std::tie(m.request, m.want, m.nodes, m.query);
}
auto fields(Is<BatchResultsMsg::NodeBatch> auto& m) {
  return std::tie(m.node, m.hits);
}
auto fields(Is<BatchResultsMsg> auto& m) {
  return std::tie(m.request, m.batches);
}
auto fields(Is<BatchReplyMsg::NodeVerdict> auto& m) {
  return std::tie(m.node, m.count, m.stop);
}
auto fields(Is<BatchReplyMsg> auto& m) {
  return std::tie(m.request, m.verdicts);
}
auto fields(Is<COpenMsg> auto& m) {
  return std::tie(m.session, m.searcher, m.query);
}
auto fields(Is<CNextMsg> auto& m) { return std::tie(m.session, m.count); }
auto fields(Is<JoinMsg> auto& m) { return std::tie(m.joiner, m.bootstrap); }
auto fields(Is<FixFingerMsg> auto& m) { return std::tie(m.node, m.finger); }
auto fields(Is<FeQueryMsg> auto& m) {
  return std::tie(m.threshold, m.strategy, m.keywords);
}
auto fields(Is<FeReplyMsg> auto& m) {
  return std::tie(m.complete, m.messages, m.hits);
}

/// A struct with a field list above.
template <typename T>
concept Layout = requires(T& m) { fields(m); };

/// The fewest bytes one T takes on the wire: a bool one byte, an integer
/// its width, a string or collection its u32 count, a layout the sum of its
/// fields'. A collection count above remaining() / min_bytes<element>() is
/// provably a lie.
template <typename T>
constexpr std::size_t min_bytes() {
  if constexpr (std::is_same_v<T, bool>) {
    return 1;
  } else if constexpr (std::is_integral_v<T>) {
    return sizeof(T);
  } else if constexpr (Layout<T>) {
    return []<typename... F>(std::tuple<F&...>*) {
      return (min_bytes<F>() + ...);
    }(static_cast<decltype(fields(std::declval<T&>()))*>(nullptr));
  } else {
    return 4;
  }
}

// --- Generic encode/decode --------------------------------------------------

void write(Writer& w, bool v) { w.u8(v ? 1 : 0); }
void write(Writer& w, std::uint8_t v) { w.u8(v); }
void write(Writer& w, std::uint32_t v) { w.u32(v); }
void write(Writer& w, std::uint64_t v) { w.u64(v); }
void write(Writer& w, const std::string& s) { w.str(s); }
template <typename T>
void write(Writer& w, const std::vector<T>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const T& e : v) write(w, e);
}
void write(Writer& w, const Layout auto& m) {
  std::apply([&w](const auto&... f) { (write(w, f), ...); }, fields(m));
}

void read(Reader& r, bool& v) { v = r.u8() != 0; }
void read(Reader& r, std::uint8_t& v) { v = r.u8(); }
void read(Reader& r, std::uint32_t& v) { v = r.u32(); }
void read(Reader& r, std::uint64_t& v) { v = r.u64(); }
void read(Reader& r, std::string& s) { s = r.str(); }
template <typename T>
void read(Reader& r, std::vector<T>& v) {
  const std::uint32_t n = r.u32();
  if (n > kMaxCount || n > r.remaining() / min_bytes<T>()) {
    r.fail();  // rejected before anything is allocated
    return;
  }
  v.resize(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) read(r, v[i]);
}
void read(Reader& r, Layout auto& m) {
  std::apply([&r](auto&... f) { (read(r, f), ...); }, fields(m));
}

// net.envelope, by hand: the label is present only for an opaque inner kind,
// the payload is capped at kMaxBody rather than kMaxCount, and `pad` zero
// bytes follow the fields.
void write(Writer& w, const EnvelopeMsg& m) {
  w.u16(static_cast<std::uint16_t>(m.inner_kind));
  if (m.inner_kind == MsgKind::kOpaque) w.str(m.label);
  w.u64(m.msg_id);
  w.u64(m.from);
  w.u64(m.to);
  w.u64(m.declared_bytes);
  w.bytes(m.payload);
  w.u32(m.pad);
  w.zeros(m.pad);
}
void read(Reader& r, EnvelopeMsg& m) {
  m.inner_kind = static_cast<MsgKind>(r.u16());
  if (m.inner_kind == MsgKind::kOpaque)
    m.label = r.str();
  else if (kind_name(m.inner_kind)[0] == '\0')
    r.fail();  // unknown inner kind id
  m.msg_id = r.u64();
  m.from = r.u64();
  m.to = r.u64();
  m.declared_bytes = r.u64();
  m.payload = r.bytes();
  m.pad = r.u32();
  r.skip(m.pad);
}

/// Decodes a body of layout M straight into `out`. True if the body was
/// well-formed and wholly consumed.
template <typename M>
bool read_body(Reader& r, WireMessage& out) {
  read(r, out.emplace<M>());
  return r.done();
}

/// read_body per WireMessage alternative, indexed by the layout a kind's
/// kKinds entry records.
constexpr auto kReadBody = []<std::size_t... I>(std::index_sequence<I...>) {
  return std::array{&read_body<std::variant_alternative_t<I, WireMessage>>...};
}(std::make_index_sequence<std::variant_size_v<WireMessage>>{});

struct KindEntry {
  MsgKind kind;
  const char* name;
  std::size_t layout;  ///< WireMessage variant index this kind decodes to
};

template <typename T>
std::size_t layout_of() {
  return WireMessage(std::in_place_type<T>).index();
}

const KindEntry kKinds[] = {
    {MsgKind::kDolrInsert, "dolr.insert", layout_of<RefMsg>()},
    {MsgKind::kDolrReplicate, "dolr.replicate", layout_of<RefMsg>()},
    {MsgKind::kDolrDelete, "dolr.delete", layout_of<RefMsg>()},
    {MsgKind::kDolrUnreplicate, "dolr.unreplicate", layout_of<RefMsg>()},
    {MsgKind::kDolrRead, "dolr.read", layout_of<ReadMsg>()},
    {MsgKind::kDolrReply, "dolr.reply", layout_of<HoldersMsg>()},
    {MsgKind::kKwsInsert, "kws.insert", layout_of<EntryMsg>()},
    {MsgKind::kKwsDelete, "kws.delete", layout_of<EntryMsg>()},
    {MsgKind::kKwsPin, "kws.pin", layout_of<PinMsg>()},
    {MsgKind::kKwsPinReply, "kws.pin_reply", layout_of<HitsMsg>()},
    {MsgKind::kKwsTQuery, "kws.t_query", layout_of<QueryMsg>()},
    {MsgKind::kKwsTCont, "kws.t_cont", layout_of<ControlMsg>()},
    {MsgKind::kKwsTStop, "kws.t_stop", layout_of<ControlMsg>()},
    {MsgKind::kKwsResults, "kws.results", layout_of<HitsMsg>()},
    {MsgKind::kKwsDone, "kws.done", layout_of<DoneMsg>()},
    {MsgKind::kKwsSReply, "kws.s_reply", layout_of<SearchReplyMsg>()},
    {MsgKind::kKwsVisitBatch, "kws.visit_batch", layout_of<VisitBatchMsg>()},
    {MsgKind::kKwsBatchResults, "kws.batch_results",
     layout_of<BatchResultsMsg>()},
    {MsgKind::kKwsBatchReply, "kws.batch_reply", layout_of<BatchReplyMsg>()},
    {MsgKind::kKwsCOpen, "kws.c_open", layout_of<COpenMsg>()},
    {MsgKind::kKwsCNext, "kws.c_next", layout_of<CNextMsg>()},
    {MsgKind::kKwsCQuery, "kws.c_query", layout_of<QueryMsg>()},
    {MsgKind::kKwsCCont, "kws.c_cont", layout_of<ControlMsg>()},
    {MsgKind::kKwsCResults, "kws.c_results", layout_of<HitsMsg>()},
    {MsgKind::kKwsCDone, "kws.c_done", layout_of<DoneMsg>()},
    {MsgKind::kHcInsert, "hc.insert", layout_of<EntryMsg>()},
    {MsgKind::kHcDelete, "hc.delete", layout_of<EntryMsg>()},
    {MsgKind::kHcPin, "hc.pin", layout_of<PinMsg>()},
    {MsgKind::kHcPinReply, "hc.pin_reply", layout_of<HitsMsg>()},
    {MsgKind::kHcSQuery, "hc.s_query", layout_of<QueryMsg>()},
    {MsgKind::kHcResults, "hc.results", layout_of<HitsMsg>()},
    {MsgKind::kHcSDone, "hc.s_done", layout_of<ControlMsg>()},
    {MsgKind::kHcDone, "hc.done", layout_of<DoneMsg>()},
    {MsgKind::kDhtJoin, "dht.join", layout_of<JoinMsg>()},
    {MsgKind::kDhtFixFinger, "dht.fix_finger", layout_of<FixFingerMsg>()},
    {MsgKind::kFeQuery, "fe.query", layout_of<FeQueryMsg>()},
    {MsgKind::kFeReply, "fe.reply", layout_of<FeReplyMsg>()},
    {MsgKind::kEnvelope, "net.envelope", layout_of<EnvelopeMsg>()},
};

static_assert(std::extent_v<decltype(kKinds)> == kKindCount);

constexpr std::size_t kMaxKindId = 128;  // kEnvelope, the largest id

const KindEntry* entry_of(MsgKind kind) {
  const std::size_t i = kind_index(kind);
  return i < kKindCount ? &kKinds[i] : nullptr;
}

}  // namespace

std::size_t kind_index(MsgKind kind) {
  // On-wire id -> position in kKinds.
  static const std::array<std::uint8_t, kMaxKindId + 1> dense = [] {
    std::array<std::uint8_t, kMaxKindId + 1> d;
    d.fill(static_cast<std::uint8_t>(kKindCount));
    for (std::size_t i = 0; i < kKindCount; ++i)
      d[static_cast<std::size_t>(kKinds[i].kind)] =
          static_cast<std::uint8_t>(i);
    return d;
  }();
  const auto id = static_cast<std::size_t>(kind);
  return id <= kMaxKindId ? dense[id] : kKindCount;
}

MsgKind kind_at(std::size_t index) { return kKinds[index].kind; }

const char* kind_name(MsgKind kind) {
  const KindEntry* e = entry_of(kind);
  return e != nullptr ? e->name : "";
}

std::optional<MsgKind> kind_of(const std::string& name) {
  static const std::unordered_map<std::string, MsgKind> index = [] {
    std::unordered_map<std::string, MsgKind> m;
    for (const auto& e : kKinds) m.emplace(e.name, e.kind);
    return m;
  }();
  const auto it = index.find(name);
  if (it == index.end()) return std::nullopt;
  return it->second;
}

std::vector<std::uint8_t> encode_frame(MsgKind kind, const WireMessage& msg) {
  std::vector<std::uint8_t> out;
  const KindEntry* e = entry_of(kind);
  if (e == nullptr || e->layout != msg.index()) return out;
  Writer w(out);
  w.begin_frame(kind);
  std::visit([&w](const auto& m) { write(w, m); }, msg);
  w.end_frame();
  return out;
}

std::size_t append_envelope(std::vector<std::uint8_t>& out,
                            const EnvelopeMsg& env) {
  Writer w(out);
  w.begin_frame(MsgKind::kEnvelope);
  write(w, env);
  return w.end_frame();
}

std::optional<std::size_t> frame_size(const std::uint8_t* data,
                                      std::size_t len) {
  if (len < kWireHeaderSize) return 0;  // need more bytes
  Reader r(data, kWireHeaderSize);
  if (r.u16() != kWireMagic) return std::nullopt;
  if (r.u8() != kWireVersion) return std::nullopt;
  r.u8();   // reserved
  r.u16();  // kind (validated by decode_frame)
  r.u16();  // reserved
  const std::uint32_t body = r.u32();
  if (body > kMaxBody) return std::nullopt;
  return kWireHeaderSize + body;
}

std::optional<DecodedFrame> decode_frame(const std::uint8_t* data,
                                         std::size_t len) {
  std::optional<DecodedFrame> out;  // the one object returned (NRVO)
  const std::optional<std::size_t> total = frame_size(data, len);
  if (!total.has_value() || *total == 0 || *total > len) return out;
  Reader id(data + 4, 2);  // the kind; frame_size checked the rest
  const MsgKind kind = static_cast<MsgKind>(id.u16());
  const KindEntry* e = entry_of(kind);
  if (e == nullptr) return out;  // opaque kinds travel only inside envelopes

  Reader body(data + kWireHeaderSize, *total - kWireHeaderSize);
  out.emplace();
  out->kind = kind;
  out->frame_size = *total;
  if (!kReadBody[e->layout](body, out->msg)) out.reset();
  return out;
}

}  // namespace hkws::net
