// Wire-codec micro-benchmarks: encode_frame / decode_frame per message kind,
// reported as ns per frame and bytes/s. They isolate the codec from the
// socket path whose in-situ cost hkbench reports (net.send_us_per_op,
// net.io_cpu_share), so a codec change shows here first.
//
//   .bench_build/wire_codec [--benchmark_filter=Decode]
//
// Messages are built from a generated corpus at run time, not from
// compile-time constants, so the work cannot be folded away.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "workload/corpus_generator.hpp"

namespace {

using namespace hkws;

const workload::Corpus& corpus() {
  static const workload::Corpus c = [] {
    workload::CorpusConfig cfg;
    cfg.object_count = 512;
    return workload::CorpusGenerator(cfg).generate();
  }();
  return c;
}

std::vector<std::string> words(std::size_t i) {
  return corpus()[i % corpus().size()].keywords.words();
}

std::vector<net::WireHit> hits(std::size_t n) {
  std::vector<net::WireHit> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back({corpus()[i].id, words(i)});
  return out;
}

/// A parked-mode envelope as the socket transports send it: a t_query
/// receipt padded to its declared protocol size.
net::WireMessage envelope() {
  net::EnvelopeMsg env;
  env.inner_kind = net::MsgKind::kKwsTQuery;
  env.msg_id = corpus().size();
  env.from = 17;
  env.to = 203;
  env.declared_bytes = 32 + 12 * words(0).size();
  env.pad = static_cast<std::uint32_t>(env.declared_bytes);
  return env;
}

net::WireMessage visit_batch() {
  net::VisitBatchMsg m;
  m.request = 4242;
  m.want = 64;
  for (std::uint64_t n = 0; n < 8; ++n) m.nodes.push_back(n * 37 + 5);
  m.query = {words(3).front(), words(3).back()};
  return m;
}

net::WireMessage batch_results() {
  net::BatchResultsMsg m;
  m.request = 4242;
  const std::vector<net::WireHit> all = hits(64);
  for (std::size_t b = 0; b < 8; ++b) {
    const auto first = all.begin() + static_cast<std::ptrdiff_t>(b * 8);
    m.batches.push_back({b * 37 + 5, {first, first + 8}});
  }
  return m;
}

net::WireMessage fe_reply() {
  net::FeReplyMsg m;
  m.complete = true;
  m.messages = 131;
  m.hits = hits(64);
  return m;
}

struct Case {
  net::MsgKind kind;
  net::WireMessage (*make)();
};

const Case kCases[] = {
    {net::MsgKind::kEnvelope, envelope},
    {net::MsgKind::kKwsVisitBatch, visit_batch},
    {net::MsgKind::kKwsBatchResults, batch_results},
    {net::MsgKind::kFeReply, fe_reply},
};

void BM_Encode(benchmark::State& state) {
  const Case& c = kCases[state.range(0)];
  const net::WireMessage msg = c.make();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::vector<std::uint8_t> frame = net::encode_frame(c.kind, msg);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(net::kind_name(c.kind));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["frame_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_Encode)->DenseRange(0, 3);

void BM_Decode(benchmark::State& state) {
  const Case& c = kCases[state.range(0)];
  const std::vector<std::uint8_t> frame = net::encode_frame(c.kind, c.make());
  for (auto _ : state) {
    auto decoded = net::decode_frame(frame.data(), frame.size());
    if (!decoded.has_value()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetLabel(net::kind_name(c.kind));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_Decode)->DenseRange(0, 3);

}  // namespace
