// hkbench: one workload of the wall-clock end-to-end benchmark per process.
//
//   hkbench --workload zipf-read|scan-read|publish-mix --seed N
//           (--seconds T | --quick) [--trace FILE]
//
// Every size and duration is fixed here from --seconds (or the small
// --quick scale). README.md says what each workload measures and why.
// Everything here is measured from the benchmark's side of public calls:
// the Transport interface (a timing decorator in traced runs),
// OverlayIndex::set_trace milestones, SearchStats, the transport's
// counters, and per-thread CPU clocks. Time metrics are scaled to a nominal
// host speed by the HostReference below. The last stdout line is one JSON
// object: {"workload", "correct", "attempted", "failed", "reasons",
// "metrics": {name: [value, unit]}, "info": {name: value}}.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "dht/chord_network.hpp"
#include "index/logical_index.hpp"
#include "index/service.hpp"
#include "net/tcp_transport.hpp"
#include "obs/trace.hpp"
#include "workload/arrivals.hpp"
#include "workload/corpus_generator.hpp"
#include "workload/query_generator.hpp"

namespace {

using namespace hkws;
using Clock = std::chrono::steady_clock;
using index::KeywordSearchService;

constexpr std::size_t kPeers = 224;
constexpr std::size_t kSearchers = 32;
constexpr int kR = 10;
/// Setup publishes kept in flight at once (acked-window pacing).
constexpr std::size_t kPublishWindow = 256;
/// Object ids of the publish stream (held-back objects published during
/// the run) start here, clear of the generated corpus ids.
constexpr ObjectId kStreamBase = 1'000'000'000;
/// Generator wakes this early and spins the rest (sleep_until alone can
/// overshoot by milliseconds).
constexpr auto kSpin = std::chrono::microseconds(200);
/// Searches in flight during the warm-up.
constexpr std::size_t kWarmOutstanding = 16;
/// Strand probe period (traced runs).
constexpr std::int64_t kProbePeriodUs = 5000;
/// Cap on recorded trace events (bounded memory; drops are counted).
constexpr std::size_t kTraceEvents = 400000;
/// Slack after the last op before unfinished ops count as failed.
constexpr auto kDrainLimit = std::chrono::seconds(10);
/// Longest the untimed warm-up may take. Timing starts only once every
/// warm-up search is done: a cold overlay on a slow host took over 10 s,
/// and its leftover searches then saturated the first seconds of the
/// window and doubled its messages per query.
constexpr auto kWarmLimit = std::chrono::seconds(120);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Prints to stderr how long each phase of the run took.
class Phases {
 public:
  void done(const char* phase) {
    const Clock::time_point now = Clock::now();
    std::fprintf(stderr, "hkbench: %-8s %6.2f s\n", phase,
                 std::chrono::duration<double>(now - last_).count());
    last_ = now;
  }

 private:
  Clock::time_point last_ = Clock::now();
};

/// Ends the process at once: a wait that timed out leaves closures queued
/// on the strand that still reference this thread's stack.
[[noreturn]] void die(const char* why) {
  std::fprintf(stderr, "hkbench: %s\n", why);
  std::fflush(stderr);
  std::_Exit(3);
}

// --- Workload definitions ----------------------------------------------------

enum class Kind { kZipfRead, kScanRead, kPublishMix };

struct Workload {
  Kind kind;
  const char* name;
  double rate;            ///< offered ops/s in the open-loop window
  double publish_share;   ///< share of ops that publish
  std::size_t limit;      ///< search limit (0 = exhaustive)
  std::size_t cache;      ///< query-cache records per node
  bool zipf;              ///< Zipf log (else uniform over the universe)
  /// Searches run before timing starts. A cold overlay resolves every
  /// contact through multi-hop routing and misses every cache; started
  /// cold, the open loop spends its first seconds draining that backlog.
  /// After 2 000 Zipf searches the caches were still filling: zipf-read's
  /// window cost 135 messages per query, against 112 after 5 000.
  std::size_t warmup_ops;
};

/// The TCP rates keep the dispatch CPU about 15% busy on a calm host, so
/// that a host twice as slow still leaves the queues short.
const Workload kWorkloads[] = {
    {Kind::kZipfRead, "zipf-read", 100.0, 0.0, 64, 64, true, 5000},
    {Kind::kScanRead, "scan-read", 25.0, 0.0, 0, 0, false, 500},
    {Kind::kPublishMix, "publish-mix", 50.0, 0.2, 64, 64, true, 5000},
};

/// What every run replays: the paper-scale corpus (the "site"), its
/// distinct-query universe with their Zipf ranks, and one fixed trace of
/// queries and publishes drawn from them. The seed varies only when ops
/// arrive. Under a Zipf log the top ten queries carry ~60% of the volume:
/// a universe drawn per seed made each seed a different workload, and a
/// trace shuffled per seed moved messages_per_op by 2-4% through which
/// plans the FIFO query caches evicted.
constexpr std::uint64_t kCorpusSeed = 2005;
constexpr std::uint64_t kUniverseSeed = 7;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;  ///< Poisson arrival times
  std::string trace_path;  ///< empty = untraced run
  // Scale, fixed by --seconds or --quick.
  std::size_t objects = 0;      ///< corpus prefix published in set-up
  std::size_t held = 0;         ///< held-back objects published later
  int setups = 0;               ///< set-ups per run (setup_s is the median)
  std::size_t warmup_ops = 0;   ///< untimed searches before the window
  double window = 0;            ///< open-loop window, seconds
};

/// The measured scale: `seconds` of open-loop window; set-up and warm-up
/// come on top.
void full_scale(Args& a, double seconds) {
  a.objects = 25000;
  a.held = 5000;
  a.setups = 3;
  a.warmup_ops = a.workload->warmup_ops;
  a.window = seconds;
}

/// The smoke-test scale: every code path, in a few seconds.
void quick_scale(Args& a) {
  a.objects = 4000;
  a.held = 1000;
  a.setups = 1;
  a.warmup_ops = 200;
  a.window = 2;
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--quick") {
      kv["quick"] = "";
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("bad argument: " + key);
    kv[key.substr(2)] = argv[++i];
  }
  const auto take = [&](const char* key) -> std::optional<std::string> {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  const auto need = [&](const char* key) {
    std::optional<std::string> v = take(key);
    if (!v) throw std::invalid_argument(std::string("missing --") + key);
    return *v;
  };
  const std::string name = need("workload");
  for (const Workload& cand : kWorkloads)
    if (name == cand.name) a.workload = &cand;
  if (a.workload == nullptr) throw std::invalid_argument("unknown --workload");
  a.seed = std::stoull(need("seed"));
  const std::optional<std::string> seconds = take("seconds");
  if (take("quick").has_value() == seconds.has_value())
    throw std::invalid_argument("give exactly one of --seconds and --quick");
  if (seconds) {
    const double s = std::stod(*seconds);
    if (!(s > 0)) throw std::invalid_argument("--seconds must be positive");
    full_scale(a, s);
  } else {
    quick_scale(a);
  }
  if (std::optional<std::string> path = take("trace")) a.trace_path = *path;
  if (!kv.empty()) throw std::invalid_argument("unknown --" + kv.begin()->first);
  return a;
}

// --- Small statistics --------------------------------------------------------

/// Nearest-rank quantile (p in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median_of(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- Process and thread accounting -------------------------------------------

pid_t gettid_now() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

/// User and system CPU of the calling thread.
std::pair<double, double> this_thread_user_sys() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return {tv_s(ru.ru_utime), tv_s(ru.ru_stime)};
}

double clock_s(clockid_t id) {
  timespec ts{};
  if (::clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// On-CPU seconds of thread `tid` of this process (scheduler accounting).
double thread_cpu_s(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  unsigned long long run_ns = 0;
  if (in >> run_ns) return static_cast<double>(run_ns) * 1e-9;
  return 0.0;
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> out;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    out.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
  return out;
}

double rss_mib() {
  std::ifstream in("/proc/self/statm");
  unsigned long long size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Pins the calling thread (and the threads it starts from now on) to `cpu`.
void pin_this_thread(std::size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

/// Where the threads run. The TCP runtime's io and dispatch threads share
/// the `system` CPU, the load generator has `load` to itself, and the host
/// reference `reference`. Left to the scheduler on a 4-vCPU KVM guest, each
/// message hop woke an idle vCPU, which cost 40% more CPU per query and made
/// latency follow the host's wake-up delays.
struct Cpus {
  std::size_t system = 0;
  std::size_t load = 0;
  std::size_t reference = 0;
};

/// The last three CPUs this process may use (shared, if there are fewer).
Cpus pick_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  std::vector<std::size_t> allowed;
  for (std::size_t c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) allowed.push_back(c);
  if (allowed.empty()) throw std::runtime_error("no CPU to run on");
  const auto nth_last = [&](std::size_t k) {
    return allowed[allowed.size() - 1 - std::min(k, allowed.size() - 1)];
  };
  return {nth_last(0), nth_last(1), nth_last(2)};
}

// --- Host-speed reference ----------------------------------------------------

/// A fixed amount of the benchmark's own work, timed over and over on a CPU
/// of its own for the whole run, that tells how fast the host was while the
/// system ran.
///
/// On a 4-vCPU KVM guest of a shared server, the same build, on the same
/// inputs, ran up to 40% slower in one run than in the next, and the
/// slowdown lasted tens of seconds, so no run length this benchmark can
/// afford averaged it out. The time metrics are therefore reported at a
/// nominal host speed: each is divided by the host's slowdown over the
/// interval it was measured in.
///
/// A unit has three parts, the three kinds of work the system does: a chain
/// of multiplies (computation), system calls (kernel entry and exit), and
/// one-byte round trips over a loopback TCP connection to an echo thread on
/// the same CPU (socket writes and reads, thread wake-ups). The slowdown is
/// the geometric mean of the parts' median times over kNominalUs. Of the
/// kernels tried beside the system, these tracked its CPU per op and its
/// latency best; memory walks tracked it less well, and a walk over an
/// L2-sized table run on the dispatch strand itself varied on its own by up
/// to 2x.
class HostReference {
 public:
  /// Geometric mean of the parts' times on a calm host (4-vCPU Intel Xeon
  /// KVM guest).
  static constexpr double kNominalUs = 100.0;
  static constexpr int kParts = 3;
  static constexpr const char* kPartNames[kParts] = {"alu", "syscall", "tcp"};

  /// Starts timing units on `cpu`.
  explicit HostReference(std::size_t cpu) : cpu_(cpu) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    const auto sa = reinterpret_cast<sockaddr*>(&addr);
    bool ok = listener >= 0 && ::bind(listener, sa, sizeof addr) == 0 &&
              ::listen(listener, 1) == 0 &&
              ::getsockname(listener, sa, &len) == 0;
    if (ok) {
      client_ = ::socket(AF_INET, SOCK_STREAM, 0);
      ok = client_ >= 0 && ::connect(client_, sa, sizeof addr) == 0;
    }
    if (ok) server_ = ::accept(listener, nullptr, nullptr);
    if (listener >= 0) ::close(listener);
    const int one = 1;
    if (!ok || server_ < 0 ||
        ::setsockopt(client_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) ||
        ::setsockopt(server_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one)) {
      close_sockets();
      throw std::runtime_error("host reference: loopback connection failed");
    }
    echo_ = std::thread([this] { echo(); });
    timer_ = std::thread([this] { time_units(); });
  }

  ~HostReference() {
    stop_.store(true, std::memory_order_relaxed);
    timer_.join();
    ::shutdown(client_, SHUT_WR);  // the echo thread reads end-of-file
    echo_.join();
    close_sockets();
  }
  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;

  struct Reading {
    double part_us[kParts] = {};  ///< median time of each part
    /// How much slower than nominal the host ran: divide times by it,
    /// multiply rates by it.
    double slowdown = 1.0;
    double unit_us() const { return slowdown * kNominalUs; }
  };

  /// The host's speed over the parts that ended in [from_ns, to_ns].
  Reading between(std::int64_t from_ns, std::int64_t to_ns) const {
    std::vector<double> us[kParts];
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (const Sample& s : samples_)
        if (s.end_ns >= from_ns && s.end_ns <= to_ns) us[s.part].push_back(s.us);
    }
    Reading r;
    double log_sum = 0.0;
    for (int p = 0; p < kParts; ++p) {
      if (us[p].empty())
        throw std::runtime_error("host reference: no sample in the interval");
      r.part_us[p] = median_of(std::move(us[p]));
      log_sum += std::log(r.part_us[p]);
    }
    r.slowdown = std::exp(log_sum / kParts) / kNominalUs;
    return r;
  }

  /// CPU time of the reference's threads so far: not the system's work.
  double cpu_s() {
    double s = 0.0;
    for (std::thread* t : {&timer_, &echo_}) {
      clockid_t id{};
      if (::pthread_getcpuclockid(t->native_handle(), &id) == 0)
        s += clock_s(id);
    }
    return s;
  }

 private:
  struct Sample {
    std::int64_t end_ns;
    int part;
    double us;
  };
  /// Pause after each part, so the reference CPU idles as the system's do.
  static constexpr auto kPause = std::chrono::microseconds(1000);

  void echo() {
    pin_this_thread(cpu_);
    char byte = 0;
    while (::read(server_, &byte, 1) == 1)
      if (::write(server_, &byte, 1) != 1) break;
  }

  void time_units() {
    pin_this_thread(cpu_);
    std::uint64_t x = 1;
    while (!stop_.load(std::memory_order_relaxed)) {
      for (int part = 0; part < kParts; ++part) {
        const std::int64_t t0 = now_ns();
        switch (part) {
          case 0:
            for (int i = 0; i < 20000; ++i)
              x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            break;
          case 1:
            for (int i = 0; i < 2000; ++i)
              x += static_cast<std::uint64_t>(::syscall(SYS_getppid));
            break;
          default:
            for (int i = 0; i < 20; ++i) {
              char byte = static_cast<char>(x);
              if (::write(client_, &byte, 1) != 1 ||
                  ::read(client_, &byte, 1) != 1)
                die("host reference: loopback round trip failed");
            }
        }
        const std::int64_t t1 = now_ns();
        {
          const std::lock_guard<std::mutex> lock(mu_);
          samples_.push_back({t1, part, static_cast<double>(t1 - t0) * 1e-3});
        }
        std::this_thread::sleep_for(kPause);
      }
    }
    sink_ = x;  // keeps the multiply chain from being optimized away
  }

  void close_sockets() {
    if (client_ >= 0) ::close(client_);
    if (server_ >= 0) ::close(server_);
  }

  const std::size_t cpu_;
  int client_ = -1, server_ = -1;
  mutable std::mutex mu_;
  std::vector<Sample> samples_;  // guarded by mu_
  std::atomic<bool> stop_{false};
  volatile std::uint64_t sink_ = 0;
  std::thread echo_, timer_;  // last: they use the members above
};

// --- Inputs ------------------------------------------------------------------

enum class OpKind : std::uint8_t { kSearch, kPublish };

struct Op {
  std::int64_t at_us = 0;  ///< scheduled offset from the run start
  OpKind kind = OpKind::kSearch;
  std::uint32_t item = 0;  ///< query-pool index, or publish-stream index
};

/// Everything the workload feeds the system: the fixed trace, with arrival
/// times from the seed.
struct Inputs {
  workload::Corpus corpus;  ///< published prefix, then the held-back tail
  std::size_t published = 0;
  std::vector<KeywordSet> pool;  ///< the distinct-query universe
  std::vector<std::uint32_t> warm;  ///< warm-up query ranks
  std::vector<Op> open;          ///< open-loop schedule (the timed window)
  std::unordered_map<ObjectId, const KeywordSet*> keywords_of;

  const KeywordSet& stream_keywords(std::uint32_t j) const {
    return corpus[published + j % (corpus.size() - published)].keywords;
  }
  static ObjectId stream_id(std::uint32_t j) { return kStreamBase + j; }
  const KeywordSet* lookup(ObjectId id) const {
    if (id >= kStreamBase)
      return &stream_keywords(static_cast<std::uint32_t>(id - kStreamBase));
    const auto it = keywords_of.find(id);
    return it == keywords_of.end() ? nullptr : it->second;
  }
};

Inputs make_inputs(const Args& args) {
  const Workload& w = *args.workload;
  Inputs in;
  workload::CorpusConfig ccfg;
  ccfg.object_count = args.objects + args.held;
  ccfg.seed = kCorpusSeed;
  in.corpus = workload::CorpusGenerator(ccfg).generate();
  in.published = args.objects;
  for (std::size_t i = 0; i < in.published; ++i)
    in.keywords_of.emplace(in.corpus[i].id, &in.corpus[i].keywords);

  // Queries come from the published prefix, so every query has a match.
  const workload::Corpus prefix(std::vector<workload::ObjectRecord>(
      in.corpus.records().begin(),
      in.corpus.records().begin() + static_cast<std::ptrdiff_t>(in.published)));
  workload::QueryLogConfig qcfg;
  qcfg.seed = kUniverseSeed;
  const workload::QueryLogGenerator gen(prefix, qcfg);
  in.pool = gen.universe();

  // The fixed trace: queries drawn in turn from the universe's Zipf (or
  // uniform) popularity.
  const ZipfDistribution zipf(in.pool.size(), gen.zipf_exponent());
  Rng trace(kUniverseSeed ^ 0xda7aULL);
  const auto queries = [&](std::size_t n) {
    std::vector<std::uint32_t> v(n);
    for (auto& q : v) {
      const std::size_t rank =
          w.zipf ? zipf.sample(trace) : trace.next_below(in.pool.size());
      q = static_cast<std::uint32_t>(std::min(rank, in.pool.size() - 1));
    }
    return v;
  };
  in.warm = queries(args.warmup_ops);

  // A fixed share of each op list publishes the next held-back object, at
  // random positions; the rest search.
  std::uint32_t next_publish = 0;
  const auto ops = [&](std::size_t n) {
    const auto publishes = static_cast<std::size_t>(
        std::llround(w.publish_share * static_cast<double>(n)));
    std::vector<std::uint32_t> kinds(n, 0);
    std::fill_n(kinds.begin(), publishes, 1);
    for (std::size_t i = n; i > 1; --i)
      std::swap(kinds[i - 1], kinds[trace.next_below(i)]);
    const std::vector<std::uint32_t> q = queries(n - publishes);
    std::vector<Op> out(n);
    std::size_t next_search = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (kinds[i] != 0) {
        out[i].kind = OpKind::kPublish;
        out[i].item = next_publish++;
      } else {
        out[i].item = q[next_search++];
      }
    }
    return out;
  };
  // The timed window is a fixed op count at the offered rate.
  in.open = ops(static_cast<std::size_t>(std::llround(w.rate * args.window)));
  workload::PoissonArrivals arrivals(w.rate / 1000.0, args.seed);
  std::int64_t at = 0;
  for (Op& op : in.open) {
    at += static_cast<std::int64_t>(arrivals.next_gap());
    op.at_us = at;
  }
  return in;
}

// --- Answer recording and checking -------------------------------------------

std::uint64_t hit_digest(ObjectId object, const KeywordSet& keywords,
                         std::uint64_t h) {
  h = hash_combine(h, object);
  for (const Keyword& k : keywords) h = hash_combine(h, hash_bytes(k, 0));
  return hash_combine(h, 0xffULL);
}

/// One finished (or unfinished) op, filled in on the dispatch strand.
struct Rec {
  OpKind kind = OpKind::kSearch;
  std::uint32_t item = 0;
  std::int64_t sched_ns = 0;   ///< when it was due (open loop) or posted
  std::int64_t start_ns = 0;   ///< search/publish call on the strand
  std::int64_t done_ns = 0;    ///< answer or ack
  std::uint64_t start_seq = 0; ///< strand order of the call
  std::uint64_t done_seq = 0;  ///< strand order of the answer/ack
  bool done = false;
  std::vector<ObjectId> ids;   ///< hit objects in answer order
  std::uint64_t digest = 0;    ///< over (object, keywords) in answer order
  index::SearchStats stats;
  bool indexed = false;        ///< publish: the index entry was created
  // Milestones (traced runs): search call -> "root", level spans.
  std::int64_t root_ns = 0;
  int root_hops = 0;
  std::int64_t level_start_ns = 0;
  double level_ns_sum = 0.0;
  int level_spans = 0;

  double latency_ms() const {
    return static_cast<double>(done_ns - sched_ns) * 1e-6;
  }
};

void record_answer(Rec& rec, const KeywordSearchService::Answer& answer) {
  rec.ids.reserve(answer.hits.size());
  std::uint64_t h = 0;
  for (const index::Hit& hit : answer.hits) {
    rec.ids.push_back(hit.object);
    h = hit_digest(hit.object, hit.keywords, h);
  }
  rec.digest = h;
  rec.stats = answer.stats;
}

/// Checks answers against the reference index built from the same inputs.
class Checker {
 public:
  Checker(const Workload& w, const Inputs& in)
      : w_(w), in_(in), logical_({.r = kR}) {
    for (std::size_t i = 0; i < in.published; ++i)
      logical_.insert(in.corpus[i].id, in.corpus[i].keywords);
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::map<std::string, std::size_t>& reasons() const {
    return reasons_;
  }

  /// Publishes: acked, and indexed (every published object is new).
  void check_publish(const Rec& rec) {
    ++attempted_;
    if (!rec.done) return fail("publish unacked");
    if (!rec.indexed) fail("publish did not create an index entry");
  }

  /// The set-up publishes, `acked` of them (an unacked one ends the run),
  /// `indexed` of which created an index entry.
  void check_setup(std::size_t acked, std::size_t indexed) {
    attempted_ += acked;
    for (std::size_t i = indexed; i < acked; ++i)
      fail("publish did not create an index entry");
  }

  /// Searches: the genuine/distinct/threshold contract everywhere,
  /// byte-for-byte order on exhaustive runs, acked-before-submit
  /// completeness when publishes race the search.
  void check_search(const Rec& rec, const std::vector<const Rec*>& by_stream) {
    ++attempted_;
    if (!rec.done) return fail("search unfinished");
    if (rec.stats.failed) return fail("search failed");
    const KeywordSet& q = in_.pool[rec.item];
    std::uint64_t h = 0;
    std::unordered_set<ObjectId> seen;
    for (ObjectId id : rec.ids) {
      const KeywordSet* k = in_.lookup(id);
      if (k == nullptr) return fail("hit is not a corpus object");
      if (!q.subset_of(*k)) return fail("hit does not contain the query");
      if (!seen.insert(id).second) return fail("duplicate hit");
      if (id >= kStreamBase) {
        const auto j = static_cast<std::size_t>(id - kStreamBase);
        const Rec* pub = j < by_stream.size() ? by_stream[j] : nullptr;
        if (pub == nullptr || pub->start_seq > rec.done_seq)
          return fail("hit on an object not yet published");
      }
      h = hit_digest(id, *k, h);
    }
    if (h != rec.digest) return fail("hit keywords differ from the corpus");

    if (w_.limit == 0) {
      if (!rec.stats.complete) return fail("exhaustive search incomplete");
      if (rec.ids != reference(q)) return fail("differs from LogicalIndex");
      return;
    }
    const std::size_t total = total_matches(q);
    if (rec.ids.size() < std::min(w_.limit, total))
      return fail("fewer hits than min(limit, total)");
    // `complete` means no level was left unvisited; an answer is exhaustive
    // only if the limit did not also cut the last level (LogicalIndex has
    // the same semantics).
    if (!rec.stats.complete || rec.ids.size() >= w_.limit) return;
    std::size_t want = total;
    for (const Rec* pub : by_stream)  // matches acked before the search began
      if (pub != nullptr && pub->done && pub->done_seq < rec.start_seq &&
          q.subset_of(in_.stream_keywords(pub->item)))
        ++want;
    if (rec.ids.size() < want) return fail("exhaustive answer misses matches");
  }

 private:
  void fail(const char* why) {
    ++failed_;
    ++reasons_[why];
  }

  std::size_t total_matches(const KeywordSet& q) {
    const auto it = totals_.find(q);
    if (it != totals_.end()) return it->second;
    const auto total =
        static_cast<std::size_t>(logical_.traversal_profile(q).total_hits);
    totals_.emplace(q, total);
    return total;
  }

  const std::vector<ObjectId>& reference(const KeywordSet& q) {
    const auto it = refs_.find(q);
    if (it != refs_.end()) return it->second;
    std::vector<index::Hit> hits =
        logical_.superset_search(q, 0, index::SearchStrategy::kLevelParallel)
            .hits;
    index::order_hits(hits, q, index::RankingPreference::kGeneralFirst);
    std::vector<ObjectId> ids;
    ids.reserve(hits.size());
    for (const index::Hit& hit : hits) ids.push_back(hit.object);
    return refs_.emplace(q, std::move(ids)).first->second;
  }

  const Workload& w_;
  const Inputs& in_;
  index::LogicalIndex logical_;
  std::unordered_map<KeywordSet, std::size_t, KeywordSetHash> totals_;
  std::unordered_map<KeywordSet, std::vector<ObjectId>, KeywordSetHash> refs_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::size_t> reasons_;
};

// --- Timing decorator (traced runs) ------------------------------------------

/// Forwards every Transport call and times the net layer from outside:
/// time inside send(), delivered-handler time net of the sends it makes,
/// and each wire message's send -> handler-start latency. Used from the
/// strand only.
class TimedTransport final : public net::Transport {
 public:
  struct Counters {
    std::int64_t send_ns = 0;
    std::int64_t handler_self_ns = 0;
    std::uint64_t handlers = 0;
  };

  explicit TimedTransport(net::Transport& inner) : inner_(inner) {}

  const Counters& counters() const { return c_; }
  std::vector<float> take_latencies_us() { return std::exchange(lat_us_, {}); }

  void register_endpoint(net::EndpointId id) override {
    inner_.register_endpoint(id);
  }
  void unregister_endpoint(net::EndpointId id) override {
    inner_.unregister_endpoint(id);
  }
  bool is_registered(net::EndpointId id) const override {
    return inner_.is_registered(id);
  }

  void send(net::EndpointId from, net::EndpointId to, std::string kind,
            std::size_t payload_bytes, Handler deliver) override {
    const bool wire = from != to;
    const std::int64_t sent = now_ns();
    Handler timed = [this, wire, sent, fn = std::move(deliver)] {
      if (wire)
        lat_us_.push_back(static_cast<float>(now_ns() - sent) * 1e-3f);
      ++c_.handlers;
      const bool outer = depth_++ == 0;
      const std::int64_t sends_before = c_.send_ns;
      const std::int64_t t0 = now_ns();
      fn();
      const std::int64_t dt = now_ns() - t0;
      --depth_;
      if (outer) c_.handler_self_ns += dt - (c_.send_ns - sends_before);
    };
    const std::int64_t t0 = now_ns();
    inner_.send(from, to, std::move(kind), payload_bytes, std::move(timed));
    c_.send_ns += now_ns() - t0;
  }

  net::Time now() const override { return inner_.now(); }
  void schedule_in(net::Time delay, Handler fn) override {
    inner_.schedule_in(delay, std::move(fn));
  }
  TimerId set_timer(net::Time delay, Handler fn) override {
    return inner_.set_timer(delay, std::move(fn));
  }
  bool cancel_timer(TimerId id) override { return inner_.cancel_timer(id); }
  sim::Metrics& metrics() override { return inner_.metrics(); }
  const sim::Metrics& metrics() const override { return inner_.metrics(); }
  void set_send_observer(SendObserver fn) override {
    inner_.set_send_observer(std::move(fn));
  }

 private:
  net::Transport& inner_;
  Counters c_;
  int depth_ = 0;
  std::vector<float> lat_us_;
};

// --- Counter snapshots -------------------------------------------------------

struct NetCounters {
  std::uint64_t messages = 0, bytes = 0, wire_bytes = 0, lost = 0;
  std::uint64_t kws = 0, dht = 0;
};

NetCounters read_counters(const sim::Metrics& m) {
  NetCounters c;
  c.messages = m.counter("net.messages");
  c.bytes = m.counter("net.bytes");
  c.wire_bytes = m.counter("net.wire_bytes");
  c.lost = m.counter("net.lost");
  for (const auto& [name, v] : m.counters()) {
    if (name.rfind("msg.kws.", 0) == 0) c.kws += v;
    if (name.rfind("msg.dht.", 0) == 0 || name.rfind("msg.dolr.", 0) == 0)
      c.dht += v;
  }
  return c;
}

/// Everything sampled at a window boundary.
struct Snapshot {
  std::int64_t wall_ns = 0;
  double proc_cpu = 0;         ///< whole process
  double gen_cpu = 0;          ///< generator (main) thread
  double reference_cpu = 0;    ///< the host reference's threads
  double strand_user = 0, strand_sys = 0;  ///< dispatcher thread
  double io_cpu = 0;           ///< every other thread (the io thread)
  NetCounters net;
  index::IndexTable::ScanStats scan;
  TimedTransport::Counters timed;

  /// The system's CPU: the generator's is the load source, and the host
  /// reference's the benchmark's.
  double system_cpu() const { return proc_cpu - gen_cpu - reference_cpu; }
};

/// Metrics by name, in output order.
class Report {
 public:
  void put(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, std::string(unit)));
  }
  void info(const std::string& name, double value) {
    info_.emplace_back(name, value);
  }
  std::string to_json(const Workload& w, const Checker& checker) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"workload\":\"" << w.name << "\",\"correct\":"
        << (checker.failed() == 0 ? "true" : "false")
        << ",\"attempted\":" << checker.attempted()
        << ",\"failed\":" << checker.failed() << ",\"reasons\":{";
    bool first = true;
    for (const auto& [why, n] : checker.reasons()) {
      out << (first ? "" : ",") << '"' << why << "\":" << n;
      first = false;
    }
    out << "},\"metrics\":{";
    first = true;
    for (const auto& [name, vu] : metrics_) {
      out << (first ? "" : ",") << '"' << name << "\":[" << vu.first << ",\""
          << vu.second << "\"]";
      first = false;
    }
    out << "},\"info\":{";
    first = true;
    for (const auto& [name, v] : info_) {
      out << (first ? "" : ",") << '"' << name << "\":" << v;
      first = false;
    }
    out << "}}";
    return out.str();
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> info_;
};

KeywordSearchService::Options service_options(const Workload& w) {
  KeywordSearchService::Options o;
  o.r = kR;
  o.cache_capacity = w.cache;
  return o;
}

KeywordSearchService::SearchOptions search_options(const Workload& w) {
  KeywordSearchService::SearchOptions o;
  o.limit = w.limit;
  o.strategy = index::SearchStrategy::kLevelParallel;
  return o;
}

/// The median `p50` of one latency sample `ms`, scaled to the nominal host
/// speed, as a metric if `gated`, with its unscaled value and the tails as
/// information. The tails are not gated: queueing turns a slower host into
/// a longer wait, so they moved by more than the largest bound a metric may
/// have (p90 by up to 40% between runs of one build).
void put_latency(Report& rep, const std::string& what, double p50,
                 const std::vector<double>& ms, double slowdown, bool gated) {
  if (gated)
    rep.put(what + "_p50_ms", p50 / slowdown, "ms");
  else
    rep.info(what + "_p50_ms", p50 / slowdown);
  rep.info(what + "_p50_ms.unscaled", p50);
  rep.info(what + "_p90_ms", quantile(ms, 0.9));
  rep.info(what + "_p99_ms", quantile(ms, 0.99));
  rep.info(what + "_samples", static_cast<double>(ms.size()));
}

/// Per-op rates of the counters that moved between two snapshots.
void put_counter_rates(Report& rep, const Snapshot& a, const Snapshot& b,
                       double ops, bool wire_bytes) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double msgs = d(a.net.messages, b.net.messages);
  const double bytes = wire_bytes ? d(a.net.wire_bytes, b.net.wire_bytes)
                                  : d(a.net.bytes, b.net.bytes);
  rep.put("messages_per_op", ratio(msgs, ops), "msgs");
  rep.put("bytes_per_op", ratio(bytes, ops), "B");
  rep.put("net.wire_bytes_per_msg", ratio(bytes, msgs), "B");
  rep.put("net.lost", d(a.net.lost, b.net.lost), "count");
  rep.put("index.msgs_per_op", ratio(d(a.net.kws, b.net.kws), ops), "msgs");
  rep.put("dht.msgs_per_op", ratio(d(a.net.dht, b.net.dht), ops), "msgs");
  const auto per_query = [&](std::uint64_t x, std::uint64_t y) {
    return ratio(d(x, y), ops);
  };
  rep.put("index.scan_candidates_per_query",
          per_query(a.scan.candidates, b.scan.candidates), "count");
  rep.put("index.subset_checks_per_query",
          per_query(a.scan.subset_checks, b.scan.subset_checks), "count");
  rep.put("index.linear_equivalent_per_query",
          per_query(a.scan.linear_equivalent, b.scan.linear_equivalent),
          "count");
}

/// Per-query means of SearchStats over the window's searches.
void put_search_stats(Report& rep, const std::vector<index::SearchStats>& s,
                      const std::vector<double>& hits) {
  std::vector<double> levels, nodes, retrans;
  double coalesced = 0, contacted = 0, cache_hits = 0;
  for (const auto& st : s) {
    levels.push_back(static_cast<double>(st.levels));
    nodes.push_back(static_cast<double>(st.nodes_contacted));
    retrans.push_back(static_cast<double>(st.retransmits));
    coalesced += static_cast<double>(st.coalesced_visits);
    contacted += static_cast<double>(st.nodes_contacted);
    cache_hits += st.cache_hit ? 1.0 : 0.0;
  }
  rep.put("index.levels_per_query", mean(levels), "count");
  rep.put("index.nodes_per_query", mean(nodes), "count");
  rep.put("index.coalesced_share", ratio(coalesced, contacted), "ratio");
  rep.put("index.cache_hit_rate",
          ratio(cache_hits, static_cast<double>(s.size())), "ratio");
  rep.put("index.hits_per_query", mean(hits), "count");
  rep.put("index.retransmits_per_query", mean(retrans), "count");
}

/// Timing-decorator and dispatcher metrics between two snapshots.
void put_dispatch(Report& rep, const Snapshot& a, const Snapshot& b,
                  double ops, std::vector<float> lat_us, double events) {
  const double wall = static_cast<double>(b.wall_ns - a.wall_ns) * 1e-9;
  const double strand_user = b.strand_user - a.strand_user;
  const double strand_sys = b.strand_sys - a.strand_sys;
  const double strand = strand_user + strand_sys;
  const double io = b.io_cpu - a.io_cpu;
  const double system = b.system_cpu() - a.system_cpu();
  rep.put("net.send_us_per_op",
          ratio(static_cast<double>(b.timed.send_ns - a.timed.send_ns) * 1e-3,
                ops),
          "us");
  rep.put("proto.handler_us_per_op",
          ratio(static_cast<double>(b.timed.handler_self_ns -
                                    a.timed.handler_self_ns) *
                    1e-3,
                ops),
          "us");
  std::vector<double> lat(lat_us.begin(), lat_us.end());
  rep.put("net.msg_latency_p50_us", quantile(lat, 0.5), "us");
  rep.put("net.msg_latency_p99_us", quantile(lat, 0.99), "us");
  rep.put("net.dispatch_cpu_us_per_op", ratio((strand + io) * 1e6, ops), "us");
  rep.put("net.io_cpu_share", ratio(io, system), "ratio");
  rep.put("net.strand_busy", ratio(strand, wall), "ratio");
  rep.put("net.strand_sys_share", ratio(strand_sys, strand), "ratio");
  rep.put("dispatch.events_per_op", ratio(events, ops), "count");
  rep.put("dispatch.ns_per_event", ratio(strand * 1e9, events), "ns");
  rep.info("net.strand_user_us_per_op", ratio(strand_user * 1e6, ops));
  rep.info("net.strand_sys_us_per_op", ratio(strand_sys * 1e6, ops));
  rep.info("net.io_cpu_us_per_op", ratio(io * 1e6, ops));
}

void put_setup(Report& rep, const std::vector<double>& setup_s,
               const std::vector<double>& build_s,
               const std::vector<double>& publish_per_s, double rss,
               double publish_hops) {
  rep.put("setup_s", median_of(setup_s), "s");
  rep.put("rss_mb", rss, "MiB");
  rep.put("setup.build_s", median_of(build_s), "s");
  rep.put("setup.publish_per_s", median_of(publish_per_s), "1/s");
  rep.put("dht.publish_hops", publish_hops, "hops");
}

// --- The TCP runtime workloads -----------------------------------------------

/// One 224-peer overlay + service over one in-process TcpTransport.
class TcpCluster {
 public:
  TcpCluster(const Workload& w, bool timed) {
    if (timed) timed_ = std::make_unique<TimedTransport>(tcp_);
    dht_ = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(wire(), kPeers, {}));
    svc_ = std::make_unique<KeywordSearchService>(*dht_, service_options(w));
  }
  ~TcpCluster() { tcp_.stop(); }  // join the threads before state dies
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  net::TcpTransport& tcp() { return tcp_; }
  net::Transport& wire() {
    return timed_ ? static_cast<net::Transport&>(*timed_) : tcp_;
  }
  TimedTransport* timed() { return timed_.get(); }
  KeywordSearchService& service() { return *svc_; }

  /// Runs `fn` on the dispatch strand and waits for its result.
  template <typename Fn>
  auto on_strand(Fn fn) -> decltype(fn()) {
    using R = decltype(fn());
    std::promise<R> p;
    std::future<R> f = p.get_future();
    tcp_.schedule_in(0, [&] {
      if constexpr (std::is_void_v<R>) {
        fn();
        p.set_value();
      } else {
        p.set_value(fn());
      }
    });
    if (f.wait_for(std::chrono::seconds(60)) != std::future_status::ready)
      die("dispatch strand unresponsive");
    return f.get();
  }

 private:
  net::TcpTransport tcp_;
  std::unique_ptr<TimedTransport> timed_;
  std::unique_ptr<dht::ChordNetwork> dht_;
  std::unique_ptr<KeywordSearchService> svc_;
};

class TcpRun {
 public:
  TcpRun(const Args& args, const Inputs& in, Cpus cpus)
      : args_(args), w_(*args.workload), in_(in),
        traced_(!args.trace_path.empty()), cpus_(cpus), tracer_(kTraceEvents),
        gen_thread_(::pthread_self()), gen_tid_(gettid_now()) {}

  void run(Report& rep, Checker& checker, Phases& phases) {
    pin_this_thread(cpus_.load);
    reference_ = std::make_unique<HostReference>(cpus_.reference);
    setup(rep);
    phases.done("set-up");
    warm_up();
    phases.done("warm-up");
    if (traced_) install_trace();
    open_loop(rep);
    phases.done("window");
    if (traced_)
      cluster_->on_strand(
          [this] { cluster_->service().primary_index().set_trace(nullptr); });
    // No strand activity from here on: the records are quiescent even if
    // some op never finished.
    cluster_->tcp().stop();
    reference_.reset();
    check(checker);
    if (traced_) write_trace(rep);
    cluster_.reset();
    phases.done("checks");
  }

 private:
  // -- Setup -------------------------------------------------------------

  /// Builds and fills the cluster args_.setups times; the last one is kept.
  /// Each set-up's times are scaled by the host's slowdown meanwhile.
  void setup(Report& rep) {
    std::vector<double> setup_s, raw_setup_s, build_s, publish_per_s;
    double rss_growth = 0, hops = 0;
    for (int k = 0; k < args_.setups; ++k) {
      cluster_.reset();
      const double rss0 = rss_mib();
      const std::int64_t t0 = now_ns();
      pin_this_thread(cpus_.system);  // the transport's threads inherit it
      cluster_ = std::make_unique<TcpCluster>(w_, traced_);
      pin_this_thread(cpus_.load);
      const std::int64_t t1 = now_ns();
      hops = publish_corpus();
      const std::int64_t t2 = now_ns();
      if (k == 0) rss_growth = rss_mib() - rss0;
      const double slowdown = reference_->between(t0, t2).slowdown;
      const double s = static_cast<double>(t2 - t0) * 1e-9;
      raw_setup_s.push_back(s);
      setup_s.push_back(s / slowdown);
      build_s.push_back(static_cast<double>(t1 - t0) * 1e-9 / slowdown);
      publish_per_s.push_back(static_cast<double>(in_.published) * slowdown /
                              (static_cast<double>(t2 - t1) * 1e-9));
    }
    put_setup(rep, setup_s, build_s, publish_per_s, rss_growth, hops);
    rep.info("setup_s.unscaled", median_of(raw_setup_s));
    strand_tid_ = cluster_->on_strand([] { return gettid_now(); });
  }

  /// Publishes the corpus prefix with kPublishWindow acks outstanding;
  /// returns the mean route hops (DOLR + index) per publish.
  double publish_corpus() {
    struct Pump {
      std::size_t next = 0, acked = 0, indexed = 0;
      std::uint64_t hops = 0;
      std::promise<void> done;
    } pump;
    KeywordSearchService& svc = cluster_->service();
    const std::size_t n = in_.published;
    std::function<void()> issue = [&] {
      while (pump.next < n && pump.next - pump.acked < kPublishWindow) {
        const std::size_t i = pump.next++;
        const auto& rec = in_.corpus[i];
        svc.publish(1 + i % kPeers, rec.id, rec.keywords,
                    [&](const index::OverlayIndex::PublishResult& r) {
                      pump.hops += static_cast<std::uint64_t>(r.dolr_hops +
                                                              r.index_hops);
                      if (r.indexed) ++pump.indexed;
                      if (++pump.acked == n) pump.done.set_value();
                      issue();
                    });
      }
    };
    std::future<void> f = pump.done.get_future();
    cluster_->tcp().schedule_in(0, [&] { issue(); });
    if (f.wait_for(std::chrono::seconds(120)) != std::future_status::ready)
      die("setup publishes did not complete");
    cluster_->on_strand([] {});  // the last callback has returned
    setup_acked_ += n;
    setup_indexed_ += pump.indexed;
    return static_cast<double>(pump.hops) / static_cast<double>(n);
  }

  // -- Ops (strand side) ---------------------------------------------------

  /// Starts `rec` on the strand; `then` runs on the strand once it is done.
  void start_op(Rec& rec, std::function<void()> then) {
    rec.start_ns = now_ns();
    rec.start_seq = ++seq_;
    in_flight_hw_ = std::max(in_flight_hw_, ++in_flight_);
    KeywordSearchService& svc = cluster_->service();
    if (rec.kind == OpKind::kPublish) {
      const std::uint32_t j = rec.item;
      svc.publish(1 + j % kPeers, Inputs::stream_id(j), in_.stream_keywords(j),
                  [this, &rec, then = std::move(then)](
                      const index::OverlayIndex::PublishResult& r) {
                    rec.done_ns = now_ns();
                    rec.done_seq = ++seq_;
                    rec.indexed = r.indexed;
                    rec.done = true;
                    --in_flight_;
                    then();
                  });
      return;
    }
    const std::uint64_t track = next_track_++;
    const bool traced = tracing_;
    if (traced) {
      const auto ts = static_cast<sim::Time>(trace_us(rec.start_ns));
      tracer_.begin(ts, track, "query", "engine");
      tracer_.begin(ts, track, "root_lookup", "engine");
      calling_ = {track, &rec};
    }
    const std::uint64_t ticket = svc.search(
        1 + rec.start_seq % kSearchers, in_.pool[rec.item], search_options(w_),
        [this, &rec, track, traced, then = std::move(then)](
            const KeywordSearchService::Answer& a) {
          rec.done_ns = now_ns();
          rec.done_seq = ++seq_;
          record_answer(rec, a);
          rec.done = true;
          --in_flight_;
          if (traced) finish_trace(rec, track);
          then();
        });
    if (traced) {
      by_request_[ticket] = {track, &rec};
      calling_ = {0, nullptr};
    }
  }

  // -- Tracing (strand side) -------------------------------------------------

  std::int64_t trace_us(std::int64_t ns) const {
    return (ns - trace_base_ns_) / 1000;
  }

  /// Traces the ops started from here on: the timed window first, so the
  /// capped event budget holds the ops the metrics come from.
  void install_trace() {
    trace_base_ns_ = now_ns();
    index::OverlayIndex& idx = cluster_->service().primary_index();
    cluster_->on_strand([this, &idx] {
      tracing_ = true;
      idx.set_trace([this](const index::OverlayIndex::Trace& t) {
        on_milestone(t);
      });
    });
  }

  void on_milestone(const index::OverlayIndex::Trace& t) {
    std::pair<std::uint64_t, Rec*> op = calling_;  // inside search()
    if (const auto it = by_request_.find(t.request); it != by_request_.end())
      op = it->second;
    auto [track, rec] = op;
    if (rec == nullptr || rec->done) return;
    const std::int64_t now = now_ns();
    const auto ts = static_cast<sim::Time>(trace_us(now));
    if (std::strcmp(t.point, "root") == 0) {
      rec->root_ns = now;
      rec->root_hops = static_cast<int>(t.b);
      if (tracer_.open_top(track) == "root_lookup") tracer_.end(ts, track);
      tracer_.instant(ts, track, "root", "proto", t.a, t.b);
    } else if (std::strcmp(t.point, "level") == 0) {
      close_level(*rec, track, now);
      rec->level_start_ns = now;
      tracer_.begin(ts, track, "level", "proto", t.a, t.b);
    } else {
      tracer_.instant(ts, track, t.point, "proto", t.a, t.b);
    }
  }

  void close_level(Rec& rec, std::uint64_t track, std::int64_t now) {
    if (tracer_.open_top(track) != "level") return;
    tracer_.end(static_cast<sim::Time>(trace_us(now)), track);
    rec.level_ns_sum += static_cast<double>(now - rec.level_start_ns);
    ++rec.level_spans;
  }

  void finish_trace(Rec& rec, std::uint64_t track) {
    close_level(rec, track, rec.done_ns);
    const auto ts = static_cast<sim::Time>(trace_us(rec.done_ns));
    tracer_.instant(ts, track, "complete", "engine", rec.ids.size());
    tracer_.close_open(ts, track);
  }

  void write_trace(Report& rep) {
    if (!tracer_.write_chrome_json(args_.trace_path))
      throw std::runtime_error("cannot write " + args_.trace_path);
    rep.info("trace.events", static_cast<double>(tracer_.events().size()));
    rep.info("trace.dropped", static_cast<double>(tracer_.dropped()));
  }

  // -- Snapshots --------------------------------------------------------------

  /// Samples the process. Runs on the strand, which owns the counters.
  Snapshot sample() {
    Snapshot s;
    s.wall_ns = now_ns();
    s.proc_cpu = process_cpu_s();
    clockid_t gen_clock{};
    if (::pthread_getcpuclockid(gen_thread_, &gen_clock) == 0)
      s.gen_cpu = clock_s(gen_clock);
    std::tie(s.strand_user, s.strand_sys) = this_thread_user_sys();
    s.reference_cpu = reference_->cpu_s();
    for (pid_t tid : thread_ids())
      if (tid != gen_tid_ && tid != strand_tid_) s.io_cpu += thread_cpu_s(tid);
    s.io_cpu -= s.reference_cpu;
    s.net = read_counters(cluster_->tcp().metrics());
    s.scan = cluster_->service().primary_index().scan_stats();
    if (TimedTransport* t = cluster_->timed()) s.timed = t->counters();
    return s;
  }

  // -- Generator (main thread) ------------------------------------------------

  static void wait_until(Clock::time_point target) {
    if (Clock::now() < target - kSpin)
      std::this_thread::sleep_until(target - kSpin);
    while (Clock::now() < target) {
    }
  }

  /// Waits until `counter` reaches `want` or `limit` passes; returns
  /// whether it got there.
  static bool drain(const std::atomic<std::size_t>& counter, std::size_t want,
                    std::chrono::seconds limit = kDrainLimit) {
    const auto until = Clock::now() + limit;
    while (counter.load(std::memory_order_acquire) < want) {
      if (Clock::now() >= until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  /// Searches with kWarmOutstanding in flight until the warm-up list is
  /// done: contacts and caches reach steady state before timing starts.
  void warm_up() {
    warm_recs_.resize(in_.warm.size());
    cluster_->on_strand([this] {
      for (std::size_t i = 0; i < kWarmOutstanding; ++i) launch_warm();
    });
    if (!drain(warm_finished_, warm_recs_.size(), kWarmLimit))
      die("warm-up searches did not finish");
  }

  /// Strand side of the warm-up.
  void launch_warm() {
    if (warm_next_ == warm_recs_.size()) return;
    Rec& rec = warm_recs_[warm_next_];
    rec.item = in_.warm[warm_next_++];
    rec.sched_ns = now_ns();
    start_op(rec, [this] {
      warm_finished_.fetch_add(1, std::memory_order_release);
      launch_warm();
    });
  }

  /// Poisson arrivals posted onto the strand at their due times; each op is
  /// timed from when it was due.
  void open_loop(Report& rep) {
    const std::vector<Op>& ops = in_.open;
    open_recs_.resize(ops.size());
    const std::int64_t end_us = ops.empty() ? 0 : ops.back().at_us + 1;
    std::vector<double> late_us;
    late_us.reserve(ops.size());
    probe_wait_us_.reserve(
        static_cast<std::size_t>(end_us / kProbePeriodUs) + 1);
    cluster_->on_strand([this] {
      s0_ = sample();
      in_flight_hw_ = in_flight_;
      if (TimedTransport* t = cluster_->timed()) t->take_latencies_us();
    });
    const Clock::time_point t0 = Clock::now();
    const std::int64_t t0_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t0.time_since_epoch())
            .count();
    std::int64_t next_probe = traced_ ? 0 : end_us;
    for (std::size_t i = 0; i <= ops.size(); ++i) {
      const std::int64_t at = i < ops.size() ? ops[i].at_us : end_us;
      // In traced runs, the probes due before this op: no-ops whose
      // dispatch delay is the strand's queueing wait.
      while (next_probe < at) {
        wait_until(t0 + std::chrono::microseconds(next_probe));
        const std::int64_t posted = now_ns();
        cluster_->tcp().schedule_in(0, [this, posted] {
          probe_wait_us_.push_back(static_cast<double>(now_ns() - posted) *
                                   1e-3);
        });
        next_probe += kProbePeriodUs;
      }
      if (i == ops.size()) break;
      wait_until(t0 + std::chrono::microseconds(at));
      Rec& rec = open_recs_[i];
      rec.kind = ops[i].kind;
      rec.item = ops[i].item;
      rec.sched_ns = t0_ns + at * 1000;
      cluster_->tcp().schedule_in(0, [this, &rec] {
        start_op(rec, [this] {
          open_finished_.fetch_add(1, std::memory_order_release);
        });
      });
      late_us.push_back(static_cast<double>(now_ns() - rec.sched_ns) * 1e-3);
    }
    drain(open_finished_, ops.size());
    std::vector<float> msg_lat_us;
    const Snapshot s1 = cluster_->on_strand([&] {
      if (TimedTransport* t = cluster_->timed())
        msg_lat_us = t->take_latencies_us();
      return sample();
    });
    const HostReference::Reading host = reference_->between(t0_ns, s1.wall_ns);
    const double slowdown = host.slowdown;
    rep.info("host.slowdown", slowdown);
    for (int p = 0; p < HostReference::kParts; ++p)
      rep.info(std::string("host.") + HostReference::kPartNames[p] + "_us",
               host.part_us[p]);
    const std::size_t in_flight_hw =
        cluster_->on_strand([this] { return in_flight_hw_; });

    // End-to-end numbers over the window's ops.
    std::vector<double> search_ms, publish_ms, hits, root_ms, level_ms,
        root_hops;
    std::vector<index::SearchStats> stats;
    for (const Rec& r : open_recs_) {
      if (!r.done) continue;
      if (r.kind == OpKind::kPublish) {
        publish_ms.push_back(r.latency_ms());
        continue;
      }
      search_ms.push_back(r.latency_ms());
      stats.push_back(r.stats);
      hits.push_back(static_cast<double>(r.ids.size()));
      if (r.root_ns != 0) {
        root_ms.push_back(static_cast<double>(r.root_ns - r.start_ns) * 1e-6);
        root_hops.push_back(static_cast<double>(r.root_hops));
      }
      if (r.level_spans > 0)
        level_ms.push_back(r.level_ns_sum / r.level_spans * 1e-6);
    }
    const double n_ops = static_cast<double>(ops.size());
    const double q50 = quantile(search_ms, 0.5);
    put_latency(rep, "query", q50, search_ms, slowdown, true);
    if (w_.publish_share > 0.0)
      put_latency(rep, "publish", quantile(publish_ms, 0.5), publish_ms,
                  slowdown, false);
    const double cpu_us =
        ratio((s1.system_cpu() - s0_.system_cpu()) * 1e6, n_ops);
    rep.put("cpu_us_per_op", cpu_us / slowdown, "us");
    rep.info("cpu_us_per_op.unscaled", cpu_us);
    put_counter_rates(rep, s0_, s1, n_ops, true);
    rep.info("window_ops", n_ops);
    rep.info("window_searches", static_cast<double>(search_ms.size()));
    rep.info("window_publishes", static_cast<double>(publish_ms.size()));
    rep.info("gen.late_p99_us", quantile(late_us, 0.99));
    rep.info("gen.late_max_us", quantile(late_us, 1.0));
    if (!traced_) return;
    put_search_stats(rep, stats, hits);
    rep.put("index.root_ms_p50", quantile(root_ms, 0.5), "ms");
    rep.put("index.level_ms_mean", mean(level_ms), "ms");
    rep.put("dht.root_hops", mean(root_hops), "hops");
    rep.put("admit.in_flight_high_water", static_cast<double>(in_flight_hw),
            "count");
    rep.info("net.strand_wait_p50_us", quantile(probe_wait_us_, 0.5));
    rep.info("net.strand_wait_p99_us", quantile(probe_wait_us_, 0.99));
    put_dispatch(rep, s0_, s1, n_ops, std::move(msg_lat_us),
                 static_cast<double>(s1.timed.handlers - s0_.timed.handlers));
    rep.put("trace.cpu_us_per_op", cpu_us / slowdown, "us");
    rep.put("trace.query_p50_ms", q50 / slowdown, "ms");
    rep.put("host.reference_us", host.unit_us(), "us");
  }

  void check(Checker& checker) {
    checker.check_setup(setup_acked_, setup_indexed_);
    std::vector<const Rec*> ops;
    for (const auto* recs : {&warm_recs_, &open_recs_})
      for (const Rec& r : *recs) ops.push_back(&r);
    std::vector<const Rec*> by_stream;
    for (const Rec* r : ops)
      if (r->kind == OpKind::kPublish) {
        if (by_stream.size() <= r->item) by_stream.resize(r->item + 1, nullptr);
        by_stream[r->item] = r;
      }
    for (const Rec* r : ops) {
      if (r->kind == OpKind::kPublish)
        checker.check_publish(*r);
      else
        checker.check_search(*r, by_stream);
    }
  }

  const Args& args_;
  const Workload& w_;
  const Inputs& in_;
  bool traced_;
  Cpus cpus_;
  obs::Tracer tracer_;
  pthread_t gen_thread_;
  pid_t gen_tid_;
  pid_t strand_tid_ = 0;
  std::unique_ptr<HostReference> reference_;  // outlives the cluster's strand
  std::unique_ptr<TcpCluster> cluster_;
  std::size_t setup_acked_ = 0, setup_indexed_ = 0;
  std::vector<Rec> warm_recs_, open_recs_;
  std::atomic<std::size_t> warm_finished_{0};
  std::atomic<std::size_t> open_finished_{0};
  // Strand-owned state.
  Snapshot s0_;
  std::vector<double> probe_wait_us_;
  std::uint64_t seq_ = 0;
  std::size_t warm_next_ = 0;
  std::size_t in_flight_ = 0, in_flight_hw_ = 0;
  std::uint64_t next_track_ = 1;
  bool tracing_ = false;
  std::int64_t trace_base_ns_ = 0;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, Rec*>>
      by_request_;
  std::pair<std::uint64_t, Rec*> calling_{0, nullptr};
};

}  // namespace

int main(int argc, char** argv) {
  try {
    Phases phases;
    const Args args = parse_args(argc, argv);
    const Cpus cpus = pick_cpus();
    const Inputs in = make_inputs(args);
    Checker checker(*args.workload, in);
    phases.done("inputs");
    Report rep;
    TcpRun(args, in, cpus).run(rep, checker, phases);
    std::printf("%s\n", rep.to_json(*args.workload, checker).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hkbench: %s\n", e.what());
    return 2;
  }
}
