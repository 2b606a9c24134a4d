// A sampling CPU profiler, loaded into any program with LD_PRELOAD:
//
//   HKPROF_OUT=run.hkprof LD_PRELOAD=libhkprof.so program
//   python3 tools/profile/report.py run.hkprof
//
// ITIMER_PROF sends SIGPROF after every 1 ms of CPU time the process
// consumes, to the thread that was running; the kernel checks the timer at
// its scheduler tick, so a 250 Hz kernel samples each busy CPU at most 250
// times a second. The handler records
// that thread's id, its name (pthread_setname_np; the socket runtime names
// its threads hk-strand and hk-io), the time and its call stack into a buffer
// allocated up front. When the process exits, the buffer and the process's
// executable mappings go to $HKPROF_OUT as text; report.py symbolizes the
// addresses offline with addr2line. Without HKPROF_OUT the library does
// nothing.
//
// The handler takes no lock and allocates nothing. It unwinds with
// libgcc's _Unwind_Backtrace, which looks frames up through glibc's
// lock-free _dl_find_object (glibc 2.35 and later), so a sample that lands
// inside malloc or the loader cannot deadlock.
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>
#include <unwind.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr int kMaxDepth = 48;
constexpr long kPeriodUs = 1000;  // of process CPU time per sample
constexpr std::size_t kCapacity = 1 << 18;  // about 90 s at 1 kHz, 3 cores

// Trivial, so calloc'd zero pages are valid samples and only the samples
// taken become resident. `ready` is accessed through std::atomic_ref.
struct Sample {
  int ready;
  int depth;
  long tid;
  long long ns;  ///< CLOCK_MONOTONIC time of the sample
  char name[16];
  std::uintptr_t pcs[kMaxDepth];
};

struct Profile {
  Sample* samples = nullptr;  ///< kCapacity of them
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> dropped{0};
  const char* out = nullptr;
};

Profile profile;

struct Unwind {
  Sample* sample;
  bool past_signal;
};

// Records the frames below the signal frame: the interrupted instruction
// exactly, every caller at its return address minus one so that it
// symbolizes to the call's line.
_Unwind_Reason_Code record_frame(_Unwind_Context* ctx, void* arg) {
  auto* u = static_cast<Unwind*>(arg);
  int before_insn = 0;
  const std::uintptr_t ip = _Unwind_GetIPInfo(ctx, &before_insn);
  if (!u->past_signal) {
    // The interrupted frame is the one unwound through the signal
    // trampoline; the handler's own frames come before it.
    if (before_insn == 0) return _URC_NO_REASON;
    u->past_signal = true;
  }
  Sample& s = *u->sample;
  if (ip == 0 || s.depth == kMaxDepth) return _URC_END_OF_STACK;
  s.pcs[s.depth++] = before_insn != 0 ? ip : ip - 1;
  return _URC_NO_REASON;
}

void on_sigprof(int, siginfo_t*, void*) {
  const int saved_errno = errno;
  const std::size_t i = profile.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= kCapacity) {
    profile.dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& s = profile.samples[i];
  s.tid = syscall(SYS_gettid);
  timespec now = {};
  clock_gettime(CLOCK_MONOTONIC, &now);
  s.ns = now.tv_sec * 1000000000LL + now.tv_nsec;
  prctl(PR_GET_NAME, s.name, 0, 0, 0);
  Unwind u{&s, false};
  _Unwind_Backtrace(record_frame, &u);
  std::atomic_ref<int>(s.ready).store(1, std::memory_order_release);
  errno = saved_errno;
}

void write_profile() {
  std::FILE* f = std::fopen(profile.out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "hkprof: cannot write %s: %s\n", profile.out,
                 std::strerror(errno));
    return;
  }
  const std::size_t taken =
      std::min(profile.next.load(std::memory_order_relaxed), kCapacity);
  std::fprintf(f, "# hkprof 1 period_us=%ld dropped=%zu\n", kPeriodUs,
               profile.dropped.load(std::memory_order_relaxed));
  // Executable mappings: "start-end perms offset dev inode path".
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      unsigned long start = 0;
      unsigned long end = 0;
      unsigned long offset = 0;
      char perms[8] = {};
      char path[4096] = {};
      if (std::sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095[^\n]", &start,
                      &end, perms, &offset, path) == 5 &&
          perms[2] == 'x' && path[0] == '/')
        std::fprintf(f, "map %lx %lx %lx %s\n", start, end, offset, path);
    }
    std::fclose(maps);
  }
  for (std::size_t i = 0; i < taken; ++i) {
    Sample& s = profile.samples[i];
    if (std::atomic_ref<int>(s.ready).load(std::memory_order_acquire) == 0)
      continue;
    std::fprintf(f, "s %ld %lld %s\t", s.tid, s.ns, s.name);
    for (int d = 0; d < s.depth; ++d)
      std::fprintf(f, d == 0 ? "%lx" : " %lx",
                   static_cast<unsigned long>(s.pcs[d]));
    std::fputc('\n', f);
  }
  std::fclose(f);
}

__attribute__((constructor)) void start_profile() {
  profile.out = std::getenv("HKPROF_OUT");
  if (profile.out == nullptr || profile.out[0] == '\0') return;
  profile.samples =
      static_cast<Sample*>(std::calloc(kCapacity, sizeof(Sample)));
  if (profile.samples == nullptr) return;
  struct sigaction sa = {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval period = {};
  period.it_interval.tv_usec = kPeriodUs;
  period.it_value = period.it_interval;
  setitimer(ITIMER_PROF, &period, nullptr);
}

__attribute__((destructor)) void stop_profile() {
  if (profile.samples == nullptr) return;
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  write_profile();
}

}  // namespace
