// perfbench/sampler.cpp — see sampler.hpp.
#include "sampler.hpp"

#include <execinfo.h>
#include <setjmp.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <vector>

// Linker-provided bounds of the (non-PIE) executable's image.
extern "C" char __executable_start;
extern "C" char etext;

namespace perfbench {

const char* const kModules[12] = {
    "simkit",   "argolite",  "sofi", "merclite", "margolite", "symbiosys",
    "sdskv",    "bake",      "hepnos", "mobject", "loadgen",   "other"};

namespace {

constexpr std::size_t kMaxSamples = 1 << 16;
constexpr int kDepth = 32;

// Written only by the signal handler; read after sampler_stop().
void* g_frames[kMaxSamples][kDepth];
int g_depth[kMaxSamples];
std::atomic<std::size_t> g_next{0};
std::atomic<std::size_t> g_ticks{0};
std::atomic<bool> g_record{false};

// The unwinder can read past the bottom of a fiber stack, where no return
// address was ever written. A fault there abandons that sample's callers
// (the interrupted pc is kept) instead of killing the process.
sigjmp_buf g_unwind_escape;
volatile sig_atomic_t g_unwinding = 0;

void on_sigsegv(int sig, siginfo_t*, void*) {
  if (g_unwinding != 0) siglongjmp(g_unwind_escape, 1);
  signal(sig, SIG_DFL);
  raise(sig);
}

void on_sigprof(int, siginfo_t*, void* uc_void) {
  g_ticks.fetch_add(1, std::memory_order_relaxed);
  if (!g_record.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    auto* uc = static_cast<ucontext_t*>(uc_void);
    void* pc = reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
    void* raw[kDepth];
    int n = 0;
    g_unwinding = 1;
    if (sigsetjmp(g_unwind_escape, 1) == 0) n = backtrace(raw, kDepth);
    g_unwinding = 0;
    // raw[] starts with this handler and the signal trampoline; the
    // interrupted frame is the one whose address equals the saved pc.
    int start = -1;
    for (int k = 0; k < n; ++k) {
      if (raw[k] == pc) {
        start = k;
        break;
      }
    }
    g_frames[i][0] = pc;
    int d = 1;
    if (start >= 0) {
      for (int k = start + 1; k < n && d < kDepth; ++k) {
        g_frames[i][d++] = raw[k];
      }
    }
    g_depth[i] = d;
  }
  errno = saved_errno;
}

/// Address to symbolise for frame k of sample i, or 0 outside the image.
/// Callers' frames hold return addresses; look up the call instruction.
std::uintptr_t frame_addr(std::size_t i, int k) {
  const void* p = g_frames[i][k];
  if (p < static_cast<const void*>(&__executable_start) ||
      p >= static_cast<const void*>(&etext)) {
    return 0;
  }
  return reinterpret_cast<std::uintptr_t>(p) - (k > 0 ? 1 : 0);
}

std::string module_of_file(const std::string& file, const std::string& src) {
  if (file.compare(0, src.size(), src) != 0) return {};
  const std::string rel = file.substr(src.size());
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"simkit/", "simkit"},
      {"argolite/", "argolite"},
      {"sofi/", "sofi"},
      {"merclite/", "merclite"},
      {"margolite/", "margolite"},
      {"symbiosys/", "symbiosys"},
      {"services/sdskv/", "sdskv"},
      {"services/bake/", "bake"},
      {"services/hepnos/", "hepnos"},
      {"workloads/hepnos_world", "hepnos"},
      {"services/mobject/", "mobject"},
      {"workloads/mobject_world", "mobject"},
      {"workloads/loadgen/", "loadgen"},
  };
  for (const auto& [prefix, module] : kPrefixes) {
    if (rel.compare(0, std::strlen(prefix), prefix) == 0) return module;
  }
  return "other";
}

}  // namespace

void sampler_start(int interval_us) {
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sa.sa_sigaction = on_sigsegv;
  sigaction(SIGSEGV, &sa, nullptr);
  sigaction(SIGBUS, &sa, nullptr);
  sa.sa_sigaction = on_sigprof;
  sigaction(SIGPROF, &sa, nullptr);
  itimerval tv{};
  tv.it_interval.tv_usec = interval_us;
  tv.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

void sampler_stop() {
  itimerval tv{};
  setitimer(ITIMER_PROF, &tv, nullptr);
  signal(SIGPROF, SIG_IGN);
  signal(SIGSEGV, SIG_DFL);
  signal(SIGBUS, SIG_DFL);
}

void sampler_record(bool on) { g_record.store(on, std::memory_order_relaxed); }

std::size_t sampler_ticks() {
  return g_ticks.load(std::memory_order_relaxed);
}

std::size_t sampler_count() {
  const std::size_t n = g_next.load(std::memory_order_relaxed);
  return n < kMaxSamples ? n : kMaxSamples;
}

std::map<std::string, double> sampler_shares(const std::string& src_dir) {
  const std::size_t n = sampler_count();
  std::map<std::string, double> shares;
  if (n == 0) return shares;
  const std::string src = src_dir.back() == '/' ? src_dir : src_dir + "/";

  // Symbolise each distinct in-image address once.
  std::unordered_map<std::uintptr_t, std::string> module_at;
  std::vector<std::uintptr_t> order;
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < g_depth[i]; ++k) {
      const std::uintptr_t a = frame_addr(i, k);
      if (a != 0 && module_at.emplace(a, std::string()).second) {
        order.push_back(a);
      }
    }
  }
  char exe[PATH_MAX];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return shares;
  exe[len] = '\0';
  const std::string list = std::string(exe) + ".addrs";
  {
    std::ofstream out(list);
    for (auto a : order) out << std::hex << "0x" << a << '\n';
  }
  // -a prints each address before its inline chain (innermost first), so
  // the output splits per address however deep the inlining goes.
  const std::string cmd =
      "addr2line -a -i -e '" + std::string(exe) + "' < '" + list + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return shares;
  char line[4096];
  std::uintptr_t cur = 0;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    std::string s(line);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    if (s.rfind("0x", 0) == 0) {
      cur = static_cast<std::uintptr_t>(std::strtoull(s.c_str(), nullptr, 16));
      continue;
    }
    auto it = module_at.find(cur);
    if (it == module_at.end() || !it->second.empty()) continue;
    const auto colon = s.rfind(':');
    it->second = module_of_file(s.substr(0, colon), src);
  }
  const int status = pclose(pipe);
  std::remove(list.c_str());
  if (status != 0) return shares;

  for (const char* m : kModules) shares[m] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::string module = "other";
    for (int k = 0; k < g_depth[i]; ++k) {
      const std::uintptr_t a = frame_addr(i, k);
      if (a == 0) continue;
      const std::string& m = module_at[a];
      if (!m.empty()) {
        module = m;
        break;
      }
    }
    shares[module] += 1.0 / static_cast<double>(n);
  }
  return shares;
}

}  // namespace perfbench
