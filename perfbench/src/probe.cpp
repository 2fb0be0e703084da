#include "probe.h"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <stdexcept>

#include "common/timer.h"

namespace perfbench {

namespace {

constexpr size_t kAluSteps = size_t{1} << 26;
constexpr size_t kMemBytes = size_t{128} << 20;

// Runs in the child: no heap allocation, only mmap.
ProbeResult run_probe() {
  ProbeResult r;
  szsec::WallTimer t;
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (size_t i = 0; i < kAluSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  r.alu_ms = t.elapsed_ms();

  void* mem = ::mmap(nullptr, kMemBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return ProbeResult{-1, -1};
  auto* words = static_cast<uint64_t*>(mem);
  const size_t n = kMemBytes / sizeof(uint64_t);
  for (size_t i = 0; i < n; ++i) words[i] = i ^ x;
  uint64_t acc = 0;
  t.reset();
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) acc += words[i];
  }
  r.mem_ms = t.elapsed_ms();
  ::munmap(mem, kMemBytes);
  // Keep both loops observable so neither is optimized away.
  if ((acc ^ x) == 0x5EED) r.alu_ms += 1e-9;
  return r;
}

}  // namespace

ProbeResult host_probe() {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("probe: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("probe: fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    const ProbeResult r = run_probe();
    const ssize_t w = ::write(fds[1], &r, sizeof r);
    ::_exit(w == static_cast<ssize_t>(sizeof r) ? 0 : 1);
  }
  ::close(fds[1]);
  ProbeResult r;
  size_t got = 0;
  while (got < sizeof r) {
    const ssize_t n =
        ::read(fds[0], reinterpret_cast<char*>(&r) + got, sizeof r - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof r || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      r.mem_ms < 0) {
    throw std::runtime_error("probe: child failed");
  }
  return r;
}

}  // namespace perfbench
