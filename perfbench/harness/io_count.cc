// Counts the fsync and send calls the benchmark process makes.
//
// These definitions take the place of the C library's fsync and send in
// the perfbench binaries: the condensa libraries are linked statically
// into them, so their calls resolve here. Each wrapper counts the call
// and makes the same system call the library function would. The
// program's code is unchanged; the count is exact and does not depend
// on how fast the disk or the machine is. The fsync wrapper also adds up
// the wall-clock and CPU time spent inside the call, which belong to the
// disk under the checkout rather than to the program.
#include <sys/socket.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>

#include "support.h"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> fsync_calls{0};
std::atomic<std::uint64_t> send_calls{0};
std::atomic<std::uint64_t> process_fsync_cpu_ns{0};
thread_local double thread_fsync_seconds = 0.0;
thread_local std::uint64_t thread_fsync_cpu_ns = 0;

std::uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t FsyncCalls() {
  return fsync_calls.load(std::memory_order_relaxed);
}

std::uint64_t SendCalls() { return send_calls.load(std::memory_order_relaxed); }

double ThreadFsyncSeconds() { return thread_fsync_seconds; }

double ThreadFsyncCpuSeconds() { return 1e-9 * thread_fsync_cpu_ns; }

double ProcessFsyncCpuSeconds() {
  return 1e-9 * process_fsync_cpu_ns.load(std::memory_order_relaxed);
}

}  // namespace perfbench

extern "C" int fsync(int fd) {
  perfbench::fsync_calls.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t cpu0 = perfbench::ThreadCpuNs();
  const int rc = static_cast<int>(::syscall(SYS_fsync, fd));
  const std::uint64_t cpu = perfbench::ThreadCpuNs() - cpu0;
  perfbench::thread_fsync_cpu_ns += cpu;
  perfbench::process_fsync_cpu_ns.fetch_add(cpu, std::memory_order_relaxed);
  perfbench::thread_fsync_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return rc;
}

extern "C" ssize_t send(int fd, const void* data, size_t size, int flags) {
  perfbench::send_calls.fetch_add(1, std::memory_order_relaxed);
  return ::syscall(SYS_sendto, fd, data, size, flags, nullptr, 0);
}
