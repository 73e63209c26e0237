// A child process running the shipped `condensa` binary, for the soak
// tests that kill servers mid-load.
//
// Spawn runs the binary (path in CONDENSA_CLI_PATH, set by the build)
// with the given arguments through posix_spawn, then reads the port from
// the "listening on N" line a server subcommand (`worker`,
// `query-server`) prints on its stdout. Kill() is SIGKILL — no shutdown
// handler runs, so the durability guarantee has to carry the crash — and
// a respawn that passes the killed server's port restarts it in place.
// Because the child execs a fresh image, nothing of the test process
// (threads, sanitizer state) is inherited.

#ifndef CONDENSA_TESTS_INTEGRATION_CLI_PROCESS_H_
#define CONDENSA_TESTS_INTEGRATION_CLI_PROCESS_H_

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

extern char** environ;

namespace condensa {

class CliProcess {
 public:
  CliProcess() = default;
  // Kills (SIGKILL) and reaps a still-running child.
  ~CliProcess() { Kill(); }

  CliProcess(CliProcess&& other) noexcept { *this = std::move(other); }
  CliProcess& operator=(CliProcess&& other) noexcept {
    if (this != &other) {
      Kill();
      pid_ = std::exchange(other.pid_, -1);
      port_ = std::exchange(other.port_, 0);
      stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    }
    return *this;
  }
  CliProcess(const CliProcess&) = delete;
  CliProcess& operator=(const CliProcess&) = delete;

  // Starts `condensa <args...>` and waits until it prints the port it
  // listens on.
  static StatusOr<CliProcess> Spawn(std::vector<std::string> args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      return UnavailableError("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // dup2 clears close-on-exec on the child's stdout only.
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    args.insert(args.begin(), CONDENSA_CLI_PATH);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    CliProcess process;
    const int spawned = ::posix_spawn(&process.pid_, CONDENSA_CLI_PATH,
                                      &actions, nullptr, argv.data(),
                                      environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (spawned != 0) {
      ::close(fds[0]);
      process.pid_ = -1;
      return UnavailableError("posix_spawn of " +
                              std::string(CONDENSA_CLI_PATH) + " failed");
    }
    // The read end stays open until the child is reaped, so a late write
    // to its stdout never meets a closed pipe.
    process.stdout_fd_ = fds[0];
    CONDENSA_ASSIGN_OR_RETURN(process.port_, process.ReadPort());
    return process;
  }

  std::uint16_t port() const { return port_; }

  // SIGKILL + reap. No-op when not running.
  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    CloseStdout();
  }

  // Blocks until the child exits, reaps it, and returns its wait status
  // (as from waitpid). kFailedPrecondition when not running.
  StatusOr<int> Wait() {
    if (pid_ <= 0) {
      return FailedPreconditionError("no child to wait for");
    }
    int status = 0;
    const pid_t reaped = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    CloseStdout();
    if (reaped <= 0) {
      return UnavailableError("waitpid failed");
    }
    return status;
  }

 private:
  // Reads the child's stdout up to its first newline, which must be
  // "listening on N".
  StatusOr<std::uint16_t> ReadPort() {
    constexpr int kStartupTimeoutMs = 30000;
    constexpr char kPrefix[] = "listening on ";
    std::string line;
    char c = 0;
    while (line.empty() || line.back() != '\n') {
      pollfd readable{.fd = stdout_fd_, .events = POLLIN, .revents = 0};
      if (::poll(&readable, 1, kStartupTimeoutMs) <= 0 ||
          ::read(stdout_fd_, &c, 1) != 1) {
        return UnavailableError("child exited or stalled before listening; "
                                "stdout so far: '" + line + "'");
      }
      line += c;
    }
    if (line.rfind(kPrefix, 0) != 0) {
      return DataLossError("unexpected child output: " + line);
    }
    const int port = std::stoi(line.substr(sizeof(kPrefix) - 1));
    if (port <= 0 || port > 65535) {
      return DataLossError("child reported port " + std::to_string(port));
    }
    return static_cast<std::uint16_t>(port);
  }

  void CloseStdout() {
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  int stdout_fd_ = -1;
};

}  // namespace condensa

#endif  // CONDENSA_TESTS_INTEGRATION_CLI_PROCESS_H_
