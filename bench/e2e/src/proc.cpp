#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "trace.h"

extern char** environ;

namespace lcs::bench {

std::string self_exe() {
  std::string path(4096, '\0');
  const ssize_t n = ::readlink("/proc/self/exe", path.data(), path.size());
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  path.resize(static_cast<std::size_t>(n));
  return path;
}

std::string sibling_exe(const std::string& name) {
  const std::string self = self_exe();
  return self.substr(0, self.rfind('/') + 1) + name;
}

Child::Child(const std::vector<std::string>& argv, bool capture) {
  int fds[2] = {-1, -1};
  if (capture && ::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (capture) {
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  spawned_at_ = now_s();
  const int rc =
      ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (capture) ::close(fds[1]);
  if (rc != 0) {
    if (capture) ::close(fds[0]);
    pid_ = -1;
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  out_fd_ = fds[0];
}

Child::~Child() {
  if (out_fd_ >= 0) ::close(out_fd_);
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

bool Child::exited() const {
  if (reaped_) return true;
  siginfo_t info{};
  if (::waitid(P_PID, static_cast<id_t>(pid_), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0)
    return true;
  return info.si_pid != 0;
}

bool Child::read_all(std::string& out, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  char chunk[65536];
  for (;;) {
    const double left = deadline - now_s();
    if (left <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return true;
    out.append(chunk, static_cast<std::size_t>(n));
  }
}

Child::Exit Child::wait(double timeout_s) {
  Exit exit;
  const double deadline = now_s() + timeout_s;
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR)
      throw std::runtime_error("wait4: " + std::string(std::strerror(errno)));
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      reaped_ = true;
      return exit;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  reaped_ = true;
  exit.code = WIFEXITED(status) ? WEXITSTATUS(status)
                                : 128 + WTERMSIG(status);
  exit.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return exit;
}

std::string run_capture(const std::vector<std::string>& argv, double timeout_s,
                        Child::Exit& exit) {
  Child child(argv, /*capture=*/true);
  std::string out;
  const bool complete = child.read_all(out, timeout_s);
  exit = child.wait(complete ? timeout_s : 0.0);
  if (!complete) exit.code = -1;
  return out;
}

}  // namespace lcs::bench
