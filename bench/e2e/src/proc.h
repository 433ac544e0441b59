/// \file proc.h
/// Child processes the harness owns: every one it starts is reaped before
/// the owning object goes away (killed first if it is still running).
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace lcs::bench {

/// Path of the running executable.
std::string self_exe();
/// A program installed beside the running executable (e.g. lcs_serve).
std::string sibling_exe(const std::string& name);

class Child {
 public:
  /// Starts `argv` (argv[0] is a path). Its stdout comes back through a
  /// pipe when `capture` is set and goes to /dev/null otherwise; stderr is
  /// shared with the harness. Throws std::runtime_error if it cannot start.
  Child(const std::vector<std::string>& argv, bool capture);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// now_s() just before the process was created.
  double spawned_at() const { return spawned_at_; }
  /// True once the process has exited (it is not reaped by this call).
  bool exited() const;

  /// Reads the captured stdout up to EOF; false if `timeout_s` ran out.
  bool read_all(std::string& out, double timeout_s);

  struct Exit {
    int code = -1;            ///< exit status, 128 + signal, or -1 on timeout
    double peak_rss_mb = 0.0;  ///< wait4 ru_maxrss
  };
  /// Waits for the exit, killing the process after `timeout_s`.
  Exit wait(double timeout_s);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  double spawned_at_ = 0.0;
  bool reaped_ = false;
};

/// Runs `argv` to completion and returns its stdout; `exit` gets the exit.
std::string run_capture(const std::vector<std::string>& argv, double timeout_s,
                        Child::Exit& exit);

}  // namespace lcs::bench
