/// \file serve_client.h
/// A closed-loop client of one `lcs_serve --socket` daemon it starts and
/// owns: each request goes out only after the previous reply has arrived.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "proc.h"

namespace lcs::bench {

class ServeSession {
 public:
  /// Starts lcs_serve (beside this executable) on `socket_path` with
  /// `--parallel-requests=1` and `--preload` of every spec, and returns
  /// once the socket accepts. Throws std::runtime_error on failure.
  ServeSession(const std::string& socket_path,
               const std::vector<std::string>& preload);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Process start until the socket accepted a connection (preload done).
  double setup_s() const { return setup_s_; }

  struct Reply {
    std::string id;
    int exit = -1;
    std::string payload;
  };
  /// Sends one request line and reads its whole frame. Throws
  /// std::runtime_error on a malformed frame or a closed connection.
  Reply request(const std::string& line);

  /// Sends {"cmd":"quit"} and waits for the daemon to exit.
  Child::Exit quit();

 private:
  std::string socket_path_;
  std::unique_ptr<Child> daemon_;
  int fd_ = -1;
  double setup_s_ = 0.0;
  std::string buffer_;
};

}  // namespace lcs::bench
