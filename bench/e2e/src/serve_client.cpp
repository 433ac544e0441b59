#include "serve_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "trace.h"

namespace lcs::bench {

namespace {

constexpr double kStartTimeoutS = 60.0;
constexpr double kReplyTimeoutS = 120.0;

int parse_field(const std::string& header, const char* key) {
  const auto at = header.find(key);
  if (at == std::string::npos)
    throw std::runtime_error("malformed frame header '" + header + "'");
  const char* first = header.data() + at + std::strlen(key);
  const char* last = header.data() + header.size();
  int value = 0;
  const auto res = std::from_chars(first, last, value);
  if (res.ec != std::errc() || (res.ptr != last && *res.ptr != ' '))
    throw std::runtime_error("malformed frame header '" + header + "'");
  return value;
}

}  // namespace

ServeSession::ServeSession(const std::string& socket_path,
                           const std::vector<std::string>& preload)
    : socket_path_(socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + socket_path);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());

  std::vector<std::string> argv = {sibling_exe("lcs_serve"),
                                   "--socket=" + socket_path,
                                   "--parallel-requests=1"};
  for (const std::string& spec : preload) argv.push_back("--preload=" + spec);
  ::unlink(socket_path.c_str());
  daemon_ = std::make_unique<Child>(argv, /*capture=*/false);

  // The daemon binds only after its preload, so the first accepted connect
  // marks the end of set-up.
  const double deadline = now_s() + kStartTimeoutS;
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("cannot create a unix socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      setup_s_ = now_s() - daemon_->spawned_at();
      return;
    }
    ::close(fd_);
    fd_ = -1;
    if (daemon_->exited())
      throw std::runtime_error("lcs_serve exited before accepting");
    if (now_s() > deadline)
      throw std::runtime_error("lcs_serve did not accept in time");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

ServeSession::~ServeSession() {
  if (fd_ >= 0) ::close(fd_);
  daemon_.reset();  // kills and reaps a daemon that is still running
  ::unlink(socket_path_.c_str());
}

ServeSession::Reply ServeSession::request(const std::string& line) {
  const std::string msg = line + "\n";
  for (std::size_t off = 0; off < msg.size();) {
    const ssize_t n =
        ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("lcs_serve connection lost on send");
    off += static_cast<std::size_t>(n);
  }

  const auto fill = [this] {
    pollfd p{fd_, POLLIN, 0};
    int ready = 0;
    do {
      ready = ::poll(&p, 1, static_cast<int>(kReplyTimeoutS * 1000));
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) throw std::runtime_error("lcs_serve reply timed out");
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) throw std::runtime_error("lcs_serve closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  };

  std::size_t nl = 0;
  while ((nl = buffer_.find('\n')) == std::string::npos) fill();
  const std::string header = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  constexpr std::string_view kPrefix = "#lcs_serve id=";
  if (header.compare(0, kPrefix.size(), kPrefix) != 0)
    throw std::runtime_error("malformed frame header '" + header + "'");

  Reply reply;
  reply.id = header.substr(kPrefix.size(), header.find(' ', kPrefix.size()) -
                                               kPrefix.size());
  reply.exit = parse_field(header, " exit=");
  const int bytes = parse_field(header, " bytes=");
  if (bytes < 0) throw std::runtime_error("negative frame length");
  while (buffer_.size() < static_cast<std::size_t>(bytes)) fill();
  reply.payload = buffer_.substr(0, static_cast<std::size_t>(bytes));
  buffer_.erase(0, static_cast<std::size_t>(bytes));
  return reply;
}

Child::Exit ServeSession::quit() {
  (void)request(R"({"cmd":"quit"})");
  ::close(fd_);
  fd_ = -1;
  return daemon_->wait(30.0);
}

}  // namespace lcs::bench
