#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstring>
#include <iostream>
#include <sstream>
#include <utility>

#include "driver/run_driver.h"
#include "scenario/scenario.h"
#include "serve/cache.h"
#include "shortcut/persist.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/worker_pool.h"

namespace lcs::serve {

namespace {

/// Shortest round-trip spelling, so two requests with the same value get
/// the same memo key and two different values never collide.
std::string double_key(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string request_id(const JsonValue& v) {
  const JsonValue* id = v.find("id", "request");
  if (id == nullptr) return "-";
  const std::string& s = id->as_string("request field 'id'");
  LCS_CHECK(!s.empty() && s.size() <= 128,
            "request field 'id' must be 1..128 characters");
  for (const char c : s)
    LCS_CHECK((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-',
              "request field 'id' may only contain [A-Za-z0-9._-]");
  return s;
}

/// Strict request decoding: every member must be a known field of the
/// lcs_run vocabulary — an unknown or misspelled field is diagnosed by
/// name (the parser has already rejected duplicates).
driver::RunOptions parse_request(const JsonValue& v) {
  driver::RunOptions o;
  for (const auto& [key, val] : v.as_object("request")) {
    const std::string what = "request field '" + key + "'";
    if (key == "id") continue;  // validated by request_id
    else if (key == "algo") o.algo = val.as_string(what);
    else if (key == "scenario") o.scenario = val.as_string(what);
    else if (key == "backend") o.backend = val.as_string(what);
    else if (key == "churn") o.churn = val.as_string(what);
    else if (key == "sweep") o.sweep = val.as_string(what);
    else if (key == "seed") o.seed = val.as_uint(what);
    else if (key == "threads") {
      const std::int64_t threads = val.as_int(what);
      LCS_CHECK(std::in_range<int>(threads),
                what + " does not fit an int, got " + std::to_string(threads));
      o.threads = util::checked_cast<int>(threads);
    }
    else if (key == "fail_rate") o.fail_rate = val.as_double(what);
    else if (key == "validate") o.validate = val.as_bool(what);
    else if (key == "metrics") o.metrics = val.as_bool(what);
    else if (key == "timing") o.timing = val.as_bool(what);
    else
      LCS_CHECK(false,
                "unknown request field '" + key +
                    "' (accepted: id, algo, scenario, backend, churn, sweep, "
                    "seed, threads, fail_rate, validate, metrics, timing)");
  }
  return o;
}

std::string quit_ack() {
  std::ostringstream buffer;
  JsonWriter w(buffer);
  w.begin_object();
  w.kv("ok", true);
  w.kv("quitting", true);
  w.end_object();
  w.finish();
  return buffer.str();
}

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) return;  // client went away; nothing sensible to do
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

Server::Server(const ServeOptions& options)
    : opts_(options),
      scenarios_(options.cache_dir),
      records_(options.cache_dir),
      pool_(WorkerPool::resolve_threads(options.parallel_requests)) {
  LCS_CHECK(opts_.batch >= 1, "--batch must be at least 1");
}

void Server::preload() {
  // Warming the cache is the whole point; the handle itself is not needed.
  for (const std::string& spec : opts_.preload) (void)scenarios_.resolve(spec);
}

Server::Response Server::handle_line(const std::string& line) {
  Response r;
  if (line.find_first_not_of(" \t\r") == std::string::npos) {
    r.skip = true;
    return r;
  }
  try {
    const JsonValue v = parse_json(line);
    r.id = request_id(v);

    if (const JsonValue* cmd = v.find("cmd", "request")) {
      for (const auto& [key, val] : v.as_object("request"))
        LCS_CHECK(key == "cmd" || key == "id",
                  "unknown field '" + key +
                      "' for a command request (accepted: cmd, id)");
      const std::string& c = cmd->as_string("request field 'cmd'");
      if (c == "stats") {
        r.body = std::make_shared<const std::string>(stats_document());
      } else if (c == "quit") {
        r.quit = true;
        r.body = std::make_shared<const std::string>(quit_ack());
      } else {
        LCS_CHECK(false,
                  "unknown command '" + c + "' (accepted: stats, quit)");
      }
      return r;
    }

    const driver::RunOptions o = parse_request(v);

    // Deterministic responses memoize; `timing` carries wall time, so only
    // timing-free requests are eligible. The key spells out every field
    // the report is a function of.
    std::string memo_key;
    if (!o.timing) {
      memo_key = o.algo + '\n' + o.scenario + '\n' + o.backend + '\n' +
                 o.churn + '\n' + o.sweep + '\n' + std::to_string(o.seed) +
                 '\n' + double_key(o.fail_rate) + '\n' +
                 (o.validate ? '1' : '0') + (o.metrics ? '1' : '0');
      std::lock_guard<std::mutex> lock(memo_mu_);
      ++requests_served_;
      const auto it = response_memo_.find(memo_key);
      if (it != response_memo_.end()) {
        ++response_memo_hits_;
        r.rc = it->second.first;
        r.body = it->second.second;
        return r;
      }
    } else {
      std::lock_guard<std::mutex> lock(memo_mu_);
      ++requests_served_;
    }

    driver::RunHooks hooks;
    hooks.resolve_scenario = [this](const std::string& spec) {
      return scenarios_.resolve(spec);
    };
    hooks.find_shortcut_record = [this](const driver::ShortcutCacheKey& key,
                                        const scenario::Scenario& sc) {
      return records_.find(key, sc);
    };
    hooks.store_shortcut_record =
        [this](const driver::ShortcutCacheKey& key,
               const scenario::Scenario& sc,
               const std::shared_ptr<const ShortcutRunRecord>& record) {
          records_.store(key, sc, record);
        };

    std::string body;
    r.rc = driver::run_document(o, hooks, body);
    r.body = std::make_shared<const std::string>(std::move(body));
    if (!memo_key.empty()) {
      std::lock_guard<std::mutex> lock(memo_mu_);
      response_memo_.emplace(memo_key, std::make_pair(r.rc, r.body));
    }
  } catch (const CheckFailure& e) {
    r.rc = 2;
    r.body = std::make_shared<const std::string>(
        driver::error_document("check_failure", e.what(), 2));
  } catch (const std::exception& e) {
    r.rc = 3;
    r.body = std::make_shared<const std::string>(
        driver::error_document("exception", e.what(), 3));
  }
  return r;
}

std::string Server::stats_document() const {
  const ScenarioCacheStats sc = scenarios_.stats();
  const RecordCacheStats rec = records_.stats();
  std::int64_t memo_hits = 0;
  std::int64_t served = 0;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    memo_hits = response_memo_hits_;
    served = requests_served_;
  }

  std::ostringstream buffer;
  JsonWriter w(buffer);
  w.begin_object();
  w.key("serve").begin_object();
  w.kv("requests", served);
  w.kv("response_memo_hits", memo_hits);
  w.key("scenarios").begin_object();
  w.kv("memory_hits", sc.memory_hits);
  w.kv("disk_loads", sc.disk_loads);
  w.kv("generated", sc.generated);
  w.kv("disk_load_failures", sc.disk_load_failures);
  w.end_object();
  w.key("shortcuts").begin_object();
  w.kv("memory_hits", rec.memory_hits);
  w.kv("disk_loads", rec.disk_loads);
  w.kv("constructed", rec.constructed);
  w.kv("disk_load_failures", rec.disk_load_failures);
  w.end_object();
  w.end_object();
  w.end_object();
  w.finish();
  return buffer.str();
}

void Server::process_batch(const std::vector<std::string>& lines,
                           std::string& out, bool& quit) {
  std::vector<Response> responses(lines.size());
  std::atomic<std::size_t> next{0};
  pool_.run([&](int) {
    for (std::size_t i = next.fetch_add(1); i < lines.size();
         i = next.fetch_add(1))
      responses[i] = handle_line(lines[i]);
  });
  // Strictly in request order, whatever the workers' interleaving was.
  for (const Response& r : responses) {
    if (r.skip) continue;
    out += "#lcs_serve id=" + r.id + " exit=" + std::to_string(r.rc) +
           " bytes=" + std::to_string(r.body->size()) + "\n";
    out += *r.body;
    if (r.quit) quit = true;
  }
}

int Server::serve_stdin() {
  std::string line;
  bool quit = false;
  while (!quit && std::getline(std::cin, line)) {
    std::vector<std::string> batch;
    batch.push_back(line);
    // Greedily drain whatever the client already wrote (up to the batch
    // cap) so scripted request files dispatch in parallel, while a
    // one-request-at-a-time client still gets an immediate answer.
    while (util::checked_cast<int>(batch.size()) < opts_.batch &&
           std::cin.rdbuf()->in_avail() > 0 && std::getline(std::cin, line))
      batch.push_back(line);
    std::string out;
    process_batch(batch, out, quit);
    std::cout << out << std::flush;
  }
  return 0;
}

int Server::serve_unix_socket() {
  const std::string& path = opts_.socket_path;
  sockaddr_un addr{};
  LCS_CHECK(path.size() < sizeof(addr.sun_path),
            "--socket path is too long for a unix socket");
  // A dead daemon leaves its socket file behind; binding over it is the
  // expected restart path.
  ::unlink(path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  LCS_CHECK(listen_fd >= 0, "cannot create a unix socket");
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  LCS_CHECK(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0,
            "cannot bind unix socket '" + path + "'");
  LCS_CHECK(::listen(listen_fd, 8) == 0,
            "cannot listen on unix socket '" + path + "'");
  // A client disconnecting mid-response must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  std::cerr << "lcs_serve: listening on " << path << "\n";

  bool quit = false;
  while (!quit) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) break;
    std::string buffer;
    char chunk[4096];
    bool closed = false;
    while (!quit && !closed) {
      std::size_t nl;
      while ((nl = buffer.find('\n')) == std::string::npos) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) {
          closed = true;
          break;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
      }
      std::vector<std::string> batch;
      while (util::checked_cast<int>(batch.size()) < opts_.batch &&
             (nl = buffer.find('\n')) != std::string::npos) {
        batch.push_back(buffer.substr(0, nl));
        buffer.erase(0, nl + 1);
      }
      if (batch.empty()) break;
      std::string out;
      process_batch(batch, out, quit);
      write_all(fd, out);
    }
    if (!buffer.empty())
      std::cerr << "lcs_serve: dropping unterminated trailing request ("
                << buffer.size() << " bytes without a newline)\n";
    ::close(fd);
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace lcs::serve
