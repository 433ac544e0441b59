/// \file lcs_serve.cpp
/// Persistent shortcut daemon: load once, answer many.
///
/// See src/serve/server.h for the request vocabulary and framing, and
/// src/serve/cache.h for the cache layout. The contract that makes this
/// tool honest is byte-identity: every response payload matches the stdout
/// of the equivalent one-shot `lcs_run` invocation exactly.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/check.h"

namespace {

constexpr const char* kUsage = R"(usage: lcs_serve [options]

Long-lived request server for the lcs algorithm suite. Reads one JSON
request per line from stdin (or a unix socket), answers each with a framed
response whose payload is byte-identical to the equivalent one-shot
lcs_run invocation:

    #lcs_serve id=<id> exit=<rc> bytes=<N>
    <N bytes of JSON>

Request fields mirror the lcs_run flags: algo, scenario, backend, churn,
sweep, seed, threads, fail_rate, validate, metrics, timing, plus an
optional client-chosen id echoed in the frame. Admin requests:
{"cmd": "stats"} and {"cmd": "quit"}.

options:
  --cache-dir=DIR      persist resolved scenarios (.lcsg bundles) and
                       constructed shortcut records (.lcss) under DIR;
                       a later start over the same DIR answers repeat
                       requests from pure I/O (no generation, no
                       construction)
  --socket=PATH        serve a unix stream socket instead of stdin
  --batch=N            max buffered requests dispatched as one batch
                       (default 16)
  --parallel-requests=N  worker threads for batch dispatch (default 1;
                       0 = hardware concurrency)
  --preload=SPEC       resolve SPEC before serving (repeatable)
  --help               print this text
)";

struct Options {
  lcs::serve::ServeOptions serve;
  bool help = false;
};

bool take_value(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = arg + len + 1;
  return true;
}

int parse_int(const std::string& text, const char* flag) {
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(text, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  LCS_CHECK(used == text.size(),
            std::string(flag) + " expects an integer, got '" + text + "'");
  return value;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      o.help = true;
    } else if (take_value(arg, "--cache-dir", value)) {
      o.serve.cache_dir = value;
    } else if (take_value(arg, "--socket", value)) {
      o.serve.socket_path = value;
    } else if (take_value(arg, "--batch", value)) {
      o.serve.batch = parse_int(value, "--batch");
    } else if (take_value(arg, "--parallel-requests", value)) {
      o.serve.parallel_requests = parse_int(value, "--parallel-requests");
    } else if (take_value(arg, "--preload", value)) {
      o.serve.preload.push_back(value);
    } else {
      LCS_CHECK(false, "unknown option '" + std::string(arg) +
                           "' (see --help)");
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    if (o.help) {
      std::cout << kUsage;
      return 0;
    }
    lcs::serve::Server server(o.serve);
    server.preload();
    return o.serve.socket_path.empty() ? server.serve_stdin()
                                       : server.serve_unix_socket();
  } catch (const lcs::CheckFailure& e) {
    std::cerr << "lcs_serve: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "lcs_serve: internal error: " << e.what() << "\n";
    return 3;
  }
}
