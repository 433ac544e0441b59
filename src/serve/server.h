/// \file server.h
/// The `lcs_serve` request loop: parse, dispatch, frame.
///
/// The daemon speaks newline-delimited JSON requests over stdin or a unix
/// stream socket. A request is the `lcs_run` flag vocabulary as a JSON
/// object (strictly parsed — unknown or duplicate fields are diagnosed by
/// name, never ignored):
///
///     {"id": "r1", "algo": "shortcut", "scenario": "grid:w=64,h=64",
///      "seed": 3, "validate": true, "timing": false}
///
/// plus two admin forms: {"cmd": "stats"} (cache counters as JSON) and
/// {"cmd": "quit"} (acknowledge, then shut down after draining the batch).
///
/// Every response is framed as one header line followed by an exact byte
/// count of payload:
///
///     #lcs_serve id=<id> exit=<rc> bytes=<N>
///     <N bytes: the JSON document>
///
/// The payload is byte-identical to the stdout of the equivalent one-shot
/// `lcs_run` invocation with the same parameters — reports, sweep arrays,
/// and error objects alike — because both render through
/// driver::run_document / driver::error_document. `exit` is the exit code
/// `lcs_run` would have returned (0, 1 validation mismatch, 2 check
/// failure, 3 exception).
///
/// ## Batching and determinism
///
/// Requests already buffered on the input, up to 16, are dispatched as one
/// batch across a WorkerPool (`parallel_requests` workers, calling thread
/// included); responses are emitted strictly in request order. Responses
/// are pure functions of the request (given a fixed corpus), so batch
/// boundaries and worker interleaving cannot change a byte — the
/// interleaving regression test shuffles request order across runs and
/// diffs the per-id responses. The exception is `stats`: in a batch with
/// more than one worker it runs beside the batch's other requests and
/// reads the counters mid-batch, so how many of them it counts depends on
/// the interleaving.
///
/// Deterministic responses also memoize: a repeated request with
/// `timing=false` is answered from the response memo without re-rendering
/// (`timing=true` responses carry wall time and are never memoized).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cache.h"
#include "util/worker_pool.h"

namespace lcs::serve {

struct ServeOptions {
  std::string cache_dir;    ///< empty = no disk persistence
  std::string socket_path;  ///< empty = stdin/stdout
  int parallel_requests = 1;  ///< worker threads for batch dispatch (0 = hw)
  std::vector<std::string> preload;  ///< specs resolved before serving
};

class Server {
 public:
  explicit Server(const ServeOptions& options);

  /// Resolve every `preload` spec through the scenario cache (so a warm
  /// start pulls them off disk before the first request arrives).
  void preload();

  /// Serve until EOF or {"cmd": "quit"}; returns the process exit code.
  int serve_stdin();
  int serve_unix_socket();

 private:
  struct Response {
    std::string id = "-";
    int rc = 0;
    std::shared_ptr<const std::string> body;
    bool skip = false;  ///< blank input line: emit nothing
    bool quit = false;
  };

  Response handle_line(const std::string& line);
  std::string stats_document() const;
  /// Dispatch `lines` across the pool; append framed responses to `out`.
  /// Sets `quit` when a quit command was in the batch.
  void process_batch(const std::vector<std::string>& lines, std::string& out,
                     bool& quit);

  ServeOptions opts_;
  ScenarioCache scenarios_;
  ShortcutRecordCache records_;
  WorkerPool pool_;

  mutable std::mutex memo_mu_;
  std::map<std::string, std::pair<int, std::shared_ptr<const std::string>>>
      response_memo_;
  std::int64_t response_memo_hits_ = 0;
  std::int64_t requests_served_ = 0;
};

}  // namespace lcs::serve
