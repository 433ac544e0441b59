/// \file worker_pool.h
/// A small persistent fork-join worker team.
///
/// `WorkerPool` owns `size() - 1` threads that sleep between jobs; the
/// calling thread participates as worker 0, so a pool of size 1 degenerates
/// to a plain function call with zero synchronization. `run(fn)` invokes
/// `fn(w)` once per worker index and blocks until every invocation has
/// returned — the pool never overlaps two jobs, so a job may freely read
/// any state the caller wrote before `run` and the caller may read anything
/// the workers wrote after it (the internal mutex orders both directions).
/// lcs_serve's batch dispatch (serve/server.h) is its one user: the workers
/// claim one batch's requests one at a time.
///
/// Exceptions thrown inside a job are captured per worker; after the join,
/// the exception from the lowest worker index is rethrown on the calling
/// thread (the others are discarded). Workers always run their slice to
/// completion or to their own exception — there is no cancellation.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace lcs {

class WorkerPool {
 public:
  /// Resolve a user-facing thread-count request: 0 means "use the
  /// hardware", anything else is taken literally (minimum 1). Falls back
  /// to 1 when the hardware concurrency is unknown.
  static int resolve_threads(int requested);

  /// Spawn a team of `workers` (>= 1); `workers - 1` threads are created.
  /// If one cannot be started, the started ones are joined and the
  /// constructor throws `CheckFailure` naming the requested thread count.
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return num_workers_; }

  /// Run `fn(w)` for every worker index w in [0, size()); the calling
  /// thread executes fn(0). Blocks until all invocations return, then
  /// rethrows the lowest-index captured exception, if any. The job is
  /// dispatched through a raw (function pointer, context) pair rather
  /// than std::function, so a capturing lambda never heap-allocates.
  template <class Fn>
  void run(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_raw([](void* ctx, int w) { (*static_cast<F*>(ctx))(w); },
            const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  void run_raw(void (*job)(void*, int), void* ctx);
  void worker_main(int index);
  /// Wake every worker with `shutdown_` set and join it.
  void shut_down();

  int num_workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  void (*job_)(void*, int) = nullptr;  // valid while a job runs
  void* job_ctx_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped per job; workers wait on it
  int remaining_ = 0;             // workers still running the current job
  bool shutdown_ = false;
  std::vector<std::exception_ptr> errors_;  // one slot per worker

  // Declared last, after every member the workers use, so those outlive
  // the threads however the constructor exits.
  std::vector<std::thread> threads_;
};

}  // namespace lcs
