#include "util/cast.h"
#include "util/check.h"
#include "util/worker_pool.h"

#include <algorithm>
#include <exception>
#include <string>

namespace lcs {

int WorkerPool::resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : util::checked_cast<int>(hw);
}

WorkerPool::WorkerPool(int workers) : num_workers_(std::max(1, workers)) {
  errors_.resize(static_cast<std::size_t>(num_workers_));
  threads_.reserve(static_cast<std::size_t>(num_workers_ - 1));
  try {
    for (int w = 1; w < num_workers_; ++w)
      threads_.emplace_back([this, w] { worker_main(w); });
  } catch (const std::exception& e) {
    // The destructor does not run for a constructor that throws: stop the
    // started workers here. How many started depends on the host, so the
    // message names only the request.
    shut_down();
    throw CheckFailure("could not start " + std::to_string(num_workers_ - 1) +
                       " worker threads: " + e.what());
  }
}

WorkerPool::~WorkerPool() { shut_down(); }

void WorkerPool::shut_down() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run_raw(void (*job)(void*, int), void* ctx) {
  if (num_workers_ == 1) {
    job(ctx, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    job_ctx_ = ctx;
    remaining_ = num_workers_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  try {
    job(ctx, 0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
  }
  for (std::exception_ptr& err : errors_) {
    if (err) {
      const std::exception_ptr first = err;
      for (std::exception_ptr& e : errors_) e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void WorkerPool::worker_main(int index) {
  std::uint64_t seen = 0;
  for (;;) {
    void (*job)(void*, int) = nullptr;
    void* ctx = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (generation_ == seen) return;  // shutdown with no new job
      seen = generation_;
      job = job_;
      ctx = job_ctx_;
    }
    try {
      job(ctx, index);
    } catch (...) {
      errors_[static_cast<std::size_t>(index)] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace lcs
