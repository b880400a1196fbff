#include "core/thread_pool.h"

#include <atomic>
#include <cstdlib>

namespace sattn {

ThreadPool::ThreadPool(unsigned n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // With one thread the pool runs everything inline; spawn no workers.
  if (n_threads <= 1) return;
  workers_.reserve(n_threads);
  for (unsigned i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

namespace {
// Set while a pool worker is running a task. A nested parallel_for from
// inside a task must not block on done_cv — the worker it would be waiting
// for is itself, so it would deadlock once every worker is inside a nested
// call. Nested loops run inline instead; the outer loop already owns the
// pool's parallelism.
thread_local bool in_pool_worker = false;
}  // namespace

void ThreadPool::worker_loop() {
  in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(Index n, const std::function<void(Index)>& fn) {
  if (n <= 0) return;
  const Index n_workers = static_cast<Index>(workers_.size());
  if (n_workers == 0 || n == 1 || in_pool_worker) {
    for (Index i = 0; i < n; ++i) fn(i);
    return;
  }
  // Work claiming: each task pulls the next unclaimed index from a shared
  // counter until the range is exhausted, so a loop whose iterations grow
  // (causal q-tiles, sampled rows) keeps every worker busy to the end
  // instead of leaving the last contiguous chunk to one thread.
  const Index n_tasks = std::min(n, n_workers);
  std::atomic<Index> next{0};
  Index remaining = n_tasks;  // guarded by done_mu
  std::mutex done_mu;
  std::condition_variable done_cv;
  {
    std::lock_guard lk(mu_);
    for (Index t = 0; t < n_tasks; ++t) {
      tasks_.emplace([&] {
        for (Index i = next.fetch_add(1, std::memory_order_relaxed); i < n;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          fn(i);
        }
        // Decrement and notify under done_mu: the caller may return (and
        // destroy done_mu/done_cv) as soon as it sees remaining == 0, so
        // that must not become visible before the notify is done.
        std::lock_guard dlk(done_mu);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
  }
  cv_.notify_all();
  std::unique_lock dlk(done_mu);
  done_cv.wait(dlk, [&] { return remaining == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("SATTN_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<unsigned>(v);
    }
    return 0u;
  }());
  return pool;
}

void parallel_for(Index n, const std::function<void(Index)>& fn) {
  ThreadPool::global().parallel_for(n, fn);
}

}  // namespace sattn
