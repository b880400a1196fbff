// Minimal fixed-size thread pool with a parallel_for front end.
//
// Attention is embarrassingly parallel over (layer, head) and over query
// blocks; the kernels route their outer loops through parallel_for so the
// same code runs single-threaded (pool size 1, the default on 1-core CI
// machines) or multi-threaded without branching at call sites.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/tensor.h"

namespace sattn {

class ThreadPool {
 public:
  // n_threads == 0 picks hardware_concurrency (min 1).
  explicit ThreadPool(unsigned n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Runs fn(i) for i in [0, n). Blocks until all iterations complete.
  // min(n, size()) workers each claim the next unclaimed index from a shared
  // counter until none is left, so iterations of uneven cost balance across
  // workers; every index runs exactly once, on one thread, in no particular
  // order (callers write per-index outputs). With an empty pool
  // (size 1 and n small) work runs inline on the calling thread. Re-entrant:
  // a nested call from inside a pool task runs inline rather than blocking
  // on workers that may all be busy in the same situation (the ragged batch
  // sweep parallelizes over sequences whose kernels parallelize internally).
  void parallel_for(Index n, const std::function<void(Index)>& fn);

  // Process-wide pool, sized from SATTN_THREADS env var if set.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Convenience wrapper over the global pool.
void parallel_for(Index n, const std::function<void(Index)>& fn);

}  // namespace sattn
