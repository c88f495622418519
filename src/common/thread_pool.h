// Fixed-size worker pool shared by the parallel build pipeline and (by
// design) every later concurrency feature: batched query execution,
// sharded serving, background rebuilds. Deliberately minimal — Submit +
// Wait over a FIFO task queue — so callers own their scheduling policy
// (the build pipeline, for instance, submits one long-running loop per
// worker and sequences results itself to stay deterministic).
//
// Lock discipline is compile-time checked: every guarded field carries
// UVD_GUARDED_BY and the waits are explicit predicate loops over CondVar
// (see common/thread_annotations.h and docs/STATIC_ANALYSIS.md).
#ifndef UVD_COMMON_THREAD_POOL_H_
#define UVD_COMMON_THREAD_POOL_H_

#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace uvd {

/// \brief FIFO task pool with a fixed number of worker threads.
///
/// Tasks must not throw (the library is exception-free); a task that needs
/// to report failure should capture a Status slot. Destruction waits for
/// every submitted task to finish.
class ThreadPool {
 public:
  /// std::thread::hardware_concurrency with a sane fallback.
  static int DefaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  /// Spawns max(1, num_threads) workers; num_threads <= 0 means
  /// DefaultThreads().
  explicit ThreadPool(int num_threads = 0) {
    if (num_threads <= 0) num_threads = DefaultThreads();
    threads_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    cv_task_.NotifyAll();
    for (std::thread& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called after destruction has begun.
  void Submit(std::function<void()> task) UVD_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      UVD_CHECK(!shutdown_) << "Submit on a shut-down ThreadPool";
      queue_.push(std::move(task));
      ++pending_;
    }
    cv_task_.NotifyOne();
  }

  /// Blocks until every task submitted so far has finished. The pool is
  /// reusable afterwards.
  void Wait() UVD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (pending_ != 0) cv_idle_.Wait(mu_);
  }

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Tasks submitted but not yet picked up by a worker — the obs layer's
  /// queue-depth gauge. A momentary value, not a synchronization point.
  size_t QueueDepth() const UVD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return queue_.size();
  }

 private:
  void WorkerLoop() UVD_EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        while (!shutdown_ && queue_.empty()) cv_task_.Wait(mu_);
        if (queue_.empty()) return;  // shutdown and drained
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
      {
        MutexLock lock(mu_);
        if (--pending_ == 0) cv_idle_.NotifyAll();
      }
    }
  }

  mutable Mutex mu_;
  CondVar cv_task_;
  CondVar cv_idle_;
  std::queue<std::function<void()>> queue_ UVD_GUARDED_BY(mu_);
  size_t pending_ UVD_GUARDED_BY(mu_) = 0;  // submitted but not yet finished
  bool shutdown_ UVD_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

/// \brief Counted completion tracker for fanning ONE call's tasks over a
/// shared pool.
///
/// ThreadPool::Wait blocks until the pool is globally idle, which couples
/// concurrent callers: a small batch waits for every overlapping batch to
/// drain. A WaitGroup instead counts exactly the caller's own tasks.
/// Allocate it in a shared_ptr captured by value in every task (a
/// straggler's Done() may run after Wait() has already returned on another
/// task's notification; shared ownership keeps the tracker alive for it).
class WaitGroup {
 public:
  explicit WaitGroup(int count) : remaining_(count) {}

  /// Marks one task complete. Call exactly once per counted task.
  void Done() UVD_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      --remaining_;
    }
    cv_.NotifyOne();
  }

  /// Blocks until every counted task called Done().
  void Wait() UVD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (remaining_ > 0) cv_.Wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int remaining_ UVD_GUARDED_BY(mu_);
};

/// Runs fn(0), ..., fn(workers - 1) as tasks on `pool` and waits for
/// exactly those tasks (a WaitGroup, not the pool-global Wait: the pool
/// may be shared with other in-flight work, e.g. sibling shard builds).
/// With a null pool or one worker, fn(0) runs inline on the calling
/// thread, so one code path serves every worker count.
inline void RunWorkers(ThreadPool* pool, int workers, const std::function<void(int)>& fn) {
  if (pool == nullptr || workers <= 1) {
    fn(0);
    return;
  }
  auto done = std::make_shared<WaitGroup>(workers);
  for (int w = 0; w < workers; ++w) {
    pool->Submit([fn, w, done] {
      fn(w);
      done->Done();
    });
  }
  done->Wait();
}

}  // namespace uvd

#endif  // UVD_COMMON_THREAD_POOL_H_
