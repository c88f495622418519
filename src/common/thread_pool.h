// The one executor: a fixed-size worker pool and RunWorkers, the only
// fan-out over it. Each build and each serving front door owns one pool;
// everything below the owner borrows it, nested fan-outs included.
//
// Lock discipline is compile-time checked: every guarded field carries
// UVD_GUARDED_BY and the waits are explicit predicate loops over CondVar
// (see common/thread_annotations.h and docs/STATIC_ANALYSIS.md).
#ifndef UVD_COMMON_THREAD_POOL_H_
#define UVD_COMMON_THREAD_POOL_H_

#include <atomic>
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
/// Tasks must not throw (the library is exception-free). Destruction runs
/// every submitted task, then joins the workers.
class ThreadPool {
 public:
  /// std::thread::hardware_concurrency with a sane fallback.
  static int DefaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  /// How every worker-count option resolves: `threads` when positive,
  /// DefaultThreads() otherwise.
  static int ResolveThreads(int threads) {
    return threads > 0 ? threads : DefaultThreads();
  }

  /// Spawns ResolveThreads(num_threads) workers.
  explicit ThreadPool(int num_threads = 0) {
    num_threads = ResolveThreads(num_threads);
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
    }
    cv_task_.NotifyOne();
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
    }
  }

  mutable Mutex mu_;
  CondVar cv_task_;
  std::queue<std::function<void()>> queue_ UVD_GUARDED_BY(mu_);
  bool shutdown_ UVD_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

/// Runs fn(0), ..., fn(workers - 1), each exactly once, and returns when
/// all have finished. The caller is worker 0: it submits workers - 1 tasks,
/// runs fn(0), claims every w no task has claimed yet, then waits only for
/// the w that tasks are running. A task claims one w; one that finds none
/// left returns without touching `fn`. Every fn(w) is thus running or
/// claimable by its own caller, so fan-outs nested on one pool cannot
/// deadlock. With a null pool the caller runs every w in order.
///
/// Contract for fn: any w may run on any thread, several one after another
/// on one thread, with no barrier between them. Per-w state (Stats shards,
/// status slots) is safe; waiting in fn(w) for another fn(w') is not. The
/// library's fan-outs are claim loops over an atomic cursor.
inline void RunWorkers(ThreadPool* pool, int workers, const std::function<void(int)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  // Shared with the tasks, which outlive the call when the caller claimed
  // their w first; a task dereferences `fn` only after a claim.
  struct Call {
    std::atomic<int> next{1};  // fn(0) is the caller's
    Mutex mu;
    CondVar cv;
    int finished_by_tasks UVD_GUARDED_BY(mu) = 0;
  };
  auto call = std::make_shared<Call>();
  if (pool != nullptr) {
    for (int t = 1; t < workers; ++t) {
      pool->Submit([call, workers, fn_ptr = &fn] {
        Call& c = *call;
        const int w = c.next.fetch_add(1, std::memory_order_relaxed);
        if (w >= workers) return;
        (*fn_ptr)(w);
        {
          MutexLock lock(c.mu);
          ++c.finished_by_tasks;
        }
        c.cv.NotifyOne();
      });
    }
  }
  Call& c = *call;
  fn(0);
  int ran_by_caller = 1;
  for (;;) {
    const int w = c.next.fetch_add(1, std::memory_order_relaxed);
    if (w >= workers) break;
    fn(w);
    ++ran_by_caller;
  }
  // Every w is claimed now; wait for the ones pool tasks are running.
  MutexLock lock(c.mu);
  while (c.finished_by_tasks < workers - ran_by_caller) c.cv.Wait(c.mu);
}

}  // namespace uvd

#endif  // UVD_COMMON_THREAD_POOL_H_
