// The per-PE work-stealing thread pool (paper Sec. III-B).
//
// Each PE owns one pool.  Workers run tasks from their own Chase–Lev deque,
// fall back to the shared injection queue, steal from siblings, and — when
// idle — invoke a progress hook that drains the PE's Lamellae inbox (this is
// how communication tasks interleave with computation, mirroring the paper's
// description of the thread pool executing both AMs and Lamellae-produced
// communication tasks).
//
// External threads (the PE "main" thread, or another PE delivering work) can
// also execute tasks cooperatively via try_run_one(): blocking operations
// (`block_on`, `wait_all`) *help* instead of parking, so a configuration
// with a single worker thread cannot deadlock.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/types.hpp"
#include "core/scheduler/deque.hpp"
#include "core/scheduler/task.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lamellar {

/// Observability hookup for a pool: where to register the scheduler
/// counters and (optionally) record task spans.  All fields may be null —
/// the pool then resolves its handles against the inert registry, keeping
/// the hot path branch-light in uninstrumented/standalone uses.
struct SchedulerObs {
  obs::MetricsRegistry* registry = nullptr;
  obs::TraceCollector* tracer = nullptr;
  std::function<sim_nanos()> now;  // time source for trace spans
  pe_id pe = 0;
};

class ThreadPool {
 public:
  using ProgressHook = std::function<void()>;

  /// Start `num_workers` threads.  `progress` (may be empty) is invoked by
  /// idle workers and by try_run_one when no task is available.
  /// `park_timeout` bounds how long an idle worker sleeps between progress
  /// polls; wakes for new work are notification-driven and do not wait for
  /// the timeout.
  explicit ThreadPool(
      std::size_t num_workers, ProgressHook progress = {},
      SchedulerObs obs = {},
      std::chrono::microseconds park_timeout = std::chrono::microseconds(200));

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Submit a task from any thread.  Worker threads push to their own deque;
  /// external threads use the injection queue.
  void spawn(Task task);

  /// Submit a whole batch of tasks with a single pending_ update and a
  /// single wake, instead of per-task spawn/notify.  Used by receive-side
  /// dispatch to inject the chunk tasks of an aggregated buffer at once.
  void spawn_batch(std::vector<Task> tasks);

  /// Execute one pending task on the calling thread if available.  Returns
  /// true when a task ran.  Used by helping waits.
  bool try_run_one();

  /// Number of tasks submitted but not yet finished executing.
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

  /// Number of tasks queued (in a deque or the injection queue) but not yet
  /// claimed by any thread.  This is the park predicate: a worker never
  /// sleeps while it is non-zero, which closes the lost-wakeup window
  /// between a failed task search and the condition-variable wait.
  [[nodiscard]] std::size_t unclaimed() const {
    return unclaimed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }

  /// Stop all workers after draining pending work.
  void shutdown();

 private:
  struct Worker {
    WorkStealingDeque<Task> deque;
    std::thread thread;
  };

  void worker_loop(std::size_t index);
  Task* find_task(std::size_t self_index);
  void run(Task* task);
  void notify_one();

  // Index of the calling worker in workers_, or npos for external threads.
  static thread_local ThreadPool* tl_pool;
  static thread_local std::size_t tl_worker_index;

  std::vector<std::unique_ptr<Worker>> workers_;
  MpmcQueue<Task*> injection_;
  ProgressHook progress_;
  std::chrono::microseconds park_timeout_;
  std::atomic<std::size_t> pending_{0};
  // Queued-but-unclaimed task count.  Incremented *before* a task becomes
  // visible in any queue, decremented by the claimant after a successful
  // find_task(), so it never underflows and a non-zero value is guaranteed
  // visible to a parking worker (the producer's notify path and the wait
  // predicate are both under sleep_mu_).
  std::atomic<std::size_t> unclaimed_{0};
  std::atomic<bool> stopping_{false};

  // Scheduler metrics ("sched.*"): always-valid handles (inert when no
  // registry was supplied), updated with relaxed atomics.
  obs::Counter* tasks_spawned_;
  obs::Counter* tasks_executed_;
  obs::Counter* tasks_stolen_;
  obs::Counter* steal_failures_;
  obs::Gauge* queue_depth_;
  obs::TraceCollector* tracer_;
  std::function<sim_nanos()> trace_now_;
  pe_id trace_pe_;

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
};

}  // namespace lamellar
