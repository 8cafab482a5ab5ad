#include "core/scheduler/thread_pool.hpp"

#include <chrono>

namespace lamellar {

thread_local ThreadPool* ThreadPool::tl_pool = nullptr;
thread_local std::size_t ThreadPool::tl_worker_index = 0;

ThreadPool::ThreadPool(std::size_t num_workers, ProgressHook progress,
                       SchedulerObs obs, std::chrono::microseconds park_timeout)
    : progress_(std::move(progress)), park_timeout_(park_timeout) {
  obs::MetricsRegistry& reg = obs.registry != nullptr
                                  ? *obs.registry
                                  : obs::MetricsRegistry::disabled_instance();
  tasks_spawned_ = &reg.counter("sched.tasks_spawned");
  tasks_executed_ = &reg.counter("sched.tasks_executed");
  tasks_stolen_ = &reg.counter("sched.tasks_stolen");
  steal_failures_ = &reg.counter("sched.steal_failures");
  queue_depth_ = &reg.gauge("sched.queue_depth");
  tracer_ = obs.tracer;
  trace_now_ = std::move(obs.now);
  trace_pe_ = obs.pe;
  if (num_workers == 0) num_workers = 1;
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::spawn(Task task) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  unclaimed_.fetch_add(1, std::memory_order_release);
  tasks_spawned_->inc();
  // Delta update: set(pending+1) here raced with concurrent spawns/retires
  // and could publish a stale (lower) level over a newer one.
  queue_depth_->add(1);
  auto* heap_task = new Task(std::move(task));
  if (tl_pool == this) {
    workers_[tl_worker_index]->deque.push(heap_task);
  } else {
    injection_.push(heap_task);
  }
  notify_one();
}

void ThreadPool::spawn_batch(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  const std::size_t n = tasks.size();
  pending_.fetch_add(n, std::memory_order_acq_rel);
  unclaimed_.fetch_add(n, std::memory_order_release);
  tasks_spawned_->inc(n);
  queue_depth_->add(static_cast<std::int64_t>(n));
  for (Task& task : tasks) {
    auto* heap_task = new Task(std::move(task));
    if (tl_pool == this) {
      workers_[tl_worker_index]->deque.push(heap_task);
    } else {
      injection_.push(heap_task);
    }
  }
  // One wake for the whole batch; waking everyone lets idle workers start
  // stealing the freshly injected records immediately.
  std::lock_guard lock(sleep_mu_);
  if (n > 1) {
    sleep_cv_.notify_all();
  } else {
    sleep_cv_.notify_one();
  }
}

void ThreadPool::notify_one() {
  std::lock_guard lock(sleep_mu_);
  sleep_cv_.notify_one();
}

Task* ThreadPool::find_task(std::size_t self_index) {
  // 1. Own deque (LIFO for locality).
  if (self_index != static_cast<std::size_t>(-1)) {
    if (Task* t = workers_[self_index]->deque.pop()) {
      unclaimed_.fetch_sub(1, std::memory_order_relaxed);
      return t;
    }
  }
  // 2. Injection queue.
  if (auto t = injection_.try_pop()) {
    unclaimed_.fetch_sub(1, std::memory_order_relaxed);
    return *t;
  }
  // 3. Steal (FIFO) from siblings.
  const std::size_t n = workers_.size();
  const std::size_t start = self_index == static_cast<std::size_t>(-1)
                                ? 0
                                : (self_index + 1) % n;
  bool attempted_steal = false;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == self_index) continue;
    attempted_steal = true;
    if (Task* t = workers_[victim]->deque.steal()) {
      unclaimed_.fetch_sub(1, std::memory_order_relaxed);
      tasks_stolen_->inc();
      return t;
    }
  }
  if (attempted_steal) steal_failures_->inc();
  return nullptr;
}

void ThreadPool::run(Task* task) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    const sim_nanos t0 = trace_now_ ? trace_now_() : 0;
    (*task)();
    const sim_nanos t1 = trace_now_ ? trace_now_() : 0;
    tracer_->record({"task", "sched", trace_pe_, t0,
                     t1 >= t0 ? t1 - t0 : 0, 'X', 0});
  } else {
    (*task)();
  }
  delete task;
  tasks_executed_->inc();
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  queue_depth_->sub(1);
}

bool ThreadPool::try_run_one() {
  const std::size_t self =
      tl_pool == this ? tl_worker_index : static_cast<std::size_t>(-1);
  if (Task* t = find_task(self)) {
    run(t);
    return true;
  }
  if (progress_) progress_();
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_worker_index = index;
  std::size_t idle_spins = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (Task* t = find_task(index)) {
      run(t);
      idle_spins = 0;
      continue;
    }
    if (progress_) progress_();
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    // Park with a timeout so the progress hook keeps polling the inbox.
    // The predicate re-checks queued work and shutdown under sleep_mu_:
    // a spawn that raced the pre-park task search has incremented
    // unclaimed_ before its notify, so either the predicate sees it here
    // (and the wait returns immediately) or the notify arrives while we
    // wait — a wakeup can no longer fall into the gap between the last
    // find_task() and the wait.
    std::unique_lock lock(sleep_mu_);
    sleep_cv_.wait_for(lock, park_timeout_, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             unclaimed_.load(std::memory_order_relaxed) != 0;
    });
    idle_spins = 0;
  }
  tl_pool = nullptr;
}

void ThreadPool::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard lock(sleep_mu_);
    sleep_cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Drain anything left in the injection queue (tasks in deques are freed by
  // the deque destructor).
  while (auto t = injection_.try_pop()) {
    delete *t;
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    unclaimed_.fetch_sub(1, std::memory_order_relaxed);
    queue_depth_->sub(1);
  }
}

}  // namespace lamellar
