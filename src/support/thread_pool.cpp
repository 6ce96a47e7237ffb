#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "support/runtime_profiler.hpp"

namespace ahg {

namespace {

/// Worker identity of the current thread: which pool (if any) it belongs to
/// and its index there. A thread is a worker of at most one pool.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_identity;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(shutdown_mutex_);
    if (joined_) return;
    joined_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(sleep_mutex_);
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::set_profiler(obs::RuntimeProfiler* profiler) noexcept {
  obs::RuntimeProfiler* prev =
      profiler_.exchange(profiler, std::memory_order_seq_cst);
  if (prev == nullptr || prev == profiler) return;
  // Quiesce before returning: a worker that loaded `prev` just before the
  // exchange holds a pin until its call into it returns, so once the count
  // reads zero no thread can touch the old profiler again and the caller is
  // free to destroy it. Sequential consistency makes the pin visible: a
  // pinned use increments BEFORE its load of profiler_, so any use that saw
  // `prev` is counted here.
  while (profiler_users_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

obs::RuntimeProfiler* ThreadPool::acquire_profiler() noexcept {
  // Cheap null path first — the detached pool pays one relaxed load.
  if (profiler_.load(std::memory_order_relaxed) == nullptr) return nullptr;
  profiler_users_.fetch_add(1, std::memory_order_seq_cst);
  obs::RuntimeProfiler* prof = profiler_.load(std::memory_order_seq_cst);
  if (prof == nullptr) {
    // Lost the race with a detach: drop the pin, report nothing attached.
    profiler_users_.fetch_sub(1, std::memory_order_seq_cst);
  }
  return prof;
}

void ThreadPool::release_profiler() noexcept {
  profiler_users_.fetch_sub(1, std::memory_order_seq_cst);
}

bool ThreadPool::on_worker_thread() const noexcept {
  return tls_identity.pool == this;
}

std::size_t ThreadPool::self_index() const noexcept {
  return tls_identity.pool == this ? tls_identity.index : npos;
}

void ThreadPool::push_task(Task task) {
  AHG_EXPECTS_MSG(!stopping_.load(std::memory_order_acquire),
                  "submit on a stopped ThreadPool");
  // Increment BEFORE enqueueing so pending_ never undercounts (a popper
  // decrements only after actually taking a task); a waker that sees the
  // count early simply retries until the enqueue lands.
  pending_.fetch_add(1, std::memory_order_release);
  const std::size_t self = self_index();
  WorkerQueue& queue = self != npos ? *queues_[self] : external_;
  {
    std::lock_guard lock(queue.mutex);
    queue.tasks.push_back(std::move(task));
  }
  {
    std::lock_guard lock(sleep_mutex_);
  }
  cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, Task& out, bool& stolen) {
  // Workers: own back (LIFO — the deepest nested work, cache-warm), then
  // steal siblings' fronts (FIFO — the oldest fan-out, typically a nested
  // sweep's chunks), then the external queue. Non-worker helpers start at
  // the external queue (their own submissions) and then steal.
  stolen = false;
  if (self != npos) {
    WorkerQueue& own = *queues_[self];
    std::lock_guard lock(own.mutex);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  } else {
    std::lock_guard lock(external_.mutex);
    if (!external_.tasks.empty()) {
      out = std::move(external_.tasks.front());
      external_.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  const std::size_t n = queues_.size();
  for (std::size_t offset = 1; offset <= n; ++offset) {
    const std::size_t victim = self != npos ? (self + offset) % n : offset - 1;
    if (victim == self) continue;
    WorkerQueue& queue = *queues_[victim];
    std::lock_guard lock(queue.mutex);
    if (!queue.tasks.empty()) {
      out = std::move(queue.tasks.front());
      queue.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      stolen = true;
      return true;
    }
  }
  if (self != npos) {
    std::lock_guard lock(external_.mutex);
    if (!external_.tasks.empty()) {
      out = std::move(external_.tasks.front());
      external_.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  if (obs::RuntimeProfiler* prof = acquire_profiler()) {
    // Came up empty after probing every victim queue: a failed steal.
    prof->on_steal_attempt(self);
    release_profiler();
  }
  return false;
}

bool ThreadPool::try_run_one(std::size_t self) {
  Task task;
  bool stolen = false;
  if (!try_pop(self, task, stolen)) return false;
  obs::RuntimeProfiler* prof = acquire_profiler();
  if (prof != nullptr) {
    // Pinned across the task so the end stamp lands in the same profiler:
    // a detach issued mid-task blocks until the slice is recorded.
    const double start = prof->now_seconds();
    task();
    prof->on_task(self, start, prof->now_seconds(), stolen);
    release_profiler();
  } else {
    task();
  }
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_identity = WorkerIdentity{this, index};
  for (;;) {
    if (try_run_one(index)) continue;
    // Work appeared between the failed pop and here (or we lost a claiming
    // race): retry the pop directly instead of taking the sleep lock — and,
    // when a profiler is attached, instead of stamping a zero-length idle.
    if (pending_.load(std::memory_order_acquire) > 0) continue;
    // Stamp the park start under a pin, then DROP the pin for the wait —
    // holding it would make a concurrent detach spin for the whole park.
    obs::RuntimeProfiler* prof = acquire_profiler();
    double park_start = 0.0;
    if (prof != nullptr) {
      park_start = prof->now_seconds();
      release_profiler();
    }
    {
      std::unique_lock lock(sleep_mutex_);
      cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) ||
               pending_.load(std::memory_order_acquire) > 0;
      });
    }
    // Re-pin after the park: the profiler may have been detached (and
    // destroyed) while we slept — record the interval only if the SAME one
    // is still attached, dereferencing only the freshly pinned pointer.
    if (prof != nullptr) {
      if (obs::RuntimeProfiler* cur = acquire_profiler()) {
        if (cur == prof) cur->on_idle(index, park_start, cur->now_seconds());
        release_profiler();
      }
    }
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Chunk to limit queue churn: at most 4 chunks per worker.
  const std::size_t chunks = std::min(n, std::max<std::size_t>(1, size() * 4));
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  const std::size_t actual_chunks = (n + chunk_size - 1) / chunk_size;

  // Shared by the caller and every chunk task; shared_ptr because the last
  // finishing chunk touches the group (decrement + notify) possibly after
  // the caller has already observed completion and returned.
  struct Group {
    std::atomic<std::size_t> remaining;
    /// Lowest iteration index that has thrown so far; iterations above it
    /// are skipped, iterations below it still run (so the final winner is
    /// the lowest throwing index — deterministic, matching serial order).
    std::atomic<std::size_t> first_fail{npos};
    std::mutex error_mutex;
    std::size_t error_index = npos;
    std::exception_ptr error;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };
  auto group = std::make_shared<Group>();
  group->remaining.store(actual_chunks, std::memory_order_relaxed);

  for (std::size_t c = 0; c < actual_chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    push_task([&fn, group, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) {
        if (i > group->first_fail.load(std::memory_order_relaxed)) break;
        try {
          fn(i);
        } catch (...) {
          std::size_t cur = group->first_fail.load(std::memory_order_relaxed);
          while (i < cur &&
                 !group->first_fail.compare_exchange_weak(cur, i)) {
          }
          std::lock_guard lock(group->error_mutex);
          if (i < group->error_index) {
            group->error_index = i;
            group->error = std::current_exception();
          }
          break;  // everything after i in this chunk has a higher index
        }
      }
      if (group->remaining.fetch_sub(1) == 1) {
        std::lock_guard lock(group->done_mutex);
        group->done_cv.notify_all();
      }
    });
  }

  // Help while waiting: run our own chunks first (they sit at the back of
  // our deque when we are a worker), then any other queued work, so a
  // nested parallel_for never parks a thread the pool needs. The timed
  // re-check covers the window where our chunks run on other workers while
  // new helpable tasks appear elsewhere.
  const std::size_t self = self_index();
  // Pinned for the whole fan-out (released after the region closes below):
  // a detach issued mid-fan-out spins until the group completes, which is
  // finite — the chunks drain regardless of the detaching thread.
  obs::RuntimeProfiler* prof = acquire_profiler();
  // Instrumented call sites open a named region around their fan-out; when
  // none is open (a bare parallel_for, e.g. the tuner's sweep), mark the
  // region boundary generically so the trace still shows the fan-out window.
  std::uint32_t region_token = 0;
  if (prof != nullptr && prof->current_region() == 0) {
    region_token = prof->region_begin("parallel_for");
  }
  while (group->remaining.load(std::memory_order_acquire) > 0) {
    if (try_run_one(self)) continue;
    // The last chunk finished on another worker between the loop check and
    // the failed pop: exit without timing a zero-length wait.
    if (group->remaining.load(std::memory_order_acquire) == 0) break;
    const double wait_start = prof != nullptr ? prof->now_seconds() : 0.0;
    {
      std::unique_lock lock(group->done_mutex);
      group->done_cv.wait_for(lock, std::chrono::microseconds(200), [&] {
        return group->remaining.load(std::memory_order_acquire) == 0;
      });
    }
    if (prof != nullptr) {
      prof->on_idle(self, wait_start, prof->now_seconds());
    }
  }
  if (region_token != 0) prof->region_end(region_token);
  if (prof != nullptr) release_profiler();
  if (group->error) std::rethrow_exception(group->error);
}

namespace {
std::atomic<std::size_t> global_pool_config{0};
std::atomic<bool> global_pool_built{false};
}  // namespace

void configure_global_pool(std::size_t threads) {
  AHG_EXPECTS_MSG(!global_pool_built.load(std::memory_order_acquire),
                  "configure_global_pool after the global pool was built");
  global_pool_config.store(threads, std::memory_order_release);
}

std::size_t global_pool_jobs() {
  const std::size_t configured = global_pool_config.load(std::memory_order_acquire);
  if (configured != 0) return configured;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& global_pool() {
  static ThreadPool pool(global_pool_jobs());
  global_pool_built.store(true, std::memory_order_release);
  return pool;
}

}  // namespace ahg
