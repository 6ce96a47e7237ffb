#pragma once
// Nesting-safe work-stealing thread pool with a help-while-waiting
// parallel_for.
//
// The evaluation campaign runs the tuner's weight sweep INSIDE a
// parallelized (grid case x heuristic) matrix cell, so the pool must
// tolerate parallel_for calls issued from its own worker threads without
// deadlock or oversubscription. Two mechanisms provide that:
//
//  - per-worker deques with work stealing: a worker pushes tasks it spawns
//    onto its own deque (back, LIFO — cache-warm depth-first descent) and,
//    when empty, steals from other workers' fronts (FIFO — oldest work
//    first, which is where a nested sweep's siblings live) or drains the
//    external submission queue;
//  - help-while-waiting: parallel_for never parks its caller while child
//    iterations are pending — the caller executes its own chunks and then
//    keeps pulling queued tasks (its own, stolen, or external) until the
//    group completes, so every blocked "waiter" is itself a worker.
//
// Determinism: work items are indexed and outputs go to caller-pre-sized
// slots, so scheduling order never affects results. Exceptions are
// deterministic too: the surviving exception is the one thrown by the
// LOWEST iteration index (iterations above the lowest failure are skipped,
// iterations below it still run — exactly the serial-semantics winner).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/contract.hpp"

namespace ahg {

namespace obs {
class RuntimeProfiler;
}  // namespace obs

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Drain and join all workers. Idempotent; called by the destructor.
  /// Tasks already queued still run to completion; submit() afterwards is a
  /// contract violation.
  void shutdown();

  /// True when the calling thread is one of THIS pool's workers (used to
  /// route spawned tasks onto the worker's own deque).
  bool on_worker_thread() const noexcept;

  /// Attach a wall-clock runtime profiler (not owned; nullptr detaches —
  /// the default). Null costs one relaxed load and branch per pop/park and
  /// changes no schedule (the usual observability contract, asserted by
  /// tests/test_determinism.cpp). Attached, every executed task becomes a
  /// timed run slice with steal provenance, parks and parallel_for waits
  /// become idle intervals, and empty-handed steal probes are counted.
  /// Replacing a non-null profiler QUIESCES: the call returns only once no
  /// worker is still inside a call into the old profiler, so the caller may
  /// destroy it immediately afterwards. (Workers pin the handle around each
  /// use; an idle worker that loaded it just before the swap can otherwise
  /// be preempted and dereference a destroyed profiler minutes later.)
  /// Never call from inside a pool task — the quiesce spin would wait on
  /// the calling task's own pin.
  void set_profiler(obs::RuntimeProfiler* profiler) noexcept;
  obs::RuntimeProfiler* profiler() const noexcept {
    return profiler_.load(std::memory_order_acquire);
  }

  /// Enqueue a task; returns a future for its result. Note that waiting on
  /// the future from inside a pool task can idle a worker — prefer
  /// parallel_for (which helps while waiting) for fork/join shapes.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    push_task([task] { (*task)(); });
    return fut;
  }

  /// Run fn(i) for i in [begin, end). Returns when all iterations finished;
  /// the caller participates (runs chunks, then steals other queued work),
  /// so nested calls from worker threads complete without deadlock. If
  /// iterations throw, the exception from the lowest throwing index is
  /// rethrown and iterations with higher indices are skipped (lower ones
  /// still run, so the winner is deterministic).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  using Task = std::function<void()>;

  /// One worker's deque. A plain mutex per deque (not a lock-free Chase-Lev
  /// deque): tasks here are coarse — whole matrix cells or tuner-sweep
  /// chunks — so queue traffic is far off the critical path and the simple
  /// structure is trivially ThreadSanitizer-clean.
  struct WorkerQueue {
    mutable std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t index);
  void push_task(Task task);
  /// Pop one task (own back, external front, steal others' fronts) and run
  /// it. `self` is the calling worker's index, or npos for non-workers.
  bool try_run_one(std::size_t self);
  /// `stolen` reports provenance: true when the task came off ANOTHER
  /// worker's deque (telemetry only — external-queue pops are submissions,
  /// not steals).
  bool try_pop(std::size_t self, Task& out, bool& stolen);

  /// Pin the attached profiler for use on this thread: returns nullptr (no
  /// pin taken) when none is attached, else a pointer that stays valid until
  /// the matching release_profiler(). set_profiler spins on the pin count,
  /// which is what makes destroy-after-detach safe. The null path is a
  /// single relaxed load + branch.
  obs::RuntimeProfiler* acquire_profiler() noexcept;
  void release_profiler() noexcept;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// This thread's worker index in this pool, or npos.
  std::size_t self_index() const noexcept;

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  WorkerQueue external_;                              // non-worker submissions

  /// Sleep/wake coordination: pending_ counts queued (not yet started)
  /// tasks; workers park on cv_ when it is zero.
  std::atomic<std::size_t> pending_{0};
  mutable std::mutex sleep_mutex_;
  std::condition_variable cv_;
  std::atomic<bool> stopping_{false};
  bool joined_ = false;
  std::mutex shutdown_mutex_;

  /// Nullable observability handle (see set_profiler) plus the count of
  /// threads currently inside a call into it (the detach-quiesce pin).
  std::atomic<obs::RuntimeProfiler*> profiler_{nullptr};
  std::atomic<std::size_t> profiler_users_{0};
};

/// The largest worker count configure_global_pool accepts: a typo'd --jobs
/// or AHG_JOBS must not start thousands of threads.
inline constexpr std::size_t kMaxPoolThreads = 1024;

/// Set the worker count the process-wide pool is built with. Must be called
/// before the first global_pool() use and with at most kMaxPoolThreads
/// (both contract-checked); 0 restores the hardware default. Benches plumb
/// --jobs / AHG_JOBS through this.
void configure_global_pool(std::size_t threads);

/// The worker count global_pool() has (or will be built with): the
/// configured override when set, hardware_concurrency otherwise. Does not
/// construct the pool.
std::size_t global_pool_jobs();

/// Convenience: a process-wide pool sized by configure_global_pool (default:
/// the hardware). Constructed on first use; suitable for benches, the
/// tuner, and the evaluation-matrix fan-out.
ThreadPool& global_pool();

}  // namespace ahg
