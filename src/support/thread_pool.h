// Fixed-size worker pool used by the experiment harness to fan Monte-Carlo
// instances across cores. Tasks are type-erased thunks; exceptions raised by
// a task are captured and rethrown to the first caller of wait_idle().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fdlsp {

/// A joinable pool of worker threads consuming a FIFO task queue.
///
/// Lifetime: the destructor drains outstanding tasks and joins all workers,
/// so a ThreadPool can be scoped tightly around a parallel section.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  /// Enqueues a task for execution on some worker.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running, then rethrows
  /// the first exception any task raised (if any).
  ///
  /// Must not be called from one of this pool's own workers: the waiter
  /// would itself be an in-flight task and never see the pool idle. Check
  /// on_worker_thread() and run serially instead — parallel_for and the
  /// pooled engines/sweeps do exactly that, so nesting them on one shared
  /// pool degrades gracefully rather than deadlocking.
  void wait_idle();

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();
  void poll_for_work() const;
  void push_task(std::function<void()>&& task);
  std::function<void()> pop_task();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  // FIFO ring over a capacity-retaining vector instead of a deque: a deque
  // allocates and frees blocks as the head crosses block boundaries, which
  // shows up as steady per-round allocator traffic in the pooled engines'
  // zero-alloc profile (tests/engine_alloc_test.cpp). The ring reaches its
  // high-water capacity once and then cycles allocation-free; slots hold
  // moved-from std::function shells whose small-buffer storage is reused.
  std::vector<std::function<void()>> ring_;
  std::size_t ring_head_ = 0;   // index of the oldest queued task
  std::size_t ring_count_ = 0;  // queued (not yet popped) tasks
  // Lock-free copies of ring_count_ and stopping_ for an idle worker's
  // poll (poll_for_work); the mutex-guarded fields stay authoritative.
  std::atomic<std::size_t> queued_{0};
  std::atomic<bool> stop_requested_{false};
  std::vector<std::thread> workers_;
  std::exception_ptr first_error_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace fdlsp
