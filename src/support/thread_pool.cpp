#include "support/thread_pool.h"

#include <chrono>
#include <utility>

namespace fdlsp {

namespace {
// Which pool (if any) owns the current thread; lets parallel entry points
// detect nesting on a shared pool and fall back to their serial path.
thread_local const ThreadPool* current_worker_pool = nullptr;

// How long an idle worker polls for the next task before it blocks on the
// condition variable. A pooled SyncEngine round drains the pool twice,
// with a few microseconds of serial work between drains, hundreds of times
// per run. A worker that blocks at once needs a wake-up per drain, and on a
// virtual machine waking a halted vCPU takes from tens of microseconds to
// milliseconds depending on what else the host runs, so pooled run times
// swung with host load. The poll yields on every step: it keeps the CPU
// awake without holding it from any other runnable thread.
constexpr std::chrono::microseconds kIdlePoll{1000};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    stop_requested_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::push_task(std::function<void()>&& task) {
  // Caller holds mutex_. Grow by unrolling the ring into a fresh vector in
  // FIFO order; after the high-water mark is reached the ring recycles its
  // slots (and their std::function small-buffer storage) without touching
  // the allocator.
  if (ring_count_ == ring_.size()) {
    std::vector<std::function<void()>> bigger;
    bigger.reserve(ring_.empty() ? 16 : ring_.size() * 2);
    for (std::size_t i = 0; i < ring_count_; ++i)
      bigger.push_back(std::move(ring_[(ring_head_ + i) % ring_.size()]));
    bigger.resize(bigger.capacity());
    ring_ = std::move(bigger);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + ring_count_) % ring_.size()] = std::move(task);
  ++ring_count_;
  queued_ = ring_count_;
}

std::function<void()> ThreadPool::pop_task() {
  // Caller holds mutex_ and has checked ring_count_ > 0.
  std::function<void()> task = std::move(ring_[ring_head_]);
  ring_head_ = (ring_head_ + 1) % ring_.size();
  --ring_count_;
  queued_ = ring_count_;
  return task;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    push_task(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return ring_count_ == 0 && in_flight_ == 0; });
  if (first_error_) {
    auto error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

bool ThreadPool::on_worker_thread() const noexcept {
  return current_worker_pool == this;
}

void ThreadPool::poll_for_work() const {
  const auto deadline = std::chrono::steady_clock::now() + kIdlePoll;
  while (queued_ == 0 && !stop_requested_ &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

void ThreadPool::worker_loop() {
  current_worker_pool = this;
  for (;;) {
    poll_for_work();
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || ring_count_ > 0; });
      if (ring_count_ == 0) return;  // stopping_ with no work left
      task = pop_task();
      ++in_flight_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (ring_count_ == 0 && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace fdlsp
