#include "runtime/thread_pool.hpp"

#include <stdexcept>

namespace ppc::runtime {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    throw std::invalid_argument("ThreadPool: threads must be >= 1");
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::run_lane(const TaskRef& fn, std::size_t tasks) noexcept {
  try {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks) break;
      fn(i);
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::parallel_for_each(std::size_t tasks, TaskRef fn) {
  if (tasks == 0) return;
  if (workers_.empty() || tasks == 1) {
    // Sequential fast path: no handshake, exceptions propagate directly.
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }

  const std::lock_guard<std::mutex> submit(submit_mutex_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_tasks_ = tasks;
    next_.store(0, std::memory_order_relaxed);
    workers_in_flight_ = workers_.size();
    first_error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();

  run_lane(fn, tasks);  // the caller is a lane too

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return workers_in_flight_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const TaskRef* job = nullptr;
    std::size_t tasks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
      tasks = job_tasks_;
    }
    run_lane(*job, tasks);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --workers_in_flight_;
    }
    // Outside the lock: the waiter re-checks under mutex_ anyway.
    done_cv_.notify_one();
  }
}

}  // namespace ppc::runtime
