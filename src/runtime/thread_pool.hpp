// ThreadPool: a small fixed pool with one primitive — parallel_for_each —
// built for the ingestion hot path.
//
// Design constraints (ROADMAP: "as fast as the hardware allows"):
//  * No per-task allocation. Tasks are indices [0, n) pulled from a single
//    atomic cursor; the callable is passed by non-owning reference
//    (TaskRef), so dispatching a micro-batch costs one condvar broadcast
//    and zero heap traffic.
//  * The calling thread participates: ThreadPool(t) spawns t-1 workers and
//    parallel_for_each runs the caller as the t-th lane, so a pool of 1 is
//    exactly the sequential loop (and never context-switches).
//  * One job at a time. parallel_for_each blocks until every index has
//    been executed; the pool is reusable immediately after it returns.
//    Concurrent parallel_for_each calls on the same pool are serialized by
//    an internal submit mutex (correct, but the second caller waits — give
//    independent pipelines independent pools).
//
// Exception semantics: if a task throws, the first exception is captured
// and rethrown in the caller after all lanes drain; the throwing lane
// stops pulling indices, the other lanes finish the remaining ones.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace ppc::runtime {

/// Non-owning reference to a callable `void(std::size_t)`. Keeps the
/// dispatch path free of std::function's possible heap allocation. The
/// referenced callable must outlive the parallel_for_each call (always
/// true for a lambda at the call site).
class TaskRef {
 public:
  template <typename F>
  TaskRef(F& fn) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(&fn), call_([](void* o, std::size_t i) {
          (*static_cast<F*>(o))(i);
        }) {}

  void operator()(std::size_t index) const { call_(obj_, index); }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t);
};

class ThreadPool {
 public:
  /// @param threads  total concurrency including the calling thread (≥ 1);
  ///                 spawns threads-1 workers. hardware_threads() is the
  ///                 natural argument for CPU-bound work.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the caller).
  std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  /// Executes fn(i) for every i in [0, tasks), spread across all lanes.
  /// Blocks until every index has run; rethrows the first task exception.
  void parallel_for_each(std::size_t tasks, TaskRef fn);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();
  void run_lane(const TaskRef& fn, std::size_t tasks) noexcept;

  std::vector<std::thread> workers_;

  std::mutex submit_mutex_;  ///< serializes concurrent parallel_for_each calls

  std::mutex mutex_;  ///< guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;     ///< bumped once per submitted job
  const TaskRef* job_ = nullptr;     ///< current job's callable
  std::size_t job_tasks_ = 0;        ///< current job's index count
  std::size_t workers_in_flight_ = 0;
  std::exception_ptr first_error_;

  std::atomic<std::size_t> next_{0};  ///< shared task cursor
};

}  // namespace ppc::runtime
