// Persistent worker-thread pool with a fork-join task API.
//
// Shared by the model checker (src/mc/checker.h), which dispatches one
// task per frontier chunk at every BFS level, and by the statistical
// campaign benches, which run independent seeded simulation cells
// concurrently. Determinism is preserved by construction: tasks are
// identified by index and write only to index-addressed output slots, so
// results are identical to a sequential loop regardless of scheduling.
//
// A pool of size N consists of N-1 background workers plus the calling
// thread, which participates in every run_tasks() call; a pool of size 1
// therefore executes tasks inline with zero thread traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tta::util {

class ThreadPool {
 public:
  /// `num_threads` == 0 picks hardware_threads().
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors (background workers + the calling thread).
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs fn(0), fn(1), ..., fn(num_tasks - 1), each exactly once, and
  /// blocks until all have finished. Tasks may execute on any executor,
  /// including the calling thread. The first exception thrown by a task is
  /// rethrown here after the join. Not reentrant: tasks must not call back
  /// into the pool.
  void run_tasks(std::size_t num_tasks,
                 const std::function<void(std::size_t)>& fn);

  /// Splits [0, n) into at most size() contiguous chunks and runs
  /// fn(chunk_index, begin, end) for each via run_tasks(). Chunk boundaries
  /// depend only on n and size(), never on scheduling.
  void parallel_for(
      std::size_t n,
      const std::function<void(unsigned chunk, std::size_t begin,
                               std::size_t end)>& fn);

  /// max(1, std::thread::hardware_concurrency()).
  static unsigned hardware_threads();

 private:
  void worker_loop();
  void run_one(std::size_t index);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signaled when a job is posted
  std::condition_variable done_cv_;  ///< signaled when the last task ends
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_tasks_ = 0;   ///< total tasks in the current job
  std::size_t next_task_ = 0;   ///< next unclaimed task index
  std::size_t in_flight_ = 0;   ///< claimed but unfinished tasks
  std::exception_ptr first_error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tta::util
