// Fixed-size worker pool for embarrassingly parallel trial execution.
//
// Deliberately minimal: a bounded set of workers draining one FIFO queue of
// std::function jobs. No futures, no work stealing, no task graph — the
// runner's jobs are independent simulation trials that write to disjoint
// result slots, so all the pool must provide is (a) bounded concurrency and
// (b) a barrier (wait_idle) that also propagates the first job exception.
// The deliberately single-threaded sim::Simulator is never shared across
// workers; each trial constructs its own.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace retri::runner {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1).
  explicit ThreadPool(unsigned threads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Must not be called concurrently with destruction.
  void submit(std::function<void()> job);

  /// Blocks until the queue is empty and every worker is idle, then
  /// rethrows the first exception any job raised (if any). The pool stays
  /// usable afterwards.
  void wait_idle();

  std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::exception_ptr first_error_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The runner's one sharding loop: calls job(0) .. job(count - 1), each of
/// which must write only its own result slot. Runs inline on the calling
/// thread when jobs <= 1 or count <= 1, otherwise on a pool of
/// min(jobs, count) workers. Returns once every job has finished and
/// rethrows the first exception a job raised.
void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& job);

}  // namespace retri::runner
