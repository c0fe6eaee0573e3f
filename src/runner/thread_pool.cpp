#include "runner/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace retri::runner {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = std::max(1u, threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      job();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& job) {
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }
  ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(jobs, count)));
  for (std::size_t i = 0; i < count; ++i) {
    pool.submit([&job, i] { job(i); });
  }
  pool.wait_idle();
}

}  // namespace retri::runner
