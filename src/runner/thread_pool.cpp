#include "runner/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace retri::runner {

void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& job) {
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex
  const auto worker = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        job(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  {
    // jthreads join on destruction, also when starting a later one throws:
    // the started ones drain the counter and join before it propagates.
    const std::size_t workers = std::min<std::size_t>(jobs, count);
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    while (threads.size() < workers) threads.emplace_back(worker);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace retri::runner
