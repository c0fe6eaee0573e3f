// The runner's one sharding loop.
//
// The runner's jobs are independent simulation trials that write to
// disjoint result slots, so all a pool must provide is bounded concurrency
// and a barrier that propagates a job's exception: a few threads pulling
// indices from one atomic counter, joined before returning. No queue, no
// futures, no work stealing. The deliberately single-threaded
// sim::Simulator is never shared across workers; each trial constructs its
// own.
#pragma once

#include <cstddef>
#include <functional>

namespace retri::runner {

/// Calls job(0) .. job(count - 1), each of which must write only its own
/// result slot. Runs inline on the calling thread when jobs <= 1 or
/// count <= 1, stopping at the first exception. Otherwise starts
/// min(jobs, count) threads that each take the next unclaimed index until
/// none is left; every index runs even after a job throws, and the first
/// exception is rethrown once every thread has joined.
void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& job);

}  // namespace retri::runner
