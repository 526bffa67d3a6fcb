#include "mc/shard_runner.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace reldiv::mc {

namespace {

/// The CPUs the calling thread may run on: the size of its affinity mask on
/// Linux (a worker started under `taskset -c 1` gets 1, whatever the host
/// has), hardware_concurrency() elsewhere or when the mask cannot be read;
/// at least 1.
unsigned usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

shard_plan make_shard_plan(std::uint64_t samples, unsigned requested_shards) {
  if (samples == 0) {
    throw std::invalid_argument("make_shard_plan: samples must be > 0");
  }
  const unsigned requested =
      requested_shards == 0 ? default_logical_shards(samples) : requested_shards;
  shard_plan plan;
  plan.total_samples = samples;
  plan.shard_count = static_cast<unsigned>(std::min<std::uint64_t>(requested, samples));
  return plan;
}

unsigned resolve_threads(unsigned requested, std::uint64_t jobs) {
  unsigned threads = requested;
  if (threads == 0) threads = usable_cpus();
  return static_cast<unsigned>(std::min<std::uint64_t>(threads, std::max<std::uint64_t>(jobs, 1)));
}

}  // namespace reldiv::mc
