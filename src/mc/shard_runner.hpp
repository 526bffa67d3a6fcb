#pragma once
// Deterministic sharded Monte-Carlo runner: the subsystem every
// multithreaded experiment loop in this library sits on.
//
// The determinism contract: an experiment is decomposed into a FIXED number
// of logical shards (kDefaultLogicalShards unless the caller overrides it),
// each owning its own rng stream `stats::rng::stream(seed, shard)` and a
// fixed slice of the sample budget.  Worker threads pull whole shards from a
// queue; per-shard results are merged in ascending shard order on the
// calling thread.  Every floating-point operation therefore happens in an
// order that is a pure function of (seed, samples, shard count) — results
// are bit-identical for 1 thread, 7 threads, or however many CPUs the
// machine at hand offers.  Thread count is a throughput knob, never a
// results knob.
//
// Shard granularity is also the checkpoint granularity: run_shards accepts a
// [shard_begin, shard_end) window, so a caller can process shards in chunks,
// serialize its accumulator between chunks, and resume — the merged result
// is identical to an uninterrupted run because the merge sequence is the
// same either way.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "stats/random.hpp"

namespace reldiv::mc {

/// Ceiling on the default number of logical rng streams per experiment.
/// Large enough to keep any plausible worker count busy, small enough that
/// the per-shard stream-derivation and merge costs stay negligible.
inline constexpr unsigned kDefaultLogicalShards = 256;

/// Samples a default-layout shard targets: the default shard count grows
/// with the budget (samples / kDefaultSamplesPerShard, clamped to
/// [1, kDefaultLogicalShards]) so tiny campaigns are not dominated by
/// stream-derivation and merge overhead.
inline constexpr std::uint64_t kDefaultSamplesPerShard = 64;

/// Default logical shard count for a `samples` budget.  A pure function of
/// the budget — never of the machine — so the default layout is part of the
/// result's identity and bit-identical everywhere: 1 shard up to 64 samples,
/// then samples/64 up to the kDefaultLogicalShards ceiling (reached at 16384
/// samples).
[[nodiscard]] constexpr unsigned default_logical_shards(std::uint64_t samples) noexcept {
  const std::uint64_t scaled = samples / kDefaultSamplesPerShard;
  if (scaled <= 1) return 1;
  if (scaled >= kDefaultLogicalShards) return kDefaultLogicalShards;
  return static_cast<unsigned>(scaled);
}

/// Fixed decomposition of `total_samples` over `shard_count` logical shards:
/// shard i draws total/shards samples plus one of the remainder for
/// i < total % shards.  Depends only on the sample budget, never on threads.
struct shard_plan {
  std::uint64_t total_samples = 0;
  unsigned shard_count = 0;

  [[nodiscard]] std::uint64_t shard_samples(unsigned shard) const noexcept {
    const std::uint64_t base = total_samples / shard_count;
    return base + (shard < total_samples % shard_count ? 1 : 0);
  }
  /// Global index of the first sample shard `shard` owns.
  [[nodiscard]] std::uint64_t shard_offset(unsigned shard) const noexcept {
    const std::uint64_t base = total_samples / shard_count;
    const std::uint64_t rem = total_samples % shard_count;
    return base * shard + std::min<std::uint64_t>(shard, rem);
  }
};

/// Build the canonical plan: `requested_shards` (0 = the budget-scaled
/// default_logical_shards(samples)) capped at `samples` so no shard is
/// empty.  Throws std::invalid_argument when samples == 0.
[[nodiscard]] shard_plan make_shard_plan(std::uint64_t samples,
                                         unsigned requested_shards = 0);

/// Resolve a requested worker count: 0 means the CPUs the calling thread may
/// run on (its affinity mask on Linux, hardware_concurrency() elsewhere), and
/// the result is at least 1 and capped at `jobs` (no point spinning up idle
/// threads).
[[nodiscard]] unsigned resolve_threads(unsigned requested, std::uint64_t jobs);

/// Run `body(job)` for every job in [job_begin, job_end), distributing jobs
/// over `threads` workers (resolved via resolve_threads), then call
/// `merge(job, result)` in ascending job order on the calling thread: the
/// one worker pool of the library, under run_shards, run_shard_lanes and the
/// campaign layer.  Each job derives whatever randomness it needs from its
/// own index, so the set of per-job computations — and the merge sequence —
/// is independent of the thread count.  `body` must not touch shared mutable
/// state; `merge` runs serially.  The first exception thrown by a `body`
/// invocation (lowest job index wins) is rethrown after all workers join.
template <typename Body, typename Merge>
void run_jobs(std::size_t job_begin, std::size_t job_end, unsigned threads, Body&& body,
              Merge&& merge) {
  using result_type = std::decay_t<std::invoke_result_t<Body&, std::size_t>>;
  if (job_begin > job_end) {
    throw std::invalid_argument("run_jobs: job window out of range");
  }
  const std::size_t jobs = job_end - job_begin;
  if (jobs == 0) return;

  std::vector<std::optional<result_type>> results(jobs);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_job = jobs;

  auto work = [&]() noexcept {
    for (std::size_t j = next.fetch_add(1, std::memory_order_relaxed); j < jobs;
         j = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        results[j].emplace(body(job_begin + j));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (j < first_error_job) {
          first_error_job = j;
          first_error = std::current_exception();
        }
      }
    }
  };

  const unsigned workers = resolve_threads(threads, jobs);
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(work);
    for (auto& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  for (std::size_t j = 0; j < jobs; ++j) {
    merge(job_begin + j, std::move(*results[j]));
  }
}

/// Run `body(shard, samples, rng)` for every shard in [shard_begin,
/// shard_end) of `plan`, distributing shards over `threads` workers
/// (resolved via resolve_threads), then call `merge(shard, result)` in
/// ascending shard order on the calling thread.
///
/// Shard `s` always receives `stats::rng::stream(seed, s)` and
/// `plan.shard_samples(s)` samples, so the set of per-shard computations —
/// and the merge sequence — is independent of the thread count and of
/// scheduling.  `body` must not touch shared mutable state (it runs
/// concurrently); `merge` runs serially.  The first exception thrown by a
/// `body` invocation (lowest shard index wins) is rethrown after all workers
/// join.
template <typename Body, typename Merge>
void run_shards(const shard_plan& plan, std::uint64_t seed, unsigned shard_begin,
                unsigned shard_end, unsigned threads, Body&& body, Merge&& merge) {
  if (shard_begin > shard_end || shard_end > plan.shard_count) {
    throw std::invalid_argument("run_shards: shard window out of range");
  }
  // Derive the shard streams incrementally (stream(seed, s) is rng(seed)
  // jumped s times): O(shard_end) jumps total instead of O(shard_end^2) if
  // each worker re-derived its stream from scratch.
  std::vector<stats::rng> streams;
  streams.reserve(shard_end - shard_begin);
  stats::rng walker(seed);
  for (unsigned s = 0; s < shard_begin; ++s) walker.jump();
  for (unsigned s = shard_begin; s < shard_end; ++s) {
    streams.push_back(walker);
    walker.jump();
  }
  run_jobs(
      shard_begin, shard_end, threads,
      [&](std::size_t shard) {
        const auto s = static_cast<unsigned>(shard);
        return body(s, plan.shard_samples(s), streams[s - shard_begin]);
      },
      [&](std::size_t shard, auto&& result) {
        merge(static_cast<unsigned>(shard), std::forward<decltype(result)>(result));
      });
}

/// Convenience overload: run every shard of the plan.
template <typename Body, typename Merge>
void run_shards(const shard_plan& plan, std::uint64_t seed, unsigned threads,
                Body&& body, Merge&& merge) {
  run_shards(plan, seed, 0, plan.shard_count, threads, std::forward<Body>(body),
             std::forward<Merge>(merge));
}

}  // namespace reldiv::mc
