#pragma once
// Section 6.1 sensitivity machinery: the model assumes mistakes are made
// independently ("as though the design team ... tossed dice").  The paper
// argues both positive correlation (common conceptual errors) and negative
// correlation (effort trade-offs under schedule pressure) are plausible,
// and that predictions should be checked against them.  Two correlated
// fault-introduction samplers, both correlating the fault indicators WITHIN
// one version:
//
// * common_cause_mixture — with probability rho a development is "stressed"
//   and every p_i is inflated by a factor (capped at 1); otherwise p_i is
//   deflated so the *marginal* presence probability stays exactly p_i.
//   Induces positive pairwise correlation between fault indicators within a
//   version.
//
// * gaussian_copula — latent normals Z_i = s_i·sqrt(|rho|)·Z0 +
//   sqrt(1−|rho|)·E_i thresholded at Φ⁻¹(p_i), one shared factor Z0 per
//   version.  For rho >= 0 every s_i = +1; for rho < 0 the sign alternates
//   (s_i = −1 on odd i), so same-parity faults have latent correlation +|rho|
//   and co-occur more often than independent ones, mixed-parity faults −|rho|
//   and co-occur less often.  Marginals are exact.
//
// Neither sampler couples two versions: the runners draw the channels of a
// pair independently, so E[θ2] = Σ p_i² q_i whatever rho is.  Negative rho is
// not forced diversity between the channels.

#include <stdexcept>

#include "core/fault_universe.hpp"
#include "core/simd_sampler.hpp"
#include "mc/experiment.hpp"
#include "mc/sampler.hpp"
#include "mc/shard_runner.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

/// Common-cause mixture with exact marginals.
///
/// With probability `rho` the version is developed under a common stress
/// that multiplies every presence probability by `stress` (capped at 1);
/// with probability 1−rho the probabilities are deflated to keep the
/// marginal P(fault i present) == p_i.  Requires rho in [0,1),
/// stress >= 1, and rho*min(stress*p_i,1) <= p_i for deflation feasibility
/// (throws std::invalid_argument otherwise).
class common_cause_mixture {
 public:
  common_cause_mixture(const core::fault_universe& u, double rho, double stress);

  [[nodiscard]] version sample(stats::rng& r) const;
  /// Mask-based sampling: same rng decisions as sample() (bit-exact), writes
  /// presence bits into `out` with no allocation in steady-state reuse.  The
  /// scalar reference the lane form is pinned against.
  void sample_mask(stats::rng& r, core::fault_mask& out) const;
  /// Lane form: one version on each of the first `live` lanes of `lanes`
  /// through the core::sample_mixture_lanes kernel — out[l] is what
  /// sample_mask would draw on lanes.lane(l), and the lane ends where that
  /// rng would; lanes from `live` on are left untouched.
  void sample_mask_lanes(core::xoshiro_lanes& lanes,
                         std::span<core::fault_mask, core::kXoshiroLanes> out,
                         unsigned live, core::simd_level level) const;
  /// Exact marginal presence probability of fault i (== u[i].p by design).
  [[nodiscard]] double marginal(std::size_t i) const;
  /// Exact pairwise correlation of the presence indicators of faults i, j.
  [[nodiscard]] double indicator_correlation(std::size_t i, std::size_t j) const;

 private:
  const core::fault_universe* u_;
  double rho_;
  std::vector<double> marginal_;  ///< preserved marginals (== u[i].p exactly)
  std::vector<double> stressed_p_;
  std::vector<double> relaxed_p_;
  std::uint64_t stress_thresh_;                 ///< bernoulli_threshold(rho_)
  std::vector<std::uint64_t> stressed_thresh_;  ///< bernoulli_threshold(stressed_p_)
  std::vector<std::uint64_t> relaxed_thresh_;   ///< bernoulli_threshold(relaxed_p_)
};

/// Gaussian-copula sampler: latent correlation |rho| between same-parity
/// faults and rho between mixed-parity ones (all pairs |rho| when rho >= 0);
/// marginals are exact.
class gaussian_copula_sampler {
 public:
  gaussian_copula_sampler(const core::fault_universe& u, double rho);

  [[nodiscard]] version sample(stats::rng& r) const;
  /// Mask-based sampling: same rng decisions as sample() (bit-exact).
  void sample_mask(stats::rng& r, core::fault_mask& out) const;

 private:
  const core::fault_universe* u_;
  double rho_;
  std::vector<double> thresholds_;  ///< Φ⁻¹(p_i)
};

/// Correlated-development experiment: same outputs as run_experiment but
/// versions are drawn from `sampler` (anything with
/// `version sample(stats::rng&) const`).
struct correlated_result {
  double mean_theta1 = 0.0;
  double mean_theta2 = 0.0;
  double prob_n1_positive = 0.0;
  double prob_n2_positive = 0.0;
  double risk_ratio = 0.0;  ///< empirical eq. (10)
  std::uint64_t samples = 0;
  unsigned shards = 0;  ///< logical shard layout (result identity; 0 = serial)
};

/// Runner knobs for run_correlated.  Like run_experiment, thread count is a
/// throughput knob only: results are bit-identical for a given (seed,
/// samples, shards) across any `threads` value.
struct correlated_config {
  unsigned threads = 0;  ///< workers; 0 = hardware_concurrency
  unsigned shards = 0;   ///< logical rng streams; 0 = the budget-scaled
                         ///< default_logical_shards(samples)
};

namespace detail {

/// Shared inner loop of the serial and sharded correlated runners: draw
/// `samples` pairs from `sampler` using `r` and fold them into `acc`.
/// Prefers the allocation-free mask path when the sampler provides one.
template <typename Sampler>
void accumulate_correlated(const core::fault_universe& u, const Sampler& sampler,
                           std::uint64_t samples, stats::rng& r,
                           experiment_accumulator& acc) {
  constexpr bool has_mask_path =
      requires(const Sampler& s, stats::rng& rr, core::fault_mask& m) {
        s.sample_mask(rr, m);
      };
  if constexpr (has_mask_path) {
    // Bitset path: two reused scratch masks, allocation-free steady state.
    core::fault_mask a(u.size());
    core::fault_mask b(u.size());
    for (std::uint64_t s = 0; s < samples; ++s) {
      sampler.sample_mask(r, a);
      sampler.sample_mask(r, b);
      if (a.bit_size() != u.size() || b.bit_size() != u.size()) {
        // Same guard the sparse path gets from pfd_of's range check.
        throw std::out_of_range("run_correlated: sampler does not match universe");
      }
      const double t1 = core::masked_q_sum(a, u.q_array());
      const auto pair = core::intersect_q_sum(a, b, u.q_array());
      acc.add(t1, pair.pfd, a.any(), pair.any_common);
    }
  } else {
    for (std::uint64_t s = 0; s < samples; ++s) {
      const version a = sampler.sample(r);
      const version b = sampler.sample(r);
      acc.add(pfd_of(a, u), pair_pfd(a, b, u), a.has_fault(),
              !common_faults(a, b).empty());
    }
  }
}

[[nodiscard]] inline correlated_result to_correlated_result(
    const experiment_accumulator& acc) {
  correlated_result out;
  out.samples = acc.samples();
  const auto n = static_cast<double>(acc.samples());
  out.mean_theta1 = acc.theta1().mean();
  out.mean_theta2 = acc.theta2().mean();
  out.prob_n1_positive = static_cast<double>(acc.n1_positive()) / n;
  out.prob_n2_positive = static_cast<double>(acc.n2_positive()) / n;
  out.risk_ratio = acc.n1_positive() > 0
                       ? static_cast<double>(acc.n2_positive()) /
                             static_cast<double>(acc.n1_positive())
                       : 0.0;
  return out;
}

}  // namespace detail

/// Multithreaded correlated runner on the shard_runner subsystem: the sample
/// budget is split over fixed logical shards, each with its own
/// stats::rng::stream(seed, shard), so results do not depend on
/// cfg.threads.  `Sampler::sample(_mask)` must be const-thread-safe (all
/// samplers in this library are: their const methods only read immutable
/// tables).
template <typename Sampler>
[[nodiscard]] correlated_result run_correlated(const core::fault_universe& u,
                                               const Sampler& sampler,
                                               std::uint64_t samples, std::uint64_t seed,
                                               const correlated_config& cfg = {}) {
  if (samples == 0) throw std::invalid_argument("run_correlated: samples > 0");
  const shard_plan plan = make_shard_plan(samples, cfg.shards);
  experiment_accumulator total;
  run_shards(
      plan, seed, cfg.threads,
      [&u, &sampler](unsigned /*shard*/, std::uint64_t count, stats::rng& r) {
        experiment_accumulator acc;
        detail::accumulate_correlated(u, sampler, count, r, acc);
        return acc;
      },
      [&total](unsigned /*shard*/, experiment_accumulator&& acc) { total.merge(acc); });
  correlated_result out = detail::to_correlated_result(total);
  out.shards = plan.shard_count;
  return out;
}

/// Single-threaded single-stream reference runner (the pre-shard-runner
/// layout: one rng(seed) consumed sequentially).  Kept as the statistical
/// baseline the sharded runner is tested and benchmarked against.
template <typename Sampler>
[[nodiscard]] correlated_result run_correlated_serial(const core::fault_universe& u,
                                                      const Sampler& sampler,
                                                      std::uint64_t samples,
                                                      std::uint64_t seed) {
  if (samples == 0) throw std::invalid_argument("run_correlated: samples > 0");
  stats::rng r(seed);
  experiment_accumulator acc;
  detail::accumulate_correlated(u, sampler, samples, r, acc);
  return detail::to_correlated_result(acc);
}

/// The §6.1 "merge positively correlated faults" approximation: collapse
/// groups of faults into single super-faults whose failure region is the
/// union (q summed, p set to the group maximum — the perfectly-correlated
/// limit where the group occurs together).  A group whose q's sum past 1
/// would not be a probability (the regions cannot be disjoint): throws
/// std::invalid_argument.
[[nodiscard]] core::fault_universe merge_fault_groups(
    const core::fault_universe& u, const std::vector<std::vector<std::size_t>>& groups);

}  // namespace reldiv::mc
