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
//
// Each sampler draws a version as a core::fault_mask (sample_mask), the
// library's one fault-set type.  run_correlated and scenario cells run their
// lane groups through mc/shard_lanes.hpp.  The mixture draws and records
// each pair step with core::xoshiro_pair_step_lanes against its threshold
// tables, summing θ1 and θ2 as it draws; its AVX-512 level compares raw
// draws against the thresholds shifted left by 11 and sets the faults whose
// threshold saturates (p = 1, or stress·p >= 1) from per-word masks.  The
// copula and the aliased model draw each lane's channels in turn into masks
// the lane group owns and record them with the scalar per-lane record
// (core::record_pair_lane).

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/fault_universe.hpp"
#include "core/simd_sampler.hpp"
#include "mc/experiment.hpp"
#include "mc/sampler.hpp"
#include "mc/shard_lanes.hpp"
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

  /// Draw one version: one stress draw, then one draw per fault against the
  /// stressed or relaxed probabilities, presence bits into `out` with no
  /// allocation in steady-state reuse.  The scalar reference the pair step
  /// is pinned against.
  void sample_mask(stats::rng& r, core::fault_mask& out) const;
  /// The stress draw's and the faults' thresholds in the forms
  /// core::xoshiro_pair_step_lanes reads: a lane it draws makes the
  /// decisions sample_mask makes on that lane's stream.
  [[nodiscard]] const core::xoshiro_lane_tables& lane_tables() const noexcept {
    return thresholds_;
  }
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
  /// bernoulli_threshold of rho_, stressed_p_ and relaxed_p_: the 53-bit
  /// tables sample_mask draws against, and their shifted forms and
  /// saturated-fault words for the pair step, built once here.
  core::xoshiro_lane_tables thresholds_;
};

/// run_sampler_lanes for the mixture: every pair step one
/// core::xoshiro_pair_step_lanes against its lane_tables(), which draws each
/// lane's channels as sample_mask does on that lane's stream.  Throws
/// std::out_of_range when the mixture was built over a universe of another
/// size than fold.q.
template <typename Merge>
void run_sampler_lanes(const common_cause_mixture& mixture, const shard_plan& plan,
                       std::uint64_t seed, unsigned threads, const lane_fold& fold,
                       Merge&& merge) {
  run_table_lanes(mixture.lane_tables(), plan, seed, 0, plan.shard_count, threads, fold,
                  std::forward<Merge>(merge));
}

/// Gaussian-copula sampler: latent correlation |rho| between same-parity
/// faults and rho between mixed-parity ones (all pairs |rho| when rho >= 0);
/// marginals are exact.
class gaussian_copula_sampler {
 public:
  gaussian_copula_sampler(const core::fault_universe& u, double rho);

  /// Draw one version: one shared normal, then one own normal per fault in
  /// index order; bit i of `out` is fault i's presence.
  void sample_mask(stats::rng& r, core::fault_mask& out) const;

 private:
  const core::fault_universe* u_;
  double rho_;
  std::vector<double> thresholds_;  ///< Φ⁻¹(p_i)
};

/// Correlated-development experiment: same outputs as run_experiment but
/// versions are drawn from `sampler`.
struct correlated_result {
  double mean_theta1 = 0.0;
  double mean_theta2 = 0.0;
  double prob_n1_positive = 0.0;
  double prob_n2_positive = 0.0;
  double risk_ratio = 0.0;  ///< empirical eq. (10)
  std::uint64_t samples = 0;
  unsigned shards = 0;  ///< logical shard layout (part of the result's identity)
};

/// Runner knobs for run_correlated.  Like run_experiment, thread count is a
/// throughput knob only: results are bit-identical for a given (seed,
/// samples, shards) across any `threads` value.
struct correlated_config {
  unsigned threads = 0;  ///< workers; 0 = the CPUs the calling thread may run on
  unsigned shards = 0;   ///< logical rng streams; 0 = the budget-scaled
                         ///< default_logical_shards(samples)
};

/// Multithreaded correlated runner on the lane group loop: the sample
/// budget is split over fixed logical shards, each drawing its pairs from
/// its own stats::rng::stream(seed, shard) — version a, then version b — and
/// recording θ1 = Σq over a's faults and θ2 = Σq over the faults a and b
/// share.  Shards run eight per lane group (mc::run_sampler_lanes), so
/// results do not depend on cfg.threads.  `sampler` needs
/// `sample_mask(stats::rng&, core::fault_mask&) const`; the mixture's pair
/// steps run through its lane tables instead, with the same bits.  Samplers
/// must be const-thread-safe (all samplers in this library are: their const
/// methods only read immutable tables).  Throws std::out_of_range when the
/// sampler draws masks of another size than `u`.
template <typename Sampler>
[[nodiscard]] correlated_result run_correlated(const core::fault_universe& u,
                                               const Sampler& sampler,
                                               std::uint64_t samples, std::uint64_t seed,
                                               const correlated_config& cfg = {}) {
  if (samples == 0) throw std::invalid_argument("run_correlated: samples > 0");
  const shard_plan plan = make_shard_plan(samples, cfg.shards);
  const lane_fold fold{2, 2, 1.0, u.q_array(), core::active_simd_level()};
  experiment_accumulator total;
  run_sampler_lanes(sampler, plan, seed, cfg.threads, fold,
                    [&total](unsigned /*shard*/, experiment_accumulator&& acc) {
                      total.merge(acc);
                    });
  correlated_result out;
  out.samples = total.samples();
  const auto n = static_cast<double>(total.samples());
  out.mean_theta1 = total.theta1().mean();
  out.mean_theta2 = total.theta2().mean();
  out.prob_n1_positive = static_cast<double>(total.n1_positive()) / n;
  out.prob_n2_positive = static_cast<double>(total.n2_positive()) / n;
  out.risk_ratio = total.n1_positive() > 0
                       ? static_cast<double>(total.n2_positive()) /
                             static_cast<double>(total.n1_positive())
                       : 0.0;
  out.shards = plan.shard_count;
  return out;
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
