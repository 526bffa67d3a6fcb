#include "core/fault_universe.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace reldiv::core {

namespace {
constexpr double kQSumTolerance = 1e-9;
}

fault_universe::fault_universe(std::vector<fault_atom> atoms, bool allow_q_overflow)
    : atoms_(std::move(atoms)) {
  double q_sum = 0.0;
  q_soa_.reserve(atoms_.size());
  thresh53_.reserve(atoms_.size());
  for (const auto& [p, q] : atoms_) {
    if (!(p >= 0.0) || !(p <= 1.0)) {
      throw std::invalid_argument("fault_universe: p out of [0,1]");
    }
    if (!(q >= 0.0) || !(q <= 1.0)) {
      throw std::invalid_argument("fault_universe: q out of [0,1]");
    }
    q_sum += q;
    q_soa_.push_back(q);
    thresh53_.push_back(bernoulli_threshold(p));
  }
  if (!allow_q_overflow && q_sum > 1.0 + kQSumTolerance) {
    throw std::invalid_argument(
        "fault_universe: sum of q exceeds 1 (violates the disjoint-failure-region "
        "assumption; pass allow_q_overflow=true for deliberate pessimistic models)");
  }
}

fault_universe fault_universe::from_arrays(std::span<const double> p,
                                           std::span<const double> q,
                                           bool allow_q_overflow) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("fault_universe::from_arrays: size mismatch");
  }
  std::vector<fault_atom> atoms;
  atoms.reserve(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) atoms.push_back({p[i], q[i]});
  return fault_universe(std::move(atoms), allow_q_overflow);
}

double fault_universe::p_max() const noexcept {
  double m = 0.0;
  for (const auto& a : atoms_) m = std::max(m, a.p);
  return m;
}

double fault_universe::q_max() const noexcept {
  double m = 0.0;
  for (const auto& a : atoms_) m = std::max(m, a.q);
  return m;
}

double fault_universe::q_total() const noexcept {
  double s = 0.0;
  for (const auto& a : atoms_) s += a.q;
  return s;
}

double fault_universe::expected_fault_count() const noexcept {
  double s = 0.0;
  for (const auto& a : atoms_) s += a.p;
  return s;
}

std::vector<double> fault_universe::p_values() const {
  std::vector<double> out;
  out.reserve(atoms_.size());
  for (const auto& a : atoms_) out.push_back(a.p);
  return out;
}

std::vector<double> fault_universe::q_values() const {
  std::vector<double> out;
  out.reserve(atoms_.size());
  for (const auto& a : atoms_) out.push_back(a.q);
  return out;
}

bool fault_universe::all_p_below(double threshold) const noexcept {
  return std::all_of(atoms_.begin(), atoms_.end(),
                     [threshold](const fault_atom& a) { return a.p <= threshold; });
}

std::string fault_universe::describe() const {
  std::ostringstream out;
  out << "fault_universe{n=" << size() << ", pmax=" << p_max()
      << ", E[N1]=" << expected_fault_count() << ", sum_q=" << q_total() << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Universe relayout
// ---------------------------------------------------------------------------

fault_mask universe_permutation::mask_to_permuted(const fault_mask& m) const {
  if (m.bit_size() != to_permuted.size()) {
    throw std::invalid_argument("universe_permutation: mask size does not match");
  }
  fault_mask out(m.bit_size());
  const std::uint64_t* words = m.words();
  for (std::size_t b = 0; b < m.word_count(); ++b) {
    std::uint64_t w = words[b];
    while (w != 0) {
      const std::size_t i = (b << 6) + static_cast<std::size_t>(std::countr_zero(w));
      out.set(to_permuted[i]);
      w &= w - 1;
    }
  }
  return out;
}

fault_mask universe_permutation::mask_to_original(const fault_mask& m) const {
  if (m.bit_size() != to_original.size()) {
    throw std::invalid_argument("universe_permutation: mask size does not match");
  }
  fault_mask out(m.bit_size());
  const std::uint64_t* words = m.words();
  for (std::size_t b = 0; b < m.word_count(); ++b) {
    std::uint64_t w = words[b];
    while (w != 0) {
      const std::size_t i = (b << 6) + static_cast<std::size_t>(std::countr_zero(w));
      out.set(to_original[i]);
      w &= w - 1;
    }
  }
  return out;
}

std::vector<double> universe_permutation::values_to_permuted(
    std::span<const double> v) const {
  if (v.size() != to_original.size()) {
    throw std::invalid_argument("universe_permutation: vector size does not match");
  }
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = v[to_original[i]];
  return out;
}

std::vector<double> universe_permutation::values_to_original(
    std::span<const double> v) const {
  if (v.size() != to_permuted.size()) {
    throw std::invalid_argument("universe_permutation: vector size does not match");
  }
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = v[to_permuted[i]];
  return out;
}

universe_permutation make_p_sorted_permutation(const fault_universe& u) {
  const std::size_t n = u.size();
  universe_permutation perm;
  perm.to_original.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm.to_original[i] = static_cast<std::uint32_t>(i);
  }
  // Stable sort by p: ties keep original order, so the permutation is a
  // pure function of the atom layout (part of any derived result identity).
  std::stable_sort(perm.to_original.begin(), perm.to_original.end(),
                   [&u](std::uint32_t a, std::uint32_t b) { return u[a].p < u[b].p; });
  perm.to_permuted.resize(n);
  perm.identity = true;
  std::vector<fault_atom> atoms;
  atoms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t src = perm.to_original[i];
    perm.to_permuted[src] = static_cast<std::uint32_t>(i);
    perm.identity = perm.identity && src == i;
    atoms.push_back(u[src]);
  }
  // allow_q_overflow: the atoms already passed validation in the original
  // universe, and re-summing q in permuted order could straddle the
  // tolerance boundary purely through float accumulation order.
  perm.universe = fault_universe(std::move(atoms), /*allow_q_overflow=*/true);
  return perm;
}

}  // namespace reldiv::core
