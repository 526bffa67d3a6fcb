#include "mc/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/generators.hpp"
#include "demand/raster.hpp"
#include "demand/region.hpp"
#include "mc/tables.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

namespace {

// ---------------------------------------------------------------------------
// Locale-free, non-throwing scalar parsing (std::from_chars only)
// ---------------------------------------------------------------------------

enum class num_status { ok, malformed, out_of_range };

num_status parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.front() == '+' || s.front() == '-') return num_status::malformed;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec == std::errc::result_out_of_range) return num_status::out_of_range;
  if (ec != std::errc() || ptr != s.data() + s.size()) return num_status::malformed;
  return num_status::ok;
}

num_status parse_f64(std::string_view s, double& out) {
  if (s.empty()) return num_status::malformed;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec == std::errc::result_out_of_range) return num_status::out_of_range;
  if (ec != std::errc() || ptr != s.data() + s.size()) return num_status::malformed;
  return num_status::ok;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool valid_name(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Raw sections
// ---------------------------------------------------------------------------

struct raw_entry {
  std::string key;
  std::string value;
  std::size_t line = 0;
  bool used = false;
};

struct raw_section {
  std::string name;  ///< "sweep", "universe", "axes", "refine", "demand", "experiment"
  std::string arg;   ///< universe name for [universe NAME]
  std::size_t line = 0;
  std::vector<raw_entry> entries;
};

class parse_ctx {
 public:
  explicit parse_ctx(std::string_view file) : file_(file) {}

  void error(std::size_t line, std::string field, std::string message) {
    errors_.push_back(
        {std::string(file_), line, std::move(field), std::move(message)});
  }

  [[nodiscard]] bool ok() const { return errors_.empty(); }
  [[nodiscard]] std::vector<spec_error> take_errors() { return std::move(errors_); }

 private:
  std::string_view file_;
  std::vector<spec_error> errors_;
};

bool known_section(std::string_view name) {
  return name == "sweep" || name == "universe" || name == "axes" || name == "refine" ||
         name == "demand" || name == "experiment";
}

/// Pass 1: lines -> sections.  Every malformed line is reported and skipped;
/// lexing always runs to the end of the text so one typo does not hide the
/// diagnostics after it.
std::vector<raw_section> lex_spec(std::string_view text, parse_ctx& ctx) {
  std::vector<raw_section> sections;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']') {
        ctx.error(line_no, "", "unterminated section header (missing ']')");
        continue;
      }
      const auto tokens = split_tokens(line.substr(1, line.size() - 2));
      if (tokens.empty() || tokens.size() > 2) {
        ctx.error(line_no, "", "section header must be [name] or [universe NAME]");
        continue;
      }
      raw_section sec;
      sec.name = std::string(tokens[0]);
      sec.line = line_no;
      if (!known_section(sec.name)) {
        ctx.error(line_no, sec.name, "unknown section");
        continue;
      }
      if (sec.name == "universe") {
        if (tokens.size() != 2 || !valid_name(tokens[1])) {
          ctx.error(line_no, "universe",
                    "universe sections need a name: [universe NAME] "
                    "(letters, digits, '_', '-', '.')");
          continue;
        }
        sec.arg = std::string(tokens[1]);
      } else if (tokens.size() != 1) {
        ctx.error(line_no, sec.name, "section takes no argument");
        continue;
      }
      sections.push_back(std::move(sec));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      ctx.error(line_no, "", "expected '[section]' or 'key = value'");
      continue;
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (!valid_name(key)) {
      ctx.error(line_no, std::string(key), "malformed key");
      continue;
    }
    if (sections.empty()) {
      ctx.error(line_no, std::string(key), "key before any [section]");
      continue;
    }
    raw_section& sec = sections.back();
    const bool duplicate =
        std::any_of(sec.entries.begin(), sec.entries.end(),
                    [&](const raw_entry& e) { return e.key == key; });
    if (duplicate) {
      ctx.error(line_no, std::string(key), "duplicate key in this section");
      continue;
    }
    sec.entries.push_back({std::string(key), std::string(value), line_no, false});
    if (pos > text.size()) break;
  }
  return sections;
}

// ---------------------------------------------------------------------------
// Typed values: one parser, by C++ type, for the declared fields and the
// universe generators' parameters alike
// ---------------------------------------------------------------------------

/// Parses one spec value into `out`: the empty string on success, else the
/// diagnostic's message.  An enum is spelled by one of `names` (its values
/// in wire order); a string given `names` must be one of them; a list is
/// space-separated and needs one value.
template <class T>
std::string parse_value(std::string_view text, T& out, std::string_view names = {}) {
  const std::string got = ", got '" + std::string(text) + "'";
  if constexpr (std::is_same_v<T, sampling_engine>) {
    try {
      out = parse_sampling_engine(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return {};
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::string>) {
    const std::vector<std::string_view> tokens = split_tokens(names);
    const auto it = std::find(tokens.begin(), tokens.end(), text);
    if constexpr (std::is_enum_v<T>) {
      out = static_cast<T>(it - tokens.begin());
    } else {
      out = std::string(text);
    }
    if (it != tokens.end() || (std::is_same_v<T, std::string> && tokens.empty())) return {};
    std::string expected = "expected";
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      expected += (i > 0 ? " or " : " ") + std::string(tokens[i]);
    }
    return expected + got;
  } else if constexpr (std::is_same_v<T, bool>) {
    out = text == "true" || text == "1";
    return out || text == "false" || text == "0" ? std::string() : "expected true or false" + got;
  } else if constexpr (std::is_same_v<T, core::architecture>) {
    // MofN: M votes to defeat of N versions, N <= 64.
    const std::size_t of = text.find("of");
    std::uint64_t votes = 0;
    std::uint64_t versions = 0;
    if (of == std::string_view::npos || parse_u64(text.substr(0, of), votes) != num_status::ok ||
        parse_u64(text.substr(of + 2), versions) != num_status::ok || votes == 0 ||
        votes > versions || versions > 64) {
      return "expected MofN tokens (votes-to-defeat of versions, e.g. 2of2 2of3)" + got;
    }
    out = core::architecture{static_cast<unsigned>(versions), static_cast<unsigned>(votes)};
    return {};
  } else if constexpr (std::is_arithmetic_v<T>) {
    std::string what = "number";
    num_status st = num_status::ok;
    if constexpr (std::is_floating_point_v<T>) {
      st = parse_f64(text, out);
    } else {
      std::uint64_t v = 0;
      st = parse_u64(text, v);
      what = "unsigned integer";
      // A count the library holds as `unsigned` (shards, window): values
      // past 2^32 - 1 are refused here rather than truncated.
      if constexpr (sizeof(T) < sizeof(v)) {
        what = "32-bit unsigned integer";
        if (st == num_status::ok && v > std::numeric_limits<T>::max()) {
          st = num_status::out_of_range;
        }
      }
      out = static_cast<T>(v);
    }
    if (st == num_status::out_of_range) {
      return "'" + std::string(text) + "' overflows the " + what + " range";
    }
    return st == num_status::ok ? std::string() : "expected " + what + got;
  } else {
    out.clear();
    for (const std::string_view tok : split_tokens(text)) {
      if (std::string err = parse_value(tok, out.emplace_back(), names); !err.empty()) return err;
    }
    return out.empty() ? "list needs at least one value" : std::string();
  }
}

class section_view {
 public:
  section_view(raw_section& sec, parse_ctx& ctx) : sec_(&sec), ctx_(&ctx) {}

  [[nodiscard]] std::size_t line() const { return sec_->line; }

  [[nodiscard]] raw_entry* find(std::string_view key) {
    for (raw_entry& e : sec_->entries) {
      if (e.key == key) {
        e.used = true;
        return &e;
      }
    }
    return nullptr;
  }

  [[nodiscard]] bool has(std::string_view key) const {
    return std::any_of(sec_->entries.begin(), sec_->entries.end(),
                       [&](const raw_entry& e) { return e.key == key; });
  }

  /// The key's value; nullopt when it is absent or bad (an error at its own
  /// line).  `f` gives the accepted spellings and the range check.
  template <class T>
  std::optional<T> get(std::string_view key, const field& f = {}) {
    raw_entry* e = find(key);
    if (e == nullptr) return std::nullopt;
    T v{};
    std::string err = parse_value(e->value, v, f.names);
    if constexpr (std::is_arithmetic_v<T>) {
      if (err.empty() && f.valid != nullptr && !f.valid(static_cast<double>(v))) {
        err = "must be " + std::string(f.must) + ", got '" + e->value + "'";
      }
    }
    if (err.empty()) return v;
    ctx_->error(e->line, e->key, std::move(err));
    return std::nullopt;
  }

  template <class T>
  T value_or(std::string_view key, T def, const field& f = {}) {
    return get<T>(key, f).value_or(std::move(def));
  }

  template <class T>
  std::optional<T> required(std::string_view key, const field& f = {}) {
    if (!has(key)) ctx_->error(sec_->line, std::string(key), "required key missing");
    return get<T>(key, f);
  }

  /// Every key the resolver did not consume is unknown for this section.
  void finish() {
    for (const raw_entry& e : sec_->entries) {
      if (!e.used) ctx_->error(e.line, e.key, "unknown key for this section");
    }
  }

 private:
  raw_section* sec_;
  parse_ctx* ctx_;
};

// ---------------------------------------------------------------------------
// Universe generators
// ---------------------------------------------------------------------------

double next_unit(std::uint64_t& state) {
  return static_cast<double>(stats::splitmix64_next(state) >> 11) * 0x1.0p-53;
}

std::optional<core::fault_universe> resolve_universe(section_view& sec, parse_ctx& ctx) {
  const std::string generator = sec.value_or<std::string>("generator", "");
  if (generator.empty()) {
    ctx.error(sec.line(), "generator", "required key missing");
    return std::nullopt;
  }
  try {
    if (generator == "safety_grade") {
      const auto n = sec.required<std::uint64_t>("faults");
      const double p_lo = sec.value_or("p_lo", 0.0);
      const double p_hi = sec.value_or("p_hi", 0.0);
      const double q_total = sec.value_or("q_total", 1.0);
      const std::uint64_t gen_seed = sec.value_or<std::uint64_t>("gen_seed", 1);
      if (!n) return std::nullopt;
      return core::make_safety_grade_universe(*n, p_lo, p_hi, q_total, gen_seed);
    }
    if (generator == "many_small") {
      const auto n = sec.required<std::uint64_t>("faults");
      const double p_lo = sec.value_or("p_lo", 0.0);
      const double p_hi = sec.value_or("p_hi", 0.0);
      const double q_total = sec.value_or("q_total", 1.0);
      const double jitter = sec.value_or("jitter", 0.0);
      const std::uint64_t gen_seed = sec.value_or<std::uint64_t>("gen_seed", 1);
      if (!n) return std::nullopt;
      return core::make_many_small_faults_universe(*n, p_lo, p_hi, q_total, jitter,
                                                   gen_seed);
    }
    if (generator == "random") {
      const auto n = sec.required<std::uint64_t>("faults");
      const double p_max = sec.value_or("p_max", 0.0);
      const double q_total = sec.value_or("q_total", 1.0);
      const std::uint64_t gen_seed = sec.value_or<std::uint64_t>("gen_seed", 1);
      if (!n) return std::nullopt;
      return core::make_random_universe(*n, p_max, q_total, gen_seed);
    }
    if (generator == "dominant") {
      const auto n = sec.required<std::uint64_t>("faults");
      const double p_dominant = sec.value_or("p_dominant", 0.0);
      const double p_background = sec.value_or("p_background", 0.0);
      const double q_total = sec.value_or("q_total", 1.0);
      const std::uint64_t gen_seed = sec.value_or<std::uint64_t>("gen_seed", 1);
      if (!n) return std::nullopt;
      return core::make_dominant_fault_universe(*n, p_dominant, p_background, q_total,
                                                gen_seed);
    }
    if (generator == "homogeneous") {
      const auto n = sec.required<std::uint64_t>("faults");
      const auto p = sec.required<double>("p");
      const auto q = sec.required<double>("q");
      if (!n || !p || !q) return std::nullopt;
      return core::make_homogeneous_universe(*n, *p, *q);
    }
    if (generator == "explicit") {
      const std::vector<double> p = sec.value_or<std::vector<double>>("p", {});
      const std::vector<double> q = sec.value_or<std::vector<double>>("q", {});
      const bool allow_q_overflow = sec.value_or("allow_q_overflow", false);
      if (p.empty() || q.empty()) {
        ctx.error(sec.line(), "p", "explicit universes need p and q lists");
        return std::nullopt;
      }
      if (p.size() != q.size()) {
        ctx.error(sec.line(), "q", "p and q lists must have equal length");
        return std::nullopt;
      }
      return core::fault_universe::from_arrays(p, q, allow_q_overflow);
    }
    if (generator == "raster") {
      raster_universe_params rp;
      const auto n = sec.required<std::uint64_t>("faults");
      rp.p_lo = sec.value_or("p_lo", 0.0);
      rp.p_hi = sec.value_or("p_hi", 0.0);
      rp.q_total = sec.value_or("q_total", 1.0);
      rp.seed = sec.value_or<std::uint64_t>("gen_seed", 1);
      rp.cols = sec.value_or<std::uint64_t>("cols", rp.cols);
      rp.rows = sec.value_or<std::uint64_t>("rows", rp.rows);
      rp.profile = sec.value_or<std::string>("profile", rp.profile, {.names = "uniform gaussian"});
      rp.sigma = sec.value_or("sigma", rp.sigma);
      if (!n) return std::nullopt;
      rp.faults = *n;
      return make_raster_universe(rp);
    }
  } catch (const std::exception& e) {
    // Library-level rejection (p/q range, Σq > 1, empty rasters, ...):
    // positioned at the section header — the values were lexically fine.
    ctx.error(sec.line(), "generator", std::string("universe infeasible: ") + e.what());
    return std::nullopt;
  }
  ctx.error(sec.line(), "generator", "unknown generator '" + generator + "'");
  return std::nullopt;
}

universe_decl decl_from_section(const raw_section& sec) {
  universe_decl d;
  d.name = sec.arg;
  d.line = sec.line;
  for (const raw_entry& e : sec.entries) {
    if (e.key == "generator") {
      d.generator = e.value;
    } else {
      d.params.emplace_back(e.key, e.value);
    }
  }
  return d;
}

/// One [universe NAME] section, and its universe unless the section has
/// errors of its own.
struct resolved_universe {
  std::string name;
  std::optional<core::fault_universe> universe;
};

/// Reads every declared field from its spec section into its member.  An
/// absent key leaves the member's default (its initializer in the struct);
/// a bad value is a diagnostic at the key's own line.
struct field_reader {
  parse_ctx& ctx;
  std::vector<raw_section>& sections;
  const std::vector<resolved_universe>& universes;
  sweep_spec& spec;

  template <class T>
  void operator()(const field& f, T& value) {
    if (std::optional<T> v = get<T>(f)) value = std::move(*v);
  }

  /// An experiment's universe: the section its key names.  A section that
  /// failed to resolve has reported its own errors.
  void operator()(const field& f, core::fault_universe& value) {
    const std::optional<std::string> name = get<std::string>(f);
    if (!name) return;
    spec.experiment_universe = *name;
    for (const resolved_universe& u : universes) {
      if (u.name != *name) continue;
      if (u.universe) value = *u.universe;
      return;
    }
    const raw_entry* e = section_view(*section(f.section), ctx).find(f.key);
    ctx.error(e->line, e->key, "no [universe " + *name + "] section in this spec");
  }

  /// A scenario's universe axis: every resolved section.
  void operator()(const field&, std::vector<named_universe>& value) {
    if (universes.empty()) {
      ctx.error(section("sweep")->line, "universe",
                "scenario specs need at least one [universe NAME] section");
    }
    for (const resolved_universe& u : universes) {
      if (u.universe) value.emplace_back(u.name, *u.universe);
    }
  }

 private:
  /// The first section of that name (later ones are duplicate errors).
  [[nodiscard]] raw_section* section(std::string_view name) const {
    for (raw_section& sec : sections) {
      if (sec.name == name) return &sec;
    }
    return nullptr;
  }

  template <class T>
  std::optional<T> get(const field& f) {
    raw_section* sec = section(f.section);
    if (sec == nullptr) return std::nullopt;
    section_view view(*sec, ctx);
    return f.required ? view.required<T>(f.key, f) : view.get<T>(f.key, f);
  }
};

}  // namespace

std::string spec_error::render() const {
  std::string out = file;
  out += ':';
  append_u64(out, line);
  out += ": ";
  if (!field.empty()) {
    out += field;
    out += ": ";
  }
  out += message;
  return out;
}

std::vector<double> make_loguniform_roster(std::uint64_t targets, double pfd_lo,
                                           double pfd_ratio, std::uint64_t seed) {
  // Bit-identical to the historical CLI roster at (1e-6, 1000): same hash,
  // same 53-bit unit draw, same pow.
  std::vector<double> pfd;
  pfd.reserve(targets);
  for (std::uint64_t t = 0; t < targets; ++t) {
    std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (t + 0x51ed2701ULL));
    const double u = static_cast<double>(stats::splitmix64_next(state) >> 11) * 0x1.0p-53;
    pfd.push_back(pfd_lo * std::pow(pfd_ratio, u));
  }
  return pfd;
}

core::fault_universe make_raster_universe(const raster_universe_params& prm) {
  if (prm.faults == 0) {
    throw std::invalid_argument("raster universe: need faults >= 1");
  }
  if (!(prm.p_lo >= 0.0) || !(prm.p_hi >= prm.p_lo) || prm.p_hi > 1.0) {
    throw std::invalid_argument("raster universe: need 0 <= p_lo <= p_hi <= 1");
  }
  if (prm.profile == "gaussian" && !(prm.sigma > 0.0)) {
    throw std::invalid_argument("raster universe: gaussian profile needs sigma > 0");
  }
  const demand::box domain = demand::box::unit(2);
  demand::density_fn density;
  if (prm.profile == "gaussian") {
    const double inv = 1.0 / (2.0 * prm.sigma * prm.sigma);
    density = [inv](const demand::point& x) {
      const double dx = x[0] - 0.5;
      const double dy = x[1] - 0.5;
      return std::exp(-(dx * dx + dy * dy) * inv);
    };
  }
  // The seeded shape stream, one fault at a time.  Draw order per fault
  // (pinned by mc_spec_test's equivalence test against direct library
  // calls): kind = splitmix64 % 4, then the shape parameters below in
  // listed order, then the uniform p draw.
  std::uint64_t state = prm.seed;
  std::vector<double> p;
  std::vector<double> raw_q;
  p.reserve(prm.faults);
  raw_q.reserve(prm.faults);
  for (std::size_t i = 0; i < prm.faults; ++i) {
    const std::uint64_t kind = stats::splitmix64_next(state) % 4;
    demand::region_ptr shape;
    if (kind == 0) {
      // Box: centre in [0.1, 0.9]^2, half-extent in [0.02, 0.2] per axis.
      const double cx = 0.1 + 0.8 * next_unit(state);
      const double cy = 0.1 + 0.8 * next_unit(state);
      const double hx = 0.02 + 0.18 * next_unit(state);
      const double hy = 0.02 + 0.18 * next_unit(state);
      shape = demand::make_box_region(
          demand::box({std::max(0.0, cx - hx), std::max(0.0, cy - hy)},
                      {std::min(1.0, cx + hx), std::min(1.0, cy + hy)}));
    } else if (kind == 1) {
      // Ellipsoid: centre in [0.1, 0.9]^2, radii in [0.02, 0.2].
      const double cx = 0.1 + 0.8 * next_unit(state);
      const double cy = 0.1 + 0.8 * next_unit(state);
      const double rx = 0.02 + 0.18 * next_unit(state);
      const double ry = 0.02 + 0.18 * next_unit(state);
      shape = demand::make_ellipsoid_region({cx, cy}, {rx, ry});
    } else if (kind == 2) {
      // Point array: 2 + (draw % 4) seeds in the unit square, one radius.
      const std::size_t seeds = 2 + (stats::splitmix64_next(state) % 4);
      std::vector<demand::point> pts;
      pts.reserve(seeds);
      for (std::size_t s = 0; s < seeds; ++s) {
        const double x = next_unit(state);
        const double y = next_unit(state);
        pts.push_back({x, y});
      }
      const double radius = 0.02 + 0.08 * next_unit(state);
      shape = demand::make_point_array_region(std::move(pts), radius);
    } else {
      // Stripes: axis from a parity draw, period in [0.1, 0.5], width a
      // [0.2, 0.8] fraction of the period, phase within the period.
      const std::size_t axis = stats::splitmix64_next(state) % 2;
      const double period = 0.1 + 0.4 * next_unit(state);
      const double width = period * (0.2 + 0.6 * next_unit(state));
      const double phase = period * next_unit(state);
      shape = demand::make_stripe_region(2, axis, period, width, phase);
    }
    const demand::raster_region raster =
        demand::raster_region::rasterize(*shape, domain, prm.cols, prm.rows);
    raw_q.push_back(density ? raster.profile_measure(density) : raster.uniform_measure());
    p.push_back(prm.p_lo + (prm.p_hi - prm.p_lo) * next_unit(state));
  }
  double q_sum = 0.0;
  for (const double q : raw_q) q_sum += q;
  if (!(q_sum > 0.0)) {
    throw std::invalid_argument(
        "raster universe: every region rasterized to measure 0");
  }
  std::vector<double> q;
  q.reserve(prm.faults);
  for (const double raw : raw_q) q.push_back(raw * prm.q_total / q_sum);
  // Region q are profile measures of OVERLAPPING regions: their sum is the
  // declared q_total, which may legitimately exceed 1.
  return core::fault_universe::from_arrays(p, q, /*allow_q_overflow=*/true);
}

spec_parse_result parse_sweep_spec(std::string_view text, std::string_view filename,
                                   const spec_overrides& overrides) {
  parse_ctx ctx(filename);
  std::vector<raw_section> sections = lex_spec(text, ctx);

  // Locate the singleton sections; duplicates are errors.
  raw_section* sweep_sec = nullptr;
  raw_section* axes_sec = nullptr;
  raw_section* refine_sec = nullptr;
  raw_section* demand_sec = nullptr;
  raw_section* experiment_sec = nullptr;
  std::vector<raw_section*> universe_secs;
  for (raw_section& sec : sections) {
    raw_section** slot = nullptr;
    if (sec.name == "sweep") slot = &sweep_sec;
    if (sec.name == "axes") slot = &axes_sec;
    if (sec.name == "refine") slot = &refine_sec;
    if (sec.name == "demand") slot = &demand_sec;
    if (sec.name == "experiment") slot = &experiment_sec;
    if (slot != nullptr) {
      if (*slot != nullptr) {
        ctx.error(sec.line, sec.name, "duplicate section");
      } else {
        *slot = &sec;
      }
      continue;
    }
    const bool dup_name = std::any_of(
        universe_secs.begin(), universe_secs.end(),
        [&](const raw_section* u) { return u->arg == sec.arg; });
    if (dup_name) {
      ctx.error(sec.line, sec.arg, "duplicate universe name");
    } else {
      universe_secs.push_back(&sec);
    }
  }
  if (sweep_sec == nullptr) {
    ctx.error(1, "sweep", "missing required [sweep] section");
    return {std::nullopt, ctx.take_errors()};
  }

  section_view sweep(*sweep_sec, ctx);
  const std::string kind_str = sweep.value_or<std::string>("kind", "");
  job_kind kind = job_kind::scenario_grid;
  bool kind_named = false;
  if (kind_str == "scenario") {
    kind_named = true;
  } else if (kind_str == "demand") {
    kind = job_kind::demand_campaign;
    kind_named = true;
  } else if (kind_str == "experiment") {
    kind = job_kind::experiment_shards;
    kind_named = true;
  } else if (kind_str.empty()) {
    ctx.error(sweep.line(), "kind", "required key missing");
  } else {
    ctx.error(sweep.line(), "kind",
              "expected scenario, demand, or experiment, got '" + kind_str + "'");
  }

  sweep_spec spec;
  spec.kind = kind;

  // Per-kind section admission: a [demand] section in a scenario spec is an
  // operator error, not dead weight.
  auto reject = [&](raw_section* sec, const char* why) {
    if (sec != nullptr) ctx.error(sec->line, sec->name, why);
  };
  // Likewise a CLI override the kind does not take: `--spec f --engine e`
  // must fail exactly as `engine = e` in the file would.
  auto reject_override = [&](bool given, const char* flag, const char* takers) {
    if (given && kind_named) {
      ctx.error(sweep.line(), flag,
                "a " + kind_str + " spec takes no " + flag + " (" + takers + " only)");
    }
  };
  auto finish = [&](raw_section* sec) {
    if (sec != nullptr) section_view(*sec, ctx).finish();
  };

  // Scenario and experiment specs resolve every [universe NAME] section.
  std::vector<resolved_universe> universes;
  for (raw_section* usec : universe_secs) {
    if (kind == job_kind::demand_campaign) {
      reject(usec, "not allowed in a demand spec");
      continue;
    }
    section_view uview(*usec, ctx);
    universes.push_back({usec->arg, resolve_universe(uview, ctx)});
    uview.finish();
    spec.universes.push_back(decl_from_section(*usec));
  }
  field_reader read{ctx, sections, universes, spec};

  if (kind == job_kind::scenario_grid) {
    reject(demand_sec, "not allowed in a scenario spec");
    reject(experiment_sec, "not allowed in a scenario spec");
    reject_override(overrides.engine.has_value(), "--engine", "experiment specs");
    sweep_manifest m;
    fields(read, m);
    if (overrides.seed) m.seed = *overrides.seed;
    if (overrides.shards) m.shards = *overrides.shards;
    if (overrides.budget) {
      if (axes_sec != nullptr) {
        if (const raw_entry* cb = section_view(*axes_sec, ctx).find("cell_budget")) {
          ctx.error(cb->line, cb->key,
                    "--budget cannot override a refined per-cell budget list");
        }
      }
      m.axes.budgets = {*overrides.budget};
    }
    spec.has_refine = refine_sec != nullptr;
    if (spec.has_refine) spec_fields(read, spec);
    finish(sweep_sec);
    finish(axes_sec);
    finish(refine_sec);
    if (ctx.ok()) {
      try {
        m.cell_count = enumerate_cells(m.axes).size();
      } catch (const std::invalid_argument& e) {
        ctx.error(axes_sec != nullptr ? axes_sec->line : sweep_sec->line, "axes",
                  std::string("infeasible axes: ") + e.what());
      }
      spec.manifest = std::move(m);
    }
  } else if (kind == job_kind::demand_campaign) {
    reject(axes_sec, "not allowed in a demand spec");
    reject(refine_sec, "refinement applies to scenario grids only");
    reject(experiment_sec, "not allowed in a demand spec");
    reject_override(overrides.shards.has_value(), "--shards",
                    "scenario and experiment specs");
    reject_override(overrides.engine.has_value(), "--engine", "experiment specs");
    demand_manifest m;
    fields(read, m);
    if (overrides.seed) m.seed = *overrides.seed;
    finish(sweep_sec);
    if (demand_sec == nullptr) {
      ctx.error(sweep_sec->line, "demand", "demand specs need a [demand] section");
    } else {
      if (overrides.budget) m.demands = *overrides.budget;
      const section_view dview(*demand_sec, ctx);
      const bool explicit_roster = dview.has("target_pfd");
      const bool compact_roster = dview.has("targets");
      if (explicit_roster && compact_roster) {
        ctx.error(dview.line(), "targets",
                  "give either targets/pfd_lo/pfd_ratio or target_pfd, not both");
      } else if (compact_roster) {
        spec_fields(read, spec);
        m.target_pfd = make_loguniform_roster(spec.roster_targets, spec.roster_pfd_lo,
                                              spec.roster_pfd_ratio, m.seed);
      } else if (!explicit_roster) {
        ctx.error(dview.line(), "targets",
                  "demand specs need a roster: targets/pfd_lo/pfd_ratio or target_pfd");
      }
      finish(demand_sec);
      if (ctx.ok()) {
        try {
          m.validate();
        } catch (const std::invalid_argument& e) {
          ctx.error(dview.line(), "demand", std::string("infeasible: ") + e.what());
        }
        spec.manifest = std::move(m);
      }
    }
  } else {
    reject(axes_sec, "not allowed in an experiment spec");
    reject(refine_sec, "refinement applies to scenario grids only");
    reject(demand_sec, "not allowed in an experiment spec");
    experiment_manifest m;
    fields(read, m);
    if (overrides.seed) m.seed = *overrides.seed;
    if (overrides.shards) m.shards = *overrides.shards;
    finish(sweep_sec);
    if (experiment_sec == nullptr) {
      ctx.error(sweep_sec->line, "experiment", "experiment specs need an [experiment] section");
    } else {
      if (overrides.budget) m.samples = *overrides.budget;
      if (overrides.engine) m.engine = *overrides.engine;
      finish(experiment_sec);
      if (ctx.ok()) {
        // Resolves the 0 defaults of shards (budget-scaled) and window (one
        // window over every shard).
        try {
          spec.manifest = make_experiment_manifest(m.universe, m.config(), m.window);
        } catch (const std::invalid_argument& e) {
          ctx.error(experiment_sec->line, "experiment", std::string("infeasible: ") + e.what());
        }
      }
    }
  }

  if (!ctx.ok()) return {std::nullopt, ctx.take_errors()};
  return {std::move(spec), {}};
}

// ---------------------------------------------------------------------------
// Writers: write_sweep_spec, spec_from_manifest and describe_manifest_json
// walk the declarations
// ---------------------------------------------------------------------------

namespace {

/// Writes one spec section's declared fields as `key = value` lines.
struct field_writer {
  std::string& out;
  std::string_view section;
  const sweep_spec* spec = nullptr;

  template <class T>
  void operator()(const field& f, const T& value) const {
    if constexpr (requires { value.empty(); }) {
      if (f.omit_empty && value.empty()) return;
    }
    if (f.section != section) return;
    // A compact demand roster stands in for the list it generates.
    if (f.key == "target_pfd" && spec->roster_targets > 0) {
      spec_fields(*this, *spec);
      return;
    }
    out += std::string(f.key) + " = ";
    if constexpr (std::is_same_v<T, core::fault_universe>) {
      out += spec->experiment_universe;
    } else {
      render_value(out, value, f.names, /*json=*/false);
    }
    out += '\n';
  }
};

universe_decl explicit_decl(std::string name, const core::fault_universe& u) {
  universe_decl d;
  d.name = std::move(name);
  d.generator = "explicit";
  std::string p;
  std::string q;
  for (const core::fault_atom& atom : u.atoms()) {
    if (!p.empty()) p += ' ';
    if (!q.empty()) q += ' ';
    append_f64(p, atom.p);
    append_f64(q, atom.q);
  }
  d.params.emplace_back("p", std::move(p));
  d.params.emplace_back("q", std::move(q));
  d.params.emplace_back("allow_q_overflow", "true");
  return d;
}

template <class M>
using kind_of = manifest_kind<std::remove_cvref_t<M>>;

}  // namespace

std::string write_sweep_spec(const sweep_spec& spec) {
  return std::visit(
      [&spec](const auto& m) {
        std::string out = "[sweep]\nkind = " + std::string(kind_of<decltype(m)>::spec_name) + '\n';
        field_writer w{out, "sweep", &spec};
        fields(w, m);
        for (const universe_decl& decl : spec.universes) {
          out += "\n[universe " + decl.name + "]\ngenerator = " + decl.generator + '\n';
          for (const auto& [key, value] : decl.params) out += key + " = " + value + '\n';
        }
        w.section = kind_of<decltype(m)>::section;
        out += "\n[" + std::string(w.section) + "]\n";
        fields(w, m);
        if (spec.has_refine) {
          w.section = "refine";
          out += "\n[refine]\n";
          spec_fields(w, spec);
        }
        return out;
      },
      spec.manifest);
}

sweep_spec spec_from_manifest(
    const std::variant<sweep_manifest, demand_manifest, experiment_manifest>& manifest) {
  sweep_spec spec;
  spec.manifest = manifest;
  std::visit(
      [&spec](const auto& m) {
        spec.kind = kind_of<decltype(m)>::kind;
        // Universes become explicit atom lists.
        auto declare = [&spec]<class T>(const field&, const T& value) {
          if constexpr (std::is_same_v<T, core::fault_universe>) {
            spec.experiment_universe = "u";
            spec.universes.push_back(explicit_decl("u", value));
          } else if constexpr (std::is_same_v<T, std::vector<named_universe>>) {
            for (const auto& [name, universe] : value) {
              spec.universes.push_back(explicit_decl(name, universe));
            }
          }
        };
        fields(declare, m);
      },
      manifest);
  return spec;
}

std::string describe_manifest_json(
    const std::variant<sweep_manifest, demand_manifest, experiment_manifest>& manifest) {
  return std::visit(
      [](const auto& m) {
        std::string out = "{";
        row_writer w{out, row_style::pretty_json};
        w(field{.name = "kind"}, std::string(job_kind_name(kind_of<decltype(m)>::kind)));
        w(field{.name = "fingerprint"}, kind_of<decltype(m)>::fingerprint(m));
        fields(w, m);
        out += "\n}\n";
        return out;
      },
      manifest);
}

// ---------------------------------------------------------------------------
// Adaptive refinement
// ---------------------------------------------------------------------------

namespace {

/// Split one CSV row on commas.  Universe names are spec-name tokens (no
/// commas), so plain splitting is exact.
std::vector<std::string_view> split_csv(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (true) {
    const std::size_t comma = line.find(',', i);
    if (comma == std::string_view::npos) {
      out.push_back(line.substr(i));
      return out;
    }
    out.push_back(line.substr(i, comma - i));
    i = comma + 1;
  }
}

}  // namespace

refined_budgets compute_refined_budgets(const sweep_manifest& manifest,
                                        const refine_rule& rule,
                                        std::string_view merged_csv,
                                        std::string_view table_name) {
  refined_budgets out;
  parse_ctx ctx(table_name);
  std::vector<scenario_cell> cells;
  try {
    cells = enumerate_cells(manifest.axes);
  } catch (const std::invalid_argument& e) {
    ctx.error(0, "axes", std::string("spec axes infeasible: ") + e.what());
    out.errors = ctx.take_errors();
    return out;
  }
  if (manifest.axes.budgets.size() != 1) {
    ctx.error(0, "budget",
              "refinement needs a single-valued budget axis (a multi-valued axis "
              "would change the grid shape and every cell seed)");
    out.errors = ctx.take_errors();
    return out;
  }

  // Parse the merged table: exact header, one row per cell, in cell order.
  std::vector<std::string_view> lines;
  {
    std::size_t pos = 0;
    while (pos < merged_csv.size()) {
      const std::size_t eol = std::min(merged_csv.find('\n', pos), merged_csv.size());
      const std::string_view line = merged_csv.substr(pos, eol - pos);
      if (!line.empty()) lines.push_back(line);
      pos = eol + 1;
    }
  }
  if (lines.empty()) {
    ctx.error(1, "", "empty results table");
    out.errors = ctx.take_errors();
    return out;
  }
  const std::vector<std::string_view> header = split_csv(lines[0]);
  auto column = [&](std::string_view name) -> std::size_t {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    ctx.error(1, std::string(name), "column missing from the results table");
    return 0;
  };
  const std::size_t col_samples = column("samples");
  const std::size_t col_mean2 = column("mean_theta2");
  const std::size_t col_sd2 = column("sd_theta2");
  const std::size_t col_metric = column(rule.metric);
  if (!ctx.ok()) {
    out.errors = ctx.take_errors();
    return out;
  }
  if (lines.size() - 1 != cells.size()) {
    std::string msg = "expected ";
    append_u64(msg, cells.size());
    msg += " result rows (one per cell), got ";
    append_u64(msg, lines.size() - 1);
    ctx.error(1, "", std::move(msg));
    out.errors = ctx.take_errors();
    return out;
  }

  struct row_values {
    std::uint64_t samples = 0;
    double mean2 = 0.0;
    double sd2 = 0.0;
    double metric = 0.0;
  };
  std::vector<row_values> rows;
  rows.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t line_no = i + 2;
    const std::vector<std::string_view> fields = split_csv(lines[i + 1]);
    if (fields.size() != header.size()) {
      ctx.error(line_no, "", "row width disagrees with the header");
      break;
    }
    row_values v;
    if (parse_u64(fields[col_samples], v.samples) != num_status::ok ||
        parse_f64(fields[col_mean2], v.mean2) != num_status::ok ||
        parse_f64(fields[col_sd2], v.sd2) != num_status::ok ||
        parse_f64(fields[col_metric], v.metric) != num_status::ok) {
      ctx.error(line_no, "", "malformed numeric field");
      break;
    }
    if (v.samples != cells[i].samples) {
      std::string msg = "row samples ";
      append_u64(msg, v.samples);
      msg += " disagree with the spec's cell budget ";
      append_u64(msg, cells[i].samples);
      msg += " (is this table from a different round?)";
      ctx.error(line_no, "samples", std::move(msg));
      break;
    }
    rows.push_back(v);
  }
  if (!ctx.ok()) {
    out.errors = ctx.take_errors();
    return out;
  }

  // Axis strides for neighbour lookup: the enumeration is row-major over
  // (universe, rho, omega, aliasing, adjudication, budget).
  const std::size_t sizes[6] = {
      manifest.axes.universes.size(),    manifest.axes.correlations.size(),
      manifest.axes.overlaps.size(),     manifest.axes.aliasing.size(),
      manifest.axes.adjudications.size(), manifest.axes.budgets.size()};
  std::size_t strides[6];
  {
    std::size_t stride = 1;
    for (std::size_t a = 6; a-- > 0;) {
      strides[a] = stride;
      stride *= sizes[a];
    }
  }

  out.budgets.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const row_values& v = rows[i];
    const double n = static_cast<double>(v.samples);
    const double rel = (rule.z * v.sd2 / std::sqrt(n)) /
                       std::max(std::abs(v.mean2), rule.mean_floor);
    // Steepest relative jump of the metric to any axis neighbour.
    double grad = 0.0;
    for (std::size_t a = 0; a < 6; ++a) {
      if (sizes[a] < 2) continue;
      const std::size_t coord = (i / strides[a]) % sizes[a];
      for (const std::ptrdiff_t step : {std::ptrdiff_t{-1}, std::ptrdiff_t{1}}) {
        if (step < 0 && coord == 0) continue;
        if (step > 0 && coord + 1 >= sizes[a]) continue;
        const std::size_t j = step < 0 ? i - strides[a] : i + strides[a];
        const double denom = std::max(std::max(std::abs(v.metric),
                                               std::abs(rows[j].metric)),
                                      rule.mean_floor);
        grad = std::max(grad, std::abs(v.metric - rows[j].metric) / denom);
      }
    }
    const double ratio = rel / rule.target_rel_halfwidth;
    double raw = n * ratio * ratio * (1.0 + rule.gradient_weight * grad);
    raw = std::min(raw, n * rule.max_growth);
    raw = std::max(raw, static_cast<double>(rule.min_budget));
    if (rule.max_budget > 0) {
      raw = std::min(raw, static_cast<double>(rule.max_budget));
    }
    auto budget = static_cast<std::uint64_t>(std::ceil(raw));
    if (budget == 0) budget = 1;
    if (rule.round_to > 1) {
      budget = ((budget + rule.round_to - 1) / rule.round_to) * rule.round_to;
    }
    out.budgets.push_back(budget);
  }
  return out;
}

}  // namespace reldiv::mc
