#include "mc/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "core/generators.hpp"
#include "demand/raster.hpp"
#include "demand/region.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

namespace {

// ---------------------------------------------------------------------------
// Deterministic text emission: every number flows through these two typed
// helpers — %.17g round-trips doubles bit-exactly through std::from_chars,
// %llu is locale-free.  (reldiv_lint's spec-fmt rule bans the
// to_string/strtod families in this TU.)
// ---------------------------------------------------------------------------

void append_f64(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

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

std::vector<std::string_view> split_tokens(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
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
// Typed key access
// ---------------------------------------------------------------------------

class section_view {
 public:
  section_view(raw_section& sec, parse_ctx& ctx) : sec_(&sec), ctx_(&ctx) {}

  [[nodiscard]] std::size_t line() const { return sec_->line; }
  [[nodiscard]] const std::string& arg() const { return sec_->arg; }

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

  std::uint64_t u64_or(std::string_view key, std::uint64_t def) {
    const raw_entry* e = find(key);
    if (e == nullptr) return def;
    std::uint64_t v = 0;
    report_num(parse_u64(e->value, v), *e, "unsigned integer");
    return v;
  }

  /// A count the library holds as `unsigned` (shards, window): values past
  /// 2^32 - 1 are refused here rather than truncated.
  unsigned u32_or(std::string_view key, unsigned def) {
    const raw_entry* e = find(key);
    if (e == nullptr) return def;
    std::uint64_t v = 0;
    num_status st = parse_u64(e->value, v);
    if (st == num_status::ok && v > std::numeric_limits<unsigned>::max()) {
      st = num_status::out_of_range;
    }
    if (!report_num(st, *e, "32-bit unsigned integer")) return def;
    return static_cast<unsigned>(v);
  }

  std::optional<std::uint64_t> u64_required(std::string_view key) {
    const raw_entry* e = find(key);
    if (e == nullptr) {
      ctx_->error(sec_->line, std::string(key), "required key missing");
      return std::nullopt;
    }
    std::uint64_t v = 0;
    if (!report_num(parse_u64(e->value, v), *e, "unsigned integer")) return std::nullopt;
    return v;
  }

  double f64_or(std::string_view key, double def) {
    const raw_entry* e = find(key);
    if (e == nullptr) return def;
    double v = 0.0;
    report_num(parse_f64(e->value, v), *e, "number");
    return v;
  }

  /// A finite number no smaller than `lo`: any other value is an error at
  /// its own line ("must be " + `bound`), and `def` stands in for it so that
  /// no later check reports it again.
  double f64_at_least_or(std::string_view key, double def, double lo, std::string_view bound) {
    const raw_entry* e = find(key);
    if (e == nullptr) return def;
    double v = 0.0;
    if (!report_num(parse_f64(e->value, v), *e, "number")) return def;
    if (!(std::isfinite(v) && v >= lo)) {
      ctx_->error(e->line, e->key, "must be " + std::string(bound) + ", got '" + e->value + "'");
      return def;
    }
    return v;
  }

  std::optional<double> f64_required(std::string_view key) {
    const raw_entry* e = find(key);
    if (e == nullptr) {
      ctx_->error(sec_->line, std::string(key), "required key missing");
      return std::nullopt;
    }
    double v = 0.0;
    if (!report_num(parse_f64(e->value, v), *e, "number")) return std::nullopt;
    return v;
  }

  std::string str_or(std::string_view key, std::string def) {
    const raw_entry* e = find(key);
    return e != nullptr ? e->value : def;
  }

  bool bool_or(std::string_view key, bool def) {
    const raw_entry* e = find(key);
    if (e == nullptr) return def;
    if (e->value == "true" || e->value == "1") return true;
    if (e->value == "false" || e->value == "0") return false;
    ctx_->error(e->line, e->key, "expected true or false, got '" + e->value + "'");
    return def;
  }

  std::vector<double> f64_list_or(std::string_view key, std::vector<double> def) {
    const raw_entry* e = find(key);
    if (e == nullptr) return def;
    std::vector<double> out;
    for (const std::string_view tok : split_tokens(e->value)) {
      double v = 0.0;
      if (!report_num(parse_f64(tok, v), *e, "number", tok)) return def;
      out.push_back(v);
    }
    if (out.empty()) {
      ctx_->error(e->line, e->key, "list needs at least one value");
      return def;
    }
    return out;
  }

  std::vector<std::uint64_t> u64_list_or(std::string_view key,
                                         std::vector<std::uint64_t> def) {
    const raw_entry* e = find(key);
    if (e == nullptr) return def;
    std::vector<std::uint64_t> out;
    for (const std::string_view tok : split_tokens(e->value)) {
      std::uint64_t v = 0;
      if (!report_num(parse_u64(tok, v), *e, "unsigned integer", tok)) return def;
      out.push_back(v);
    }
    if (out.empty()) {
      ctx_->error(e->line, e->key, "list needs at least one value");
      return def;
    }
    return out;
  }

  /// Every key the resolver did not consume is unknown for this section.
  void finish() {
    for (const raw_entry& e : sec_->entries) {
      if (!e.used) ctx_->error(e.line, e.key, "unknown key for this section");
    }
  }

 private:
  bool report_num(num_status st, const raw_entry& e, std::string_view what,
                  std::string_view token = {}) {
    if (st == num_status::ok) return true;
    const std::string shown(token.empty() ? std::string_view(e.value) : token);
    if (st == num_status::out_of_range) {
      ctx_->error(e.line, e.key, "'" + shown + "' overflows the " + std::string(what) +
                                     " range");
    } else {
      ctx_->error(e.line, e.key,
                  "expected " + std::string(what) + ", got '" + shown + "'");
    }
    return false;
  }

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
  const std::string generator = sec.str_or("generator", "");
  if (generator.empty()) {
    ctx.error(sec.line(), "generator", "required key missing");
    return std::nullopt;
  }
  try {
    if (generator == "safety_grade") {
      const auto n = sec.u64_required("faults");
      const double p_lo = sec.f64_or("p_lo", 0.0);
      const double p_hi = sec.f64_or("p_hi", 0.0);
      const double q_total = sec.f64_or("q_total", 1.0);
      const std::uint64_t gen_seed = sec.u64_or("gen_seed", 1);
      if (!n) return std::nullopt;
      return core::make_safety_grade_universe(*n, p_lo, p_hi, q_total, gen_seed);
    }
    if (generator == "many_small") {
      const auto n = sec.u64_required("faults");
      const double p_lo = sec.f64_or("p_lo", 0.0);
      const double p_hi = sec.f64_or("p_hi", 0.0);
      const double q_total = sec.f64_or("q_total", 1.0);
      const double jitter = sec.f64_or("jitter", 0.0);
      const std::uint64_t gen_seed = sec.u64_or("gen_seed", 1);
      if (!n) return std::nullopt;
      return core::make_many_small_faults_universe(*n, p_lo, p_hi, q_total, jitter,
                                                   gen_seed);
    }
    if (generator == "random") {
      const auto n = sec.u64_required("faults");
      const double p_max = sec.f64_or("p_max", 0.0);
      const double q_total = sec.f64_or("q_total", 1.0);
      const std::uint64_t gen_seed = sec.u64_or("gen_seed", 1);
      if (!n) return std::nullopt;
      return core::make_random_universe(*n, p_max, q_total, gen_seed);
    }
    if (generator == "dominant") {
      const auto n = sec.u64_required("faults");
      const double p_dominant = sec.f64_or("p_dominant", 0.0);
      const double p_background = sec.f64_or("p_background", 0.0);
      const double q_total = sec.f64_or("q_total", 1.0);
      const std::uint64_t gen_seed = sec.u64_or("gen_seed", 1);
      if (!n) return std::nullopt;
      return core::make_dominant_fault_universe(*n, p_dominant, p_background, q_total,
                                                gen_seed);
    }
    if (generator == "homogeneous") {
      const auto n = sec.u64_required("faults");
      const auto p = sec.f64_required("p");
      const auto q = sec.f64_required("q");
      if (!n || !p || !q) return std::nullopt;
      return core::make_homogeneous_universe(*n, *p, *q);
    }
    if (generator == "explicit") {
      const std::vector<double> p = sec.f64_list_or("p", {});
      const std::vector<double> q = sec.f64_list_or("q", {});
      const bool allow_q_overflow = sec.bool_or("allow_q_overflow", false);
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
      const auto n = sec.u64_required("faults");
      rp.p_lo = sec.f64_or("p_lo", 0.0);
      rp.p_hi = sec.f64_or("p_hi", 0.0);
      rp.q_total = sec.f64_or("q_total", 1.0);
      rp.seed = sec.u64_or("gen_seed", 1);
      rp.cols = sec.u64_or("cols", 64);
      rp.rows = sec.u64_or("rows", 64);
      rp.profile = sec.str_or("profile", "uniform");
      rp.sigma = sec.f64_or("sigma", 0.25);
      if (!n) return std::nullopt;
      rp.faults = *n;
      if (rp.profile != "uniform" && rp.profile != "gaussian") {
        ctx.error(sec.line(), "profile", "expected uniform or gaussian, got '" +
                                             rp.profile + "'");
        return std::nullopt;
      }
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

std::optional<core::architecture> parse_adjudication(std::string_view tok) {
  const std::size_t of = tok.find("of");
  if (of == std::string_view::npos) return std::nullopt;
  std::uint64_t votes = 0;
  std::uint64_t versions = 0;
  if (parse_u64(tok.substr(0, of), votes) != num_status::ok ||
      parse_u64(tok.substr(of + 2), versions) != num_status::ok) {
    return std::nullopt;
  }
  if (votes == 0 || versions == 0 || votes > versions || versions > 64) {
    return std::nullopt;
  }
  return core::architecture{static_cast<unsigned>(versions),
                            static_cast<unsigned>(votes)};
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
  const std::string kind_str = sweep.str_or("kind", "");
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
  std::uint64_t seed = sweep.u64_or("seed", 1);
  if (overrides.seed) seed = *overrides.seed;

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

  if (kind == job_kind::scenario_grid) {
    reject(demand_sec, "not allowed in a scenario spec");
    reject(experiment_sec, "not allowed in a scenario spec");
    reject_override(overrides.engine.has_value(), "--engine", "experiment specs");
    scenario_axes axes;
    // Checked here under either model: the mixture would only refuse it
    // later as an infeasible axis, and the copula ignores it.
    axes.stress = sweep.f64_at_least_or("stress", 1.8, 1.0, "a finite number >= 1");
    const std::string model = sweep.str_or("rho_model", "mixture");
    if (model == "copula") {
      axes.rho_model = correlation_model::copula;
    } else if (model != "mixture") {
      ctx.error(sweep.line(), "rho_model",
                "expected mixture or copula, got '" + model + "'");
    }
    unsigned shards = sweep.u32_or("shards", 0);
    if (overrides.shards) shards = *overrides.shards;
    sweep.finish();

    if (universe_secs.empty()) {
      ctx.error(sweep_sec->line, "universe",
                "scenario specs need at least one [universe NAME] section");
    }
    for (raw_section* usec : universe_secs) {
      section_view uview(*usec, ctx);
      auto resolved = resolve_universe(uview, ctx);
      uview.finish();
      spec.universes.push_back(decl_from_section(*usec));
      if (resolved) axes.universes.emplace_back(usec->arg, std::move(*resolved));
    }

    std::size_t axes_line = sweep_sec->line;
    if (axes_sec != nullptr) {
      axes_line = axes_sec->line;
      section_view aview(*axes_sec, ctx);
      axes.correlations = aview.f64_list_or("rho", {0.0});
      axes.overlaps = aview.f64_list_or("omega", {1.0});
      {
        const auto aliasing = aview.u64_list_or("aliasing", {1});
        axes.aliasing.assign(aliasing.begin(), aliasing.end());
      }
      if (raw_entry* adj = aview.find("adjudication"); adj != nullptr) {
        axes.adjudications.clear();
        for (const std::string_view tok : split_tokens(adj->value)) {
          const auto arch = parse_adjudication(tok);
          if (!arch) {
            ctx.error(adj->line, adj->key,
                      "expected MofN tokens (votes-to-defeat of versions, e.g. "
                      "2of2 2of3), got '" +
                          std::string(tok) + "'");
            break;
          }
          axes.adjudications.push_back(*arch);
        }
        if (axes.adjudications.empty()) {
          axes.adjudications = {core::architecture::one_out_of_two()};
        }
      }
      axes.budgets = aview.u64_list_or("budget", {100'000});
      axes.cell_budgets = aview.u64_list_or("cell_budget", {});
      if (raw_entry* cb = aview.find("cell_budget");
          cb != nullptr && overrides.budget) {
        ctx.error(cb->line, cb->key,
                  "--budget cannot override a refined per-cell budget list");
      }
      aview.finish();
    }
    if (overrides.budget) axes.budgets = {*overrides.budget};

    spec.has_refine = refine_sec != nullptr;
    if (refine_sec != nullptr) {
      section_view rview(*refine_sec, ctx);
      refine_rule& rule = spec.refine;
      rule.metric = rview.str_or("metric", rule.metric);
      if (rule.metric != "mean_theta2" && rule.metric != "risk_ratio") {
        ctx.error(rview.line(), "metric",
                  "expected mean_theta2 or risk_ratio, got '" + rule.metric + "'");
      }
      rule.target_rel_halfwidth = rview.f64_or("target_rel_halfwidth",
                                               rule.target_rel_halfwidth);
      rule.z = rview.f64_or("z", rule.z);
      rule.gradient_weight = rview.f64_or("gradient_weight", rule.gradient_weight);
      rule.mean_floor = rview.f64_or("mean_floor", rule.mean_floor);
      rule.min_budget = rview.u64_or("min_budget", rule.min_budget);
      rule.max_budget = rview.u64_or("max_budget", rule.max_budget);
      rule.max_growth = rview.f64_or("max_growth", rule.max_growth);
      rule.round_to = rview.u64_or("round_to", rule.round_to);
      if (!(rule.target_rel_halfwidth > 0.0)) {
        ctx.error(rview.line(), "target_rel_halfwidth", "must be > 0");
      }
      if (!(rule.z > 0.0)) ctx.error(rview.line(), "z", "must be > 0");
      if (!(rule.gradient_weight >= 0.0)) {
        ctx.error(rview.line(), "gradient_weight", "must be >= 0");
      }
      if (!(rule.mean_floor > 0.0)) ctx.error(rview.line(), "mean_floor", "must be > 0");
      if (rule.min_budget == 0) ctx.error(rview.line(), "min_budget", "must be > 0");
      if (!(rule.max_growth >= 1.0)) {
        ctx.error(rview.line(), "max_growth", "must be >= 1");
      }
      if (rule.round_to == 0) ctx.error(rview.line(), "round_to", "must be > 0");
      rview.finish();
    }

    if (ctx.ok()) {
      sweep_manifest m;
      m.axes = std::move(axes);
      m.seed = seed;
      m.shards = shards;
      try {
        m.cell_count = enumerate_cells(m.axes).size();
      } catch (const std::invalid_argument& e) {
        ctx.error(axes_line, "axes", std::string("infeasible axes: ") + e.what());
      }
      spec.manifest = std::move(m);
    }
  } else if (kind == job_kind::demand_campaign) {
    reject(axes_sec, "not allowed in a demand spec");
    reject(refine_sec, "refinement applies to scenario grids only");
    reject(experiment_sec, "not allowed in a demand spec");
    for (raw_section* usec : universe_secs) {
      reject(usec, "not allowed in a demand spec");
    }
    reject_override(overrides.shards.has_value(), "--shards",
                    "scenario and experiment specs");
    reject_override(overrides.engine.has_value(), "--engine", "experiment specs");
    sweep.finish();
    if (demand_sec == nullptr) {
      ctx.error(sweep_sec->line, "demand", "demand specs need a [demand] section");
    } else {
      section_view dview(*demand_sec, ctx);
      demand_manifest m;
      m.seed = seed;
      const auto demands = dview.u64_required("demands");
      const auto window = dview.u64_required("window");
      if (demands) m.demands = *demands;
      if (window) m.window = *window;
      if (overrides.budget) m.demands = *overrides.budget;
      const bool explicit_roster = dview.has("target_pfd");
      const bool compact_roster = dview.has("targets");
      if (explicit_roster && compact_roster) {
        ctx.error(dview.line(), "targets",
                  "give either targets/pfd_lo/pfd_ratio or target_pfd, not both");
      } else if (explicit_roster) {
        m.target_pfd = dview.f64_list_or("target_pfd", {});
      } else if (compact_roster) {
        const auto targets = dview.u64_required("targets");
        spec.roster_pfd_lo = dview.f64_or("pfd_lo", 1e-6);
        spec.roster_pfd_ratio = dview.f64_or("pfd_ratio", 1000.0);
        if (targets) {
          spec.roster_targets = *targets;
          m.target_pfd = make_loguniform_roster(*targets, spec.roster_pfd_lo,
                                                spec.roster_pfd_ratio, m.seed);
        }
      } else {
        ctx.error(dview.line(), "targets",
                  "demand specs need a roster: targets/pfd_lo/pfd_ratio or target_pfd");
      }
      dview.finish();
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
    unsigned shards = sweep.u32_or("shards", 0);
    if (overrides.shards) shards = *overrides.shards;
    sweep.finish();
    if (experiment_sec == nullptr) {
      ctx.error(sweep_sec->line, "experiment",
                "experiment specs need an [experiment] section");
    } else {
      section_view eview(*experiment_sec, ctx);
      const std::string uname = eview.str_or("universe", "");
      std::optional<core::fault_universe> universe;
      for (raw_section* usec : universe_secs) {
        section_view uview(*usec, ctx);
        auto resolved = resolve_universe(uview, ctx);
        uview.finish();
        spec.universes.push_back(decl_from_section(*usec));
        if (usec->arg == uname && resolved) universe = std::move(*resolved);
      }
      if (uname.empty()) {
        ctx.error(eview.line(), "universe", "required key missing");
      } else if (!universe && ctx.ok()) {
        ctx.error(eview.line(), "universe",
                  "no [universe " + uname + "] section in this spec");
      }
      experiment_config cfg;
      const auto samples = eview.u64_required("samples");
      if (samples) cfg.samples = *samples;
      if (overrides.budget) cfg.samples = *overrides.budget;
      cfg.seed = seed;
      cfg.shards = shards;
      cfg.keep_samples = eview.bool_or("keep_samples", false);
      cfg.ci_level = eview.f64_or("ci_level", 0.99);
      try {
        cfg.engine = parse_sampling_engine(
            eview.str_or("engine", std::string(sampling_engine_name(cfg.engine))));
      } catch (const std::invalid_argument& e) {
        ctx.error(eview.line(), "engine", e.what());
      }
      if (overrides.engine) cfg.engine = *overrides.engine;
      const unsigned window = eview.u32_or("window", 0);
      eview.finish();
      if (ctx.ok() && universe) {
        try {
          spec.manifest = make_experiment_manifest(*universe, cfg, window);
        } catch (const std::invalid_argument& e) {
          ctx.error(eview.line(), "experiment", std::string("infeasible: ") + e.what());
        }
      }
    }
  }

  if (!ctx.ok()) return {std::nullopt, ctx.take_errors()};
  return {std::move(spec), {}};
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

namespace {

void append_adjudication(std::string& out, const core::architecture& arch) {
  append_u64(out, arch.votes_to_defeat);
  out += "of";
  append_u64(out, arch.versions);
}

void append_kv_u64(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += " = ";
  append_u64(out, v);
  out += '\n';
}

void append_kv_f64(std::string& out, const char* key, double v) {
  out += key;
  out += " = ";
  append_f64(out, v);
  out += '\n';
}

template <typename T, typename Fn>
void append_kv_list(std::string& out, const char* key, const std::vector<T>& v,
                    Fn&& append_one) {
  out += key;
  out += " =";
  for (const T& x : v) {
    out += ' ';
    append_one(out, x);
  }
  out += '\n';
}

}  // namespace

std::string write_sweep_spec(const sweep_spec& spec) {
  std::string out = "[sweep]\n";
  switch (spec.kind) {
    case job_kind::scenario_grid: {
      const auto& m = std::get<sweep_manifest>(spec.manifest);
      out += "kind = scenario\n";
      append_kv_u64(out, "seed", m.seed);
      append_kv_u64(out, "shards", m.shards);
      append_kv_f64(out, "stress", m.axes.stress);
      out += "rho_model = ";
      out += m.axes.rho_model == correlation_model::copula ? "copula" : "mixture";
      out += '\n';
      for (const universe_decl& decl : spec.universes) {
        out += "\n[universe ";
        out += decl.name;
        out += "]\ngenerator = ";
        out += decl.generator;
        out += '\n';
        for (const auto& [key, value] : decl.params) {
          out += key;
          out += " = ";
          out += value;
          out += '\n';
        }
      }
      out += "\n[axes]\n";
      append_kv_list(out, "rho", m.axes.correlations,
                     [](std::string& o, double v) { append_f64(o, v); });
      append_kv_list(out, "omega", m.axes.overlaps,
                     [](std::string& o, double v) { append_f64(o, v); });
      append_kv_list(out, "aliasing", m.axes.aliasing,
                     [](std::string& o, std::size_t v) { append_u64(o, v); });
      append_kv_list(out, "adjudication", m.axes.adjudications, append_adjudication);
      append_kv_list(out, "budget", m.axes.budgets,
                     [](std::string& o, std::uint64_t v) { append_u64(o, v); });
      if (!m.axes.cell_budgets.empty()) {
        append_kv_list(out, "cell_budget", m.axes.cell_budgets,
                       [](std::string& o, std::uint64_t v) { append_u64(o, v); });
      }
      if (spec.has_refine) {
        const refine_rule& r = spec.refine;
        out += "\n[refine]\n";
        out += "metric = ";
        out += r.metric;
        out += '\n';
        append_kv_f64(out, "target_rel_halfwidth", r.target_rel_halfwidth);
        append_kv_f64(out, "z", r.z);
        append_kv_f64(out, "gradient_weight", r.gradient_weight);
        append_kv_f64(out, "mean_floor", r.mean_floor);
        append_kv_u64(out, "min_budget", r.min_budget);
        append_kv_u64(out, "max_budget", r.max_budget);
        append_kv_f64(out, "max_growth", r.max_growth);
        append_kv_u64(out, "round_to", r.round_to);
      }
      break;
    }
    case job_kind::demand_campaign: {
      const auto& m = std::get<demand_manifest>(spec.manifest);
      out += "kind = demand\n";
      append_kv_u64(out, "seed", m.seed);
      out += "\n[demand]\n";
      append_kv_u64(out, "demands", m.demands);
      append_kv_u64(out, "window", m.window);
      if (spec.roster_targets > 0) {
        append_kv_u64(out, "targets", spec.roster_targets);
        append_kv_f64(out, "pfd_lo", spec.roster_pfd_lo);
        append_kv_f64(out, "pfd_ratio", spec.roster_pfd_ratio);
      } else {
        append_kv_list(out, "target_pfd", m.target_pfd,
                       [](std::string& o, double v) { append_f64(o, v); });
      }
      break;
    }
    case job_kind::experiment_shards: {
      const auto& m = std::get<experiment_manifest>(spec.manifest);
      out += "kind = experiment\n";
      append_kv_u64(out, "seed", m.seed);
      append_kv_u64(out, "shards", m.shards);
      for (const universe_decl& decl : spec.universes) {
        out += "\n[universe ";
        out += decl.name;
        out += "]\ngenerator = ";
        out += decl.generator;
        out += '\n';
        for (const auto& [key, value] : decl.params) {
          out += key;
          out += " = ";
          out += value;
          out += '\n';
        }
      }
      out += "\n[experiment]\n";
      out += "universe = ";
      out += spec.universes.empty() ? std::string("u") : spec.universes.front().name;
      out += '\n';
      append_kv_u64(out, "samples", m.samples);
      out += "engine = ";
      out += sampling_engine_name(m.engine);
      out += '\n';
      append_kv_u64(out, "window", m.window);
      append_kv_f64(out, "ci_level", m.ci_level);
      out += "keep_samples = ";
      out += m.keep_samples ? "true" : "false";
      out += '\n';
      break;
    }
  }
  return out;
}

namespace {

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

}  // namespace

sweep_spec spec_from_manifest(
    const std::variant<sweep_manifest, demand_manifest, experiment_manifest>& manifest) {
  sweep_spec spec;
  if (const auto* m = std::get_if<sweep_manifest>(&manifest)) {
    spec.kind = job_kind::scenario_grid;
    for (const auto& [name, universe] : m->axes.universes) {
      spec.universes.push_back(explicit_decl(name, universe));
    }
    spec.manifest = *m;
  } else if (const auto* d = std::get_if<demand_manifest>(&manifest)) {
    spec.kind = job_kind::demand_campaign;
    spec.manifest = *d;
  } else {
    const auto& e = std::get<experiment_manifest>(manifest);
    spec.kind = job_kind::experiment_shards;
    spec.universes.push_back(explicit_decl("u", e.universe));
    spec.manifest = e;
  }
  return spec;
}

std::string describe_manifest_json(
    const std::variant<sweep_manifest, demand_manifest, experiment_manifest>& manifest) {
  std::string out;
  auto atoms_json = [](std::string& o, const core::fault_universe& u) {
    o += "[";
    const auto atoms = u.atoms();
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) o += ',';
      o += "{\"p\":";
      append_f64(o, atoms[i].p);
      o += ",\"q\":";
      append_f64(o, atoms[i].q);
      o += "}";
    }
    o += "]";
  };
  if (const auto* m = std::get_if<sweep_manifest>(&manifest)) {
    out += "{\n  \"kind\": \"scenario_grid\",\n  \"fingerprint\": ";
    append_u64(out, manifest_fingerprint(*m));
    out += ",\n  \"seed\": ";
    append_u64(out, m->seed);
    out += ",\n  \"shards\": ";
    append_u64(out, m->shards);
    out += ",\n  \"cell_count\": ";
    append_u64(out, m->cell_count);
    out += ",\n  \"stress\": ";
    append_f64(out, m->axes.stress);
    out += ",\n  \"rho_model\": \"";
    out += m->axes.rho_model == correlation_model::copula ? "copula" : "mixture";
    out += "\",\n  \"universes\": [";
    for (std::size_t u = 0; u < m->axes.universes.size(); ++u) {
      if (u > 0) out += ',';
      out += "{\"name\":\"";
      out += m->axes.universes[u].first;
      out += "\",\"atoms\":";
      atoms_json(out, m->axes.universes[u].second);
      out += "}";
    }
    out += "],\n  \"correlations\": [";
    for (std::size_t i = 0; i < m->axes.correlations.size(); ++i) {
      if (i > 0) out += ',';
      append_f64(out, m->axes.correlations[i]);
    }
    out += "],\n  \"overlaps\": [";
    for (std::size_t i = 0; i < m->axes.overlaps.size(); ++i) {
      if (i > 0) out += ',';
      append_f64(out, m->axes.overlaps[i]);
    }
    out += "],\n  \"aliasing\": [";
    for (std::size_t i = 0; i < m->axes.aliasing.size(); ++i) {
      if (i > 0) out += ',';
      append_u64(out, m->axes.aliasing[i]);
    }
    out += "],\n  \"adjudications\": [";
    for (std::size_t i = 0; i < m->axes.adjudications.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"versions\":";
      append_u64(out, m->axes.adjudications[i].versions);
      out += ",\"votes\":";
      append_u64(out, m->axes.adjudications[i].votes_to_defeat);
      out += "}";
    }
    out += "],\n  \"budgets\": [";
    for (std::size_t i = 0; i < m->axes.budgets.size(); ++i) {
      if (i > 0) out += ',';
      append_u64(out, m->axes.budgets[i]);
    }
    out += "]";
    if (!m->axes.cell_budgets.empty()) {
      out += ",\n  \"cell_budgets\": [";
      for (std::size_t i = 0; i < m->axes.cell_budgets.size(); ++i) {
        if (i > 0) out += ',';
        append_u64(out, m->axes.cell_budgets[i]);
      }
      out += "]";
    }
    out += "\n}\n";
  } else if (const auto* d = std::get_if<demand_manifest>(&manifest)) {
    out += "{\n  \"kind\": \"demand_campaign\",\n  \"fingerprint\": ";
    append_u64(out, demand_manifest_fingerprint(*d));
    out += ",\n  \"seed\": ";
    append_u64(out, d->seed);
    out += ",\n  \"demands\": ";
    append_u64(out, d->demands);
    out += ",\n  \"window\": ";
    append_u64(out, d->window);
    out += ",\n  \"target_pfd\": [";
    for (std::size_t i = 0; i < d->target_pfd.size(); ++i) {
      if (i > 0) out += ',';
      append_f64(out, d->target_pfd[i]);
    }
    out += "]\n}\n";
  } else {
    const auto& e = std::get<experiment_manifest>(manifest);
    out += "{\n  \"kind\": \"experiment_shards\",\n  \"fingerprint\": ";
    append_u64(out, experiment_manifest_fingerprint(e));
    out += ",\n  \"seed\": ";
    append_u64(out, e.seed);
    out += ",\n  \"samples\": ";
    append_u64(out, e.samples);
    out += ",\n  \"shards\": ";
    append_u64(out, e.shards);
    out += ",\n  \"engine\": ";
    append_u64(out, static_cast<std::uint64_t>(e.engine));
    out += ",\n  \"keep_samples\": ";
    out += e.keep_samples ? "true" : "false";
    out += ",\n  \"ci_level\": ";
    append_f64(out, e.ci_level);
    out += ",\n  \"window\": ";
    append_u64(out, e.window);
    out += ",\n  \"atoms\": ";
    atoms_json(out, e.universe);
    out += "\n}\n";
  }
  return out;
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
