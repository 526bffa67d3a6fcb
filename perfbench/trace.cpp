// perfbench_trace — the benchmark's in-process helper.  Everything here calls
// the library's public API and times those calls from the outside; nothing
// in src/ is instrumented.
//
//   perfbench_trace info
//       JSON: active/detected SIMD level, compiler, build type.
//   perfbench_trace plan SPEC...
//       One JSON line per spec: kind, cell count, version pairs, fingerprint,
//       and for experiment specs the analytic E[θ1], E[θ2]
//       (core::single_version_moments / core::pair_moments).  Refuses (exit 2)
//       a spec that does not parse, or a mixture ρ that is infeasible for one
//       of its universes — before anything is launched.
//   perfbench_trace replay --root DIR --out FILE --mixture-spec S1
//                          --simd-spec S2 --demand-spec S3 SPEC...
//       The traced run: fixed probes (mixture/aliased kernels on S1's
//       universes; SIMD kernel, plan, shard windows and fold on S2's job;
//       demand windows of S3's campaign), the same on every workload; every job
//       unit through its cell function plus its state codec; then the
//       operator path per job (parse, cache miss, run-dir init + queue submit,
//       worker loop, completeness check, merge, cache store/hit, status) once
//       untraced and once traced.  Spans are kept in memory and written to
//       FILE at the end.  The process pins itself to one CPU, so library
//       threads time-share it and the replay is the single-threaded baseline.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_universe.hpp"
#include "core/moments.hpp"
#include "core/simd_sampler.hpp"
#include "mc/aliasing.hpp"
#include "mc/correlated.hpp"
#include "mc/distributed.hpp"
#include "mc/io_env.hpp"
#include "mc/run_dir.hpp"
#include "mc/service.hpp"
#include "mc/spec.hpp"
#include "stats/counter_rng.hpp"
#include "stats/random.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace reldiv;
using steady = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct span_rec {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span recorder for the calling thread.  Disabled, every call is
/// a no-op, which is how the untraced pass runs the same code.
class tracer {
 public:
  bool enabled = false;
  std::vector<span_rec> spans;

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(steady::now() - t0_)
        .count();
  }
  [[nodiscard]] bool on_owner_thread() const {
    return std::this_thread::get_id() == owner_;
  }
  int begin(const std::string& name) {
    if (!enabled) return -1;
    spans.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  /// A finished child of the innermost open span.
  void add(const std::string& name, std::int64_t start, std::int64_t end) {
    if (!enabled) return;
    spans.push_back({name, start, end, stack_.empty() ? -1 : stack_.back()});
  }

 private:
  steady::time_point t0_ = steady::now();
  std::thread::id owner_ = std::this_thread::get_id();
  std::vector<int> stack_;
};

struct scoped_span {
  tracer& t;
  int id;
  scoped_span(tracer& tr, const std::string& name) : t(tr), id(tr.begin(name)) {}
  ~scoped_span() { t.end(id); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
};

// ---------------------------------------------------------------------------
// Timing io_env decorator
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 6> kIoOps = {"read",   "write", "fsync_dir",
                                               "rename", "claim", "touch"};

/// Forwards every seam operation to `base` and counts/times it.  Operations
/// on the tracer's thread also become `io.<op>` spans; the gap between a won
/// claim and the next write on that thread (the cell compute plus its state
/// encode inside run_pending_cells) becomes a `worker.compute` span.
class timing_io_env final : public mc::io_env {
 public:
  timing_io_env(mc::io_env& base, tracer& tr) : base_(base), tr_(tr) {}

  std::array<std::atomic<std::uint64_t>, 6> count{};
  std::array<std::atomic<std::uint64_t>, 6> ns{};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> write_bytes{0};
  std::atomic<std::uint64_t> claim_lost{0};

  [[nodiscard]] std::uint64_t total_ops() const {
    std::uint64_t n = 0;
    for (const auto& c : count) n += c.load();
    return n;
  }

  std::string read_file(const fs::path& path) override {
    const std::int64_t t = tr_.now_ns();
    std::string out;
    try {
      out = base_.read_file(path);
    } catch (...) {
      record(0, t);
      throw;
    }
    read_bytes += out.size();
    record(0, t);
    return out;
  }
  void write_file(const fs::path& path, std::string_view contents, bool sync) override {
    const std::int64_t t = tr_.now_ns();
    if (tr_.on_owner_thread() && claim_end_ >= 0) {
      tr_.add("worker.compute", claim_end_, t);
      claim_end_ = -1;
    }
    write_bytes += contents.size();
    timed(1, t, [&] { base_.write_file(path, contents, sync); });
  }
  void fsync_dir(const fs::path& dir) override {
    timed(2, tr_.now_ns(), [&] { base_.fsync_dir(dir); });
  }
  void rename_file(const fs::path& from, const fs::path& to) override {
    timed(3, tr_.now_ns(), [&] { base_.rename_file(from, to); });
  }
  int rename_noreplace(const fs::path& from, const fs::path& to) override {
    const std::int64_t t = tr_.now_ns();
    const int rc = base_.rename_noreplace(from, to);
    if (rc == -EEXIST) ++claim_lost;
    record(4, t);
    if (rc == 0 && to.extension() == ".claim" && tr_.on_owner_thread()) {
      claim_end_ = tr_.now_ns();
    }
    return rc;
  }
  bool touch(const fs::path& path, std::string_view contents, bool create) override {
    const std::int64_t t = tr_.now_ns();
    bool ok = false;
    timed(5, t, [&] { ok = base_.touch(path, contents, create); });
    return ok;
  }

 private:
  template <class F>
  void timed(std::size_t op, std::int64_t t, F&& f) {
    try {
      f();
    } catch (...) {
      record(op, t);
      throw;
    }
    record(op, t);
  }
  void record(std::size_t op, std::int64_t t) {
    const std::int64_t e = tr_.now_ns();
    ++count[op];
    ns[op] += static_cast<std::uint64_t>(e - t);
    if (tr_.on_owner_thread()) tr_.add(std::string("io.") + kIoOps[op], t, e);
  }

  mc::io_env& base_;
  tracer& tr_;
  std::int64_t claim_end_ = -1;  // owner thread only
};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

volatile std::uint64_t g_sink = 0;  // keeps probed results observable

std::string read_text(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

mc::sweep_spec load_spec(const std::string& path) {
  mc::spec_parse_result parsed = mc::parse_sweep_spec(read_text(path), path);
  if (!parsed.spec) {
    std::string msg;
    for (const mc::spec_error& e : parsed.errors) msg += e.render() + "\n";
    throw std::runtime_error(msg);
  }
  return std::move(*parsed.spec);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double seconds_since(steady::time_point t) {
  return std::chrono::duration<double>(steady::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t spec_fingerprint(const mc::sweep_spec& s) {
  switch (s.kind) {
    case mc::job_kind::demand_campaign:
      return mc::demand_manifest_fingerprint(std::get<mc::demand_manifest>(s.manifest));
    case mc::job_kind::experiment_shards:
      return mc::experiment_manifest_fingerprint(
          std::get<mc::experiment_manifest>(s.manifest));
    default:
      return mc::manifest_fingerprint(std::get<mc::sweep_manifest>(s.manifest));
  }
}

/// Version pairs a job samples (demands for a demand campaign).
std::uint64_t spec_pairs(const mc::sweep_spec& s) {
  if (s.kind == mc::job_kind::experiment_shards) {
    return std::get<mc::experiment_manifest>(s.manifest).samples;
  }
  if (s.kind == mc::job_kind::demand_campaign) {
    const auto& m = std::get<mc::demand_manifest>(s.manifest);
    return m.demands * m.target_pfd.size();
  }
  std::uint64_t n = 0;
  for (const mc::scenario_cell& c :
       mc::enumerate_cells(std::get<mc::sweep_manifest>(s.manifest).axes)) {
    n += c.samples;
  }
  return n;
}

std::uint64_t spec_cells(const mc::sweep_spec& s) {
  if (s.kind == mc::job_kind::experiment_shards) {
    return std::get<mc::experiment_manifest>(s.manifest).window_count();
  }
  if (s.kind == mc::job_kind::demand_campaign) {
    return std::get<mc::demand_manifest>(s.manifest).window_count();
  }
  return std::get<mc::sweep_manifest>(s.manifest).cell_count;
}

/// Every mixture cell must be constructible: the marginal-preserving mixture
/// throws for a ρ its universe cannot deflate to, and a run would then leave
/// those cells pending forever.  Empty string = feasible.
std::string mixture_infeasibility(const mc::sweep_spec& s) {
  if (s.kind != mc::job_kind::scenario_grid) return "";
  const auto& axes = std::get<mc::sweep_manifest>(s.manifest).axes;
  if (axes.rho_model != mc::correlation_model::mixture) return "";
  for (const auto& [name, base] : axes.universes) {
    for (const std::size_t alias : axes.aliasing) {
      const core::fault_universe effective =
          alias > 1 ? mc::split_into_mistakes(base, alias).effective_universe() : base;
      for (const double rho : axes.correlations) {
        try {
          const mc::common_cause_mixture probe(effective, rho, axes.stress);
        } catch (const std::exception& e) {
          return "mixture rho " + json_num(rho) + " is infeasible for universe '" + name +
                 "' (aliasing " + std::to_string(alias) + ", stress " +
                 json_num(axes.stress) + "): " + e.what();
        }
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// info / plan
// ---------------------------------------------------------------------------

int cmd_info() {
  std::printf("{\"simd_active\": \"%s\", \"simd_detected\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              core::simd_level_name(core::active_simd_level()),
              core::simd_level_name(core::detected_simd_level()), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  return 0;
}

int cmd_plan(const std::vector<std::string>& specs) {
  for (const std::string& path : specs) {
    const mc::sweep_spec s = load_spec(path);
    const std::string bad = mixture_infeasibility(s);
    if (!bad.empty()) {
      std::fprintf(stderr, "%s: refused: %s\n", path.c_str(), bad.c_str());
      return 2;
    }
    std::string line = "{\"file\": \"" + path + "\", \"kind\": \"" +
                       std::string(mc::job_kind_name(s.kind)) +
                       "\", \"cells\": " + std::to_string(spec_cells(s)) +
                       ", \"pairs\": " + std::to_string(spec_pairs(s)) +
                       ", \"fingerprint\": \"" + hex64(spec_fingerprint(s)) + "\"";
    if (s.kind == mc::job_kind::experiment_shards) {
      const auto& m = std::get<mc::experiment_manifest>(s.manifest);
      line += ", \"expected_theta1\": " + json_num(core::single_version_moments(m.universe).mean);
      line += ", \"expected_theta2\": " + json_num(core::pair_moments(m.universe).mean);
    }
    std::printf("%s}\n", line.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Probes (fixed inputs, independent of the replayed jobs)
// ---------------------------------------------------------------------------

/// Median over `reps` batches of ns per call of `body(n)`, where one batch
/// runs `n` calls and is sized to take roughly `target_ms`.
template <class Body>
double probe_ns(Body&& body, double target_ms = 20.0, int reps = 5) {
  std::uint64_t n = 64;
  for (;;) {
    const steady::time_point t = steady::now();
    body(n);
    const double ms = seconds_since(t) * 1e3;
    if (ms >= target_ms / 4 || n > (1ull << 30)) break;
    n *= 4;
  }
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const steady::time_point t = steady::now();
    body(n);
    per_call.push_back(seconds_since(t) * 1e9 / static_cast<double>(n));
  }
  return median(per_call);
}

struct probe_results {
  double mixture_ns = 0, aliased_ns = 0, simd_ns = 0, plan_ms = 0;
  double shard_window_ms_p50 = 0, shard_window_ms_max = 0, shard_mpairs_per_s = 0, fold_us = 0;
  double demand_window_ms = 0, demand_mdemands_per_s = 0;
};

constexpr std::uint64_t kShardProbeWindows = 4;

probe_results run_probes(const mc::sweep_spec& grid, const mc::sweep_spec& rare,
                         const mc::sweep_spec& demand, tracer& tr) {
  probe_results out;
  const auto& axes = std::get<mc::sweep_manifest>(grid.manifest).axes;
  const double rho = axes.correlations.size() > 1 ? axes.correlations[1]
                                                  : axes.correlations.front();
  std::size_t alias = 1;
  for (const std::size_t a : axes.aliasing) alias = std::max(alias, a);
  {
    scoped_span s(tr, "kernel.mixture");
    double sum = 0;
    for (const auto& [name, u] : axes.universes) {
      const mc::common_cause_mixture sampler(u, rho, axes.stress);
      stats::rng r(7);
      core::fault_mask m(u.size());
      sum += probe_ns([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) sampler.sample_mask(r, m);
      });
    }
    out.mixture_ns = sum / static_cast<double>(axes.universes.size());
  }
  {
    scoped_span s(tr, "kernel.aliased");
    double sum = 0;
    for (const auto& [name, u] : axes.universes) {
      const mc::aliased_model model = mc::split_into_mistakes(u, alias);
      stats::rng r(7);
      core::fault_mask m(model.region_count());
      sum += probe_ns([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) model.sample_mask(r, m);
      });
    }
    out.aliased_ns = sum / static_cast<double>(axes.universes.size());
  }
  const core::fault_universe& u =
      std::get<mc::experiment_manifest>(rare.manifest).universe;
  {
    scoped_span s(tr, "kernel.simd.plan");
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      const steady::time_point t = steady::now();
      const core::universe_permutation perm = core::make_p_sorted_permutation(u);
      const core::counter_sample_plan plan = core::make_counter_sample_plan(perm.universe);
      ms.push_back(seconds_since(t) * 1e3);
      g_sink = plan.draws_per_pair;
    }
    out.plan_ms = median(ms);
  }
  {
    scoped_span s(tr, "kernel.simd");
    const core::universe_permutation perm = core::make_p_sorted_permutation(u);
    const core::counter_sample_plan plan = core::make_counter_sample_plan(perm.universe);
    const core::simd_level level = core::active_simd_level();
    constexpr std::size_t kBatch = 8;
    std::vector<core::fault_mask> a(kBatch, core::fault_mask(u.size()));
    std::vector<core::fault_mask> b(kBatch, core::fault_mask(u.size()));
    const std::uint64_t key = stats::counter_stream_key(7, 0);
    std::uint64_t first = 0;
    out.simd_ns = probe_ns([&](std::uint64_t n) {
                    for (std::uint64_t i = 0; i < n; ++i, first += kBatch) {
                      core::sample_pair_counter_batch(plan, perm.universe, key, first, kBatch,
                                                      a, b, level);
                    }
                  }) /
                  static_cast<double>(kBatch);
  }
  {
    // The first windows of experiment_rare's job, one thread, then the
    // merge's left fold over their shard states (empty, then ascending).
    const auto& m = std::get<mc::experiment_manifest>(rare.manifest);
    std::vector<double> ms;
    std::vector<mc::accumulator_state> states;
    std::uint64_t pairs = 0;
    {
      scoped_span s(tr, "shard");
      for (std::uint64_t w = 0; w < std::min(kShardProbeWindows, m.window_count()); ++w) {
        const steady::time_point t = steady::now();
        mc::experiment_window_result r = mc::run_experiment_window(m, w, 1);
        ms.push_back(seconds_since(t) * 1e3);
        for (mc::accumulator_state& a : r.shard_states) {
          pairs += a.samples;
          states.push_back(std::move(a));
        }
      }
    }
    double total_ms = 0;
    for (const double v : ms) total_ms += v;
    out.shard_window_ms_p50 = median(ms);
    out.shard_window_ms_max = *std::max_element(ms.begin(), ms.end());
    out.shard_mpairs_per_s = static_cast<double>(pairs) / 1e6 / (total_ms / 1e3);
    scoped_span s(tr, "fold");
    out.fold_us = probe_ns([&](std::uint64_t n) {
                    for (std::uint64_t i = 0; i < n; ++i) {
                      mc::experiment_accumulator acc(m.keep_samples);
                      for (const mc::accumulator_state& a : states) {
                        acc.merge(mc::experiment_accumulator::from_state(a));
                      }
                      g_sink = acc.samples();
                    }
                  }) /
                  1e3;
  }
  {
    // Every window of a fixed small demand campaign, round robin.
    scoped_span s(tr, "demand");
    const auto& m = std::get<mc::demand_manifest>(demand.manifest);
    const std::uint64_t windows = m.window_count();
    std::uint64_t w = 0;
    const double ns = probe_ns([&](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i, w = (w + 1) % windows) {
        g_sink = mc::run_demand_window(m, w, 1).failures.size();
      }
    });
    const double demands_per_window = static_cast<double>(m.demands) *
                                      static_cast<double>(m.target_pfd.size()) /
                                      static_cast<double>(windows);
    out.demand_window_ms = ns / 1e6;
    out.demand_mdemands_per_s = demands_per_window / 1e6 / (ns / 1e9);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

struct unit_stats {
  std::string layer;        // cell | shard | demand
  std::vector<double> compute_s;
  std::uint64_t pairs = 0;  // version pairs (demands for demand windows)
  std::vector<double> encode_us, decode_us, bytes;
};

/// Replay every unit of one job through its pure cell function on this
/// thread, plus the state codec round trip each unit's file goes through.
void replay_units(const mc::sweep_spec& s, std::uint64_t fp, tracer& tr, unit_stats& st) {
  auto codec = [&](auto encode, auto decode) {
    std::int64_t t = tr.now_ns();
    std::string blob;
    {
      scoped_span sp(tr, "state.encode");
      blob = encode();
    }
    st.encode_us.push_back(static_cast<double>(tr.now_ns() - t) / 1e3);
    st.bytes.push_back(static_cast<double>(blob.size()));
    t = tr.now_ns();
    {
      scoped_span sp(tr, "state.decode");
      decode(blob);
    }
    st.decode_us.push_back(static_cast<double>(tr.now_ns() - t) / 1e3);
  };
  auto timed_unit = [&](const char* name, auto&& fn) {
    const steady::time_point t = steady::now();
    {
      scoped_span sp(tr, name);
      fn();
    }
    st.compute_s.push_back(seconds_since(t));
  };

  if (s.kind == mc::job_kind::scenario_grid) {
    st.layer = "cell";
    const auto& m = std::get<mc::sweep_manifest>(s.manifest);
    const std::vector<mc::scenario_cell> cells = mc::enumerate_cells(m.axes);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      mc::cell_state cs{fp, i, {}};
      timed_unit("cell", [&] { cs.result = mc::run_scenario_cell(m.axes, m.config(1), cells[i], i); });
      st.pairs += cells[i].samples;
      codec([&] { return mc::encode_cell_state(cs); },
            [](const std::string& b) { (void)mc::decode_cell_state(b); });
    }
  } else if (s.kind == mc::job_kind::experiment_shards) {
    st.layer = "shard";
    const auto& m = std::get<mc::experiment_manifest>(s.manifest);
    for (std::uint64_t w = 0; w < m.window_count(); ++w) {
      mc::experiment_window_state ws{fp, w, {}};
      timed_unit("shard", [&] { ws.result = mc::run_experiment_window(m, w, 1); });
      codec([&] { return mc::encode_experiment_window_state(ws); },
            [](const std::string& b) { (void)mc::decode_experiment_window_state(b); });
    }
    st.pairs += m.samples;
  } else {
    st.layer = "demand";
    const auto& m = std::get<mc::demand_manifest>(s.manifest);
    for (std::uint64_t w = 0; w < m.window_count(); ++w) {
      mc::demand_window_state ds{fp, w, {}};
      timed_unit("demand", [&] { ds.result = mc::run_demand_window(m, w, 1); });
      codec([&] { return mc::encode_demand_window_state(ds); },
            [](const std::string& b) { (void)mc::decode_demand_window_state(b); });
    }
    st.pairs += m.demands * m.target_pfd.size();
  }
}

struct service_pass {
  std::vector<double> submit_us, miss_us, hit_us, store_us, status_ms;
  double merge_ms = 0, missing_ms = 0, loop_s = 0;
  mc::worker_report workers;
  std::vector<std::string> csv, json;
};

/// The operator path of one job against a service root: cache miss, run-dir
/// init + queue submit, the worker loop, completeness check, merge, memoize,
/// cache hit, status, dequeue.
void replay_service(const fs::path& root, const std::string& name, const mc::sweep_spec& s,
                    std::uint64_t fp, tracer& tr, service_pass& out) {
  auto us_since = [](steady::time_point t) { return seconds_since(t) * 1e6; };
  mc::result_cache cache(root);
  steady::time_point t = steady::now();
  {
    scoped_span sp(tr, "cache.lookup.miss");
    if (cache.lookup(fp)) throw std::runtime_error("unexpected cache hit for " + name);
  }
  out.miss_us.push_back(us_since(t));

  const fs::path run_dir = mc::runs_dir(root) / name;
  t = steady::now();
  {
    scoped_span sp(tr, "queue.submit");
    if (s.kind == mc::job_kind::demand_campaign) {
      (void)mc::run_handle::init(std::get<mc::demand_manifest>(s.manifest), run_dir);
    } else if (s.kind == mc::job_kind::experiment_shards) {
      (void)mc::run_handle::init(std::get<mc::experiment_manifest>(s.manifest), run_dir);
    } else {
      const auto& m = std::get<mc::sweep_manifest>(s.manifest);
      (void)mc::run_handle::init(m.axes, m.config(), run_dir);
    }
    if (!mc::submit_queued_run(root, name, run_dir)) {
      throw std::runtime_error("duplicate submission " + name);
    }
  }
  out.submit_us.push_back(us_since(t));

  t = steady::now();
  {
    scoped_span sp(tr, "worker");
    const mc::worker_report r = mc::run_pending_cells(run_dir);
    out.workers.computed += r.computed;
    out.workers.skipped += r.skipped;
    out.workers.retried += r.retried;
    out.workers.quarantined += r.quarantined;
  }
  out.loop_s += seconds_since(t);

  t = steady::now();
  {
    scoped_span sp(tr, "missing_cells");
    if (!mc::missing_cells(run_dir).empty()) {
      throw std::runtime_error("run " + name + " incomplete after the worker pass");
    }
  }
  out.missing_ms += seconds_since(t) * 1e3;

  mc::merged_tables tables;
  t = steady::now();
  {
    scoped_span sp(tr, "merge");
    tables = mc::run_handle::open(run_dir).merge_tables();
  }
  out.merge_ms += seconds_since(t) * 1e3;

  t = steady::now();
  {
    scoped_span sp(tr, "cache.store");
    cache.store(mc::cached_result{s.kind, fp, tables.csv, tables.json});
  }
  out.store_us.push_back(us_since(t));

  t = steady::now();
  {
    scoped_span sp(tr, "cache.lookup.hit");
    const std::optional<mc::cached_result> hit = cache.lookup(fp);
    if (!hit || hit->csv != tables.csv || hit->json != tables.json) {
      throw std::runtime_error("cache round trip differs for " + name);
    }
  }
  out.hit_us.push_back(us_since(t));

  t = steady::now();
  {
    scoped_span sp(tr, "status");
    (void)mc::query_service_status(root).to_json();
    (void)mc::dequeue_run(root, name);
  }
  out.status_ms.push_back(seconds_since(t) * 1e3);
  out.csv.push_back(std::move(tables.csv));
  out.json.push_back(std::move(tables.json));
}

/// Layer of a span inside the traced operator pass.
const char* layer_of(const std::string& span) {
  static const std::map<std::string, const char*> kLayers = {
      {"spec.parse", "spec"},           {"worker.compute", "compute"},
      {"worker", "worker"},             {"missing_cells", "merge"},
      {"merge", "merge"},               {"queue.submit", "service"},
      {"cache.lookup.miss", "service"}, {"cache.lookup.hit", "service"},
      {"cache.store", "service"},       {"status", "service"},
  };
  if (span.rfind("io.", 0) == 0) return "io";
  const auto it = kLayers.find(span);
  return it == kLayers.end() ? "other" : it->second;
}

int cmd_replay(const std::vector<std::string>& args) {
  std::string root_arg, out_path, mixture_spec, simd_spec, demand_spec;
  std::vector<std::string> specs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) throw std::invalid_argument(args[i] + " expects a value");
      return args[++i];
    };
    if (args[i] == "--root") {
      root_arg = value();
    } else if (args[i] == "--out") {
      out_path = value();
    } else if (args[i] == "--mixture-spec") {
      mixture_spec = value();
    } else if (args[i] == "--simd-spec") {
      simd_spec = value();
    } else if (args[i] == "--demand-spec") {
      demand_spec = value();
    } else {
      specs.push_back(args[i]);
    }
  }
  if (root_arg.empty() || out_path.empty() || mixture_spec.empty() || simd_spec.empty() ||
      demand_spec.empty() || specs.empty()) {
    throw std::invalid_argument(
        "replay needs --root, --out, --mixture-spec, --simd-spec, --demand-spec and at "
        "least one spec");
  }

  // One CPU: the replay is the single-threaded baseline, and span wall time
  // then measures this process's CPU (library-internal threads time-share).
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &cpus)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        (void)sched_setaffinity(0, sizeof(one), &one);
        break;
      }
    }
  }

  tracer tr;
  const fs::path root(root_arg);
  fs::create_directories(root);

  std::vector<mc::sweep_spec> jobs;
  std::vector<std::uint64_t> fps;
  for (const std::string& p : specs) {
    jobs.push_back(load_spec(p));
    fps.push_back(spec_fingerprint(jobs.back()));
  }

  tr.enabled = true;
  probe_results probes;
  {
    scoped_span sp(tr, "probes");
    probes = run_probes(load_spec(mixture_spec), load_spec(simd_spec), load_spec(demand_spec), tr);
  }

  // Every job unit through its cell function on this thread: the
  // single-threaded compute baseline and the state codec costs.
  std::map<std::string, unit_stats> units;  // by layer name
  std::vector<double> all_compute;
  std::uint64_t pair_units_pairs = 0;
  double pair_units_s = 0;
  {
    scoped_span sp(tr, "units");
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      unit_stats st;
      replay_units(jobs[j], fps[j], tr, st);
      unit_stats& acc = units[st.layer];
      acc.layer = st.layer;
      for (const double v : st.compute_s) {
        acc.compute_s.push_back(v);
        all_compute.push_back(v);
        if (st.layer != "demand") pair_units_s += v;
      }
      if (st.layer != "demand") pair_units_pairs += st.pairs;
      acc.pairs += st.pairs;
      acc.encode_us.insert(acc.encode_us.end(), st.encode_us.begin(), st.encode_us.end());
      acc.decode_us.insert(acc.decode_us.end(), st.decode_us.begin(), st.decode_us.end());
      acc.bytes.insert(acc.bytes.end(), st.bytes.begin(), st.bytes.end());
    }
  }

  // The operator path (parse, submit, worker loop, merge, cache, status),
  // once untraced and once traced, for trace.overhead_s.
  double parse_ms = 0;
  auto operator_pass = [&](const fs::path& pass_root, service_pass& out) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::string text = read_text(specs[j]);
      const steady::time_point t = steady::now();
      {
        scoped_span sp(tr, "spec.parse");
        if (!mc::parse_sweep_spec(text, specs[j]).spec) {
          throw std::runtime_error(specs[j] + ": parse failed");
        }
      }
      if (tr.enabled) parse_ms += seconds_since(t) * 1e3;
      replay_service(pass_root, "job" + std::to_string(j), jobs[j], fps[j], tr, out);
    }
  };
  tr.enabled = false;
  double untraced_s = 0;
  {
    service_pass plain;
    const steady::time_point t = steady::now();
    operator_pass(root / "plain", plain);
    untraced_s = seconds_since(t);
  }

  tr.enabled = true;
  timing_io_env timing(mc::system_io_env(), tr);
  mc::faulty_io_env checker(mc::fault_plan{}, &timing);  // empty plan: counts only
  service_pass traced;
  double traced_s = 0;
  const double cpu0 = cpu_seconds();
  const int pass_span = tr.begin("pass");
  {
    mc::scoped_io_env install(checker);
    const steady::time_point t = steady::now();
    operator_pass(root / "traced", traced);
    traced_s = seconds_since(t);
  }
  tr.end(pass_span);
  const double pass_cpu = cpu_seconds() - cpu0;

  // Merged tables of the traced pass, for the caller to verify.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::ofstream(root / ("job" + std::to_string(j) + ".csv"), std::ios::binary)
        << traced.csv[j];
    std::ofstream(root / ("job" + std::to_string(j) + ".json"), std::ios::binary)
        << traced.json[j];
  }

  // Self time per layer over the traced operator path; the pass span's own
  // uncovered time is "other".
  std::vector<double> child_ns(tr.spans.size(), 0.0);
  for (const span_rec& s : tr.spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  auto in_pass = [&](std::size_t i) {
    int p = static_cast<int>(i);
    while (p >= 0 && p != pass_span) p = tr.spans[static_cast<std::size_t>(p)].parent;
    return p == pass_span;
  };
  std::map<std::string, double> layer_self_s;
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    if (!in_pass(i)) continue;
    const span_rec& s = tr.spans[i];
    const double self = (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) / 1e9;
    layer_self_s[static_cast<int>(i) == pass_span ? "other" : layer_of(s.name)] += self;
  }

  std::map<std::string, double> m;
  m["spec.parse_ms"] = parse_ms;
  m["kernel.mixture.ns_per_version"] = probes.mixture_ns;
  m["kernel.aliased.ns_per_version"] = probes.aliased_ns;
  m["kernel.simd.ns_per_pair"] = probes.simd_ns;
  m["kernel.simd.plan_ms"] = probes.plan_ms;

  double sum = 0, mx = 0;
  for (const double v : all_compute) {
    sum += v;
    mx = std::max(mx, v);
  }
  m["cell.compute_s.sum"] = sum;
  m["cell.compute_s.p50"] = median(all_compute);
  m["cell.compute_s.max"] = mx;
  m["cell.skew"] = all_compute.empty() ? 0.0 : mx / (sum / static_cast<double>(all_compute.size()));
  m["cell.count"] = static_cast<double>(all_compute.size());
  if (pair_units_pairs > 0) {
    m["cell.ns_per_pair"] = pair_units_s * 1e9 / static_cast<double>(pair_units_pairs);
  }
  m["shard.window_ms.p50"] = probes.shard_window_ms_p50;
  m["shard.window_ms.max"] = probes.shard_window_ms_max;
  m["shard.mpairs_per_s"] = probes.shard_mpairs_per_s;
  m["fold.us"] = probes.fold_us;
  m["demand.window_ms.p50"] = probes.demand_window_ms;
  m["demand.mdemands_per_s"] = probes.demand_mdemands_per_s;
  std::vector<double> enc, dec, bytes;
  for (const auto& [layer, s] : units) {
    enc.insert(enc.end(), s.encode_us.begin(), s.encode_us.end());
    dec.insert(dec.end(), s.decode_us.begin(), s.decode_us.end());
    bytes.insert(bytes.end(), s.bytes.begin(), s.bytes.end());
  }
  auto mean = [](const std::vector<double>& v) {
    double t = 0;
    for (const double x : v) t += x;
    return v.empty() ? 0.0 : t / static_cast<double>(v.size());
  };
  m["state.encode_us"] = mean(enc);
  m["state.decode_us"] = mean(dec);
  m["state.bytes_per_cell"] = mean(bytes);

  for (std::size_t op = 0; op < kIoOps.size(); ++op) {
    m[std::string("io.") + kIoOps[op] + ".count"] = static_cast<double>(timing.count[op].load());
    m[std::string("io.") + kIoOps[op] + ".us"] = static_cast<double>(timing.ns[op].load()) / 1e3;
  }
  m["io.read.bytes"] = static_cast<double>(timing.read_bytes.load());
  m["io.write.bytes"] = static_cast<double>(timing.write_bytes.load());
  m["io.claim.lost"] = static_cast<double>(timing.claim_lost.load());
  const double units_computed = static_cast<double>(traced.workers.computed);
  m["io.ops_per_cell"] =
      units_computed > 0 ? static_cast<double>(timing.total_ops()) / units_computed : 0.0;
  m["io.selfcheck.timing_ops"] = static_cast<double>(timing.total_ops());
  m["io.selfcheck.faulty_ops"] = static_cast<double>(checker.operations());

  m["worker.loop_s"] = traced.loop_s;
  m["worker.self_s"] = layer_self_s["worker"];
  m["worker.computed"] = units_computed;
  m["worker.skipped"] = static_cast<double>(traced.workers.skipped);
  m["worker.retried"] = static_cast<double>(traced.workers.retried);
  m["worker.quarantined"] = static_cast<double>(traced.workers.quarantined);
  m["merge.ms"] = traced.merge_ms;
  m["missing_cells.ms"] = traced.missing_ms;
  m["queue.submit_us"] = mean(traced.submit_us);
  m["cache.lookup_us.hit"] = mean(traced.hit_us);
  m["cache.lookup_us.miss"] = mean(traced.miss_us);
  m["cache.store_us"] = mean(traced.store_us);
  m["status.ms"] = mean(traced.status_ms);

  m["pass.cpu_s"] = pass_cpu;
  m["trace.traced_pass_s"] = traced_s;
  m["trace.untraced_pass_s"] = untraced_s;
  m["trace.overhead_s"] = traced_s - untraced_s;
  m["trace.spans"] = static_cast<double>(tr.spans.size());
  for (const auto& [layer, secs] : layer_self_s) {
    m["self_s." + layer] = secs;
    m["share." + layer] = traced_s > 0 ? secs / traced_s : 0.0;
  }

  // Spans and metrics, written once at the end.
  std::ofstream f(out_path, std::ios::binary | std::ios::trunc);
  f << "{\n  \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    f << (first ? "\n" : ",\n") << "    \"" << k << "\": " << json_num(v);
    first = false;
  }
  f << "\n  },\n  \"spans\": [";
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const span_rec& s = tr.spans[i];
    f << (i ? ",\n" : "\n") << "    {\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"start_us\": " << json_num(static_cast<double>(s.start_ns) / 1e3)
      << ", \"end_us\": " << json_num(static_cast<double>(s.end_ns) / 1e3)
      << ", \"parent\": " << s.parent << "}";
  }
  f << "\n  ]\n}\n";
  if (!f) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs("usage: perfbench_trace info | plan SPEC... | replay --root DIR --out FILE "
               "--mixture-spec S --simd-spec S --demand-spec S SPEC...\n",
               stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string> rest(argv + 2, argv + argc);
  try {
    if (cmd == "info") return cmd_info();
    if (cmd == "plan") return cmd_plan(rest);
    if (cmd == "replay") return cmd_replay(rest);
    std::fprintf(stderr, "perfbench_trace: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
