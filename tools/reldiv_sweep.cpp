// reldiv_sweep — the multi-process campaign CLI.
//
// One binary, three job kinds (--mode scenario|demand|experiment), two
// command styles:
//
//   subcommands (the service front-end; each has its own --help):
//     reldiv_sweep serve  --root svc --workers 3      long-poll worker fleet
//     reldiv_sweep submit --root svc --mode demand    enqueue a run (memoized:
//                                                     an identical manifest is
//                                                     served from the result
//                                                     cache, nothing recomputed)
//     reldiv_sweep status --root svc                  progress JSON
//     reldiv_sweep merge  --root svc --name R --wait  merged tables (cached)
//     reldiv_sweep drain  --root svc [--clear]        graceful fleet shutdown
//     reldiv_sweep single|worker|chaos ...            aliases for the classic
//                                                     --single/--worker/--chaos
//
//   classic flags (unchanged; scripts keep working), four roles:
//
//   coordinator (default, needs --run-dir):
//     reldiv_sweep --mode demand --preset ci --seed 77 --run-dir run.d
//                  --workers 4 --out-csv tally.csv --out-json tally.json
//     Initializes (or resumes) the run directory, fan/exec's N copies of
//     itself as workers, waits, merges the cell state files in cell order
//     and writes the results table.  Rerunning after a crash/SIGKILL
//     resumes from the surviving state files; the final output is
//     byte-identical to an uninterrupted — or single-process — run.
//
//   worker (spawned by the coordinator, or by an external scheduler):
//     reldiv_sweep --worker --run-dir run.d [--max-cells K]
//     Reads the manifest, learns the job kind FROM it (no --mode needed),
//     claims pending cells one at a time, writes each completed cell
//     atomically.  Any number of workers may run concurrently against the
//     same directory — including workers on other hosts sharing it.
//
//   single-process reference:
//     reldiv_sweep --single --mode demand --preset ci --seed 77 --out-json t.json
//     Runs the identical campaign in-process via mc::run_scenario_grid /
//     mc::run_demand_campaign / mc::run_experiment — the oracle CI diffs
//     the distributed output against.
//
//   merge-only:
//     reldiv_sweep --merge-only --run-dir run.d --out-csv out.csv
//     Merges an already-complete directory (any kind) without spawning
//     workers.
//
//   chaos (the fault-injection harness):
//     reldiv_sweep --chaos --run-dir base.d [--mode all] [--chaos-plans 2]
//     For each job kind and each deterministic injection plan (derived from
//     --chaos-seed, replayable), runs the distributed campaign with the plan
//     installed in every worker's I/O seam and asserts the two-arm contract:
//     the run completes with merge output byte-identical to the in-process
//     oracle, OR it exits nonzero leaving an intact run dir whose clean
//     no-injection resume completes to the byte-identical oracle output.
//     Anything else — especially "completed but differs" — is a failure.
//
// Exit codes: 0 success; 2 usage error; 3 worker that quarantined cells;
// 1 anything else (incomplete run, invalid state files, chaos contract
// violation, ...).

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <unistd.h>

#include "mc/distributed.hpp"
#include "mc/io_env.hpp"
#include "mc/run_dir.hpp"
#include "mc/scenario.hpp"
#include "mc/service.hpp"
#include "mc/spec.hpp"

namespace {

using namespace reldiv;

void usage(std::FILE* out) {
  std::fputs(
      "usage: reldiv_sweep [subcommand | role] [job options] [output options]\n"
      "\n"
      "subcommands (service front-end; `reldiv_sweep <cmd> --help` for each):\n"
      "  serve                long-poll worker fleet over a service root's queue\n"
      "  submit               enqueue a run (fingerprint-memoized: identical\n"
      "                       manifests are served from the result cache)\n"
      "  status               fleet progress as %.17g-clean JSON\n"
      "  merge                merged tables of a queued or standalone run dir\n"
      "  drain                raise/clear the graceful-shutdown sentinel\n"
      "  describe             a run directory's spec/axes as %.17g-clean JSON\n"
      "  refine               emit the round-N+1 spec from a merged round-N table\n"
      "  single|worker|chaos  aliases for --single/--worker/--chaos below\n"
      "\n"
      "roles (default: coordinator when --run-dir is given, else --single):\n"
      "  --single             run the campaign in-process (the reference oracle)\n"
      "  --worker             claim+compute pending cells of --run-dir, then exit\n"
      "                       (the job kind comes from the directory's manifest)\n"
      "  --merge-only         merge an existing complete --run-dir (any kind)\n"
      "  --chaos              fault-injection harness: sweep deterministic fault\n"
      "                       plans through distributed runs under --run-dir and\n"
      "                       assert byte-identical completion or graceful,\n"
      "                       resumable degradation\n"
      "\n"
      "job options (ignored by --worker/--merge-only, which read the manifest):\n"
      "  --spec FILE          declarative sweep-spec file (see README; the job kind\n"
      "                       comes from the file's [sweep] kind)\n"
      "  --mode KIND          scenario (default) | demand | experiment\n"
      "                       (--chaos also accepts 'all', its default)\n"
      "  --preset NAME        smoke (small, default) | ci (big enough to kill\n"
      "                       mid-run); shipped as examples/specs/<mode>_<name>.spec\n"
      "  --seed N             campaign seed (default 2026; overrides the spec)\n"
      "  --shards N           scenario: per-cell logical shards (0 = budget-scaled)\n"
      "  --budget N           scenario/experiment: samples; demand: demands per target\n"
      "  --engine NAME        experiment sampling engine: fast (default) | exact |\n"
      "                       legacy | fast-simd (counter-based SIMD block engine)\n"
      "\n"
      "distribution options:\n"
      "  --run-dir DIR        on-disk run directory (state files + manifest);\n"
      "                       for --chaos, the parent of one directory per trial\n"
      "  --workers N          worker processes to spawn (default 2)\n"
      "  --max-cells K        per-worker quota of cells to compute (test/CI hook)\n"
      "  --threads N          in-process worker threads for --single (default 0 = hw)\n"
      "\n"
      "fault injection:\n"
      "  --fault-plan RECIPE  install a deterministic fault plan in this process's\n"
      "                       I/O seam (worker) or every spawned worker's\n"
      "                       (coordinator); RECIPE is the seed=..,rate_ppm=..,\n"
      "                       ops=..,kinds=..,stall_ms=.. string a chaos run prints\n"
      "  --chaos-seed N       chaos plan seed (default 7331)\n"
      "  --chaos-plans N      injection plans per job kind (default 2)\n"
      "  --chaos-rate PPM     per-operation fault rate in parts per million\n"
      "                       (default 30000)\n"
      "\n"
      "output options:\n"
      "  --out-csv PATH       write the results table as CSV\n"
      "  --out-json PATH      write the results table as JSON\n"
      "  --quiet              suppress the progress summary on stdout\n",
      out);
}

struct options {
  bool worker = false;
  bool single = false;
  bool merge_only = false;
  bool chaos = false;
  bool quiet = false;
  std::string mode = "scenario";
  bool mode_set = false;
  std::string fault_plan;
  std::uint64_t chaos_seed = 7331;
  unsigned chaos_plans = 2;
  unsigned chaos_rate = 30'000;
  std::string preset = "smoke";
  std::string spec;  // spec file path; empty = use the preset
  std::uint64_t seed = 2026;
  bool seed_set = false;  // only an explicit --seed overrides a spec's seed
  unsigned shards = 0;
  bool shards_set = false;
  unsigned threads = 0;
  std::uint64_t budget = 0;  // 0 = preset/spec default
  std::string engine;        // empty = fast; experiment mode only
  std::string run_dir;
  unsigned workers = 2;
  std::size_t max_cells = 0;
  std::string out_csv;
  std::string out_json;
  // Service subcommand fields (serve/submit/status/merge/drain).
  std::string root;
  std::string name;
  bool wait = false;
  bool clear = false;
  std::uint64_t poll_min_ms = 50;
  std::uint64_t poll_max_ms = 1000;
  std::uint64_t max_polls = 0;
  // describe/refine fields.
  std::string table;     // refine: merged round-N CSV
  std::string out;       // refine: round-N+1 spec path
  std::string out_spec;  // describe: re-emit the run as a launchable spec
};

// ---------------------------------------------------------------------------
// Job declarations: every job — preset or operator-written — is a sweep-spec
// file resolved by mc::parse_sweep_spec.  The presets below are the shipped
// examples/specs/<mode>_<preset>.spec files, embedded verbatim so the binary
// stays self-contained; CI diffs the two copies.
// ---------------------------------------------------------------------------

// The scenario_sweep example's grid: 2 x 2 x 2 x 2 x 1 x 1 = 16 quick cells.
constexpr const char* kScenarioSmokeSpec = R"spec(# Scenario smoke preset: the scenario_sweep example's 16-cell grid.
[sweep]
kind = scenario
seed = 2026

[universe safety_grade]
generator = safety_grade
faults = 40
p_lo = 0
p_hi = 0.05
q_total = 0.6
gen_seed = 11

[universe many_small]
generator = many_small
faults = 256
p_lo = 0.05
p_hi = 0.3
q_total = 0.8
jitter = 0.2
gen_seed = 12

[axes]
rho = 0 0.3
omega = 1 0.5
aliasing = 1 4
budget = 20000
)spec";

// Large enough that a 4-worker sweep takes several seconds — room for the
// CI job to SIGKILL it mid-run: 2 x 3 x 2 x 2 x 1 x 1 = 24 cells.
constexpr const char* kScenarioCiSpec = R"spec(# Scenario ci preset: 24 cells, big enough to kill mid-run.
[sweep]
kind = scenario
seed = 2026

[universe safety_grade]
generator = safety_grade
faults = 40
p_lo = 0
p_hi = 0.05
q_total = 0.6
gen_seed = 11

[universe many_small]
generator = many_small
faults = 256
p_lo = 0.05
p_hi = 0.3
q_total = 0.8
jitter = 0.2
gen_seed = 12

[axes]
rho = 0 0.25 0.5
omega = 1 0.6
aliasing = 1 3
budget = 1000000
)spec";

// 16 quick windows over a small loguniform roster in [1e-6, 1e-3].
constexpr const char* kDemandSmokeSpec = R"spec(# Demand smoke preset: 16 quick windows over a 2000-target roster.
[sweep]
kind = demand
seed = 2026

[demand]
demands = 100000
window = 125
targets = 2000
pfd_lo = 1e-06
pfd_ratio = 1000
)spec";

// 49 windows over a 100k-target roster: enough windows that a 4-worker run
// quota'd by --max-cells is provably partial when CI kills it.
constexpr const char* kDemandCiSpec = R"spec(# Demand ci preset: 49 windows over a 100000-target roster.
[sweep]
kind = demand
seed = 2026

[demand]
demands = 10000000
window = 2048
targets = 100000
pfd_lo = 1e-06
pfd_ratio = 1000
)spec";

// 256 logical shards -> 4 windows.
constexpr const char* kExperimentSmokeSpec = R"spec(# Experiment smoke preset: 4 shard windows over a small universe.
[sweep]
kind = experiment
seed = 2026

[universe safety_grade]
generator = safety_grade
faults = 24
p_lo = 0
p_hi = 0.05
q_total = 0.6
gen_seed = 5

[experiment]
universe = safety_grade
samples = 50000
window = 64
)spec";

// Big enough that a 4-worker run takes several seconds — room for the CI
// job to SIGKILL it mid-run: 256 logical shards -> 16 windows.
constexpr const char* kExperimentCiSpec = R"spec(# Experiment ci preset: 16 shard windows, big enough to kill mid-run.
[sweep]
kind = experiment
seed = 2026

[universe many_small]
generator = many_small
faults = 256
p_lo = 0.05
p_hi = 0.3
q_total = 0.8
jitter = 0.2
gen_seed = 12

[experiment]
universe = many_small
samples = 6000000
window = 16
)spec";

const char* preset_spec_text(const std::string& mode, const std::string& preset) {
  if (preset != "smoke" && preset != "ci") {
    throw std::invalid_argument("unknown preset '" + preset +
                                "' (expected smoke or ci)");
  }
  const bool smoke = preset == "smoke";
  if (mode == "scenario") return smoke ? kScenarioSmokeSpec : kScenarioCiSpec;
  if (mode == "demand") return smoke ? kDemandSmokeSpec : kDemandCiSpec;
  return smoke ? kExperimentSmokeSpec : kExperimentCiSpec;
}

// The CSV/JSON emitters (demand_tally_csv, experiment_result_csv, ...) live
// in mc/distributed.hpp since the service grew a result cache: the oracle,
// the coordinator merge and a cache entry must render through the same code.

mc::sampling_engine parse_engine(const std::string& name) {
  if (name.empty() || name == "fast") return mc::sampling_engine::fast;
  if (name == "exact") return mc::sampling_engine::exact;
  if (name == "legacy") return mc::sampling_engine::legacy;
  if (name == "fast-simd") return mc::sampling_engine::fast_simd;
  throw std::invalid_argument("unknown engine '" + name +
                              "' (expected fast, exact, legacy or fast-simd)");
}

/// A spec file (or embedded preset) that failed to parse.  Carries the
/// rendered file:line: field: message diagnostics; the CLI prints them bare
/// and exits 2 — no usage dump, the position IS the explanation.
struct spec_failure : std::runtime_error {
  explicit spec_failure(std::string rendered) : std::runtime_error(std::move(rendered)) {}
};

std::string render_spec_errors(const std::vector<mc::spec_error>& errors) {
  std::string out;
  for (const mc::spec_error& e : errors) {
    if (!out.empty()) out += '\n';
    out += e.render();
  }
  return out;
}

std::string read_text_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw spec_failure(path + ": cannot read file");
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

const char* mode_of_kind(mc::job_kind kind) {
  switch (kind) {
    case mc::job_kind::scenario_grid:
      return "scenario";
    case mc::job_kind::demand_campaign:
      return "demand";
    case mc::job_kind::experiment_shards:
      return "experiment";
  }
  return "?";
}

/// Resolve the job declaration: --spec FILE when given, else the embedded
/// preset for (--mode, --preset).  Explicit CLI flags override the spec's
/// values (an unset flag never clobbers the file).
mc::sweep_spec resolve_spec(const options& opt) {
  mc::spec_overrides ov;
  if (opt.seed_set) ov.seed = opt.seed;
  if (opt.budget > 0) ov.budget = opt.budget;
  if (opt.shards_set) ov.shards = opt.shards;
  if (!opt.engine.empty()) ov.engine = parse_engine(opt.engine);

  std::string text;
  std::string label;
  if (!opt.spec.empty()) {
    text = read_text_file(opt.spec);
    label = opt.spec;
  } else {
    text = preset_spec_text(opt.mode, opt.preset);
    label = "<preset " + opt.mode + "/" + opt.preset + ">";
  }
  mc::spec_parse_result result = mc::parse_sweep_spec(text, label, ov);
  if (!result.spec) throw spec_failure(render_spec_errors(result.errors));
  if (opt.mode_set && opt.mode != mode_of_kind(result.spec->kind)) {
    throw spec_failure(label + ": spec kind '" +
                       std::string(mode_of_kind(result.spec->kind)) +
                       "' disagrees with --mode " + opt.mode);
  }
  return std::move(*result.spec);
}

// ---------------------------------------------------------------------------
// Output plumbing
// ---------------------------------------------------------------------------

void write_result_files(const std::string& csv, const std::string& json,
                        const options& opt) {
  if (!opt.out_csv.empty()) {
    std::ofstream f(opt.out_csv, std::ios::binary | std::ios::trunc);
    f << csv;
    if (!f) throw std::runtime_error("cannot write " + opt.out_csv);
  }
  if (!opt.out_json.empty()) {
    std::ofstream f(opt.out_json, std::ios::binary | std::ios::trunc);
    f << json;
    if (!f) throw std::runtime_error("cannot write " + opt.out_json);
  }
}

void write_text_outputs(const std::string& csv, const std::string& json,
                        std::size_t cells, const options& opt) {
  write_result_files(csv, json, opt);
  if (!opt.quiet) {
    std::printf("%zu cells merged", cells);
    if (!opt.out_csv.empty()) std::printf(", csv -> %s", opt.out_csv.c_str());
    if (!opt.out_json.empty()) std::printf(", json -> %s", opt.out_json.c_str());
    std::printf("\n");
  }
}

void write_outputs(const mc::grid_result& grid, const options& opt) {
  write_text_outputs(grid.to_csv(), grid.to_json(), grid.cells.size(), opt);
}

void write_outputs(const mc::demand_manifest& m, const mc::demand_tally& tally,
                   const options& opt) {
  write_text_outputs(demand_tally_csv(m, tally), demand_tally_json(tally),
                     m.window_count(), opt);
}

void write_outputs(const mc::experiment_manifest& m, const mc::experiment_result& result,
                   const options& opt) {
  write_text_outputs(experiment_result_csv(result), experiment_result_json(result),
                     m.window_count(), opt);
}

/// The coordinator re-execs this very binary as its workers.
std::string self_exe(const char* argv0) {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

std::uint64_t parse_u64(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  // strtoull silently wraps "-1" to ULLONG_MAX-0: reject any non-digit lead.
  if (end == value || *end != '\0' || value[0] == '-' || value[0] == '+' ||
      errno == ERANGE) {
    throw std::invalid_argument(std::string(flag) + " expects an unsigned integer, got '" +
                                value + "'");
  }
  return v;
}

unsigned parse_u32(const char* flag, const char* value) {
  const std::uint64_t v = parse_u64(flag, value);
  if (v > std::numeric_limits<unsigned>::max()) {
    throw std::invalid_argument(std::string(flag) + " value out of range: " + value);
  }
  return static_cast<unsigned>(v);
}

options parse_args(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--worker") {
      opt.worker = true;
    } else if (arg == "--mode") {
      opt.mode = value();
      opt.mode_set = true;
    } else if (arg == "--single") {
      opt.single = true;
    } else if (arg == "--merge-only") {
      opt.merge_only = true;
    } else if (arg == "--chaos") {
      opt.chaos = true;
    } else if (arg == "--fault-plan") {
      opt.fault_plan = value();
      // Fail at the flag, not deep inside a worker run: the recipe must
      // round-trip through fault_plan::parse.
      (void)mc::fault_plan::parse(opt.fault_plan);
    } else if (arg == "--chaos-seed") {
      opt.chaos_seed = parse_u64("--chaos-seed", value());
    } else if (arg == "--chaos-plans") {
      opt.chaos_plans = parse_u32("--chaos-plans", value());
    } else if (arg == "--chaos-rate") {
      opt.chaos_rate = parse_u32("--chaos-rate", value());
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--preset") {
      opt.preset = value();
    } else if (arg == "--spec") {
      opt.spec = value();
    } else if (arg == "--seed") {
      opt.seed = parse_u64("--seed", value());
      opt.seed_set = true;
    } else if (arg == "--shards") {
      opt.shards = parse_u32("--shards", value());
      opt.shards_set = true;
    } else if (arg == "--threads") {
      opt.threads = parse_u32("--threads", value());
    } else if (arg == "--budget") {
      opt.budget = parse_u64("--budget", value());
    } else if (arg == "--engine") {
      opt.engine = value();
      // Fail fast on typos, before any manifest work starts.
      (void)parse_engine(opt.engine);
    } else if (arg == "--run-dir") {
      opt.run_dir = value();
    } else if (arg == "--workers") {
      opt.workers = parse_u32("--workers", value());
    } else if (arg == "--max-cells") {
      opt.max_cells = parse_u64("--max-cells", value());
    } else if (arg == "--out-csv") {
      opt.out_csv = value();
    } else if (arg == "--out-json") {
      opt.out_json = value();
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown flag '" + arg + "' (see --help)");
    }
  }
  if ((opt.worker || opt.merge_only || opt.chaos) && opt.run_dir.empty()) {
    throw std::invalid_argument("--worker/--merge-only/--chaos need --run-dir");
  }
  if (opt.worker + opt.single + opt.merge_only + opt.chaos > 1) {
    throw std::invalid_argument(
        "--worker, --single, --merge-only and --chaos are exclusive");
  }
  if (!opt.single && !opt.worker && !opt.merge_only && !opt.chaos &&
      opt.run_dir.empty()) {
    opt.single = true;  // no run dir -> nothing to distribute
  }
  if (opt.chaos && !opt.spec.empty()) {
    throw std::invalid_argument("--chaos sweeps its own preset jobs; --spec applies "
                                "to coordinator/--single runs");
  }
  if (opt.chaos && !opt.mode_set) opt.mode = "all";  // sweep every job kind
  const bool mode_ok = opt.mode == "scenario" || opt.mode == "demand" ||
                       opt.mode == "experiment" || (opt.chaos && opt.mode == "all");
  if (!mode_ok) {
    throw std::invalid_argument("unknown --mode '" + opt.mode +
                                "' (expected scenario, demand or experiment" +
                                (opt.chaos ? ", or all)" : ")"));
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Chaos harness
// ---------------------------------------------------------------------------

/// Sweep deterministic injection plans through distributed runs of every
/// requested job kind, holding each trial to the two-arm contract (complete
/// byte-identical to the oracle, or degrade to an intact resumable run dir).
/// Returns the number of contract violations.
std::size_t run_chaos(const options& opt, const std::string& exe) {
  namespace fs = std::filesystem;
  std::vector<std::string> modes;
  if (opt.mode == "all") {
    modes = {"scenario", "demand", "experiment"};
  } else {
    modes = {opt.mode};
  }

  std::size_t violations = 0;
  std::uint32_t trial = 0;  // global index: each trial gets a distinct palette
  for (const std::string& mode : modes) {
    options mopt = opt;
    mopt.mode = mode;
    mopt.preset = "smoke";
    if (opt.budget == 0) {
      // Small budgets: a chaos trial is about the protocol, not the
      // estimator — each run finishes in well under a second of compute.
      mopt.budget = mode == "scenario" ? 4'000 : 20'000;
    }

    // The in-process oracle, computed once per mode, and the distributed
    // campaign packaged as "config -> merged CSV" so the trial loop is
    // kind-agnostic.
    const mc::sweep_spec job = resolve_spec(mopt);
    std::string oracle;
    std::function<std::string(const mc::distributed_config&)> campaign;
    if (mode == "scenario") {
      const auto& m = std::get<mc::sweep_manifest>(job.manifest);
      const mc::scenario_config cfg = m.config(mopt.threads);
      oracle = mc::run_scenario_grid(m.axes, cfg).to_csv();
      campaign = [m, cfg, exe](const mc::distributed_config& dist) {
        return mc::run_distributed_grid(m.axes, cfg, dist, exe).to_csv();
      };
    } else if (mode == "demand") {
      const auto& m = std::get<mc::demand_manifest>(job.manifest);
      oracle = demand_tally_csv(
          m, mc::run_demand_campaign(m.target_pfd, m.demands, m.config(mopt.threads)));
      campaign = [m, exe](const mc::distributed_config& dist) {
        return demand_tally_csv(m, mc::run_distributed_demand(m, dist, exe));
      };
    } else {
      const auto& m = std::get<mc::experiment_manifest>(job.manifest);
      oracle = experiment_result_csv(mc::run_experiment(m.universe, m.config(mopt.threads)));
      campaign = [m, exe](const mc::distributed_config& dist) {
        return experiment_result_csv(mc::run_distributed_experiment(m, dist, exe));
      };
    }

    for (std::uint32_t p = 0; p < opt.chaos_plans; ++p, ++trial) {
      const mc::fault_plan plan = mc::chaos_plan(opt.chaos_seed, trial, opt.chaos_rate);
      mc::distributed_config dist;
      dist.run_dir = fs::path(opt.run_dir) / (mode + "_plan" + std::to_string(p));
      dist.workers = opt.workers;
      dist.max_cells = opt.max_cells;
      dist.worker_fault_plan = plan.to_string();

      bool ok = false;
      std::string verdict;
      try {
        // Arm A: the workers absorbed every injected fault (retry/backoff).
        // Reads cannot corrupt results — every state file is checksummed —
        // so a completed merge that differs from the oracle means a write
        // fault slipped through undetected: silent corruption.
        ok = campaign(dist) == oracle;
        verdict = ok ? "completed, byte-identical to oracle"
                     : "SILENT CORRUPTION: completed but differs from oracle";
      } catch (const std::exception& e) {
        // Arm B: the run degraded (quarantined cells, failed workers).  The
        // directory must still be intact and resumable: a clean
        // no-injection rerun has to finish the job bit-exactly.
        if (!opt.quiet) {
          std::printf("chaos[%s #%u]: degraded (%s); verifying clean resume\n",
                      mode.c_str(), p, e.what());
        }
        try {
          mc::distributed_config clean = dist;
          clean.worker_fault_plan.clear();
          if (campaign(clean) != oracle) {
            verdict = "CORRUPTION: clean resume completed but differs from oracle";
          } else if (!mc::quarantined_cells(dist.run_dir).empty()) {
            verdict = "resume succeeded but stale quarantine records remain";
          } else {
            ok = true;
            verdict = "degraded gracefully; clean resume byte-identical to oracle";
          }
        } catch (const std::exception& resume_error) {
          verdict = std::string("run dir not resumable: ") + resume_error.what();
        }
      }
      if (!ok) ++violations;
      if (!opt.quiet || !ok) {
        std::printf("chaos[%s #%u] plan{%s}: %s\n", mode.c_str(), p,
                    plan.to_string().c_str(), verdict.c_str());
      }
    }
  }
  if (!opt.quiet) {
    std::printf("chaos: %u trials, %zu contract violations\n", trial, violations);
  }
  return violations;
}

int run(const options& opt, const char* argv0) {
  if (opt.worker) {
    // An injection plan handed down by the chaos harness routes every
    // filesystem operation of this worker through the faulty seam.
    std::unique_ptr<mc::faulty_io_env> chaos_env;
    std::optional<mc::scoped_io_env> scoped;
    if (!opt.fault_plan.empty()) {
      chaos_env =
          std::make_unique<mc::faulty_io_env>(mc::fault_plan::parse(opt.fault_plan));
      scoped.emplace(*chaos_env);
    }
    // The job kind lives in the manifest: the same worker loop serves
    // scenario grids, demand campaigns and experiment shard windows.
    mc::worker_config wcfg;
    wcfg.max_cells = opt.max_cells;
    const mc::worker_report report = mc::run_pending_cells(opt.run_dir, wcfg);
    if (!opt.quiet) {
      std::printf("worker %d: computed %zu cells, skipped %zu, retried %zu, "
                  "quarantined %zu, backoff %llu ms\n",
                  ::getpid(), report.computed, report.skipped, report.retried,
                  report.quarantined,
                  static_cast<unsigned long long>(report.backoff_ms));
      if (chaos_env) {
        std::printf("worker %d: fault plan injected %llu faults over %llu operations\n",
                    ::getpid(),
                    static_cast<unsigned long long>(chaos_env->injected()),
                    static_cast<unsigned long long>(chaos_env->operations()));
      }
    }
    return report.quarantined > 0 ? 3 : 0;
  }

  if (opt.chaos) {
    return run_chaos(opt, self_exe(argv0)) == 0 ? 0 : 1;
  }

  if (opt.merge_only) {
    // run_handle dispatches on the manifest's kind — one code path for all
    // three job kinds.
    const mc::merged_tables tables = mc::run_handle::open(opt.run_dir).merge_tables();
    write_text_outputs(tables.csv, tables.json, tables.cells, opt);
    return 0;
  }

  const bool distribute = !opt.single;
  const mc::distributed_config dist{.run_dir = opt.run_dir, .workers = opt.workers,
                                    .max_cells = opt.max_cells,
                                    .worker_fault_plan = opt.fault_plan};
  if (distribute && !opt.quiet) {
    // No pending-count scan here: the coordinators do their own
    // missing-cells pass, and a resumed directory can be large.
    std::printf("coordinator: run dir %s, spawning up to %u workers\n",
                opt.run_dir.c_str(), opt.workers);
    // An extra sweep just for the report (the coordinator sweeps again
    // internally): on a resumed directory this is where an operator sees
    // recovery actually happen.
    const mc::claim_sweep_report sweep = mc::clean_stale_claims(opt.run_dir);
    if (sweep.claims_reaped > 0 || sweep.tmps_removed > 0 || sweep.claims_honored > 0) {
      std::printf("coordinator: claim sweep reaped %zu stale claims, removed %zu tmp "
                  "orphans, honored %zu live claims\n",
                  sweep.claims_reaped, sweep.tmps_removed, sweep.claims_honored);
    }
  }

  const mc::sweep_spec job = resolve_spec(opt);
  if (job.kind == mc::job_kind::demand_campaign) {
    const auto& m = std::get<mc::demand_manifest>(job.manifest);
    const mc::demand_tally tally =
        distribute ? mc::run_distributed_demand(m, dist, self_exe(argv0))
                   : mc::run_demand_campaign(m.target_pfd, m.demands,
                                             m.config(opt.threads));
    write_outputs(m, tally, opt);
    return 0;
  }

  if (job.kind == mc::job_kind::experiment_shards) {
    const auto& m = std::get<mc::experiment_manifest>(job.manifest);
    const mc::experiment_result result =
        distribute ? mc::run_distributed_experiment(m, dist, self_exe(argv0))
                   : mc::run_experiment(m.universe, m.config(opt.threads));
    write_outputs(m, result, opt);
    return 0;
  }

  const auto& m = std::get<mc::sweep_manifest>(job.manifest);
  const mc::scenario_config cfg = m.config(opt.threads);
  if (distribute) {
    write_outputs(mc::run_distributed_grid(m.axes, cfg, dist, self_exe(argv0)), opt);
  } else {
    write_outputs(mc::run_scenario_grid(m.axes, cfg), opt);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Service subcommands (serve / submit / status / merge / drain)
// ---------------------------------------------------------------------------

const char* service_usage(const std::string& cmd) {
  if (cmd == "serve") {
    return "usage: reldiv_sweep serve --root DIR [options]\n"
           "\n"
           "Run a long-poll worker fleet over the service root's queue: workers\n"
           "pick up runs submitted at any time (including after they started),\n"
           "sleep with bounded deterministic backoff when the queue is idle, and\n"
           "exit when the drain sentinel appears.\n"
           "\n"
           "  --root DIR           service root (queue/, runs/, cache/, drain)\n"
           "  --workers N          worker processes (default 2; 0 = run the worker\n"
           "                       loop in THIS process — what spawned workers do)\n"
           "  --max-cells K        per-worker per-pass cell quota (test/CI hook)\n"
           "  --poll-min-ms MS     backoff floor between empty polls (default 50)\n"
           "  --poll-max-ms MS     backoff ceiling (default 1000)\n"
           "  --max-polls N        exit after N consecutive empty polls (0 = serve\n"
           "                       forever, until drain)\n"
           "  --quiet              suppress the per-worker summary\n"
           "\n"
           "exit: 0 clean; 3 a worker quarantined cells; 1 other failure\n";
  }
  if (cmd == "submit") {
    return "usage: reldiv_sweep submit --root DIR [job options] [options]\n"
           "\n"
           "Initialize a run directory under <root>/runs/ and publish it on the\n"
           "queue (atomic rename through the I/O seam).  Memoized: when the\n"
           "manifest fingerprint is already in the result cache, the merged\n"
           "result is written immediately and nothing is enqueued or recomputed.\n"
           "\n"
           "  --root DIR           service root\n"
           "  --name NAME          submission name (default run_<fingerprint>;\n"
           "                       names order the queue lexicographically)\n"
           "  --spec FILE          declarative sweep-spec file (kind from the file)\n"
           "  --mode KIND          scenario (default) | demand | experiment\n"
           "  --preset NAME        smoke (default) | ci\n"
           "  --seed N             campaign seed (default 2026; overrides the spec)\n"
           "  --shards N           scenario: per-cell logical shards\n"
           "  --budget N           samples / demands per target\n"
           "  --engine NAME        experiment engine: fast|exact|legacy|fast-simd\n"
           "  --wait               block until the fleet finishes, then merge,\n"
           "                       memoize, dequeue and write outputs\n"
           "  --poll-min-ms MS / --poll-max-ms MS   --wait backoff (50 / 1000)\n"
           "  --out-csv PATH / --out-json PATH      results tables\n"
           "  --quiet              suppress progress chatter\n"
           "\n"
           "exit: 0 queued or served from cache; 3 run has quarantined cells\n";
  }
  if (cmd == "status") {
    return "usage: reldiv_sweep status --root DIR [--out-json PATH] [--quiet]\n"
           "\n"
           "Fleet progress as JSON — a pure function of the on-disk claim owner\n"
           "records and completed cell files: per queued run cells_done/total,\n"
           "quarantined count and distinct active workers, plus aggregates and\n"
           "the drain flag.  Printed to stdout unless --quiet.\n";
  }
  if (cmd == "merge") {
    return "usage: reldiv_sweep merge (--root DIR --name NAME | --run-dir DIR)\n"
           "                          [--wait] [--out-csv PATH] [--out-json PATH]\n"
           "\n"
           "Merged result tables of one run, any job kind.  With --root, the\n"
           "result cache is consulted first (a fingerprint hit skips the merge)\n"
           "and a fresh merge is memoized and its queue entry dequeued; --wait\n"
           "polls until every cell file exists.  With only --run-dir this is\n"
           "exactly the classic --merge-only.\n"
           "\n"
           "exit: 0 merged; 3 run has quarantined cells (with --wait)\n";
  }
  if (cmd == "drain") {
    return "usage: reldiv_sweep drain --root DIR [--clear] [--quiet]\n"
           "\n"
           "Raise the graceful-shutdown sentinel: every service worker finishes\n"
           "its current cell and exits, leaving no claims and no .tmp files.\n"
           "--clear removes the sentinel so a new fleet can start.\n";
  }
  return "";
}

bool service_flag_allowed(const std::string& cmd, const std::string& flag) {
  static const struct {
    const char* cmd;
    const char* flags;  // space-delimited, space-padded for whole-word find
  } kTable[] = {
      {"serve",
       " --root --workers --max-cells --poll-min-ms --poll-max-ms --max-polls"
       " --quiet "},
      {"submit",
       " --root --name --spec --mode --preset --seed --shards --budget --engine"
       " --wait --poll-min-ms --poll-max-ms --out-csv --out-json --quiet "},
      {"status", " --root --out-json --quiet "},
      {"merge",
       " --root --name --run-dir --wait --poll-min-ms --poll-max-ms --out-csv"
       " --out-json --quiet "},
      {"drain", " --root --clear --quiet "},
  };
  for (const auto& row : kTable) {
    if (cmd == row.cmd) {
      return std::string(row.flags).find(" " + flag + " ") != std::string::npos;
    }
  }
  return false;
}

options parse_service_args(const std::string& cmd, int argc, char** argv) {
  options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(service_usage(cmd), stdout);
      std::exit(0);
    }
    if (!service_flag_allowed(cmd, arg)) {
      throw std::invalid_argument("unknown flag '" + arg + "' for '" + cmd +
                                  "' (see reldiv_sweep " + cmd + " --help)");
    }
    if (arg == "--root") {
      opt.root = value();
    } else if (arg == "--name") {
      opt.name = value();
      mc::validate_submission_name(opt.name);
    } else if (arg == "--run-dir") {
      opt.run_dir = value();
    } else if (arg == "--workers") {
      opt.workers = parse_u32("--workers", value());
    } else if (arg == "--max-cells") {
      opt.max_cells = parse_u64("--max-cells", value());
    } else if (arg == "--poll-min-ms") {
      opt.poll_min_ms = parse_u64("--poll-min-ms", value());
    } else if (arg == "--poll-max-ms") {
      opt.poll_max_ms = parse_u64("--poll-max-ms", value());
    } else if (arg == "--max-polls") {
      opt.max_polls = parse_u64("--max-polls", value());
    } else if (arg == "--wait") {
      opt.wait = true;
    } else if (arg == "--clear") {
      opt.clear = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--mode") {
      opt.mode = value();
      opt.mode_set = true;
    } else if (arg == "--preset") {
      opt.preset = value();
    } else if (arg == "--spec") {
      opt.spec = value();
    } else if (arg == "--seed") {
      opt.seed = parse_u64("--seed", value());
      opt.seed_set = true;
    } else if (arg == "--shards") {
      opt.shards = parse_u32("--shards", value());
      opt.shards_set = true;
    } else if (arg == "--budget") {
      opt.budget = parse_u64("--budget", value());
    } else if (arg == "--engine") {
      opt.engine = value();
      (void)parse_engine(opt.engine);
    } else if (arg == "--out-csv") {
      opt.out_csv = value();
    } else if (arg == "--out-json") {
      opt.out_json = value();
    }
  }
  if (opt.poll_min_ms == 0 || opt.poll_max_ms < opt.poll_min_ms) {
    throw std::invalid_argument("--poll-min-ms must be > 0 and <= --poll-max-ms");
  }
  if (cmd == "merge") {
    if (opt.run_dir.empty() && (opt.root.empty() || opt.name.empty())) {
      throw std::invalid_argument("merge needs --run-dir, or --root with --name");
    }
  } else if (opt.root.empty()) {
    throw std::invalid_argument("'" + cmd + "' needs --root");
  }
  if (cmd == "submit") {
    const bool mode_ok =
        opt.mode == "scenario" || opt.mode == "demand" || opt.mode == "experiment";
    if (!mode_ok) {
      throw std::invalid_argument("unknown --mode '" + opt.mode +
                                  "' (expected scenario, demand or experiment)");
    }
  }
  return opt;
}

/// Block until every cell file of `run_dir` exists (deterministic doubling
/// backoff, same schedule as the service worker's long poll).  Returns 0
/// when complete, 3 when the run has quarantined cells — a quarantined cell
/// will never appear, so waiting on would hang forever.
int wait_for_run(const options& opt, const std::filesystem::path& run_dir) {
  std::chrono::milliseconds delay{opt.poll_min_ms};
  const std::chrono::milliseconds ceiling{opt.poll_max_ms};
  for (;;) {
    if (!mc::quarantined_cells(run_dir).empty()) {
      std::fprintf(stderr, "reldiv_sweep: run %s has quarantined cells\n",
                   run_dir.c_str());
      return 3;
    }
    if (mc::missing_cells(run_dir).empty()) return 0;
    std::this_thread::sleep_for(delay);
    delay = std::min(delay * 2, ceiling);
  }
}

int cmd_serve(const options& opt, const char* argv0) {
  if (opt.workers == 0) {
    mc::service_config cfg;
    cfg.worker.max_cells = opt.max_cells;
    cfg.poll_min = std::chrono::milliseconds(opt.poll_min_ms);
    cfg.poll_max = std::chrono::milliseconds(opt.poll_max_ms);
    cfg.max_polls = opt.max_polls;
    const mc::service_report rep = mc::run_service_worker(opt.root, cfg);
    if (!opt.quiet) {
      std::printf("service worker %d: %zu runs served, %zu cells computed, "
                  "%zu skipped, %zu retried, %zu quarantined, %llu empty polls%s\n",
                  ::getpid(), rep.runs_served, rep.cells_computed, rep.cells_skipped,
                  rep.retried, rep.quarantined,
                  static_cast<unsigned long long>(rep.polls),
                  rep.drained ? ", drained" : "");
    }
    return rep.quarantined > 0 ? 3 : 0;
  }
  // A fleet: N copies of this binary, each running the in-process loop
  // above.  Separate OS processes — a SIGKILL'd worker takes nothing down
  // with it, exactly like the classic coordinator's workers.
  std::vector<std::string> args = {"reldiv_sweep", "serve",     "--root",
                                   opt.root,       "--workers", "0"};
  args.insert(args.end(), {"--poll-min-ms", std::to_string(opt.poll_min_ms)});
  args.insert(args.end(), {"--poll-max-ms", std::to_string(opt.poll_max_ms)});
  if (opt.max_cells > 0) {
    args.insert(args.end(), {"--max-cells", std::to_string(opt.max_cells)});
  }
  if (opt.max_polls > 0) {
    args.insert(args.end(), {"--max-polls", std::to_string(opt.max_polls)});
  }
  if (opt.quiet) args.emplace_back("--quiet");
  const std::vector<int> pids = mc::spawn_processes(self_exe(argv0), args, opt.workers);
  if (!opt.quiet) {
    std::printf("serve: %u workers long-polling root %s\n", opt.workers,
                opt.root.c_str());
  }
  bool quarantined = false;
  bool failed = false;
  for (const int code : mc::wait_sweep_workers(pids)) {
    if (code == 3) {
      quarantined = true;
    } else if (code != 0) {
      failed = true;
    }
  }
  return failed ? 1 : (quarantined ? 3 : 0);
}

std::string default_run_name(std::uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "run_%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

int cmd_submit(const options& opt) {
  namespace fs = std::filesystem;
  // Resolve the spec and its fingerprint BEFORE touching the filesystem:
  // a cache hit must not create a run directory.
  const mc::sweep_spec job = resolve_spec(opt);
  std::uint64_t fp = 0;
  std::function<mc::run_handle(const fs::path&)> init;
  if (job.kind == mc::job_kind::demand_campaign) {
    const auto& m = std::get<mc::demand_manifest>(job.manifest);
    fp = mc::demand_manifest_fingerprint(m);
    init = [m](const fs::path& dir) { return mc::run_handle::init(m, dir); };
  } else if (job.kind == mc::job_kind::experiment_shards) {
    const auto& m = std::get<mc::experiment_manifest>(job.manifest);
    fp = mc::experiment_manifest_fingerprint(m);
    init = [m](const fs::path& dir) { return mc::run_handle::init(m, dir); };
  } else {
    const auto& m = std::get<mc::sweep_manifest>(job.manifest);
    fp = mc::manifest_fingerprint(m);
    init = [m](const fs::path& dir) {
      return mc::run_handle::init(m.axes, m.config(), dir);
    };
  }

  mc::result_cache cache(opt.root);
  if (const std::optional<mc::cached_result> hit = cache.lookup(fp)) {
    write_result_files(hit->csv, hit->json, opt);
    if (!opt.quiet) {
      std::printf("submit: fingerprint %016llx already merged — served from the "
                  "result cache, nothing enqueued\n",
                  static_cast<unsigned long long>(fp));
    }
    return 0;
  }

  const std::string name = opt.name.empty() ? default_run_name(fp) : opt.name;
  const fs::path run_dir = mc::runs_dir(opt.root) / name;
  const mc::run_handle handle = init(run_dir);
  const bool queued = mc::submit_queued_run(opt.root, name, run_dir);
  if (!opt.quiet) {
    std::printf("submit: %s '%s' (%s, %llu cells, fingerprint %016llx) -> %s\n",
                queued ? "queued" : "already queued", name.c_str(),
                std::string(mc::job_kind_name(handle.kind())).c_str(),
                static_cast<unsigned long long>(handle.cell_count()),
                static_cast<unsigned long long>(handle.fingerprint()),
                run_dir.c_str());
  }
  if (!opt.wait) return 0;

  const int rc = wait_for_run(opt, run_dir);
  if (rc != 0) return rc;
  const mc::cached_result entry = mc::merge_and_store(cache, run_dir);
  (void)mc::dequeue_run(opt.root, name);
  write_text_outputs(entry.csv, entry.json, handle.cell_count(), opt);
  return 0;
}

int cmd_status(const options& opt) {
  const mc::service_status status = mc::query_service_status(opt.root);
  const std::string json = status.to_json();
  if (!opt.out_json.empty()) {
    std::ofstream f(opt.out_json, std::ios::binary | std::ios::trunc);
    f << json;
    if (!f) throw std::runtime_error("cannot write " + opt.out_json);
  }
  if (!opt.quiet) std::fputs(json.c_str(), stdout);
  return 0;
}

int cmd_merge(const options& opt) {
  namespace fs = std::filesystem;
  fs::path run_dir = opt.run_dir;
  std::string queued_name;
  if (run_dir.empty()) {
    for (const mc::queue_entry& entry : mc::queued_runs(opt.root)) {
      if (entry.name == opt.name) {
        run_dir = entry.run_dir;
        queued_name = entry.name;
        break;
      }
    }
    // Already dequeued (e.g. a prior merge) but the run dir is still there.
    if (run_dir.empty()) run_dir = mc::runs_dir(opt.root) / opt.name;
  }

  if (opt.root.empty()) {
    // Standalone directory merge — the classic --merge-only.
    if (opt.wait) {
      const int rc = wait_for_run(opt, run_dir);
      if (rc != 0) return rc;
    }
    const mc::merged_tables tables = mc::run_handle::open(run_dir).merge_tables();
    write_text_outputs(tables.csv, tables.json, tables.cells, opt);
    return 0;
  }

  mc::result_cache cache(opt.root);
  const mc::run_handle handle = mc::run_handle::open(run_dir);
  if (const std::optional<mc::cached_result> hit = cache.lookup(handle.fingerprint())) {
    write_result_files(hit->csv, hit->json, opt);
    if (!queued_name.empty()) (void)mc::dequeue_run(opt.root, queued_name);
    if (!opt.quiet) {
      std::printf("merge: fingerprint %016llx served from the result cache\n",
                  static_cast<unsigned long long>(handle.fingerprint()));
    }
    return 0;
  }
  if (opt.wait) {
    const int rc = wait_for_run(opt, run_dir);
    if (rc != 0) return rc;
  }
  const mc::cached_result entry = mc::merge_and_store(cache, run_dir);
  if (!queued_name.empty()) (void)mc::dequeue_run(opt.root, queued_name);
  write_text_outputs(entry.csv, entry.json, handle.cell_count(), opt);
  return 0;
}

int cmd_drain(const options& opt) {
  if (opt.clear) {
    mc::clear_drain(opt.root);
    if (!opt.quiet) std::printf("drain: sentinel cleared on %s\n", opt.root.c_str());
  } else {
    mc::request_drain(opt.root);
    if (!opt.quiet) {
      std::printf("drain: sentinel raised on %s — workers exit after their "
                  "current cell\n",
                  opt.root.c_str());
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// describe / refine subcommands (spec-layer tools; no service root involved)
// ---------------------------------------------------------------------------

const char* tool_usage(const std::string& cmd) {
  if (cmd == "describe") {
    return "usage: reldiv_sweep describe RUN_DIR [--out-json PATH]\n"
           "                             [--out-spec PATH] [--quiet]\n"
           "\n"
           "Print the run directory's spec/axes as %.17g-clean JSON (kind,\n"
           "fingerprint, seed, every axis, atom-for-atom universes).  --out-spec\n"
           "re-emits the run as a launchable sweep-spec file: submitting it\n"
           "reproduces the manifest fingerprint exactly.\n";
  }
  return "usage: reldiv_sweep refine --spec ROUND_N.spec --table MERGED.csv\n"
         "                           --out ROUND_N+1.spec [--quiet]\n"
         "\n"
         "Deterministic adaptive refinement: re-budget every cell of a scenario\n"
         "spec (which must carry a [refine] section) as a pure function of the\n"
         "merged round-N results table, and write the round-N+1 spec — same\n"
         "grid, same seeds, per-cell `cell_budget` overrides.  The output is\n"
         "byte-identical for identical inputs, whatever produced the table.\n"
         "\n"
         "exit: 0 written; 2 malformed spec/table (with file:line positions)\n";
}

options parse_tool_args(const std::string& cmd, int argc, char** argv) {
  options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(tool_usage(cmd), stdout);
      std::exit(0);
    }
    if (cmd == "describe" && arg == "--run-dir") {
      opt.run_dir = value();
    } else if (cmd == "describe" && arg == "--out-json") {
      opt.out_json = value();
    } else if (cmd == "describe" && arg == "--out-spec") {
      opt.out_spec = value();
    } else if (cmd == "describe" && !arg.empty() && arg[0] != '-' &&
               opt.run_dir.empty()) {
      opt.run_dir = arg;  // positional run directory
    } else if (cmd == "refine" && arg == "--spec") {
      opt.spec = value();
    } else if (cmd == "refine" && arg == "--table") {
      opt.table = value();
    } else if (cmd == "refine" && arg == "--out") {
      opt.out = value();
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      throw std::invalid_argument("unknown flag '" + arg + "' for '" + cmd +
                                  "' (see reldiv_sweep " + cmd + " --help)");
    }
  }
  if (cmd == "describe" && opt.run_dir.empty()) {
    throw std::invalid_argument("describe needs a run directory");
  }
  if (cmd == "refine" && (opt.spec.empty() || opt.table.empty() || opt.out.empty())) {
    throw std::invalid_argument("refine needs --spec, --table and --out");
  }
  return opt;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

int cmd_describe(const options& opt) {
  const mc::run_handle handle = mc::run_handle::open(opt.run_dir);
  const std::string json = handle.describe();
  if (!opt.out_json.empty()) write_text_file(opt.out_json, json);
  if (!opt.out_spec.empty()) {
    write_text_file(opt.out_spec,
                    mc::write_sweep_spec(mc::spec_from_manifest(handle.manifest())));
  }
  if (!opt.quiet) std::fputs(json.c_str(), stdout);
  return 0;
}

int cmd_refine(const options& opt) {
  mc::spec_parse_result parsed =
      mc::parse_sweep_spec(read_text_file(opt.spec), opt.spec);
  if (!parsed.spec) throw spec_failure(render_spec_errors(parsed.errors));
  mc::sweep_spec spec = std::move(*parsed.spec);
  if (spec.kind != mc::job_kind::scenario_grid) {
    throw spec_failure(opt.spec + ": refinement applies to scenario grids only");
  }
  if (!spec.has_refine) {
    throw spec_failure(opt.spec +
                       ": no [refine] section — add one to declare the rule");
  }
  auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  std::uint64_t old_total = 0;
  for (const mc::scenario_cell& cell : mc::enumerate_cells(m.axes)) {
    old_total += cell.samples;
  }
  mc::refined_budgets refined = mc::compute_refined_budgets(
      m, spec.refine, read_text_file(opt.table), opt.table);
  if (!refined.errors.empty()) throw spec_failure(render_spec_errors(refined.errors));
  std::uint64_t new_total = 0;
  for (const std::uint64_t b : refined.budgets) new_total += b;
  m.axes.cell_budgets = std::move(refined.budgets);
  write_text_file(opt.out, mc::write_sweep_spec(spec));
  if (!opt.quiet) {
    std::printf("refine: %llu cells, total budget %llu -> %llu, spec -> %s\n",
                static_cast<unsigned long long>(m.cell_count),
                static_cast<unsigned long long>(old_total),
                static_cast<unsigned long long>(new_total), opt.out.c_str());
  }
  return 0;
}

int tool_main(const std::string& cmd, int argc, char** argv) {
  options opt;
  try {
    opt = parse_tool_args(cmd, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep %s: %s\n", cmd.c_str(), e.what());
    std::fputs(tool_usage(cmd), stderr);
    return 2;
  }
  try {
    return cmd == "describe" ? cmd_describe(opt) : cmd_refine(opt);
  } catch (const spec_failure& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}

int legacy_main(int argc, char** argv) {
  options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep: %s\n", e.what());
    usage(stderr);
    return 2;
  }
  try {
    return run(opt, argv[0]);
  } catch (const spec_failure& e) {
    // Spec diagnostics carry their own file:line positions — print them
    // bare; a usage dump would bury them.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep: %s\n", e.what());
    return 1;
  }
}

int service_main(const std::string& cmd, int argc, char** argv) {
  options opt;
  try {
    opt = parse_service_args(cmd, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep %s: %s\n", cmd.c_str(), e.what());
    std::fputs(service_usage(cmd), stderr);
    return 2;
  }
  try {
    if (cmd == "serve") return cmd_serve(opt, argv[0]);
    if (cmd == "submit") return cmd_submit(opt);
    if (cmd == "status") return cmd_status(opt);
    if (cmd == "merge") return cmd_merge(opt);
    return cmd_drain(opt);
  } catch (const spec_failure& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && argv[1][0] != '-') {
    const std::string cmd = argv[1];
    if (cmd == "serve" || cmd == "submit" || cmd == "status" || cmd == "merge" ||
        cmd == "drain") {
      return service_main(cmd, argc, argv);
    }
    if (cmd == "describe" || cmd == "refine") {
      return tool_main(cmd, argc, argv);
    }
    if (cmd == "single" || cmd == "worker" || cmd == "chaos") {
      // Aliases for the classic role flags: rewrite `reldiv_sweep worker ...`
      // to `reldiv_sweep --worker ...` and reuse the classic parser, so both
      // spellings stay byte-for-byte equivalent.
      std::string flag = "--" + cmd;
      std::vector<char*> args;
      args.push_back(argv[0]);
      args.push_back(flag.data());
      for (int i = 2; i < argc; ++i) args.push_back(argv[i]);
      return legacy_main(static_cast<int>(args.size()), args.data());
    }
    std::fprintf(stderr, "reldiv_sweep: unknown subcommand '%s'\n", cmd.c_str());
    usage(stderr);
    return 2;
  }
  return legacy_main(argc, argv);
}
