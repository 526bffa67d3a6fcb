// reldiv_sweep — the campaign CLI: one binary, three job kinds
// (scenario grids, demand campaigns, experiment shard windows), ten
// subcommands with one grammar — `reldiv_sweep <command> [flags]`, each
// command accepting only its own flags (`reldiv_sweep <command> --help`):
//
//   single    --spec F | --mode KIND [--preset P]   run in-process: the oracle
//   submit    --root svc --name job --spec F         init + queue a run dir
//   worker    --run-dir svc/runs/job [--max-cells K] claim + compute its cells
//   serve     --root svc --workers N                 long-poll worker fleet
//   status    --root svc                             progress JSON
//   merge     --root svc --name job | --run-dir D    merged tables (cached)
//   drain     --root svc [--clear]                   graceful fleet shutdown
//   chaos     --run-dir D [--mode all]               fault-injection harness
//   describe  RUN_DIR [--out-spec F]                 a run's identity as JSON
//   refine    --spec F --table T --out F2            the next adaptive round
//
// A distributed run is submit, then worker processes (any number, on any
// hosts sharing the run directory, killed and restarted at will) or a serve
// fleet, then merge.  The workers learn the job kind from the manifest; the
// merged tables are byte-identical to `single` on the same job, whatever the
// worker count or kill/resume history.  Every per-kind operation lives in
// the job-kind table behind mc::run_handle (src/mc/distributed.cpp), so
// nothing here branches on the job kind.
//
// Exit codes: 0 success; 1 failure (incomplete run, invalid state files,
// chaos contract violation, ...); 2 usage error or spec diagnostic; 3 a
// worker or run that quarantined cells.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include <unistd.h>

#include "mc/distributed.hpp"
#include "mc/io_env.hpp"
#include "mc/run_dir.hpp"
#include "mc/service.hpp"
#include "mc/spec.hpp"

namespace {

using namespace reldiv;

struct options {
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
  std::optional<std::uint64_t> budget;        // unset = the preset's/spec's
  std::optional<mc::sampling_engine> engine;  // unset = the spec's; experiment only
  std::string run_dir;
  unsigned workers = 2;
  std::size_t max_cells = 0;
  std::string out_csv;
  std::string out_json;
  std::string root;
  std::string name;
  bool wait = false;
  bool clear = false;
  std::uint64_t poll_min_ms = 50;
  std::uint64_t poll_max_ms = 1000;
  std::uint64_t max_polls = 0;
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

/// The presets of each --mode, and the budget a chaos trial of that kind
/// runs at: small, because a chaos trial tests the protocol, not the
/// estimator.
struct preset_row {
  const char* mode;
  mc::job_kind kind;
  const char* smoke;
  const char* ci;
  std::uint64_t chaos_budget;
};

constexpr preset_row kPresets[] = {
    {"scenario", mc::job_kind::scenario_grid, kScenarioSmokeSpec, kScenarioCiSpec, 4'000},
    {"demand", mc::job_kind::demand_campaign, kDemandSmokeSpec, kDemandCiSpec, 20'000},
    {"experiment", mc::job_kind::experiment_shards, kExperimentSmokeSpec, kExperimentCiSpec,
     20'000},
};

const preset_row& preset_for(const std::string& mode) {
  for (const preset_row& row : kPresets) {
    if (mode == row.mode) return row;
  }
  throw std::invalid_argument("unknown --mode '" + mode +
                              "' (expected scenario, demand or experiment)");
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

/// Resolve the job declaration: --spec FILE when given, else the embedded
/// preset for (--mode, --preset).  Explicit CLI flags override the spec's
/// values (an unset flag never clobbers the file).
mc::sweep_spec resolve_spec(const options& opt) {
  mc::spec_overrides ov;
  if (opt.seed_set) ov.seed = opt.seed;
  if (opt.shards_set) ov.shards = opt.shards;
  ov.budget = opt.budget;
  ov.engine = opt.engine;

  const preset_row& preset = preset_for(opt.mode);
  std::string text;
  std::string label;
  if (!opt.spec.empty()) {
    text = read_text_file(opt.spec);
    label = opt.spec;
  } else {
    text = opt.preset == "ci" ? preset.ci : preset.smoke;
    label = "<preset " + opt.mode + "/" + opt.preset + ">";
  }
  mc::spec_parse_result result = mc::parse_sweep_spec(text, label, ov);
  if (!result.spec) throw spec_failure(render_spec_errors(result.errors));
  if (opt.mode_set && preset.kind != result.spec->kind) {
    throw spec_failure(label + ": spec kind '" +
                       std::string(mc::job_kind_name(result.spec->kind)) +
                       "' disagrees with --mode " + opt.mode);
  }
  return std::move(*result.spec);
}

// ---------------------------------------------------------------------------
// Output plumbing
// ---------------------------------------------------------------------------

/// The one file writer: `text` to `path`, or nothing when the flag naming
/// `path` was not given.
void write_text_file(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// A run's tables to --out-csv/--out-json, plus the progress line.
void write_tables(const mc::merged_tables& tables, const options& opt) {
  write_text_file(opt.out_csv, tables.csv);
  write_text_file(opt.out_json, tables.json);
  if (opt.quiet) return;
  std::printf("%zu cells merged", tables.cells);
  if (!opt.out_csv.empty()) std::printf(", csv -> %s", opt.out_csv.c_str());
  if (!opt.out_json.empty()) std::printf(", json -> %s", opt.out_json.c_str());
  std::printf("\n");
}

/// chaos and serve re-exec this very binary as their workers.
std::string self_exe(const char* argv0) {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

// ---------------------------------------------------------------------------
// single / worker / chaos
// ---------------------------------------------------------------------------

int cmd_single(const options& opt, const char*) {
  write_tables(mc::run_single_process(resolve_spec(opt).manifest, opt.threads), opt);
  return 0;
}

int cmd_worker(const options& opt, const char*) {
  // An injection plan handed down by the chaos harness routes every
  // filesystem operation of this worker through the faulty seam.
  std::unique_ptr<mc::faulty_io_env> chaos_env;
  std::optional<mc::scoped_io_env> scoped;
  if (!opt.fault_plan.empty()) {
    chaos_env = std::make_unique<mc::faulty_io_env>(mc::fault_plan::parse(opt.fault_plan));
    scoped.emplace(*chaos_env);
  }
  mc::worker_config wcfg;
  wcfg.max_cells = opt.max_cells;
  const mc::worker_report report = mc::run_pending_cells(opt.run_dir, wcfg);
  if (!opt.quiet) {
    std::printf("worker %d: computed %zu cells, skipped %zu, retried %zu, "
                "quarantined %zu, backoff %llu ms\n",
                ::getpid(), report.computed, report.skipped, report.retried,
                report.quarantined, static_cast<unsigned long long>(report.backoff_ms));
    if (chaos_env) {
      std::printf("worker %d: fault plan injected %llu faults over %llu operations\n",
                  ::getpid(), static_cast<unsigned long long>(chaos_env->injected()),
                  static_cast<unsigned long long>(chaos_env->operations()));
    }
  }
  return report.quarantined > 0 ? 3 : 0;
}

/// Sweep deterministic injection plans through distributed runs of every
/// requested job kind, holding each trial to the two-arm contract (complete
/// byte-identical to the oracle, or degrade to an intact resumable run dir).
int cmd_chaos(const options& opt, const char* argv0) {
  namespace fs = std::filesystem;
  const std::string exe = self_exe(argv0);
  std::size_t violations = 0;
  std::uint32_t trial = 0;  // global index: each trial gets a distinct palette
  for (const preset_row& preset : kPresets) {
    if (opt.mode != "all" && opt.mode != preset.mode) continue;
    options job = opt;
    job.mode = preset.mode;
    job.preset = "smoke";
    job.budget = opt.budget.value_or(preset.chaos_budget);
    const mc::sweep_spec spec = resolve_spec(job);
    const std::string oracle = mc::run_single_process(spec.manifest, opt.threads).csv;
    const auto campaign = [&](const mc::distributed_config& dist) {
      return mc::run_distributed(spec.manifest, dist, exe).merge_tables().csv;
    };

    for (std::uint32_t p = 0; p < opt.chaos_plans; ++p, ++trial) {
      const mc::fault_plan plan = mc::chaos_plan(opt.chaos_seed, trial, opt.chaos_rate);
      mc::distributed_config dist;
      dist.run_dir = fs::path(opt.run_dir) / (job.mode + "_plan" + std::to_string(p));
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
                      job.mode.c_str(), p, e.what());
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
        std::printf("chaos[%s #%u] plan{%s}: %s\n", job.mode.c_str(), p,
                    plan.to_string().c_str(), verdict.c_str());
      }
    }
  }
  if (!opt.quiet) {
    std::printf("chaos: %u trials, %zu contract violations\n", trial, violations);
  }
  return violations == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Service: serve / submit / status / merge / drain
// ---------------------------------------------------------------------------

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
  // with it.
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

int cmd_submit(const options& opt, const char*) {
  namespace fs = std::filesystem;
  // Resolve the spec and its fingerprint BEFORE touching the filesystem:
  // a cache hit must not create a run directory.
  const mc::sweep_spec job = resolve_spec(opt);
  const std::uint64_t fp = mc::job_fingerprint(job.manifest);
  mc::result_cache cache(opt.root);
  if (const std::optional<mc::cached_result> hit = cache.lookup(fp)) {
    write_text_file(opt.out_csv, hit->csv);
    write_text_file(opt.out_json, hit->json);
    if (!opt.quiet) {
      std::printf("submit: fingerprint %016llx already merged — served from the "
                  "result cache, nothing enqueued\n",
                  static_cast<unsigned long long>(fp));
    }
    return 0;
  }

  const std::string name = opt.name.empty() ? default_run_name(fp) : opt.name;
  const fs::path run_dir = mc::runs_dir(opt.root) / name;
  const mc::run_handle handle = mc::run_handle::init(job.manifest, run_dir);
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
  write_tables({entry.csv, entry.json, handle.cell_count()}, opt);
  return 0;
}

int cmd_status(const options& opt, const char*) {
  const std::string json = mc::query_service_status(opt.root).to_json();
  write_text_file(opt.out_json, json);
  if (!opt.quiet) std::fputs(json.c_str(), stdout);
  return 0;
}

int cmd_merge(const options& opt, const char*) {
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
    // A bare run directory: no service root, no result cache.
    if (opt.wait) {
      const int rc = wait_for_run(opt, run_dir);
      if (rc != 0) return rc;
    }
    write_tables(mc::run_handle::open(run_dir).merge_tables(), opt);
    return 0;
  }

  mc::result_cache cache(opt.root);
  const mc::run_handle handle = mc::run_handle::open(run_dir);
  if (const std::optional<mc::cached_result> hit = cache.lookup(handle.fingerprint())) {
    write_text_file(opt.out_csv, hit->csv);
    write_text_file(opt.out_json, hit->json);
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
  write_tables({entry.csv, entry.json, handle.cell_count()}, opt);
  return 0;
}

int cmd_drain(const options& opt, const char*) {
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
// describe / refine (spec-layer tools; no service root involved)
// ---------------------------------------------------------------------------

int cmd_describe(const options& opt, const char*) {
  const mc::run_handle handle = mc::run_handle::open(opt.run_dir);
  const std::string json = handle.describe();
  write_text_file(opt.out_json, json);
  if (!opt.out_spec.empty()) {
    write_text_file(opt.out_spec,
                    mc::write_sweep_spec(mc::spec_from_manifest(handle.manifest())));
  }
  if (!opt.quiet) std::fputs(json.c_str(), stdout);
  return 0;
}

int cmd_refine(const options& opt, const char*) {
  mc::spec_parse_result parsed = mc::parse_sweep_spec(read_text_file(opt.spec), opt.spec);
  if (!parsed.spec) throw spec_failure(render_spec_errors(parsed.errors));
  mc::sweep_spec spec = std::move(*parsed.spec);
  if (spec.kind != mc::job_kind::scenario_grid) {
    throw spec_failure(opt.spec + ": refinement applies to scenario grids only");
  }
  if (!spec.has_refine) {
    throw spec_failure(opt.spec + ": no [refine] section — add one to declare the rule");
  }
  auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  std::uint64_t old_total = 0;
  for (const mc::scenario_cell& cell : mc::enumerate_cells(m.axes)) {
    old_total += cell.samples;
  }
  mc::refined_budgets refined =
      mc::compute_refined_budgets(m, spec.refine, read_text_file(opt.table), opt.table);
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

// ---------------------------------------------------------------------------
// The grammar: one row per subcommand, one parser, one exit-code wrapper
// ---------------------------------------------------------------------------

constexpr const char* kUsage =
    "usage: reldiv_sweep <command> [flags]   (reldiv_sweep <command> --help)\n"
    "\n"
    "  single    run a job in-process: the oracle every merge is byte-identical to\n"
    "  submit    create a run directory under a service root and queue it\n"
    "            (memoized: an identical manifest is served from the result cache)\n"
    "  worker    claim and compute the pending cells of one run directory\n"
    "  serve     long-poll worker fleet over a service root's queue\n"
    "  status    fleet progress as %.17g-clean JSON\n"
    "  merge     merged tables of a queued run, or of any complete run directory\n"
    "  drain     raise or clear the graceful-shutdown sentinel\n"
    "  chaos     fault-injection harness: seeded fault plans through worker fleets\n"
    "  describe  a run directory's spec/axes as %.17g-clean JSON\n"
    "  refine    emit the round-N+1 spec from a merged round-N table\n"
    "\n"
    "A distributed run is submit, then worker (any number, on any hosts that\n"
    "share the run directory) or serve, then merge; its tables are\n"
    "byte-identical to single's.\n"
    "\n"
    "exit: 0 success; 1 failure; 2 usage or spec error; 3 quarantined cells\n";

struct command {
  const char* name;
  const char* flags;  ///< the flags it accepts: space-delimited, space-padded
  const char* usage;
  int (*run)(const options&, const char* argv0);
};

constexpr command kCommands[] = {
    {"single",
     " --spec --mode --preset --seed --shards --budget --engine --threads --out-csv"
     " --out-json --quiet ",
     "usage: reldiv_sweep single [job options] [--threads N] [output options]\n"
     "\n"
     "Run one job in-process (run_scenario_grid / run_demand_campaign /\n"
     "run_experiment): the oracle that every distributed merge of the same job\n"
     "is byte-identical to.\n"
     "\n"
     "  --spec FILE          declarative sweep-spec file (kind from its [sweep] kind)\n"
     "  --mode KIND          scenario (default) | demand | experiment\n"
     "  --preset NAME        smoke (default) | ci: examples/specs/<mode>_<name>.spec\n"
     "  --seed N             campaign seed (default 2026; overrides the spec)\n"
     "  --shards N           logical shards: per cell (scenario) or for the run\n"
     "                       (experiment); 0 = budget-scaled\n"
     "  --budget N           scenario/experiment: samples; demand: demands per target\n"
     "  --engine NAME        experiment engine: {engines}\n"
     "  --threads N          worker threads (default 0 = the CPUs this process may use)\n"
     "  --out-csv PATH / --out-json PATH      results tables\n"
     "  --quiet              suppress the progress line\n",
     cmd_single},
    {"submit",
     " --root --name --spec --mode --preset --seed --shards --budget --engine --wait"
     " --poll-min-ms --poll-max-ms --out-csv --out-json --quiet ",
     "usage: reldiv_sweep submit --root DIR [job options] [options]\n"
     "\n"
     "Initialize a run directory under <root>/runs/ and publish it on the\n"
     "queue (atomic rename through the I/O seam).  Memoized: when the\n"
     "manifest fingerprint is already in the result cache, the merged\n"
     "result is written immediately and nothing is enqueued or recomputed.\n"
     "\n"
     "  --root DIR           service root\n"
     "  --name NAME          submission name (default run_<fingerprint>;\n"
     "                       names order the queue lexicographically)\n"
     "  --spec/--mode/--preset/--seed/--shards/--budget/--engine   as for single\n"
     "  --wait               block until the cells are done, then merge,\n"
     "                       memoize, dequeue and write outputs\n"
     "  --poll-min-ms MS / --poll-max-ms MS   --wait backoff (50 / 1000)\n"
     "  --out-csv PATH / --out-json PATH      results tables\n"
     "  --quiet              suppress progress chatter\n"
     "\n"
     "exit: 0 queued or served from cache; 3 run has quarantined cells\n",
     cmd_submit},
    {"worker", " --run-dir --max-cells --fault-plan --quiet ",
     "usage: reldiv_sweep worker --run-dir DIR [--max-cells K] [--fault-plan RECIPE]\n"
     "                           [--quiet]\n"
     "\n"
     "Claim and compute the pending cells of a run directory one at a time,\n"
     "then exit.  The job kind comes from the directory's manifest.  Any\n"
     "number of workers may run against one directory, on any hosts sharing\n"
     "it, and be killed and restarted at will.\n"
     "\n"
     "  --run-dir DIR        the run directory (`submit` creates it)\n"
     "  --max-cells K        stop after computing K cells (test/CI hook)\n"
     "  --fault-plan RECIPE  inject the deterministic fault plan a chaos run\n"
     "                       prints (seed=..,rate_ppm=..,ops=..,kinds=..,stall_ms=..)\n"
     "  --quiet              suppress the summary line\n"
     "\n"
     "exit: 0 done; 3 cells were quarantined; 1 other failure\n",
     cmd_worker},
    {"serve",
     " --root --workers --max-cells --poll-min-ms --poll-max-ms --max-polls --quiet ",
     "usage: reldiv_sweep serve --root DIR [options]\n"
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
     "exit: 0 clean; 3 a worker quarantined cells; 1 other failure\n",
     cmd_serve},
    {"status", " --root --out-json --quiet ",
     "usage: reldiv_sweep status --root DIR [--out-json PATH] [--quiet]\n"
     "\n"
     "Fleet progress as JSON — a pure function of the on-disk claim owner\n"
     "records and completed cell files: per queued run cells_done/total,\n"
     "quarantined count and distinct active workers, plus aggregates and\n"
     "the drain flag.  Printed to stdout unless --quiet.\n",
     cmd_status},
    {"merge",
     " --root --name --run-dir --wait --poll-min-ms --poll-max-ms --out-csv --out-json"
     " --quiet ",
     "usage: reldiv_sweep merge (--root DIR --name NAME | --run-dir DIR)\n"
     "                          [--wait] [--out-csv PATH] [--out-json PATH]\n"
     "\n"
     "Merged result tables of one run, any job kind.  With --root, the\n"
     "result cache is consulted first (a fingerprint hit skips the merge)\n"
     "and a fresh merge is memoized and its queue entry dequeued; --wait\n"
     "polls until every cell file exists.  With only --run-dir it merges a\n"
     "bare run directory, with no service root or cache.\n"
     "\n"
     "exit: 0 merged; 3 run has quarantined cells (with --wait)\n",
     cmd_merge},
    {"drain", " --root --clear --quiet ",
     "usage: reldiv_sweep drain --root DIR [--clear] [--quiet]\n"
     "\n"
     "Raise the graceful-shutdown sentinel: every service worker finishes\n"
     "its current cell and exits, leaving no claims and no .tmp files.\n"
     "--clear removes the sentinel so a new fleet can start.\n",
     cmd_drain},
    {"chaos",
     " --run-dir --mode --seed --shards --budget --engine --threads --workers"
     " --max-cells --chaos-seed --chaos-plans --chaos-rate --quiet ",
     "usage: reldiv_sweep chaos --run-dir DIR [--mode KIND|all] [options]\n"
     "\n"
     "For each job kind and each deterministic fault plan (derived from\n"
     "--chaos-seed, replayable), run the kind's smoke preset across --workers\n"
     "worker processes with the plan installed in every worker's I/O seam,\n"
     "and hold the trial to the two-arm contract: it completes with merged\n"
     "tables byte-identical to the in-process oracle, OR it fails leaving a\n"
     "run directory whose clean no-injection resume is byte-identical.\n"
     "Anything else — especially \"completed but differs\" — is a violation.\n"
     "\n"
     "  --run-dir DIR        parent of one run directory per trial\n"
     "  --mode KIND          scenario | demand | experiment | all (default)\n"
     "  --chaos-seed N       plan seed (default 7331)\n"
     "  --chaos-plans N      plans per job kind (default 2)\n"
     "  --chaos-rate PPM     per-operation fault rate in parts per million\n"
     "                       (default 30000)\n"
     "  --workers N          worker processes per trial (default 2)\n"
     "  --max-cells K        per-worker cell quota\n"
     "  --seed/--shards/--budget/--engine/--threads   as for single\n"
     "  --quiet              print violations only\n"
     "\n"
     "exit: 0 every trial held the contract; 1 a violation\n",
     cmd_chaos},
    {"describe", " --run-dir --out-json --out-spec --quiet ",
     "usage: reldiv_sweep describe RUN_DIR [--out-json PATH]\n"
     "                             [--out-spec PATH] [--quiet]\n"
     "\n"
     "Print the run directory's spec/axes as %.17g-clean JSON (kind,\n"
     "fingerprint, seed, every axis, atom-for-atom universes).  --out-spec\n"
     "re-emits the run as a launchable sweep-spec file: submitting it\n"
     "reproduces the manifest fingerprint exactly.\n",
     cmd_describe},
    {"refine", " --spec --table --out --quiet ",
     "usage: reldiv_sweep refine --spec ROUND_N.spec --table MERGED.csv\n"
     "                           --out ROUND_N+1.spec [--quiet]\n"
     "\n"
     "Deterministic adaptive refinement: re-budget every cell of a scenario\n"
     "spec (which must carry a [refine] section) as a pure function of the\n"
     "merged round-N results table, and write the round-N+1 spec — same\n"
     "grid, same seeds, per-cell `cell_budget` overrides.  The output is\n"
     "byte-identical for identical inputs, whatever produced the table.\n"
     "\n"
     "exit: 0 written; 2 malformed spec/table (with file:line positions)\n",
     cmd_refine},
};

std::uint64_t parse_u64(const std::string& flag, const char* value) {
  // Digits only.  strtoull would skip leading whitespace, then take a sign
  // and wrap " -1" to 2^64 - 1; from_chars on an unsigned type takes neither.
  const std::string_view text(value);
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw std::invalid_argument(flag + " expects an unsigned integer, got '" + value + "'");
  }
  return v;
}

unsigned parse_u32(const std::string& flag, const char* value) {
  const std::uint64_t v = parse_u64(flag, value);
  if (v > std::numeric_limits<unsigned>::max()) {
    throw std::invalid_argument(flag + " value out of range: " + value);
  }
  return static_cast<unsigned>(v);
}

/// `cmd`'s usage text with its {engines} placeholder filled from the engine
/// name table, the default marked, so the help never restates the default.
std::string usage_text(const command& cmd) {
  std::string text = cmd.usage;
  const std::string_view placeholder = "{engines}";
  const std::size_t at = text.find(placeholder);
  if (at == std::string::npos) return text;
  std::string engines;
  for (const mc::sampling_engine engine : mc::sampling_engines()) {
    if (!engines.empty()) engines += " | ";
    engines += mc::sampling_engine_name(engine);
    if (engine == mc::experiment_config{}.engine) engines += " (default)";
  }
  return text.replace(at, placeholder.size(), engines);
}

/// The one parser: argv[2..] against `cmd`'s row of the flag table.
options parse_args(const command& cmd, int argc, char** argv) {
  const std::string_view name = cmd.name;
  options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage_text(cmd).c_str(), stdout);
      std::exit(0);
    }
    if (name == "describe" && arg[0] != '-' && opt.run_dir.empty()) {
      opt.run_dir = arg;  // positional run directory
      continue;
    }
    if (std::string_view(cmd.flags).find(" " + arg + " ") == std::string_view::npos) {
      throw std::invalid_argument("unknown flag '" + arg + "' for '" + cmd.name +
                                  "' (see reldiv_sweep " + cmd.name + " --help)");
    }
    if (arg == "--spec") {
      opt.spec = value();
    } else if (arg == "--mode") {
      opt.mode = value();
      opt.mode_set = true;
    } else if (arg == "--preset") {
      opt.preset = value();
      if (opt.preset != "smoke" && opt.preset != "ci") {
        throw std::invalid_argument("unknown preset '" + opt.preset +
                                    "' (expected smoke or ci)");
      }
    } else if (arg == "--seed") {
      opt.seed = parse_u64(arg, value());
      opt.seed_set = true;
    } else if (arg == "--shards") {
      opt.shards = parse_u32(arg, value());
      opt.shards_set = true;
    } else if (arg == "--budget") {
      opt.budget = parse_u64(arg, value());
    } else if (arg == "--engine") {
      opt.engine = mc::parse_sampling_engine(value());  // typos fail here, before any work
    } else if (arg == "--threads") {
      opt.threads = parse_u32(arg, value());
    } else if (arg == "--run-dir") {
      opt.run_dir = value();
    } else if (arg == "--workers") {
      opt.workers = parse_u32(arg, value());
    } else if (arg == "--max-cells") {
      opt.max_cells = parse_u64(arg, value());
    } else if (arg == "--fault-plan") {
      opt.fault_plan = value();
      // Fail at the flag, not deep inside a worker run: the recipe must
      // round-trip through fault_plan::parse.
      (void)mc::fault_plan::parse(opt.fault_plan);
    } else if (arg == "--chaos-seed") {
      opt.chaos_seed = parse_u64(arg, value());
    } else if (arg == "--chaos-plans") {
      opt.chaos_plans = parse_u32(arg, value());
    } else if (arg == "--chaos-rate") {
      opt.chaos_rate = parse_u32(arg, value());
    } else if (arg == "--root") {
      opt.root = value();
    } else if (arg == "--name") {
      opt.name = value();
      mc::validate_submission_name(opt.name);
    } else if (arg == "--wait") {
      opt.wait = true;
    } else if (arg == "--clear") {
      opt.clear = true;
    } else if (arg == "--poll-min-ms") {
      opt.poll_min_ms = parse_u64(arg, value());
    } else if (arg == "--poll-max-ms") {
      opt.poll_max_ms = parse_u64(arg, value());
    } else if (arg == "--max-polls") {
      opt.max_polls = parse_u64(arg, value());
    } else if (arg == "--out-csv") {
      opt.out_csv = value();
    } else if (arg == "--out-json") {
      opt.out_json = value();
    } else if (arg == "--out-spec") {
      opt.out_spec = value();
    } else if (arg == "--table") {
      opt.table = value();
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--quiet") {
      opt.quiet = true;
    }
  }

  const auto need = [&](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string(cmd.name) + " needs " + what);
  };
  if (name == "worker" || name == "chaos") need(!opt.run_dir.empty(), "--run-dir");
  if (name == "serve" || name == "submit" || name == "status" || name == "drain") {
    need(!opt.root.empty(), "--root");
  }
  if (name == "merge") {
    need(!opt.run_dir.empty() || (!opt.root.empty() && !opt.name.empty()),
         "--run-dir, or --root with --name");
  }
  if (name == "describe") need(!opt.run_dir.empty(), "a run directory");
  if (name == "refine") {
    need(!opt.spec.empty() && !opt.table.empty() && !opt.out.empty(),
         "--spec, --table and --out");
  }
  if (opt.poll_min_ms == 0 || opt.poll_max_ms < opt.poll_min_ms) {
    throw std::invalid_argument("--poll-min-ms must be > 0 and <= --poll-max-ms");
  }
  if (name == "chaos" && !opt.mode_set) opt.mode = "all";  // sweep every job kind
  if (!(name == "chaos" && opt.mode == "all")) (void)preset_for(opt.mode);
  return opt;
}

/// The one exception -> exit-code wrapper: 2 for a usage error or a spec
/// diagnostic, 1 for any other failure, else the command's own code.
int run_command(const command& cmd, int argc, char** argv) {
  options opt;
  try {
    opt = parse_args(cmd, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep %s: %s\n", cmd.name, e.what());
    std::fputs(usage_text(cmd).c_str(), stderr);
    return 2;
  }
  try {
    return cmd.run(opt, argv[0]);
  } catch (const spec_failure& e) {
    // Spec diagnostics carry their own file:line positions — print them
    // bare; a usage dump would bury them.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep %s: %s\n", cmd.name, e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc >= 2 ? argv[1] : "";
  if (name == "--help" || name == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  for (const command& cmd : kCommands) {
    if (name == cmd.name) return run_command(cmd, argc, argv);
  }
  if (name.empty()) {
    std::fputs("reldiv_sweep: missing command\n", stderr);
  } else {
    std::fprintf(stderr, "reldiv_sweep: unknown command '%s'\n", argv[1]);
  }
  std::fputs(kUsage, stderr);
  return 2;
}
