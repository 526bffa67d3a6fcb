#pragma once
// mc::distributed — the multi-process, multi-host job driver.  PR 4 built it
// as a scenario-cell sweep driver; it is now polymorphic over three job
// kinds (ROADMAP: "extend it to demand campaigns ... and to shard-window
// distribution of a single huge run_experiment ... needs a claim story that
// doesn't rely on O_EXCL semantics"):
//
//   job_kind::scenario_grid      cell = one scenario cell (run_scenario_cell)
//   job_kind::demand_campaign    cell = one roster window (run_demand_window)
//   job_kind::experiment_shards  cell = one shard window (run_experiment_window)
//
// Execution model (identical for every kind; every step is a reldiv_sweep
// subcommand, and the in-library coordinator run_distributed chains them):
//
//   submit / run_handle::init(m, dir)    worker --run-dir dir (any number,
//     write the manifest (+ queue it)      on any host sharing the directory)
//                                          run_handle::open: one decode
//   merge / run_handle::open(dir)          for each cell index in order:
//     .merge_tables(): fold the cells        skip if a valid state file exists
//     in ascending index order               claim via rename-based lease file
//                                            compute the pure cell function
//                                            write state file atomically
//                                            remove the claim
//
// Every per-kind operation (decode, fingerprint, cell count, init files,
// cell function, merge, render, in-process oracle) lives in ONE table in
// distributed.cpp, one row per kind; everything declared here is
// kind-agnostic and dispatches through it.  A row's merge refuses, with
// run_dir_error, a state file that contradicts what the manifest fixes
// (coordinates, bounds, sample counts, keep-samples mode, failure counts).
//
// The claim protocol is file-granular and crash-safe: a cell is DONE iff its
// state file exists and validates (fingerprint + index + checksum); a claim
// file only arbitrates between concurrently *live* workers.  Claims are
// taken by publishing an owner record (host + pid + timestamp) through
// publish_file_noreplace: its `.tmp.<host>.<pid>` sibling, renamed onto the
// claim path with RENAME_NOREPLACE — atomic on local
// filesystems AND on shared network filesystems where O_CREAT|O_EXCL is
// historically unreliable, which is what makes one run directory on NFS
// safe for workers on many hosts.  A claim's lease timestamp is its file
// mtime, and lease AGE is measured against the same filesystem's clock (a
// freshly-touched probe file's mtime), so per-host clock skew cannot
// corrupt the arithmetic.  A claim is reaped only when its owner pid is
// provably dead on THIS host, or when its lease has been silent longer
// than the TTL — a young claim from another host is never touched.  Both
// the coordinator sweep (clean_stale_claims) and the workers themselves
// (on claim conflict) apply this rule, so a coordinator-less fleet
// recovers a lost host's cells on its own once the leases expire.  A
// worker SIGKILLed mid-cell leaves at worst a stale claim and a .tmp file;
// the cell is simply recomputed.  Because every cell result
// is a pure function of (manifest, cell index) and the merges assemble cells
// in ascending index order, the merged output is bit-identical to the
// single-process oracle (run_scenario_grid / run_demand_campaign /
// run_experiment) — regardless of worker count, host count, scheduling, or
// how many kill/resume cycles the run suffered.
//
// This PR hardens the protocol against the I/O layer itself (all filesystem
// traffic routes through mc::io_env, so the chaos harness can inject faults
// deterministically):
//
//   * lease renewal heartbeats — while computing, a worker re-touches its
//     claim's owner record on a cadence of lease_ttl / kHeartbeatsPerTtl, so
//     a cell whose runtime exceeds kClaimLeaseTtl is never reaped out from
//     under a live worker (the sweeps measure lease age by mtime, which the
//     heartbeat refreshes with the run filesystem's own clock);
//   * bounded deterministic retry — a transient I/O failure (EIO, ENOSPC,
//     torn write caught by the checksum) costs one attempt out of
//     worker_config::max_attempts, with an exponential backoff schedule
//     derived purely from the attempt number (no wall-clock randomness);
//   * poison-cell quarantine — a cell that exhausts its budget is recorded
//     under <run_dir>/quarantine/ (index, attempts, last errno) and the
//     worker moves on and exits 3; the coordinator fails listing quarantined
//     cells, and merge names the quarantine record when it refuses a
//     partial directory.  A later clean resume re-attempts the cell and
//     clears the record on success — quarantine degrades, never corrupts.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "mc/run_dir.hpp"
#include "mc/scenario.hpp"

namespace reldiv::mc {

// ---------------------------------------------------------------------------
// run_handle — the job-kind-polymorphic facade over a run directory
// ---------------------------------------------------------------------------

/// The rendered tables of one merged run: what reldiv_sweep writes to
/// --out-csv/--out-json, and what mc::result_cache memoizes.  `cells` is the
/// merged cell/window count (the progress line's denominator).
struct merged_tables {
  std::string csv;
  std::string json;
  std::size_t cells = 0;
};

/// One run directory, whatever its job kind:
///
///   auto h = run_handle::open(dir);       // kind read from manifest.state
///   auto result = h.merge();              // variant over the three results
///   auto tables = h.merge_tables();       // rendered CSV/JSON, any kind
///
/// open() fully validates the manifest (container integrity + typed decode),
/// so a run_handle in hand means the directory's identity — kind,
/// fingerprint, cell count — is trustworthy.  It is the one manifest decode
/// every reader shares: the worker loop, missing_cells, merge, status and
/// describe all start from it.
class run_handle {
 public:
  using manifest_variant =
      std::variant<sweep_manifest, demand_manifest, experiment_manifest>;
  using result_variant = std::variant<grid_result, demand_tally, experiment_result>;

  /// Open an existing run directory, dispatching on its manifest's kind.
  [[nodiscard]] static run_handle open(const std::filesystem::path& run_dir);

  /// Create (or resume) a run directory: make `<run_dir>/cells/` and write
  /// the binary manifest atomically.  Re-opening an existing
  /// directory is the resume path — its manifest must carry the same kind
  /// and fingerprint, otherwise run_dir_error is thrown.  A scenario
  /// manifest's cell_count is re-enumerated from its axes, which refuses an
  /// infeasible grid (std::invalid_argument) before anything is written;
  /// demand and experiment manifests must validate().
  [[nodiscard]] static run_handle init(const manifest_variant& m,
                                       const std::filesystem::path& run_dir);
  /// The scenario grid of (axes, cfg); cfg.threads is not part of the
  /// identity.
  [[nodiscard]] static run_handle init(const scenario_axes& axes,
                                       const scenario_config& cfg,
                                       const std::filesystem::path& run_dir);

  [[nodiscard]] job_kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  [[nodiscard]] std::uint64_t cell_count() const noexcept { return cell_count_; }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }
  [[nodiscard]] const manifest_variant& manifest() const noexcept { return manifest_; }

  /// Typed manifest accessors; run_dir_error when the run holds another kind.
  [[nodiscard]] const sweep_manifest& grid_manifest() const;
  [[nodiscard]] const demand_manifest& demand_campaign_manifest() const;
  [[nodiscard]] const experiment_manifest& experiment_shards_manifest() const;

  /// Assemble the completed directory into the exact single-process result
  /// for its kind, reading every cell state file in ascending index order
  /// and validating it against the manifest (fingerprint, index, and the
  /// cell's coordinates or window bounds):
  ///   * scenario: the cells of run_scenario_grid, appended in order;
  ///   * demand: window slices placed into the run_demand_campaign tally
  ///     (integer counts — placement IS the merge);
  ///   * experiment: every window's per-shard accumulator states folded —
  ///     empty accumulator first, then ascending shard order — replaying
  ///     run_experiment's left fold bit-for-bit.
  /// Throws run_dir_error if any cell is missing or invalid; a quarantined
  /// cell is named with its ledger record.
  [[nodiscard]] result_variant merge() const;

  /// merge() rendered as the deterministic CSV/JSON tables for its kind —
  /// byte-identical to run_single_process on the same manifest.
  [[nodiscard]] merged_tables merge_tables() const;

  /// The run's spec/axes as %.17g-clean JSON (mc::describe_manifest_json):
  /// kind, fingerprint, seed, every axis, and atom-for-atom universes.
  [[nodiscard]] std::string describe() const;

 private:
  run_handle(std::filesystem::path dir, manifest_variant manifest);

  std::filesystem::path dir_;
  job_kind kind_ = job_kind::scenario_grid;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t cell_count_ = 0;
  manifest_variant manifest_;
};

/// The fingerprint of `m` — the result cache's key, and what
/// run_handle::init records for it — computed without touching the
/// filesystem.  A scenario manifest must carry its enumerated cell_count
/// (parse_sweep_spec fills it in).
[[nodiscard]] std::uint64_t job_fingerprint(const run_handle::manifest_variant& m);

/// Run the job in-process (run_scenario_grid / run_demand_campaign /
/// run_experiment) and render it: the single-process oracle that every
/// merge of the same manifest is byte-identical to.  `threads` is a
/// throughput knob, never an answer knob.
[[nodiscard]] merged_tables run_single_process(const run_handle::manifest_variant& m,
                                               unsigned threads = 0);

// ---------------------------------------------------------------------------
// Deterministic result tables (the oracle and the distributed merge render
// results through these exact emitters, so byte-comparison is meaningful;
// grid_result carries its own to_csv()/to_json(); mc/tables.cpp renders all).
// ---------------------------------------------------------------------------

[[nodiscard]] std::string demand_tally_csv(const demand_manifest& m,
                                           const demand_tally& t);
[[nodiscard]] std::string demand_tally_json(const demand_tally& t);
[[nodiscard]] std::string experiment_result_csv(const experiment_result& r);
[[nodiscard]] std::string experiment_result_json(const experiment_result& r);

/// Default claim lease: a claim (or orphaned .tmp file) whose owner cannot
/// be probed — another host's worker — is only reaped after this long
/// without its state file landing.
inline constexpr std::chrono::seconds kClaimLeaseTtl{600};

/// What one clean_stale_claims sweep did — printed by reldiv_sweep so fleet
/// operators can watch recovery happen instead of inferring it.
struct claim_sweep_report {
  std::size_t claims_reaped = 0;   ///< stale/dead-owner claims removed
  std::size_t tmps_removed = 0;    ///< orphaned .tmp files removed
  std::size_t claims_honored = 0;  ///< live-lease claims left alone
};

/// Remove stale claim markers and orphaned .tmp files left by killed
/// workers.  Honors the lease protocol, so it is safe to call while workers
/// — including workers on other hosts — are running:
///   * a claim whose recorded host is THIS host and whose pid is dead is
///     reaped immediately;
///   * any other claim (unknown host, unparseable owner, live-looking pid)
///     is reaped only once its mtime is older than `ttl` — and a heartbeat
///     renewal refreshes that mtime, so an actively-renewed claim is
///     honored no matter how long its cell runs;
///   * same rules for write_file_atomic .tmp orphans.
claim_sweep_report clean_stale_claims(const std::filesystem::path& run_dir,
                                      std::chrono::seconds ttl = kClaimLeaseTtl);

/// Cells whose state file is absent or fails validation, in ascending
/// order.  Empty means the run directory is complete and mergeable.  Works
/// for every job kind.
[[nodiscard]] std::vector<std::uint64_t> missing_cells(const std::filesystem::path& run_dir);

/// Heartbeats per lease TTL: the renewal cadence is ttl / kHeartbeatsPerTtl,
/// comfortably under the TTL so one delayed beat (GC pause, NFS hiccup,
/// injected stall) cannot let a live claim expire.
inline constexpr unsigned kHeartbeatsPerTtl = 6;

/// Per-worker knobs; the defaults are what `run_pending_cells(dir,
/// max_cells)` has always done, plus retry and heartbeats.
struct worker_config {
  std::size_t max_cells = 0;  ///< stop after this many computed cells (0 = unlimited)
  std::chrono::seconds lease_ttl = kClaimLeaseTtl;
  /// Claim renewal cadence; zero means lease_ttl / kHeartbeatsPerTtl.
  std::chrono::milliseconds heartbeat{0};
  /// Attempts per cell before it is quarantined.  Transient I/O failures
  /// (io_error from any seam operation) cost one attempt each.
  std::uint32_t max_attempts = 4;
  /// Backoff before retry k (1-based) is backoff_base * 2^(k-1) — a pure
  /// function of the attempt number, so chaos runs replay exactly.
  std::chrono::milliseconds backoff_base{10};
  /// Checked before every cell; returning true ends the walk after the
  /// current cell — never mid-cell, so no claim or .tmp is left behind.  The
  /// long-poll service installs its drain-sentinel check here (see
  /// mc/service.hpp); empty means "never stop early".
  std::function<bool()> should_stop{};

  [[nodiscard]] std::chrono::milliseconds heartbeat_interval() const {
    if (heartbeat.count() > 0) return heartbeat;
    return std::chrono::duration_cast<std::chrono::milliseconds>(lease_ttl) /
           kHeartbeatsPerTtl;
  }
};

struct worker_report {
  std::size_t computed = 0;     ///< cells this worker claimed and wrote
  std::size_t skipped = 0;      ///< cells already done or claimed by others
  std::size_t retried = 0;      ///< retry attempts after transient I/O failures
  std::size_t quarantined = 0;  ///< cells that exhausted their retry budget
  std::uint64_t backoff_ms = 0; ///< total deterministic backoff slept
};

/// Worker body: walk the manifest's cells, claim-and-compute every cell
/// that is not already done (a cell with an invalid/corrupt state file is
/// recomputed and its file replaced).  Dispatches on the directory's job
/// kind — the same worker loop serves scenario grids, demand campaigns and
/// experiment shard windows.  Stops early after `max_cells` computed cells
/// when max_cells > 0 — the deterministic-interruption hook the resume
/// tests and CI use.  Safe to run concurrently from any number of processes
/// on any number of hosts sharing the directory's filesystem.
///
/// While a cell computes, a heartbeat thread renews the claim lease; a
/// transient I/O failure is retried with deterministic backoff up to
/// cfg.max_attempts, then the cell is quarantined (see quarantined_cells)
/// and the walk continues.  A successful compute clears any stale
/// quarantine record for that cell.
worker_report run_pending_cells(const std::filesystem::path& run_dir,
                                const worker_config& cfg);
worker_report run_pending_cells(const std::filesystem::path& run_dir,
                                std::size_t max_cells = 0);

/// Renews one claim's lease from a background thread: every `interval`, the
/// owner record is rewritten in place (create=false — a reaped claim is
/// never resurrected), refreshing its mtime with the run filesystem's own
/// clock.  If the claim vanishes mid-renewal, lost() flips true and beating
/// stops; transient io_error on a beat is skipped and the next beat retries.
/// stop() (or destruction) joins the thread.
class claim_heartbeat {
 public:
  claim_heartbeat(std::filesystem::path claim_path, std::string owner_body,
                  std::chrono::milliseconds interval);
  ~claim_heartbeat();
  claim_heartbeat(const claim_heartbeat&) = delete;
  claim_heartbeat& operator=(const claim_heartbeat&) = delete;

  void stop();
  /// True when a beat found the claim gone (reaped by a sweep).
  [[nodiscard]] bool lost() const noexcept { return lost_.load(); }
  /// Successful renewals so far.
  [[nodiscard]] std::uint64_t beats() const noexcept { return beats_.load(); }

 private:
  void run();

  std::filesystem::path claim_path_;
  std::string body_;
  std::chrono::milliseconds interval_;
  std::atomic<bool> lost_{false};
  std::atomic<std::uint64_t> beats_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

/// One poison-cell ledger entry (a `quarantine/cell_NNNNNN.quarantine`
/// file).  The record is advisory — the cell still reads as missing, so a
/// clean rerun recomputes it and clears the record.
struct quarantine_record {
  std::uint64_t cell_index = 0;
  std::uint32_t attempts = 0;
  int error_number = 0;  ///< errno of the last failing attempt
  std::string message;   ///< what() of the last failing attempt
};

/// The quarantine ledger of a run directory, in ascending cell order.
/// Unparseable records are reported with their index parsed from the
/// filename and an explanatory message — never silently dropped.
[[nodiscard]] std::vector<quarantine_record> quarantined_cells(
    const std::filesystem::path& run_dir);

/// Owner record parsed from a claim file ("host H\npid P\ntime T\n").  A
/// legacy or foreign-format claim parses to {host: "", pid: -1} and is
/// handled by the lease-TTL rule alone.  Public so the service status layer
/// can count distinct live claim owners (mc::query_service_status).
struct claim_owner {
  std::string host;
  long pid = -1;
};

[[nodiscard]] claim_owner parse_claim_owner(const std::string& body);

/// Spawn `count` identical copies of `exe` with `args` (argv[0] included) as
/// detached OS processes; returns their pids.  The generic fan-out primitive
/// under spawn_sweep_workers and the service fleet launcher.  Partial
/// failure never leaks processes: already-spawned pids are reaped before the
/// error is thrown.
[[nodiscard]] std::vector<int> spawn_processes(const std::string& exe,
                                               const std::vector<std::string>& args,
                                               unsigned count);

/// Spawn `workers` copies of `worker_exe worker --run-dir <run_dir>` (plus
/// `--max-cells N` when max_cells > 0, plus `extra_args` verbatim — the
/// chaos harness passes `--fault-plan <recipe>` this way) as detached OS
/// processes.  Returns their pids.  Thin wrapper over spawn_processes.
[[nodiscard]] std::vector<int> spawn_sweep_workers(
    const std::string& worker_exe, const std::filesystem::path& run_dir,
    unsigned workers, std::size_t max_cells = 0,
    const std::vector<std::string>& extra_args = {});

/// Wait for all pids; returns their exit codes (128+signal for a killed
/// worker).
[[nodiscard]] std::vector<int> wait_sweep_workers(const std::vector<int>& pids);

struct distributed_config {
  std::filesystem::path run_dir;
  unsigned workers = 2;         ///< worker processes to spawn
  std::size_t max_cells = 0;    ///< per-worker cell quota (0 = unlimited)
  /// When non-empty, passed to each worker as `--fault-plan <recipe>`
  /// (fault_plan::to_string format) — the chaos harness's injection hook.
  /// The coordinator itself stays un-injected so its merge verdict is
  /// trustworthy.
  std::string worker_fault_plan{};
};

/// The coordinator, for any job kind: init (or resume) dist.run_dir for
/// `m`, clean stale claims, fan the pending cells out to `dist.workers`
/// fresh processes of `worker_exe`, wait for them, and return the completed
/// run (merge it with .merge() or .merge_tables()).  Throws run_dir_error
/// when cells are still missing after the workers finish — worker failures,
/// a max_cells quota, or quarantined cells, which the message lists; call
/// again to resume.
[[nodiscard]] run_handle run_distributed(const run_handle::manifest_variant& m,
                                         const distributed_config& dist,
                                         const std::string& worker_exe);

}  // namespace reldiv::mc
