#pragma once
// mc::run_dir — the versioned on-disk serialization layer of the
// multi-process sweep driver (ROADMAP: "shard run_experiment / scenario
// grids across *processes*.  accumulator_state / demand_tally are the wire
// formats").
//
// Every state file is one self-describing container:
//
//   [0..7]   magic  "RELDIVST"
//   [8..11]  u32 LE format version (kStateFormatVersion)
//   [12..15] u32 LE state kind (state_kind enum)
//   [16..23] u64 LE payload length
//   [24..]   payload (stats::wire encoding of the state record: its rows
//            as mc/manifest_fields.hpp declares them, in declared order)
//   [last 8] u64 LE FNV-1a checksum of every preceding byte
//
// decode rejects — with run_dir_error — short files, bad magic, unknown
// versions, kind mismatches, length mismatches and checksum failures, so a
// truncated or bit-rotted file from a killed worker can never silently
// contribute to a merged result.
//
// A sweep *run directory* is:
//
//   <run_dir>/manifest.state      the run's manifest (this container
//                                 format, kind = the job's manifest kind):
//                                 every field mc/manifest_fields.hpp
//                                 declares on the wire, universes
//                                 atom-for-atom.  Its payload's FNV-1a hash
//                                 is the run's *fingerprint*.  `describe`
//                                 (describe_manifest_json) is its
//                                 human-readable view; the directory holds
//                                 no JSON copy.
//   <run_dir>/cells/cell_NNNNNN.state
//                                 one completed cell or window: the run
//                                 fingerprint, the index, and the kind's
//                                 result — a scenario_cell_result
//                                 (coordinates, derived seed, shard layout,
//                                 accumulator state, headline statistics —
//                                 every double as its exact bit pattern), a
//                                 window's failure counts or its per-shard
//                                 accumulator states.
//   <run_dir>/cells/cell_NNNNNN.claim
//                                 transient worker claim marker (see
//                                 mc/distributed.hpp).
//
// Completed files are written atomically (write to the tmp_sibling, rename
// into place), so a state file either exists in full or not at all — the
// property mid-run SIGKILL + resume relies on.  Claims and queue entries
// are published the same way with publish_file_noreplace.

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

#include "mc/campaign.hpp"
#include "mc/experiment.hpp"
#include "mc/scenario.hpp"

namespace reldiv::mc {

/// Thrown on any malformed state file, manifest mismatch, or structurally
/// invalid run directory.
class run_dir_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::string_view kStateMagic = "RELDIVST";
inline constexpr std::uint32_t kStateFormatVersion = 1;

/// What a state-file container carries.  The kind is part of the header so
/// a demand tally handed to the scenario-cell decoder fails loudly.
enum class state_kind : std::uint32_t {
  accumulator = 1,          ///< mc::accumulator_state
  demand = 2,               ///< mc::demand_tally
  scenario_cell = 3,        ///< mc::cell_state (fingerprint + index + result)
  manifest = 4,             ///< mc::sweep_manifest (scenario-grid runs)
  demand_manifest = 5,      ///< mc::demand_manifest (demand-campaign runs)
  experiment_manifest = 6,  ///< mc::experiment_manifest (shard-window runs)
  demand_window = 7,        ///< mc::demand_window_state
  experiment_window = 8,    ///< mc::experiment_window_state
  cached_result = 9,        ///< mc::cached_result (memoized merge front-end)
};

/// The three work units the distributed driver can fan out.  A run
/// directory's kind is decided by which manifest kind its manifest.state
/// holds; every cell/window file kind must match it.
enum class job_kind : std::uint32_t {
  scenario_grid = 1,      ///< cells are scenario cells (run_scenario_cell)
  demand_campaign = 2,    ///< cells are roster windows (run_demand_window)
  experiment_shards = 3,  ///< cells are shard windows (run_experiment_window)
};

/// Human-readable name of a job kind ("scenario_grid", "demand_campaign",
/// "experiment_shards") for diagnostics and the service status JSON.
[[nodiscard]] std::string_view job_kind_name(job_kind kind);

/// Manifest state kind of a job kind, and back.  manifest_job_kind throws
/// run_dir_error for a non-manifest state kind.
[[nodiscard]] state_kind manifest_kind_of(job_kind kind);
[[nodiscard]] job_kind manifest_job_kind(state_kind kind);
/// Cell/window state kind the driver writes for a job kind.
[[nodiscard]] state_kind window_kind_of(job_kind kind);

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

/// Wrap a payload in the versioned, checksummed container.
[[nodiscard]] std::string encode_state_blob(state_kind kind, std::string_view payload);

/// Validate a container (magic, version, kind, length, checksum) and return
/// its payload.  Throws run_dir_error on any defect.
[[nodiscard]] std::string_view decode_state_blob(state_kind expected_kind,
                                                 std::string_view blob);

/// Validate a container's integrity (magic, version, length, checksum — every
/// check decode_state_blob performs except the kind comparison) and return
/// the kind it declares.  How the generic driver discovers what job kind a
/// run directory holds before choosing a typed decoder.
[[nodiscard]] state_kind peek_state_kind(std::string_view blob);

// ---------------------------------------------------------------------------
// Typed state codecs (full container in, full container out)
// ---------------------------------------------------------------------------

[[nodiscard]] std::string encode_accumulator_state(const accumulator_state& s);
[[nodiscard]] accumulator_state decode_accumulator_state(std::string_view blob);

[[nodiscard]] std::string encode_demand_tally(const demand_tally& t);
[[nodiscard]] demand_tally decode_demand_tally(std::string_view blob);

/// Payload of one completed scenario cell: which run it belongs to
/// (manifest fingerprint), which cell it is, and the full result.
struct cell_state {
  std::uint64_t fingerprint = 0;
  std::uint64_t cell_index = 0;
  scenario_cell_result result;
};

[[nodiscard]] std::string encode_cell_state(const cell_state& c);
[[nodiscard]] cell_state decode_cell_state(std::string_view blob);

/// A cell file's identity fields.  The fingerprint and index lead the
/// payload precisely so done-ness scans can validate a file without
/// materializing the full result (the accumulator's kept-sample vectors can
/// dominate a large file).
struct cell_identity {
  std::uint64_t fingerprint = 0;
  std::uint64_t cell_index = 0;
};

/// Validate the container (magic, version, kind, length, checksum — the
/// same integrity guarantees as the full decoder) and return just the
/// identity prefix, with no payload decode or allocation.  Every cell/window
/// payload leads with (fingerprint, index) precisely so done-ness scans can
/// validate a file this cheaply; `kind` selects which window kind the file
/// must hold.
[[nodiscard]] cell_identity peek_cell_identity(state_kind kind, std::string_view blob);
/// Scenario-cell shorthand (the original PR 4 entry point).
[[nodiscard]] cell_identity peek_cell_identity(std::string_view blob);

// ---------------------------------------------------------------------------
// Demand-campaign and experiment shard-window state files
// ---------------------------------------------------------------------------

/// Payload of one completed demand window: which run it belongs to, which
/// window it is, and the window's slice of the campaign tally.
struct demand_window_state {
  std::uint64_t fingerprint = 0;
  std::uint64_t window_index = 0;
  demand_window_result result;
};

[[nodiscard]] std::string encode_demand_window_state(const demand_window_state& s);
[[nodiscard]] demand_window_state decode_demand_window_state(std::string_view blob);

/// Payload of one completed experiment shard window: run fingerprint, window
/// index, and the per-shard accumulator states (kept separate so the merge
/// can replay run_experiment's exact left fold — see experiment_window_result).
struct experiment_window_state {
  std::uint64_t fingerprint = 0;
  std::uint64_t window_index = 0;
  experiment_window_result result;
};

[[nodiscard]] std::string encode_experiment_window_state(const experiment_window_state& s);
[[nodiscard]] experiment_window_state decode_experiment_window_state(std::string_view blob);

// ---------------------------------------------------------------------------
// Memoized merge results (mc::result_cache entries — see mc/service.hpp)
// ---------------------------------------------------------------------------

/// One fully merged run, keyed by its manifest fingerprint: the job kind it
/// came from and the rendered CSV/JSON tables.  The fingerprint already
/// uniquely keys every cell's inputs, so an entry with a matching
/// fingerprint IS the run's result — re-submitting an identical manifest can
/// be served from this record without recomputing a single cell.
struct cached_result {
  job_kind kind = job_kind::scenario_grid;
  std::uint64_t fingerprint = 0;
  std::string csv;
  std::string json;
};

[[nodiscard]] std::string encode_cached_result(const cached_result& c);
[[nodiscard]] cached_result decode_cached_result(std::string_view blob);

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// The run's identity: everything a worker process needs to reproduce the
/// exact single-process grid — the full axes (universes atom-for-atom), the
/// grid seed, the per-cell shard override, and the enumerated cell count
/// (stored for validation; recomputed on load).
struct sweep_manifest {
  scenario_axes axes;
  std::uint64_t seed = 1;
  unsigned shards = 0;        ///< scenario_config::shards (0 = budget-scaled)
  std::uint64_t cell_count = 0;

  /// The scenario_config this manifest pins (threads left at the caller's
  /// discretion — it is a throughput knob, never part of the identity).
  [[nodiscard]] scenario_config config(unsigned threads = 0) const {
    return scenario_config{.seed = seed, .threads = threads, .shards = shards};
  }
};

[[nodiscard]] std::string encode_manifest(const sweep_manifest& m);
[[nodiscard]] sweep_manifest decode_manifest(std::string_view blob);

/// The run fingerprint: FNV-1a of the manifest *payload* bytes.  Recorded in
/// every cell state file; a cell file from a different grid/seed/shard
/// layout can never be merged into this run.
[[nodiscard]] std::uint64_t manifest_fingerprint(const sweep_manifest& m);

// Demand-campaign manifest (kind = demand_manifest).  The payload leads with
// the job kind so the three manifest payloads can never alias under the
// fingerprint hash.
[[nodiscard]] std::string encode_demand_manifest(const demand_manifest& m);
[[nodiscard]] demand_manifest decode_demand_manifest(std::string_view blob);
[[nodiscard]] std::uint64_t demand_manifest_fingerprint(const demand_manifest& m);

// Experiment shard-window manifest (kind = experiment_manifest).
[[nodiscard]] std::string encode_experiment_manifest(const experiment_manifest& m);
[[nodiscard]] experiment_manifest decode_experiment_manifest(std::string_view blob);
[[nodiscard]] std::uint64_t experiment_manifest_fingerprint(const experiment_manifest& m);

// ---------------------------------------------------------------------------
// Filesystem layer
// ---------------------------------------------------------------------------

/// This host's name as recorded in claim files and .tmp suffixes (cached
/// gethostname, sanitized to a filename-safe token; "localhost" when the
/// name cannot be read).
[[nodiscard]] const std::string& claim_host_name();

/// `<path>.tmp.<host>.<pid>`: the sibling a writer stages `path` in, in the
/// same directory (rename is atomic only within a filesystem) and unique per
/// process on every host sharing it, so concurrent writers never collide and
/// clean_stale_claims reads the owner back from what follows kTmpInfix.
inline constexpr std::string_view kTmpInfix = ".tmp.";
[[nodiscard]] std::filesystem::path tmp_sibling(const std::filesystem::path& path);

/// Write-temp + rename: `path` either holds the complete contents or is
/// untouched, even if the writer is SIGKILLed — or the host power-cut —
/// mid-write.  Crash durability: the temp sibling is fsync'd before the
/// rename and the parent directory after it, so a power cut can never
/// surface a zero-length "committed" state file.  All syscalls route through
/// the active mc::io_env (see mc/io_env.hpp), so fault-injection plans can
/// hit every step; failures raise io_error carrying path + operation + errno.
void write_file_atomic(const std::filesystem::path& path, std::string_view contents);

/// Publish `contents` at `path` only if nothing is there yet: write the temp
/// sibling and rename_noreplace it into place, so of racing publishers
/// exactly one wins and none is seen half-written.  Returns false (sibling
/// removed) when `path` exists; other failures raise io_error naming `op`.
/// `sync` fsyncs the file before the rename and its directory after a win.
[[nodiscard]] bool publish_file_noreplace(const std::filesystem::path& path,
                                          std::string_view contents, bool sync,
                                          std::string_view op);

/// Read a whole file through the active io_env; throws io_error (a
/// run_dir_error carrying path + operation + errno) if it cannot be
/// opened/read.
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

// Run-directory layout.
[[nodiscard]] std::filesystem::path manifest_path(const std::filesystem::path& run_dir);
[[nodiscard]] std::filesystem::path cells_dir(const std::filesystem::path& run_dir);
[[nodiscard]] std::filesystem::path cell_state_path(const std::filesystem::path& run_dir,
                                                    std::uint64_t cell_index);
[[nodiscard]] std::filesystem::path cell_claim_path(const std::filesystem::path& run_dir,
                                                    std::uint64_t cell_index);

// Poison-cell ledger: a cell that keeps failing with I/O errors past its
// retry budget is recorded under <run_dir>/quarantine/cell_NNNNNN.quarantine
// (cell index, attempts, last errno) instead of being recomputed forever.
// See mc/distributed.hpp for the worker/merge semantics.
[[nodiscard]] std::filesystem::path quarantine_dir(const std::filesystem::path& run_dir);
[[nodiscard]] std::filesystem::path cell_quarantine_path(
    const std::filesystem::path& run_dir, std::uint64_t cell_index);

}  // namespace reldiv::mc
