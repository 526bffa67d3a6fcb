#include "mc/distributed.hpp"

#include "mc/io_env.hpp"
#include "mc/spec.hpp"
#include "stats/wire.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <ctime>    // reldiv-lint: allow(det-time) claim owner records carry an informational wall-clock stamp
#include <fstream>  // reldiv-lint: allow(io-seam) /proc reads and the quarantine ledger are deliberately outside the seam (see below)
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

extern char** environ;

namespace reldiv::mc {

namespace fs = std::filesystem;

namespace {

/// True iff cell `index` has a state file of the run's window kind that
/// validates against the run's fingerprint.  Any defect — absent, truncated,
/// corrupt, wrong kind, wrong run, wrong index — reads as "not done", so the
/// cell gets recomputed.  Uses the identity peek (container checks +
/// checksum, no payload decode): this runs once per cell per scan, and
/// kept-sample payloads can be large.
bool cell_done(const fs::path& run_dir, state_kind window_kind, std::uint64_t fingerprint,
               std::uint64_t index) {
  const fs::path path = cell_state_path(run_dir, index);
  std::error_code ec;
  if (!fs::exists(path, ec)) return false;
  try {
    const cell_identity id = peek_cell_identity(window_kind, read_file(path));
    return id.fingerprint == fingerprint && id.cell_index == index;
  } catch (const run_dir_error&) {
    return false;
  }
}

/// The owner record a claim (and its heartbeat renewals) carries.
std::string claim_owner_body() {
  return "host " + claim_host_name() + "\npid " + std::to_string(::getpid()) +
         // reldiv-lint: allow(det-time) operator-facing debug stamp only; lease arithmetic uses filesystem mtimes (filesystem_now), never this value
         "\ntime " + std::to_string(static_cast<long long>(::time(nullptr))) + "\n";
}

}  // namespace

claim_owner parse_claim_owner(const std::string& body) {
  claim_owner owner;
  std::istringstream in(body);
  std::string key;
  while (in >> key) {
    if (key == "host") {
      in >> owner.host;
    } else if (key == "pid") {
      if (!(in >> owner.pid)) break;
    } else {
      std::string skip;
      in >> skip;
    }
  }
  return owner;
}

namespace {

/// Try to take the claim marker for a cell: its owner record (host, pid,
/// wall-clock) is published with rename_noreplace (falling back to link(2)
/// inside real_io_env), so exactly one live worker — on any host sharing the
/// filesystem — wins.  Returns false when another worker holds the claim.
bool try_claim(const fs::path& run_dir, std::uint64_t index) {
  return publish_file_noreplace(cell_claim_path(run_dir, index), claim_owner_body(),
                                /*sync=*/false, "claim");
}

void release_claim(const fs::path& run_dir, std::uint64_t index) {
  std::error_code ec;
  fs::remove(cell_claim_path(run_dir, index), ec);
}

/// Non-throwing integer parse: filenames and ledger records come from disk,
/// where a torn write or a hostile rename can produce all-digit garbage that
/// overflows the target type.  std::sto* would throw out of cleanup paths
/// that promise to be best-effort; from_chars reports failure as a bool.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  if (text.empty()) return false;
  const auto* first = text.data();
  const auto* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

/// Owner of a `<name>.tmp.<host>.<pid>` (or legacy `<name>.tmp.<pid>`)
/// orphan, recovered from the filename.
claim_owner parse_tmp_owner(const std::string& filename) {
  claim_owner owner;
  const std::size_t tag = filename.rfind(kTmpInfix);
  if (tag == std::string::npos) return owner;
  const std::string suffix = filename.substr(tag + kTmpInfix.size());
  const std::size_t dot = suffix.rfind('.');
  const std::string pid_text = dot == std::string::npos ? suffix : suffix.substr(dot + 1);
  if (dot != std::string::npos) owner.host = suffix.substr(0, dot);
  // Positive only: a crafted `.tmp.-1` suffix must not turn a later
  // kill(pid, 0) liveness probe into a process-group signal.
  long pid = -1;
  if (parse_number(pid_text, pid) && pid > 0) owner.pid = pid;
  return owner;
}

/// A pid is provably dead when kill(pid, 0) reports ESRCH — or when the pid
/// still exists but only as a zombie (a SIGKILLed worker whose parent died
/// with it is reparented and may never be reaped inside a container; it
/// holds its pid forever but will never release its claim).  EPERM means a
/// live process owned by someone else — alive for our purposes.
bool local_pid_dead(long pid) {
  if (pid <= 0) return false;
  if (::kill(static_cast<pid_t>(pid), 0) != 0) return errno == ESRCH;
#ifdef __linux__
  // reldiv-lint: allow(io-seam) /proc liveness probe of a LOCAL pid: not distributed state, and injecting faults here would fake dead workers
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (stat && std::getline(stat, line)) {
    // "pid (comm) S ..." — comm may itself contain ') ', so the state char
    // is the first non-space after the LAST ')'.
    const std::size_t close = line.rfind(')');
    const std::size_t state = line.find_first_not_of(' ', close + 1);
    if (close != std::string::npos && state != std::string::npos) {
      return line[state] == 'Z' || line[state] == 'X';
    }
  }
#endif
  return false;
}

/// "Now" according to the clock of the filesystem that holds `dir` — the
/// same clock that stamps claim mtimes.  Touch a probe file and read its
/// mtime back, so lease arithmetic never mixes a server-assigned timestamp
/// with a skewed local clock.  Falls back to the local clock when the probe
/// cannot be written (read-only mount during a post-mortem, say).
fs::file_time_type filesystem_now(const fs::path& dir) {
  const fs::path probe = tmp_sibling(dir / ".lease_probe");
  std::error_code ec;
  try {
    active_io_env().touch(probe, {}, /*create=*/true);
  } catch (const run_dir_error&) {
    return fs::file_time_type::clock::now();
  }
  const fs::file_time_type t = fs::last_write_time(probe, ec);
  std::error_code remove_ec;
  fs::remove(probe, remove_ec);
  if (!ec) return t;
  return fs::file_time_type::clock::now();
}

/// The lease rule shared by claims and .tmp orphans: reap when the lease —
/// the file's mtime measured against `now`, both assigned by the filesystem
/// that holds the run directory — expired, or when the owner is provably
/// dead on this host.  A young claim whose pid we cannot probe (another
/// host, unparseable owner) is left alone.
bool lease_expired_or_owner_dead(const fs::path& path, const claim_owner& owner,
                                 std::chrono::seconds ttl, fs::file_time_type now) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (!ec && now - mtime > ttl) return true;
  const bool local = owner.host.empty() || owner.host == claim_host_name();
  return local && local_pid_dead(owner.pid);
}

/// Apply the lease rule to one cell's claim (the worker-side sibling of
/// clean_stale_claims): reap it if its lease expired or its local owner is
/// dead.  Returns true when the claim is gone afterwards — the caller may
/// retry its own claim.  This is what lets a coordinator-less worker fleet
/// (README's multi-host recipe) make progress past a lost host once its
/// leases expire, instead of skipping the dead host's cells forever.
bool reap_claim_if_stale(const fs::path& run_dir, std::uint64_t index,
                         std::chrono::seconds ttl) {
  const fs::path claim = cell_claim_path(run_dir, index);
  claim_owner owner;
  try {
    owner = parse_claim_owner(read_file(claim));
  } catch (const run_dir_error&) {
    // Already released by its owner — gone is gone.
    std::error_code ec;
    return !fs::exists(claim, ec);
  }
  if (!lease_expired_or_owner_dead(claim, owner, ttl, filesystem_now(cells_dir(run_dir)))) {
    return false;
  }
  std::error_code ec;
  fs::remove(claim, ec);
  return true;
}

/// Shared init path: create the directory skeleton, then either adopt an
/// existing manifest (same kind + fingerprint, else refuse) or write the new
/// one.
void init_run_dir_files(const fs::path& run_dir, state_kind manifest_kind,
                        std::uint64_t fingerprint, const std::string& manifest_blob) {
  std::error_code ec;
  fs::create_directories(cells_dir(run_dir), ec);
  if (ec) {
    throw run_dir_error("run_dir: cannot create " + cells_dir(run_dir).string() + ": " +
                        ec.message());
  }

  const fs::path mpath = manifest_path(run_dir);
  if (fs::exists(mpath)) {
    // Resume: the directory must belong to this exact run.
    const std::string existing = read_file(mpath);
    if (peek_state_kind(existing) != manifest_kind ||
        stats::fnv1a64(decode_state_blob(manifest_kind, existing)) != fingerprint) {
      throw run_dir_error("run_dir: " + run_dir.string() +
                          " holds a different run (manifest kind or fingerprint "
                          "mismatch); refusing to mix runs");
    }
    return;
  }
  write_file_atomic(mpath, manifest_blob);
}

/// One line per ledger entry — appended to coordinator/merge errors so the
/// operator sees exactly which cells are poisoned and why, not a generic
/// "incomplete".
std::string quarantine_summary(const fs::path& run_dir) {
  std::string out;
  for (const quarantine_record& rec : quarantined_cells(run_dir)) {
    out += "\n  quarantined cell " + std::to_string(rec.cell_index) + " (attempts " +
           std::to_string(rec.attempts) + ", errno " +
           std::to_string(rec.error_number) + "): " + rec.message;
  }
  return out;
}

[[noreturn]] void throw_incomplete(const fs::path& run_dir, std::uint64_t index,
                                   const run_dir_error& e) {
  std::string message = "run_dir: cell " + std::to_string(index) +
                        " missing or invalid — run is incomplete, rerun workers to "
                        "resume (" +
                        e.what() + ")";
  std::error_code ec;
  if (fs::exists(cell_quarantine_path(run_dir, index), ec)) {
    message += quarantine_summary(run_dir);
  }
  throw run_dir_error(std::move(message));
}

/// The merge loop every kind shares: read the state file of every cell in
/// ascending index order, check that it belongs to this run at this
/// position, and hand its result to the kind's fold, which returns false
/// when the result disagrees with the manifest (coordinates, bounds).
template <class State, class Fold>
void fold_cells(const fs::path& run_dir, std::uint64_t cells, std::uint64_t fingerprint,
                State (*decode)(std::string_view), Fold fold) {
  for (std::uint64_t i = 0; i < cells; ++i) {
    State state;
    try {
      state = decode(read_file(cell_state_path(run_dir, i)));
    } catch (const run_dir_error& e) {
      throw_incomplete(run_dir, i, e);
    }
    auto& [state_fingerprint, index, result] = state;
    if (state_fingerprint != fingerprint || index != i) {
      throw run_dir_error("run_dir: cell " + std::to_string(i) +
                          " belongs to a different run or position");
    }
    if (!fold(i, result)) {
      throw run_dir_error("run_dir: cell " + std::to_string(i) +
                          " disagrees with the manifest");
    }
  }
}

/// True iff a state from another host holds the `samples` its manifest fixes,
/// in every count, and keeps samples exactly when the run does.
bool state_holds(const accumulator_state& s, std::uint64_t samples, bool keep_samples) {
  const std::size_t kept = keep_samples ? samples : 0;
  return s.samples == samples && s.theta1.count == samples && s.theta2.count == samples &&
         s.keeping_samples == keep_samples && s.theta1_samples.size() == kept &&
         s.theta2_samples.size() == kept;
}

// ---------------------------------------------------------------------------
// The job-kind table: every per-kind operation, one row per job kind.  The
// rest of this file — run_handle, the worker loop, the coordinator — is
// kind-agnostic and reaches a row through std::visit over the manifest.
//
//   kind / decode / encode / fingerprint   manifest identity (manifest_kind)
//   cells          the manifest's cell or window count
//   prepare        validate a manifest before init writes it
//   cell_function  index -> encoded state file (what a worker writes)
//   merge          the completed cells -> the typed single-process result
//   oracle         the same result computed in-process
//   render         typed result -> merged_tables (CSV/JSON)
// ---------------------------------------------------------------------------

template <class Manifest>
struct job_row;

template <>
struct job_row<sweep_manifest> : manifest_kind<sweep_manifest> {
  static std::uint64_t cells(const sweep_manifest& m) { return m.cell_count; }

  /// enumerate_cells refuses an infeasible grid and pins the cell count.
  static sweep_manifest prepare(sweep_manifest m) {
    m.cell_count = enumerate_cells(m.axes).size();
    return m;
  }

  static auto cell_function(const sweep_manifest& m, std::uint64_t fp) {
    return [&m, fp, cells = enumerate_cells(m.axes)](std::uint64_t index) {
      return encode_cell_state(
          {fp, index, run_scenario_cell(m.axes, m.config(), cells[index], index)});
    };
  }

  static grid_result merge(const fs::path& run_dir, const sweep_manifest& m,
                           std::uint64_t fp) {
    const std::vector<scenario_cell> cells = enumerate_cells(m.axes);
    grid_result out;
    out.cells.reserve(cells.size());
    fold_cells(run_dir, cells.size(), fp, decode_cell_state,
               [&](std::uint64_t i, scenario_cell_result& r) {
                 // Belt and braces: the stored coordinates must be the
                 // enumerated ones (rho/omega compared as bits — they
                 // round-tripped through the wire format, and adjacent
                 // cells differ in exactly these float axes).
                 const scenario_cell& c = cells[i];
                 if (r.cell.universe_index != c.universe_index ||
                     r.cell.universe != c.universe || r.cell.samples != c.samples ||
                     r.cell.aliasing != c.aliasing || r.cell.versions != c.versions ||
                     r.cell.votes != c.votes ||
                     std::bit_cast<std::uint64_t>(r.cell.rho) !=
                         std::bit_cast<std::uint64_t>(c.rho) ||
                     std::bit_cast<std::uint64_t>(r.cell.omega) !=
                         std::bit_cast<std::uint64_t>(c.omega) ||
                     !state_holds(r.state, c.samples, /*keep_samples=*/false)) {
                   return false;
                 }
                 out.cells.push_back(std::move(r));
                 return true;
               });
    return out;
  }

  static grid_result oracle(const sweep_manifest& m, unsigned threads) {
    return run_scenario_grid(m.axes, m.config(threads));
  }

  static merged_tables render(const sweep_manifest&, const grid_result& r) {
    return {r.to_csv(), r.to_json(), r.cells.size()};
  }
};

template <>
struct job_row<demand_manifest> : manifest_kind<demand_manifest> {
  static std::uint64_t cells(const demand_manifest& m) { return m.window_count(); }

  static demand_manifest prepare(demand_manifest m) {
    m.validate();
    return m;
  }

  static auto cell_function(const demand_manifest& m, std::uint64_t fp) {
    return [&m, fp](std::uint64_t index) {
      return encode_demand_window_state({fp, index, run_demand_window(m, index)});
    };
  }

  static demand_tally merge(const fs::path& run_dir, const demand_manifest& m,
                            std::uint64_t fp) {
    demand_tally out{m.demands, std::vector<std::uint64_t>(m.target_pfd.size(), 0)};
    fold_cells(run_dir, m.window_count(), fp, decode_demand_window_state,
               [&](std::uint64_t w, const demand_window_result& r) {
                 const auto [begin, end] = m.window_bounds(w);
                 if (r.target_begin != begin || r.target_end != end ||
                     r.demands != m.demands ||
                     std::ranges::any_of(r.failures,
                                         [&m](std::uint64_t f) { return f > m.demands; })) {
                   return false;
                 }
                 // Integer counts over disjoint target windows: placement IS
                 // the merge, so the tally equals run_demand_campaign's.
                 std::copy(r.failures.begin(), r.failures.end(),
                           out.failures.begin() + static_cast<std::ptrdiff_t>(begin));
                 return true;
               });
    return out;
  }

  static demand_tally oracle(const demand_manifest& m, unsigned threads) {
    return run_demand_campaign(m.target_pfd, m.demands, m.config(threads));
  }

  static merged_tables render(const demand_manifest& m, const demand_tally& t) {
    return {demand_tally_csv(m, t), demand_tally_json(t), m.window_count()};
  }
};

template <>
struct job_row<experiment_manifest> : manifest_kind<experiment_manifest> {
  static std::uint64_t cells(const experiment_manifest& m) { return m.window_count(); }

  static experiment_manifest prepare(experiment_manifest m) {
    m.validate();
    return m;
  }

  static auto cell_function(const experiment_manifest& m, std::uint64_t fp) {
    return [&m, fp](std::uint64_t index) {
      return encode_experiment_window_state({fp, index, run_experiment_window(m, index)});
    };
  }

  static experiment_result merge(const fs::path& run_dir, const experiment_manifest& m,
                                 std::uint64_t fp) {
    // Replay run_experiment's exact fold: an empty accumulator, then every
    // shard's accumulator in ascending shard order.  The per-shard states
    // are kept separate in the window files precisely because this pairwise
    // fold is not floating-point-associative.
    experiment_accumulator acc(m.keep_samples);
    const shard_plan plan = make_shard_plan(m.samples, m.shards);
    fold_cells(run_dir, m.window_count(), fp, decode_experiment_window_state,
               [&](std::uint64_t w, const experiment_window_result& r) {
                 const auto [begin, end] = m.window_bounds(w);
                 if (r.shard_begin != begin || r.shard_end != end) return false;
                 for (unsigned s = begin; s < end; ++s) {
                   const accumulator_state& shard = r.shard_states[s - begin];
                   if (!state_holds(shard, plan.shard_samples(s), m.keep_samples)) return false;
                   acc.merge(experiment_accumulator::from_state(shard));
                 }
                 return true;
               });
    experiment_result result = acc.to_result(m.ci_level);
    result.shards = m.shards;
    return result;
  }

  static experiment_result oracle(const experiment_manifest& m, unsigned threads) {
    return run_experiment(m.universe, m.config(threads));
  }

  static merged_tables render(const experiment_manifest& m, const experiment_result& r) {
    return {experiment_result_csv(r), experiment_result_json(r), m.window_count()};
  }
};

/// The row of the manifest alternative std::visit hands over.
template <class Manifest>
using row_of = job_row<std::remove_cvref_t<Manifest>>;

/// Decode a manifest blob into the alternative whose row owns `kind`.
template <std::size_t I = 0>
run_handle::manifest_variant decode_job_manifest(job_kind kind, std::string_view blob) {
  using row = job_row<std::variant_alternative_t<I, run_handle::manifest_variant>>;
  if constexpr (I + 1 < std::variant_size_v<run_handle::manifest_variant>) {
    if (kind != row::kind) return decode_job_manifest<I + 1>(kind, blob);
  }
  return row::decode(blob);
}

/// The run's pure cell function as "index -> encoded state file".  It
/// refers into `h`, which must outlive it.
std::function<std::string(std::uint64_t)> cell_function(const run_handle& h) {
  return std::visit(
      [&h](const auto& m) -> std::function<std::string(std::uint64_t)> {
        return row_of<decltype(m)>::cell_function(m, h.fingerprint());
      },
      h.manifest());
}

template <class Manifest>
const Manifest& typed_manifest(const run_handle& h) {
  if (const auto* m = std::get_if<Manifest>(&h.manifest())) return *m;
  throw run_dir_error("run_dir: " + h.dir().string() + " holds a " +
                      std::string(job_kind_name(h.kind())) + " run, not " +
                      std::string(job_kind_name(job_row<Manifest>::kind)));
}

}  // namespace

// ---------------------------------------------------------------------------
// run_handle — the job-kind-polymorphic facade
// ---------------------------------------------------------------------------

run_handle::run_handle(fs::path dir, manifest_variant manifest)
    : dir_(std::move(dir)), manifest_(std::move(manifest)) {
  std::visit(
      [this](const auto& m) {
        using row = row_of<decltype(m)>;
        kind_ = row::kind;
        fingerprint_ = row::fingerprint(m);
        cell_count_ = row::cells(m);
      },
      manifest_);
}

run_handle run_handle::open(const fs::path& run_dir) {
  const std::string blob = read_file(manifest_path(run_dir));
  return {run_dir, decode_job_manifest(manifest_job_kind(peek_state_kind(blob)), blob)};
}

run_handle run_handle::init(const manifest_variant& m, const fs::path& run_dir) {
  run_handle h(run_dir, std::visit(
                            [](const auto& mm) -> manifest_variant {
                              return row_of<decltype(mm)>::prepare(mm);
                            },
                            m));
  std::visit(
      [&h](const auto& mm) {
        using row = row_of<decltype(mm)>;
        init_run_dir_files(h.dir_, manifest_kind_of(row::kind), h.fingerprint_,
                           row::encode(mm));
      },
      h.manifest_);
  return h;
}

run_handle run_handle::init(const scenario_axes& axes, const scenario_config& cfg,
                            const fs::path& run_dir) {
  return init(sweep_manifest{.axes = axes, .seed = cfg.seed, .shards = cfg.shards},
              run_dir);
}

const sweep_manifest& run_handle::grid_manifest() const {
  return typed_manifest<sweep_manifest>(*this);
}

const demand_manifest& run_handle::demand_campaign_manifest() const {
  return typed_manifest<demand_manifest>(*this);
}

const experiment_manifest& run_handle::experiment_shards_manifest() const {
  return typed_manifest<experiment_manifest>(*this);
}

run_handle::result_variant run_handle::merge() const {
  return std::visit(
      [this](const auto& m) -> result_variant {
        return row_of<decltype(m)>::merge(dir_, m, fingerprint_);
      },
      manifest_);
}

merged_tables run_handle::merge_tables() const {
  return std::visit(
      [this](const auto& m) {
        using row = row_of<decltype(m)>;
        return row::render(m, row::merge(dir_, m, fingerprint_));
      },
      manifest_);
}

std::string run_handle::describe() const { return describe_manifest_json(manifest_); }

std::uint64_t job_fingerprint(const run_handle::manifest_variant& m) {
  return std::visit([](const auto& mm) { return row_of<decltype(mm)>::fingerprint(mm); },
                    m);
}

merged_tables run_single_process(const run_handle::manifest_variant& m, unsigned threads) {
  return std::visit(
      [threads](const auto& mm) {
        using row = row_of<decltype(mm)>;
        return row::render(mm, row::oracle(mm, threads));
      },
      m);
}

claim_sweep_report clean_stale_claims(const fs::path& run_dir, std::chrono::seconds ttl) {
  claim_sweep_report report;
  const fs::path dir = cells_dir(run_dir);
  std::error_code ec;
  if (!fs::exists(dir, ec)) return report;
  const fs::file_time_type now = filesystem_now(dir);
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".claim")) {
      claim_owner owner;
      try {
        owner = parse_claim_owner(read_file(entry.path()));
      } catch (const run_dir_error&) {
        // Unreadable (e.g. already released by its owner): fall through to
        // the lease rule with an unknown owner.
      }
      if (lease_expired_or_owner_dead(entry.path(), owner, ttl, now)) {
        if (fs::remove(entry.path(), ec) && !ec) ++report.claims_reaped;
      } else {
        ++report.claims_honored;
      }
    } else if (name.find(kTmpInfix) != std::string::npos) {
      if (lease_expired_or_owner_dead(entry.path(), parse_tmp_owner(name), ttl, now)) {
        if (fs::remove(entry.path(), ec) && !ec) ++report.tmps_removed;
      }
    }
  }
  return report;
}

std::vector<std::uint64_t> missing_cells(const fs::path& run_dir) {
  const run_handle h = run_handle::open(run_dir);
  const state_kind window_kind = window_kind_of(h.kind());
  std::vector<std::uint64_t> missing;
  for (std::uint64_t i = 0; i < h.cell_count(); ++i) {
    if (!cell_done(run_dir, window_kind, h.fingerprint(), i)) missing.push_back(i);
  }
  return missing;
}

// ---------------------------------------------------------------------------
// Lease renewal heartbeat
// ---------------------------------------------------------------------------

claim_heartbeat::claim_heartbeat(fs::path claim_path, std::string owner_body,
                                 std::chrono::milliseconds interval)
    : claim_path_(std::move(claim_path)),
      body_(std::move(owner_body)),
      interval_(interval),
      thread_([this] { run(); }) {}

claim_heartbeat::~claim_heartbeat() { stop(); }

void claim_heartbeat::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void claim_heartbeat::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (cv_.wait_for(lock, interval_, [this] { return stopping_; })) return;
    lock.unlock();
    try {
      // create=false: if a sweep reaped the claim (we beat too late, or the
      // TTL was misconfigured), the renewal must NOT resurrect it — another
      // worker may already hold a fresh claim on the same path.
      if (!active_io_env().touch(claim_path_, body_, /*create=*/false)) {
        lost_.store(true);
        return;
      }
      beats_.fetch_add(1);
    } catch (const run_dir_error&) {
      // Transient renewal failure (real or injected): the lease still has
      // most of a TTL of slack, so just let the next beat retry.
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Poison-cell quarantine ledger
// ---------------------------------------------------------------------------

namespace {

// Ledger writes deliberately bypass the io_env seam (plain ofstream): the
// machinery that REPORTS chaos must not itself be killable by chaos.  The
// records are advisory — a torn ledger degrades reporting, never merges.
void write_quarantine_record(const fs::path& run_dir, const quarantine_record& rec) {
  std::error_code ec;
  fs::create_directories(quarantine_dir(run_dir), ec);
  // reldiv-lint: allow(io-seam) the machinery that REPORTS chaos must not be killable by chaos; records are advisory and never merge
  std::ofstream f(cell_quarantine_path(run_dir, rec.cell_index),
                  std::ios::binary | std::ios::trunc);
  f << "cell " << rec.cell_index << "\nattempts " << rec.attempts << "\nerrno "
    << rec.error_number << "\nmessage " << rec.message << "\n";
}

void clear_quarantine_record(const fs::path& run_dir, std::uint64_t index) {
  std::error_code ec;
  fs::remove(cell_quarantine_path(run_dir, index), ec);
}

}  // namespace

std::vector<quarantine_record> quarantined_cells(const fs::path& run_dir) {
  std::vector<quarantine_record> records;
  const fs::path dir = quarantine_dir(run_dir);
  std::error_code ec;
  if (!fs::exists(dir, ec)) return records;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".quarantine")) continue;
    quarantine_record rec;
    // The filename carries the index too (cell_NNNNNN.quarantine) — the
    // fallback identity for a record whose body cannot be read.
    if (name.starts_with("cell_")) {
      const std::string digits = name.substr(5, name.size() - 5 - 11);
      std::uint64_t index = 0;
      if (parse_number(digits, index)) rec.cell_index = index;
    }
    // reldiv-lint: allow(io-seam) ledger reads mirror the ledger writes: advisory reporting stays outside the injectable seam
    std::ifstream f(entry.path(), std::ios::binary);
    std::string line;
    bool parsed = false;
    while (f && std::getline(f, line)) {
      // A torn or malformed record must degrade, not throw: the ledger is
      // advisory, and quarantine_summary runs inside error reporting where
      // an escaping exception would mask the original failure.
      if (line.starts_with("cell ")) {
        std::uint64_t index = 0;
        if (parse_number(std::string_view(line).substr(5), index)) {
          rec.cell_index = index;
          parsed = true;
        }
      } else if (line.starts_with("attempts ")) {
        std::uint32_t attempts = 0;
        if (parse_number(std::string_view(line).substr(9), attempts)) {
          rec.attempts = attempts;
        }
      } else if (line.starts_with("errno ")) {
        int error_number = 0;
        if (parse_number(std::string_view(line).substr(6), error_number)) {
          rec.error_number = error_number;
        }
      } else if (line.starts_with("message ")) {
        rec.message = line.substr(8);
      }
    }
    if (!parsed && rec.message.empty()) {
      rec.message = "quarantine record unreadable or malformed";
    }
    records.push_back(std::move(rec));
  }
  std::sort(records.begin(), records.end(),
            [](const quarantine_record& a, const quarantine_record& b) {
              return a.cell_index < b.cell_index;
            });
  return records;
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

namespace {

/// Releases a held claim on scope exit unless disarmed.
struct claim_guard {
  const fs::path& run_dir;
  std::uint64_t index;
  bool armed = true;
  ~claim_guard() {
    if (armed) release_claim(run_dir, index);
  }
};

}  // namespace

worker_report run_pending_cells(const fs::path& run_dir, const worker_config& cfg) {
  const run_handle h = run_handle::open(run_dir);
  const std::function<std::string(std::uint64_t)> compute = cell_function(h);
  const state_kind window_kind = window_kind_of(h.kind());
  const std::chrono::milliseconds heartbeat = cfg.heartbeat_interval();

  worker_report report;
  for (std::uint64_t i = 0; i < h.cell_count(); ++i) {
    // Between cells only: a stop request never abandons a claimed cell, so
    // honoring it leaves no claim or .tmp behind (the drain-hygiene
    // guarantee the service layer relies on).
    if (cfg.should_stop && cfg.should_stop()) break;
    if (cfg.max_cells > 0 && report.computed >= cfg.max_cells) break;

    std::uint32_t attempts = 0;
    quarantine_record failure;
    bool settled = false;  // computed or skipped — either way, move on
    while (!settled && attempts < cfg.max_attempts) {
      try {
        if (cell_done(run_dir, window_kind, h.fingerprint(), i)) {
          ++report.skipped;
          settled = true;
          break;
        }
        if (!try_claim(run_dir, i)) {
          // The holder may be a lost host's expired lease rather than a live
          // sibling: apply the lease rule to this one claim and retry once,
          // so a coordinator-less worker fleet recovers dead hosts' cells on
          // its own.  A genuinely live claim is skipped as before.
          if (!reap_claim_if_stale(run_dir, i, cfg.lease_ttl) ||
              !try_claim(run_dir, i)) {
            ++report.skipped;
            settled = true;
            break;
          }
        }
        claim_guard claim{run_dir, i};
        // A sibling may have completed the cell between the done-check and
        // our claim win; re-check before burning a cell's worth of compute.
        if (cell_done(run_dir, window_kind, h.fingerprint(), i)) {
          ++report.skipped;
          settled = true;
          break;
        }
        {
          // Renew the lease while we compute: a cell whose runtime exceeds
          // the TTL keeps its claim alive beat by beat instead of being
          // reaped and recomputed by a sibling.
          claim_heartbeat beats(cell_claim_path(run_dir, i), claim_owner_body(),
                                heartbeat);
          write_file_atomic(cell_state_path(run_dir, i), compute(i));
          beats.stop();
          if (beats.lost()) {
            // Our claim was reaped mid-compute (sweeping with a tighter TTL
            // than ours, or a long stall).  The state file we just wrote is
            // still correct — cells are pure and the write was atomic — but
            // the claim path may now be a sibling's; don't release it.
            claim.armed = false;
          }
        }
        clear_quarantine_record(run_dir, i);
        ++report.computed;
        settled = true;
      } catch (const io_error& e) {
        ++attempts;
        failure = {i, attempts, e.error_number(), e.what()};
        if (attempts >= cfg.max_attempts) break;
        // Deterministic exponential backoff: attempt k waits base * 2^(k-1),
        // with the exponent clamped so a (mis)configured max_attempts > 32
        // cannot push the shift into undefined behaviour.
        const auto delay = cfg.backoff_base * (1u << std::min(attempts - 1, 20u));
        report.backoff_ms += static_cast<std::uint64_t>(delay.count());
        ++report.retried;
        std::this_thread::sleep_for(delay);
      }
    }
    if (!settled) {
      write_quarantine_record(run_dir, failure);
      ++report.quarantined;
    }
  }
  return report;
}

worker_report run_pending_cells(const fs::path& run_dir, std::size_t max_cells) {
  worker_config cfg;
  cfg.max_cells = max_cells;
  return run_pending_cells(run_dir, cfg);
}

std::vector<int> spawn_processes(const std::string& exe,
                                 const std::vector<std::string>& args, unsigned count) {
  std::vector<std::string> argv_store = args;
  std::vector<char*> argv;
  argv.reserve(argv_store.size() + 1);
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<int> pids;
  pids.reserve(count);
  for (unsigned w = 0; w < count; ++w) {
    pid_t pid = -1;
    const int rc =
        ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(), environ);
    if (rc != 0) {
      // Reap what we already launched before reporting: never leak workers.
      (void)wait_sweep_workers(pids);
      throw run_dir_error("run_dir: cannot spawn " + exe + ": " + std::strerror(rc));
    }
    pids.push_back(static_cast<int>(pid));
  }
  return pids;
}

std::vector<int> spawn_sweep_workers(const std::string& worker_exe, const fs::path& run_dir,
                                     unsigned workers, std::size_t max_cells,
                                     const std::vector<std::string>& extra_args) {
  std::vector<std::string> args = {worker_exe, "worker", "--run-dir", run_dir.string()};
  if (max_cells > 0) {
    args.emplace_back("--max-cells");
    args.emplace_back(std::to_string(max_cells));
  }
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  return spawn_processes(worker_exe, args, workers);
}

std::vector<int> wait_sweep_workers(const std::vector<int>& pids) {
  std::vector<int> codes;
  codes.reserve(pids.size());
  for (const int pid : pids) {
    int status = 0;
    pid_t rc;
    do {
      rc = ::waitpid(static_cast<pid_t>(pid), &status, 0);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      codes.push_back(-1);
    } else if (WIFEXITED(status)) {
      codes.push_back(WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
      codes.push_back(128 + WTERMSIG(status));
    } else {
      codes.push_back(-1);
    }
  }
  return codes;
}

run_handle run_distributed(const run_handle::manifest_variant& m,
                           const distributed_config& dist, const std::string& worker_exe) {
  run_handle h = run_handle::init(m, dist.run_dir);
  clean_stale_claims(dist.run_dir);

  const std::vector<std::uint64_t> pending = missing_cells(dist.run_dir);
  if (pending.empty()) return h;
  if (dist.workers == 0) {
    throw run_dir_error("run_dir: no workers requested but " +
                        std::to_string(pending.size()) + " cells are pending");
  }
  // No point spawning more processes than there are pending cells.
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(dist.workers, pending.size()));
  std::vector<std::string> extra_args;
  if (!dist.worker_fault_plan.empty()) {
    extra_args = {"--fault-plan", dist.worker_fault_plan};
  }
  const std::vector<int> pids = spawn_sweep_workers(worker_exe, dist.run_dir, workers,
                                                    dist.max_cells, extra_args);
  const std::vector<int> codes = wait_sweep_workers(pids);

  // The incomplete-run error names every quarantined cell, so a chaos run
  // that degraded gracefully is distinguishable from one that simply ran
  // out of quota.
  const std::vector<std::uint64_t> still_missing = missing_cells(dist.run_dir);
  if (!still_missing.empty()) {
    std::string detail = "worker exit codes:";
    for (const int c : codes) detail += ' ' + std::to_string(c);
    throw run_dir_error("run_dir: " + std::to_string(still_missing.size()) +
                        " cells still pending after workers finished (" + detail +
                        "); rerun to resume" + quarantine_summary(dist.run_dir));
  }
  return h;
}

}  // namespace reldiv::mc
