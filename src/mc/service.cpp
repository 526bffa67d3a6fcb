#include "mc/service.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>
#include <utility>

#include "mc/io_env.hpp"

namespace reldiv::mc {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

fs::path queue_dir(const fs::path& root) { return root / "queue"; }

fs::path runs_dir(const fs::path& root) { return root / "runs"; }

fs::path service_cache_dir(const fs::path& root) { return root / "cache"; }

fs::path drain_path(const fs::path& root) { return root / "drain"; }

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

void validate_submission_name(const std::string& name) {
  const bool bad = name.empty() || name.front() == '.' ||
                   name.find('/') != std::string::npos ||
                   name.find('\\') != std::string::npos ||
                   name.find('\0') != std::string::npos;
  if (bad) {
    throw std::invalid_argument("service: submission name '" + name +
                                "' must be a plain filename (non-empty, no path "
                                "separators, no leading dot)");
  }
}

namespace {

fs::path queue_pointer_path(const fs::path& root, const std::string& name) {
  return queue_dir(root) / (name + ".run");
}

void create_dir_or_throw(const fs::path& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw run_dir_error("service: cannot create " + dir.string() + ": " + ec.message());
  }
}

}  // namespace

bool submit_queued_run(const fs::path& root, const std::string& name,
                       const fs::path& run_dir) {
  validate_submission_name(name);
  create_dir_or_throw(queue_dir(root));
  // Of two racing submissions under one name exactly one wins; the loser
  // changed nothing (the winner's entry may resume its identical run dir).
  return publish_file_noreplace(queue_pointer_path(root, name), run_dir.string() + "\n",
                                /*sync=*/true, "submit");
}

std::vector<queue_entry> queued_runs(const fs::path& root) {
  std::vector<queue_entry> entries;
  const fs::path dir = queue_dir(root);
  std::error_code ec;
  if (!fs::exists(dir, ec)) return entries;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    const std::string filename = item.path().filename().string();
    if (!filename.ends_with(".run")) continue;
    queue_entry entry;
    entry.name = filename.substr(0, filename.size() - 4);
    try {
      const std::string body = read_file(item.path());
      entry.run_dir = body.substr(0, std::min(body.find('\n'), body.size()));
    } catch (const run_dir_error&) {
      // Dequeued between listing and read — gone is gone.
      continue;
    }
    if (entry.run_dir.empty()) continue;
    entries.push_back(std::move(entry));
  }
  // Submission-name order, never directory order and never mtime: every
  // worker on every host walks the same deterministic sequence.
  std::sort(entries.begin(), entries.end(),
            [](const queue_entry& a, const queue_entry& b) { return a.name < b.name; });
  return entries;
}

bool dequeue_run(const fs::path& root, const std::string& name) {
  validate_submission_name(name);
  std::error_code ec;
  return fs::remove(queue_pointer_path(root, name), ec) && !ec;
}

// ---------------------------------------------------------------------------
// Drain sentinel
// ---------------------------------------------------------------------------

void request_drain(const fs::path& root) {
  create_dir_or_throw(root);
  (void)active_io_env().touch(drain_path(root), "drain\n", /*create=*/true);
}

bool drain_requested(const fs::path& root) {
  std::error_code ec;
  return fs::exists(drain_path(root), ec);
}

void clear_drain(const fs::path& root) {
  std::error_code ec;
  fs::remove(drain_path(root), ec);
}

// ---------------------------------------------------------------------------
// Long-poll worker
// ---------------------------------------------------------------------------

service_report run_service_worker(const fs::path& root, const service_config& cfg) {
  service_report report;
  std::set<std::string> served;
  std::size_t consecutive_empty = 0;
  std::chrono::milliseconds delay = cfg.poll_min;

  for (;;) {
    if (drain_requested(root)) {
      report.drained = true;
      break;
    }

    bool progressed = false;
    for (const queue_entry& entry : queued_runs(root)) {
      if (drain_requested(root)) break;
      worker_config wcfg = cfg.worker;
      const std::function<bool()> base_stop = cfg.worker.should_stop;
      const fs::path drain_root = root;
      // The drain sentinel interrupts a worker between cells even mid-run;
      // run_pending_cells guarantees no claim or .tmp survives the stop.
      wcfg.should_stop = [drain_root, base_stop] {
        return drain_requested(drain_root) || (base_stop && base_stop());
      };
      worker_report r;
      try {
        r = run_pending_cells(entry.run_dir, wcfg);
      } catch (const run_dir_error&) {
        // Pointer to a missing or invalid run directory: not this worker's
        // problem to fix — status reports it as unreadable.
        continue;
      }
      report.cells_computed += r.computed;
      report.cells_skipped += r.skipped;
      report.retried += r.retried;
      report.quarantined += r.quarantined;
      if (r.computed > 0) {
        progressed = true;
        served.insert(entry.name);
      }
    }
    if (drain_requested(root)) {
      report.drained = true;
      break;
    }

    if (progressed) {
      // Work happened: someone may have submitted more while we computed.
      // Re-poll immediately and reset the backoff schedule.
      consecutive_empty = 0;
      delay = cfg.poll_min;
      continue;
    }

    ++consecutive_empty;
    ++report.polls;
    if (cfg.max_polls > 0 && consecutive_empty >= cfg.max_polls) break;
    // Deterministic bounded backoff: sleep min(poll_min * 2^(k-1), poll_max)
    // after the k'th consecutive empty poll — a pure function of k.  The
    // sleep is chunked only so a drain request is honored promptly; the
    // schedule itself never consults a clock.
    std::chrono::milliseconds remaining = delay;
    const std::chrono::milliseconds chunk{25};
    while (remaining.count() > 0) {
      if (drain_requested(root)) break;
      const std::chrono::milliseconds step = std::min(remaining, chunk);
      std::this_thread::sleep_for(step);
      remaining -= step;
    }
    delay = std::min(delay * 2, cfg.poll_max);
  }

  report.runs_served = served.size();
  return report;
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

namespace {

/// Distinct (host, pid) owner records among a run's claim files.  Purely
/// what is on disk: no liveness probing, no clocks.
std::set<std::pair<std::string, long>> claim_owners(const fs::path& run_dir) {
  std::set<std::pair<std::string, long>> owners;
  const fs::path dir = cells_dir(run_dir);
  std::error_code ec;
  if (!fs::exists(dir, ec)) return owners;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.path().filename().string().ends_with(".claim")) continue;
    try {
      const claim_owner owner = parse_claim_owner(read_file(entry.path()));
      owners.emplace(owner.host, owner.pid);
    } catch (const run_dir_error&) {
      // Released between listing and read: not an active worker.
    }
  }
  return owners;
}

/// Minimal JSON string escaping (names and paths; control characters are
/// replaced, not escaped — they cannot round-trip through filenames anyway).
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += '?';
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

service_status query_service_status(const fs::path& root) {
  service_status status;
  status.draining = drain_requested(root);
  std::set<std::pair<std::string, long>> fleet_owners;
  for (const queue_entry& entry : queued_runs(root)) {
    run_status rs;
    rs.name = entry.name;
    rs.run_dir = entry.run_dir;
    try {
      const run_handle h = run_handle::open(entry.run_dir);
      rs.kind = h.kind();
      rs.fingerprint = h.fingerprint();
      rs.cells_total = h.cell_count();
      // Done-ness is the integrity-validated complement of missing_cells:
      // a torn or foreign cell file counts as NOT done, exactly as the
      // worker loop and the merge see it.
      rs.cells_done = rs.cells_total - missing_cells(entry.run_dir).size();
      rs.quarantined = quarantined_cells(entry.run_dir).size();
      const auto owners = claim_owners(entry.run_dir);
      rs.active_workers = owners.size();
      fleet_owners.insert(owners.begin(), owners.end());
    } catch (const run_dir_error&) {
      rs.readable = false;
    }
    status.cells_done += rs.cells_done;
    status.cells_total += rs.cells_total;
    status.quarantined += rs.quarantined;
    status.runs.push_back(std::move(rs));
  }
  status.active_workers = fleet_owners.size();
  return status;
}

std::string service_status::to_json() const {
  std::string out = "{\n  \"draining\": ";
  out += draining ? "true" : "false";
  out += ",\n  \"cells_done\": " + std::to_string(cells_done);
  out += ",\n  \"cells_total\": " + std::to_string(cells_total);
  out += ",\n  \"quarantined\": " + std::to_string(quarantined);
  out += ",\n  \"active_workers\": " + std::to_string(active_workers);
  out += ",\n  \"runs\": [";
  char buf[64];
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const run_status& r = runs[i];
    out += i > 0 ? ",\n    {" : "\n    {";
    out += "\"name\": ";
    append_json_string(out, r.name);
    out += ", \"run_dir\": ";
    append_json_string(out, r.run_dir.string());
    out += ", \"kind\": ";
    append_json_string(out, job_kind_name(r.kind));
    out += ", \"fingerprint\": " + std::to_string(r.fingerprint);
    out += ", \"cells_done\": " + std::to_string(r.cells_done);
    out += ", \"cells_total\": " + std::to_string(r.cells_total);
    out += ", \"quarantined\": " + std::to_string(r.quarantined);
    out += ", \"active_workers\": " + std::to_string(r.active_workers);
    const double fraction =
        r.cells_total > 0
            ? static_cast<double>(r.cells_done) / static_cast<double>(r.cells_total)
            : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", fraction);
    out += ", \"fraction_done\": ";
    out += buf;
    out += ", \"readable\": ";
    out += r.readable ? "true" : "false";
    out += '}';
  }
  out += runs.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// result_cache
// ---------------------------------------------------------------------------

result_cache::result_cache(const fs::path& root) : dir_(service_cache_dir(root)) {}

fs::path result_cache::entry_path(std::uint64_t fingerprint) const {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "result_%016llx.state",
                static_cast<unsigned long long>(fingerprint));
  return dir_ / buf;
}

std::optional<cached_result> result_cache::lookup(std::uint64_t fingerprint) const {
  const fs::path path = entry_path(fingerprint);
  std::error_code ec;
  if (!fs::exists(path, ec)) return std::nullopt;
  try {
    cached_result entry = decode_cached_result(read_file(path));
    // A renamed or hand-copied entry whose payload disagrees with its
    // filename is a miss, not a wrong answer.
    if (entry.fingerprint != fingerprint) return std::nullopt;
    return entry;
  } catch (const run_dir_error&) {
    // Absent, torn, truncated, wrong kind: every defect means recompute.
    return std::nullopt;
  }
}

void result_cache::store(const cached_result& entry) {
  create_dir_or_throw(dir_);
  write_file_atomic(entry_path(entry.fingerprint), encode_cached_result(entry));
}

cached_result merge_and_store(result_cache& cache, const fs::path& run_dir) {
  const run_handle h = run_handle::open(run_dir);
  const merged_tables tables = h.merge_tables();
  cached_result entry;
  entry.kind = h.kind();
  entry.fingerprint = h.fingerprint();
  entry.csv = tables.csv;
  entry.json = tables.json;
  cache.store(entry);
  return entry;
}

}  // namespace reldiv::mc
