#include "mc/run_dir.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mc/io_env.hpp"
#include "mc/manifest_fields.hpp"
#include "stats/wire.hpp"

namespace reldiv::mc {

namespace fs = std::filesystem;
using stats::wire_reader;
using stats::wire_writer;

namespace {

// ---------------------------------------------------------------------------
// Field codecs: a value's wire encoding follows from its C++ type.  bool is
// a u8, floating point an f64 (its bit pattern), enums and `unsigned` counts
// a u32, other integers a u64; strings, universes and vectors lead with a u64
// length, and a declared record (mc/manifest_fields.hpp) is its rows in
// declared order.
// ---------------------------------------------------------------------------

template <class T>
void put(wire_writer& w, const T& v);
template <class T>
void get(wire_reader& r, T& v);

/// Visits one wire group of a declaration's rows.
template <class IO>
struct wire_group_visitor {
  IO& io;
  wire_group group;
  template <class T>
  void operator()(const field& f, T& value) const {
    if (f.wire != group) return;
    if constexpr (std::is_same_v<IO, wire_writer>) {
      put(io, value);
    } else {
      get(io, value);
    }
  }
};

template <class T>
void put(wire_writer& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.put_u8(v ? 1 : 0);
  } else if constexpr (std::is_floating_point_v<T>) {
    w.put_f64(v);
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, unsigned>) {
    w.put_u32(static_cast<std::uint32_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    w.put_u64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.put_bytes(v);
  } else if constexpr (std::is_same_v<T, stats::running_moments_state>) {
    stats::write_moments_state(w, v);
  } else if constexpr (declared<T>) {
    wire_group_visitor<wire_writer> rows{w, wire_group::main};
    fields(rows, v);
  } else if constexpr (std::is_same_v<T, core::architecture>) {
    w.put_u32(v.versions);
    w.put_u32(v.votes_to_defeat);
  } else if constexpr (std::is_same_v<T, core::fault_universe>) {
    w.put_u64(v.size());
    for (const auto& atom : v.atoms()) {
      w.put_f64(atom.p);
      w.put_f64(atom.q);
    }
  } else if constexpr (std::is_same_v<T, named_universe>) {
    w.put_bytes(v.first);
    put(w, v.second);
  } else {
    w.put_u64(v.size());
    for (const auto& x : v) put(w, x);
  }
}

template <class T>
void get(wire_reader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.get_u8() != 0;
  } else if constexpr (std::is_floating_point_v<T>) {
    v = r.get_f64();
  } else if constexpr (std::is_same_v<T, unsigned>) {
    v = r.get_u32();
  } else if constexpr (std::is_integral_v<T>) {
    v = r.get_u64();
  } else if constexpr (std::is_same_v<T, correlation_model>) {
    const std::uint32_t model = r.get_u32();
    if (model > static_cast<std::uint32_t>(correlation_model::copula)) {
      throw stats::wire_error("wire: unknown correlation model " + std::to_string(model));
    }
    v = static_cast<correlation_model>(model);
  } else if constexpr (std::is_same_v<T, sampling_engine>) {
    // Wire values are append-only: exact=1, fast_simd=3; 0 (fast) and 2
    // (legacy) were retired engines and are refused.
    try {
      v = sampling_engine_from_tag(r.get_u32());
    } catch (const std::invalid_argument& e) {
      throw stats::wire_error(std::string("wire: ") + e.what());
    }
  } else if constexpr (std::is_same_v<T, job_kind>) {
    // Only a cached result carries a job kind as a field.
    const std::uint32_t kind = r.get_u32();
    if (kind < static_cast<std::uint32_t>(job_kind::scenario_grid) ||
        kind > static_cast<std::uint32_t>(job_kind::experiment_shards)) {
      throw stats::wire_error("wire: unknown job kind " + std::to_string(kind) +
                              " in cached result");
    }
    v = static_cast<job_kind>(kind);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = std::string(r.get_bytes());
  } else if constexpr (std::is_same_v<T, stats::running_moments_state>) {
    v = stats::read_moments_state(r);
  } else if constexpr (declared<T>) {
    wire_group_visitor<wire_reader> rows{r, wire_group::main};
    fields(rows, v);
  } else if constexpr (std::is_same_v<T, core::architecture>) {
    v.versions = r.get_u32();
    v.votes_to_defeat = r.get_u32();
  } else if constexpr (std::is_same_v<T, core::fault_universe>) {
    const std::uint64_t n = r.get_u64();
    if (n > r.remaining() / 16) throw stats::wire_error("wire: universe size exceeds buffer");
    std::vector<double> p(n);
    std::vector<double> q(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      p[i] = r.get_f64();
      q[i] = r.get_f64();
    }
    // allow_q_overflow: a deliberately pessimistic §6.2 universe must
    // round-trip; per-atom range validation still applies.
    v = core::fault_universe::from_arrays(p, q, /*allow_q_overflow=*/true);
  } else if constexpr (std::is_same_v<T, named_universe>) {
    v.first = std::string(r.get_bytes());
    get(r, v.second);
  } else {
    // Every element takes at least 8 bytes: a mangled length prefix must
    // throw, not drive a multi-exabyte allocation.
    using elem = typename T::value_type;
    std::string what = "vector length";
    if constexpr (std::is_same_v<elem, named_universe>) what = "universe count";
    if constexpr (std::is_same_v<elem, core::architecture>) what = "adjudication count";
    if constexpr (std::is_same_v<elem, accumulator_state>) what = "shard state count";
    const std::uint64_t n = r.get_u64();
    if (n > r.remaining() / 8) throw stats::wire_error("wire: " + what + " exceeds buffer");
    v.assign(n, elem{});
    for (elem& x : v) get(r, x);
  }
}

// ---------------------------------------------------------------------------
// Record payloads, walked from the declarations in mc/manifest_fields.hpp
// ---------------------------------------------------------------------------

// Version tag of a scenario manifest's appended axes-extension block
// (append-only, like the engine wire values).
constexpr std::uint32_t kAxesExtensionVersion = 1;

template <class R>
constexpr bool kManifest = requires { manifest_kind<R>::kind; };

template <class R>
std::string group_bytes(const R& record, wire_group group) {
  wire_writer w;
  wire_group_visitor<wire_writer> rows{w, group};
  fields(rows, record);
  return w.take();
}

/// The payload of a declared record: the job-kind tag (demand and
/// experiment manifests, so the three manifest kinds never alias under the
/// fingerprint hash), the main and count groups, then the extension group
/// when it is off its defaults — behind a version tag in a manifest, bare in
/// a scenario cell.
template <class R>
std::string record_payload(const R& record) {
  wire_writer w;
  if constexpr (kManifest<R> && !std::is_same_v<R, sweep_manifest>) {
    w.put_u32(static_cast<std::uint32_t>(manifest_kind<R>::kind));
  }
  for (const wire_group group : {wire_group::main, wire_group::count}) {
    wire_group_visitor<wire_writer> rows{w, group};
    fields(rows, record);
  }
  const std::string extension = group_bytes(record, wire_group::extension);
  if (extension != group_bytes(R{}, wire_group::extension)) {
    if constexpr (kManifest<R>) w.put_u32(kAxesExtensionVersion);
    return w.take() + extension;
  }
  return w.take();
}

template <class R>
R read_record(wire_reader& r) {
  R record;
  if constexpr (kManifest<R> && !std::is_same_v<R, sweep_manifest>) {
    if (r.get_u32() != static_cast<std::uint32_t>(manifest_kind<R>::kind)) {
      throw stats::wire_error("wire: " + std::string(manifest_kind<R>::spec_name) +
                              " manifest job-kind tag mismatch");
    }
  }
  for (const wire_group group : {wire_group::main, wire_group::count}) {
    wire_group_visitor<wire_reader> rows{r, group};
    fields(rows, record);
  }
  // An absent extension block means the extension rows' defaults.
  static const bool has_extension = !group_bytes(R{}, wire_group::extension).empty();
  if (has_extension && r.remaining() > 0) {
    if constexpr (kManifest<R>) {
      const std::uint32_t version = r.get_u32();
      if (version != kAxesExtensionVersion) {
        throw stats::wire_error("wire: unknown axes extension version " +
                                std::to_string(version));
      }
    }
    wire_group_visitor<wire_reader> rows{r, wire_group::extension};
    fields(rows, record);
  }
  return record;
}

/// Decode a declared record, with its own post-decode `check`.  A payload
/// that passed the checksum but fails to parse or to check is a format bug
/// or a version-1 file written by a newer incompatible writer: wire and
/// validation failures become run_dir_error.
template <class R, class Check = void (*)(const R&)>
R decode_record(state_kind kind, std::string_view blob, Check check = [](const R&) {}) {
  const std::string_view payload = decode_state_blob(kind, blob);
  try {
    wire_reader r(payload);
    R record = read_record<R>(r);
    check(record);
    r.expect_done();
    return record;
  } catch (const stats::wire_error& e) {
    throw run_dir_error(std::string("run_dir: state payload malformed: ") + e.what());
  } catch (const std::invalid_argument& e) {
    throw run_dir_error(std::string("run_dir: state payload invalid: ") + e.what());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

std::string encode_state_blob(state_kind kind, std::string_view payload) {
  wire_writer w;
  for (const char c : kStateMagic) w.put_u8(static_cast<std::uint8_t>(c));
  w.put_u32(kStateFormatVersion);
  w.put_u32(static_cast<std::uint32_t>(kind));
  w.put_u64(payload.size());
  std::string blob = w.take();
  blob.append(payload);
  wire_writer checksum;
  checksum.put_u64(stats::fnv1a64(blob));
  blob.append(checksum.buffer());
  return blob;
}

namespace {

/// The integrity half of container decoding: everything except the kind
/// comparison.  Returns (declared kind, payload).
std::pair<std::uint32_t, std::string_view> decode_state_blob_any(std::string_view blob) {
  constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8;  // magic + version + kind + length
  constexpr std::size_t kChecksumSize = 8;
  if (blob.size() < kHeaderSize + kChecksumSize) {
    throw run_dir_error("run_dir: state file truncated (shorter than header)");
  }
  if (blob.substr(0, kStateMagic.size()) != kStateMagic) {
    throw run_dir_error("run_dir: bad magic (not a reldiv state file)");
  }
  wire_reader header(blob.substr(kStateMagic.size()));
  const std::uint32_t version = header.get_u32();
  if (version != kStateFormatVersion) {
    throw run_dir_error("run_dir: unsupported state format version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kStateFormatVersion) + ")");
  }
  const std::uint32_t kind = header.get_u32();
  const std::uint64_t payload_size = header.get_u64();
  if (payload_size != blob.size() - kHeaderSize - kChecksumSize) {
    throw run_dir_error("run_dir: state file truncated or padded (payload length " +
                        std::to_string(payload_size) + " does not match file size)");
  }
  wire_reader trailer(blob.substr(blob.size() - kChecksumSize));
  const std::uint64_t stored = trailer.get_u64();
  const std::uint64_t actual = stats::fnv1a64(blob.substr(0, blob.size() - kChecksumSize));
  if (stored != actual) {
    throw run_dir_error("run_dir: state file checksum mismatch (corrupt)");
  }
  return {kind, blob.substr(kHeaderSize, payload_size)};
}

}  // namespace

std::string_view decode_state_blob(state_kind expected_kind, std::string_view blob) {
  const auto [kind, payload] = decode_state_blob_any(blob);
  if (kind != static_cast<std::uint32_t>(expected_kind)) {
    throw run_dir_error("run_dir: state kind mismatch (file holds kind " +
                        std::to_string(kind) + ", expected " +
                        std::to_string(static_cast<std::uint32_t>(expected_kind)) + ")");
  }
  return payload;
}

state_kind peek_state_kind(std::string_view blob) {
  const auto [kind, payload] = decode_state_blob_any(blob);
  (void)payload;
  if (kind < static_cast<std::uint32_t>(state_kind::accumulator) ||
      kind > static_cast<std::uint32_t>(state_kind::cached_result)) {
    throw run_dir_error("run_dir: unknown state kind " + std::to_string(kind));
  }
  return static_cast<state_kind>(kind);
}

std::string_view job_kind_name(job_kind kind) {
  switch (kind) {
    case job_kind::scenario_grid: return "scenario_grid";
    case job_kind::demand_campaign: return "demand_campaign";
    case job_kind::experiment_shards: return "experiment_shards";
  }
  return "unknown";
}

state_kind manifest_kind_of(job_kind kind) {
  switch (kind) {
    case job_kind::scenario_grid: return state_kind::manifest;
    case job_kind::demand_campaign: return state_kind::demand_manifest;
    case job_kind::experiment_shards: return state_kind::experiment_manifest;
  }
  throw run_dir_error("run_dir: unknown job kind");
}

job_kind manifest_job_kind(state_kind kind) {
  switch (kind) {
    case state_kind::manifest: return job_kind::scenario_grid;
    case state_kind::demand_manifest: return job_kind::demand_campaign;
    case state_kind::experiment_manifest: return job_kind::experiment_shards;
    default:
      throw run_dir_error("run_dir: state kind " +
                          std::to_string(static_cast<std::uint32_t>(kind)) +
                          " is not a manifest kind");
  }
}

state_kind window_kind_of(job_kind kind) {
  switch (kind) {
    case job_kind::scenario_grid: return state_kind::scenario_cell;
    case job_kind::demand_campaign: return state_kind::demand_window;
    case job_kind::experiment_shards: return state_kind::experiment_window;
  }
  throw run_dir_error("run_dir: unknown job kind");
}

// ---------------------------------------------------------------------------
// Typed codecs
// ---------------------------------------------------------------------------

std::string encode_accumulator_state(const accumulator_state& s) {
  return encode_state_blob(state_kind::accumulator, record_payload(s));
}

accumulator_state decode_accumulator_state(std::string_view blob) {
  return decode_record<accumulator_state>(state_kind::accumulator, blob);
}

std::string encode_demand_tally(const demand_tally& t) {
  return encode_state_blob(state_kind::demand, record_payload(t));
}

demand_tally decode_demand_tally(std::string_view blob) {
  return decode_record<demand_tally>(state_kind::demand, blob);
}

std::string encode_cell_state(const cell_state& c) {
  return encode_state_blob(state_kind::scenario_cell, record_payload(c));
}

cell_state decode_cell_state(std::string_view blob) {
  return decode_record<cell_state>(state_kind::scenario_cell, blob);
}

cell_identity peek_cell_identity(state_kind kind, std::string_view blob) {
  const std::string_view payload = decode_state_blob(kind, blob);
  try {
    wire_reader r(payload);
    cell_identity id;
    id.fingerprint = r.get_u64();
    id.cell_index = r.get_u64();
    return id;
  } catch (const stats::wire_error& e) {
    throw run_dir_error(std::string("run_dir: state payload malformed: ") + e.what());
  }
}

cell_identity peek_cell_identity(std::string_view blob) {
  return peek_cell_identity(state_kind::scenario_cell, blob);
}

std::string encode_demand_window_state(const demand_window_state& s) {
  return encode_state_blob(state_kind::demand_window, record_payload(s));
}

demand_window_state decode_demand_window_state(std::string_view blob) {
  return decode_record<demand_window_state>(
      state_kind::demand_window, blob, [](const demand_window_state& s) {
        if (s.result.target_begin > s.result.target_end ||
            s.result.failures.size() != s.result.target_end - s.result.target_begin) {
          throw stats::wire_error("wire: demand window bounds disagree with its counts");
        }
      });
}

std::string encode_experiment_window_state(const experiment_window_state& s) {
  return encode_state_blob(state_kind::experiment_window, record_payload(s));
}

experiment_window_state decode_experiment_window_state(std::string_view blob) {
  return decode_record<experiment_window_state>(
      state_kind::experiment_window, blob, [](const experiment_window_state& s) {
        if (s.result.shard_begin > s.result.shard_end ||
            s.result.shard_states.size() != s.result.shard_end - s.result.shard_begin) {
          throw stats::wire_error("wire: shard window bounds disagree with its states");
        }
      });
}

std::string encode_cached_result(const cached_result& c) {
  return encode_state_blob(state_kind::cached_result, record_payload(c));
}

cached_result decode_cached_result(std::string_view blob) {
  return decode_record<cached_result>(state_kind::cached_result, blob);
}

std::string encode_manifest(const sweep_manifest& m) {
  return encode_state_blob(state_kind::manifest, record_payload(m));
}

sweep_manifest decode_manifest(std::string_view blob) {
  sweep_manifest m = decode_record<sweep_manifest>(state_kind::manifest, blob);
  // The cell count is derived data; a mismatch means the axes and the count
  // were written by disagreeing code, and no cell index can be trusted.
  std::size_t expected = 0;
  try {
    expected = enumerate_cells(m.axes).size();
  } catch (const std::invalid_argument& e) {
    throw run_dir_error(std::string("run_dir: manifest axes invalid: ") + e.what());
  }
  if (expected != m.cell_count) {
    throw run_dir_error("run_dir: manifest cell count " + std::to_string(m.cell_count) +
                        " does not match its axes (" + std::to_string(expected) + " cells)");
  }
  return m;
}

std::uint64_t manifest_fingerprint(const sweep_manifest& m) {
  return stats::fnv1a64(record_payload(m));
}

std::string encode_demand_manifest(const demand_manifest& m) {
  return encode_state_blob(state_kind::demand_manifest, record_payload(m));
}

demand_manifest decode_demand_manifest(std::string_view blob) {
  return decode_record<demand_manifest>(state_kind::demand_manifest, blob,
                                        [](const demand_manifest& m) { m.validate(); });
}

std::uint64_t demand_manifest_fingerprint(const demand_manifest& m) {
  return stats::fnv1a64(record_payload(m));
}

std::string encode_experiment_manifest(const experiment_manifest& m) {
  return encode_state_blob(state_kind::experiment_manifest, record_payload(m));
}

experiment_manifest decode_experiment_manifest(std::string_view blob) {
  return decode_record<experiment_manifest>(
      state_kind::experiment_manifest, blob,
      [](const experiment_manifest& m) { m.validate(); });
}

std::uint64_t experiment_manifest_fingerprint(const experiment_manifest& m) {
  return stats::fnv1a64(record_payload(m));
}

// ---------------------------------------------------------------------------
// Filesystem layer
// ---------------------------------------------------------------------------

const std::string& claim_host_name() {
  static const std::string host = [] {
    char buf[256] = {};
    if (::gethostname(buf, sizeof(buf) - 1) != 0 || buf[0] == '\0') {
      return std::string("localhost");
    }
    std::string name(buf);
    // '.' separates the pid in .tmp suffixes and '/' is a path separator:
    // map both (and anything else exotic) to '-'.
    for (char& c : name) {
      const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
      if (!safe) c = '-';
    }
    return name;
  }();
  return host;
}

fs::path tmp_sibling(const fs::path& path) {
  return path.string() + std::string(kTmpInfix) + claim_host_name() + "." +
         std::to_string(::getpid());
}

void write_file_atomic(const fs::path& path, std::string_view contents) {
  io_env& env = active_io_env();
  const fs::path tmp = tmp_sibling(path);
  try {
    // fsync the temp before renaming and the directory after: without the
    // first a power cut can commit a zero-length rename target, without the
    // second the rename itself may not survive the cut.
    env.write_file(tmp, contents, /*sync=*/true);
    env.rename_file(tmp, path);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
  env.fsync_dir(path.parent_path());
}

bool publish_file_noreplace(const fs::path& path, std::string_view contents, bool sync,
                            std::string_view op) {
  io_env& env = active_io_env();
  const fs::path tmp = tmp_sibling(path);
  try {
    env.write_file(tmp, contents, sync);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
  const int rc = env.rename_noreplace(tmp, path);
  if (rc == 0) {
    if (sync) env.fsync_dir(path.parent_path());
    return true;
  }
  std::error_code ec;
  fs::remove(tmp, ec);
  if (rc == -EEXIST) return false;
  throw io_error(std::string(op), path, -rc);
}

std::string read_file(const fs::path& path) { return active_io_env().read_file(path); }

fs::path manifest_path(const fs::path& run_dir) { return run_dir / "manifest.state"; }

fs::path cells_dir(const fs::path& run_dir) { return run_dir / "cells"; }

namespace {
std::string cell_file_stem(std::uint64_t cell_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cell_%06llu",
                static_cast<unsigned long long>(cell_index));
  return buf;
}
}  // namespace

fs::path cell_state_path(const fs::path& run_dir, std::uint64_t cell_index) {
  return cells_dir(run_dir) / (cell_file_stem(cell_index) + ".state");
}

fs::path cell_claim_path(const fs::path& run_dir, std::uint64_t cell_index) {
  return cells_dir(run_dir) / (cell_file_stem(cell_index) + ".claim");
}

fs::path quarantine_dir(const fs::path& run_dir) { return run_dir / "quarantine"; }

fs::path cell_quarantine_path(const fs::path& run_dir, std::uint64_t cell_index) {
  return quarantine_dir(run_dir) / (cell_file_stem(cell_index) + ".quarantine");
}

}  // namespace reldiv::mc
