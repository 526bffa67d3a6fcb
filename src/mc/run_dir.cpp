#include "mc/run_dir.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "mc/io_env.hpp"
#include "stats/wire.hpp"

namespace reldiv::mc {

namespace fs = std::filesystem;
using stats::wire_reader;
using stats::wire_writer;

namespace {

// Vector codecs with a length sanity check: a mangled length prefix must
// throw, not drive a multi-exabyte reserve.
void write_f64_vec(wire_writer& w, const std::vector<double>& v) {
  w.put_u64(v.size());
  for (const double x : v) w.put_f64(x);
}

std::vector<double> read_f64_vec(wire_reader& r) {
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining() / 8) throw stats::wire_error("wire: vector length exceeds buffer");
  std::vector<double> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.get_f64());
  return v;
}

void write_u64_vec(wire_writer& w, const std::vector<std::uint64_t>& v) {
  w.put_u64(v.size());
  for (const std::uint64_t x : v) w.put_u64(x);
}

std::vector<std::uint64_t> read_u64_vec(wire_reader& r) {
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining() / 8) throw stats::wire_error("wire: vector length exceeds buffer");
  std::vector<std::uint64_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.get_u64());
  return v;
}

// Payload-level codecs (no container framing) so composite states can nest.

void write_accumulator_payload(wire_writer& w, const accumulator_state& s) {
  w.put_u64(s.samples);
  stats::write_moments_state(w, s.theta1);
  stats::write_moments_state(w, s.theta2);
  w.put_u64(s.n1_positive);
  w.put_u64(s.n2_positive);
  w.put_u64(s.n1_zero_pfd);
  w.put_u64(s.n2_zero_pfd);
  w.put_u8(s.keeping_samples ? 1 : 0);
  write_f64_vec(w, s.theta1_samples);
  write_f64_vec(w, s.theta2_samples);
}

accumulator_state read_accumulator_payload(wire_reader& r) {
  accumulator_state s;
  s.samples = r.get_u64();
  s.theta1 = stats::read_moments_state(r);
  s.theta2 = stats::read_moments_state(r);
  s.n1_positive = r.get_u64();
  s.n2_positive = r.get_u64();
  s.n1_zero_pfd = r.get_u64();
  s.n2_zero_pfd = r.get_u64();
  s.keeping_samples = r.get_u8() != 0;
  s.theta1_samples = read_f64_vec(r);
  s.theta2_samples = read_f64_vec(r);
  return s;
}

void write_cell_payload(wire_writer& w, const cell_state& c) {
  w.put_u64(c.fingerprint);
  w.put_u64(c.cell_index);
  const scenario_cell_result& res = c.result;
  w.put_u64(res.cell.universe_index);
  w.put_bytes(res.cell.universe);
  w.put_f64(res.cell.rho);
  w.put_f64(res.cell.omega);
  w.put_u64(res.cell.aliasing);
  w.put_u64(res.cell.samples);
  w.put_u64(res.seed);
  w.put_u32(res.shards);
  write_accumulator_payload(w, res.state);
  w.put_f64(res.mean_theta1);
  w.put_f64(res.mean_theta2);
  w.put_f64(res.prob_n1_positive);
  w.put_f64(res.prob_n2_positive);
  w.put_f64(res.risk_ratio);
  w.put_f64(res.p_max_true);
  w.put_f64(res.p_max_naive);
  // Adjudication coordinates append only when off the paper's {2,2} pair,
  // so baseline cell files stay byte-identical to earlier releases.
  if (res.cell.versions != 2 || res.cell.votes != 2) {
    w.put_u32(res.cell.versions);
    w.put_u32(res.cell.votes);
  }
}

cell_state read_cell_payload(wire_reader& r) {
  cell_state c;
  c.fingerprint = r.get_u64();
  c.cell_index = r.get_u64();
  scenario_cell_result& res = c.result;
  res.cell.universe_index = r.get_u64();
  res.cell.universe = std::string(r.get_bytes());
  res.cell.rho = r.get_f64();
  res.cell.omega = r.get_f64();
  res.cell.aliasing = r.get_u64();
  res.cell.samples = r.get_u64();
  res.seed = r.get_u64();
  res.shards = r.get_u32();
  res.state = read_accumulator_payload(r);
  res.mean_theta1 = r.get_f64();
  res.mean_theta2 = r.get_f64();
  res.prob_n1_positive = r.get_f64();
  res.prob_n2_positive = r.get_f64();
  res.risk_ratio = r.get_f64();
  res.p_max_true = r.get_f64();
  res.p_max_naive = r.get_f64();
  if (r.remaining() > 0) {
    res.cell.versions = r.get_u32();
    res.cell.votes = r.get_u32();
  }
  return c;
}

/// True when the extended axes sit at their historical defaults — such a
/// manifest is written WITHOUT the extension block, so its payload bytes
/// (and therefore its fingerprint) are identical to every earlier release.
bool axes_extension_is_default(const scenario_axes& axes) {
  return axes.rho_model == correlation_model::mixture && axes.adjudications.size() == 1 &&
         axes.adjudications[0].versions == 2 &&
         axes.adjudications[0].votes_to_defeat == 2 && axes.cell_budgets.empty();
}

// Version tag of the appended axes-extension block (append-only, like the
// engine wire values).
constexpr std::uint32_t kAxesExtensionVersion = 1;

void write_manifest_payload(wire_writer& w, const sweep_manifest& m) {
  w.put_u64(m.seed);
  w.put_u32(m.shards);
  w.put_f64(m.axes.stress);
  w.put_u64(m.axes.universes.size());
  for (const auto& [name, universe] : m.axes.universes) {
    w.put_bytes(name);
    w.put_u64(universe.size());
    for (const auto& atom : universe.atoms()) {
      w.put_f64(atom.p);
      w.put_f64(atom.q);
    }
  }
  write_f64_vec(w, m.axes.correlations);
  write_f64_vec(w, m.axes.overlaps);
  {
    std::vector<std::uint64_t> aliasing(m.axes.aliasing.begin(), m.axes.aliasing.end());
    write_u64_vec(w, aliasing);
  }
  write_u64_vec(w, m.axes.budgets);
  w.put_u64(m.cell_count);
  // Extended axes (correlation model, k-out-of-m adjudication, per-cell
  // refinement budgets) append AFTER the historical payload and only when
  // non-default; the reader takes their absence as the defaults.
  if (!axes_extension_is_default(m.axes)) {
    w.put_u32(kAxesExtensionVersion);
    w.put_u32(static_cast<std::uint32_t>(m.axes.rho_model));
    w.put_u64(m.axes.adjudications.size());
    for (const core::architecture& arch : m.axes.adjudications) {
      w.put_u32(arch.versions);
      w.put_u32(arch.votes_to_defeat);
    }
    write_u64_vec(w, m.axes.cell_budgets);
  }
}

sweep_manifest read_manifest_payload(wire_reader& r) {
  sweep_manifest m;
  m.seed = r.get_u64();
  m.shards = r.get_u32();
  m.axes.stress = r.get_f64();
  const std::uint64_t universes = r.get_u64();
  if (universes > r.remaining() / 8) {
    throw stats::wire_error("wire: universe count exceeds buffer");
  }
  m.axes.universes.reserve(universes);
  for (std::uint64_t u = 0; u < universes; ++u) {
    std::string name(r.get_bytes());
    const std::uint64_t n = r.get_u64();
    if (n > r.remaining() / 16) throw stats::wire_error("wire: universe size exceeds buffer");
    std::vector<double> p;
    std::vector<double> q;
    p.reserve(n);
    q.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      p.push_back(r.get_f64());
      q.push_back(r.get_f64());
    }
    // allow_q_overflow: a deliberately pessimistic §6.2 universe must
    // round-trip; per-atom range validation still applies.
    m.axes.universes.emplace_back(
        std::move(name), core::fault_universe::from_arrays(p, q, /*allow_q_overflow=*/true));
  }
  m.axes.correlations = read_f64_vec(r);
  m.axes.overlaps = read_f64_vec(r);
  {
    const std::vector<std::uint64_t> aliasing = read_u64_vec(r);
    m.axes.aliasing.assign(aliasing.begin(), aliasing.end());
  }
  m.axes.budgets = read_u64_vec(r);
  m.cell_count = r.get_u64();
  if (r.remaining() > 0) {
    const std::uint32_t ext = r.get_u32();
    if (ext != kAxesExtensionVersion) {
      throw stats::wire_error("wire: unknown axes extension version " +
                              std::to_string(ext));
    }
    const std::uint32_t model = r.get_u32();
    if (model > static_cast<std::uint32_t>(correlation_model::copula)) {
      throw stats::wire_error("wire: unknown correlation model " + std::to_string(model));
    }
    m.axes.rho_model = static_cast<correlation_model>(model);
    const std::uint64_t archs = r.get_u64();
    if (archs > r.remaining() / 8) {
      throw stats::wire_error("wire: adjudication count exceeds buffer");
    }
    m.axes.adjudications.clear();
    m.axes.adjudications.reserve(archs);
    for (std::uint64_t i = 0; i < archs; ++i) {
      core::architecture arch;
      arch.versions = r.get_u32();
      arch.votes_to_defeat = r.get_u32();
      m.axes.adjudications.push_back(arch);
    }
    m.axes.cell_budgets = read_u64_vec(r);
  }
  return m;
}

/// Decode a typed payload, translating wire/validation failures into
/// run_dir_error (a payload that passed the checksum but fails to parse is a
/// format bug or a version-1 file written by a newer incompatible writer).
template <typename Fn>
auto decode_payload(state_kind kind, std::string_view blob, Fn&& read) {
  const std::string_view payload = decode_state_blob(kind, blob);
  try {
    wire_reader r(payload);
    auto value = read(r);
    r.expect_done();
    return value;
  } catch (const stats::wire_error& e) {
    throw run_dir_error(std::string("run_dir: state payload malformed: ") + e.what());
  } catch (const std::invalid_argument& e) {
    throw run_dir_error(std::string("run_dir: state payload invalid: ") + e.what());
  }
}

void append_json_f64_array(std::string& out, const std::vector<double>& v) {
  out += '[';
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    out += buf;
  }
  out += ']';
}

template <typename T>
void append_json_u64_array(std::string& out, const std::vector<T>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(static_cast<std::uint64_t>(v[i]));
  }
  out += ']';
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
  wire_writer w;
  write_accumulator_payload(w, s);
  return encode_state_blob(state_kind::accumulator, w.buffer());
}

accumulator_state decode_accumulator_state(std::string_view blob) {
  return decode_payload(state_kind::accumulator, blob,
                        [](wire_reader& r) { return read_accumulator_payload(r); });
}

std::string encode_demand_tally(const demand_tally& t) {
  wire_writer w;
  w.put_u64(t.demands);
  write_u64_vec(w, t.failures);
  return encode_state_blob(state_kind::demand, w.buffer());
}

demand_tally decode_demand_tally(std::string_view blob) {
  return decode_payload(state_kind::demand, blob, [](wire_reader& r) {
    demand_tally t;
    t.demands = r.get_u64();
    t.failures = read_u64_vec(r);
    return t;
  });
}

std::string encode_cell_state(const cell_state& c) {
  wire_writer w;
  write_cell_payload(w, c);
  return encode_state_blob(state_kind::scenario_cell, w.buffer());
}

cell_state decode_cell_state(std::string_view blob) {
  return decode_payload(state_kind::scenario_cell, blob,
                        [](wire_reader& r) { return read_cell_payload(r); });
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

// ---------------------------------------------------------------------------
// Demand and experiment window states
// ---------------------------------------------------------------------------

std::string encode_demand_window_state(const demand_window_state& s) {
  wire_writer w;
  w.put_u64(s.fingerprint);
  w.put_u64(s.window_index);
  w.put_u64(s.result.target_begin);
  w.put_u64(s.result.target_end);
  w.put_u64(s.result.demands);
  write_u64_vec(w, s.result.failures);
  return encode_state_blob(state_kind::demand_window, w.buffer());
}

demand_window_state decode_demand_window_state(std::string_view blob) {
  return decode_payload(state_kind::demand_window, blob, [](wire_reader& r) {
    demand_window_state s;
    s.fingerprint = r.get_u64();
    s.window_index = r.get_u64();
    s.result.target_begin = r.get_u64();
    s.result.target_end = r.get_u64();
    s.result.demands = r.get_u64();
    s.result.failures = read_u64_vec(r);
    if (s.result.target_begin > s.result.target_end ||
        s.result.failures.size() != s.result.target_end - s.result.target_begin) {
      throw stats::wire_error("wire: demand window bounds disagree with its counts");
    }
    return s;
  });
}

std::string encode_experiment_window_state(const experiment_window_state& s) {
  wire_writer w;
  w.put_u64(s.fingerprint);
  w.put_u64(s.window_index);
  w.put_u32(s.result.shard_begin);
  w.put_u32(s.result.shard_end);
  w.put_u64(s.result.shard_states.size());
  for (const accumulator_state& shard : s.result.shard_states) {
    write_accumulator_payload(w, shard);
  }
  return encode_state_blob(state_kind::experiment_window, w.buffer());
}

experiment_window_state decode_experiment_window_state(std::string_view blob) {
  return decode_payload(state_kind::experiment_window, blob, [](wire_reader& r) {
    experiment_window_state s;
    s.fingerprint = r.get_u64();
    s.window_index = r.get_u64();
    s.result.shard_begin = r.get_u32();
    s.result.shard_end = r.get_u32();
    const std::uint64_t n = r.get_u64();
    // Each shard state is at least 8 bytes of counters on the wire; a
    // mangled count must throw, not drive a huge reserve.
    if (n > r.remaining() / 8) {
      throw stats::wire_error("wire: shard state count exceeds buffer");
    }
    if (s.result.shard_begin > s.result.shard_end ||
        n != s.result.shard_end - s.result.shard_begin) {
      throw stats::wire_error("wire: shard window bounds disagree with its states");
    }
    s.result.shard_states.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      s.result.shard_states.push_back(read_accumulator_payload(r));
    }
    return s;
  });
}

// ---------------------------------------------------------------------------
// Memoized merge results
// ---------------------------------------------------------------------------

std::string encode_cached_result(const cached_result& c) {
  wire_writer w;
  w.put_u32(static_cast<std::uint32_t>(c.kind));
  w.put_u64(c.fingerprint);
  w.put_bytes(c.csv);
  w.put_bytes(c.json);
  return encode_state_blob(state_kind::cached_result, w.buffer());
}

cached_result decode_cached_result(std::string_view blob) {
  return decode_payload(state_kind::cached_result, blob, [](wire_reader& r) {
    cached_result c;
    const std::uint32_t kind = r.get_u32();
    if (kind < static_cast<std::uint32_t>(job_kind::scenario_grid) ||
        kind > static_cast<std::uint32_t>(job_kind::experiment_shards)) {
      throw stats::wire_error("wire: unknown job kind " + std::to_string(kind) +
                              " in cached result");
    }
    c.kind = static_cast<job_kind>(kind);
    c.fingerprint = r.get_u64();
    c.csv = std::string(r.get_bytes());
    c.json = std::string(r.get_bytes());
    return c;
  });
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

std::string encode_manifest(const sweep_manifest& m) {
  wire_writer w;
  write_manifest_payload(w, m);
  return encode_state_blob(state_kind::manifest, w.buffer());
}

sweep_manifest decode_manifest(std::string_view blob) {
  sweep_manifest m = decode_payload(state_kind::manifest, blob,
                                    [](wire_reader& r) { return read_manifest_payload(r); });
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
  wire_writer w;
  write_manifest_payload(w, m);
  return stats::fnv1a64(w.buffer());
}

std::string manifest_json(const sweep_manifest& m) {
  std::string out = "{\n  \"format_version\": " + std::to_string(kStateFormatVersion);
  out += ",\n  \"seed\": " + std::to_string(m.seed);
  out += ",\n  \"shards\": " + std::to_string(m.shards);
  out += ",\n  \"cell_count\": " + std::to_string(m.cell_count);
  out += ",\n  \"fingerprint\": " + std::to_string(manifest_fingerprint(m));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", m.axes.stress);
  out += ",\n  \"stress\": ";
  out += buf;
  out += ",\n  \"universes\": [";
  for (std::size_t u = 0; u < m.axes.universes.size(); ++u) {
    if (u > 0) out += ',';
    out += "{\"name\":\"" + m.axes.universes[u].first +
           "\",\"faults\":" + std::to_string(m.axes.universes[u].second.size()) + "}";
  }
  out += "]";
  out += ",\n  \"correlations\": ";
  append_json_f64_array(out, m.axes.correlations);
  out += ",\n  \"overlaps\": ";
  append_json_f64_array(out, m.axes.overlaps);
  out += ",\n  \"aliasing\": ";
  append_json_u64_array(out, m.axes.aliasing);
  out += ",\n  \"rho_model\": \"";
  out += m.axes.rho_model == correlation_model::copula ? "copula" : "mixture";
  out += '"';
  out += ",\n  \"adjudications\": [";
  for (std::size_t i = 0; i < m.axes.adjudications.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"versions\":" + std::to_string(m.axes.adjudications[i].versions) +
           ",\"votes\":" + std::to_string(m.axes.adjudications[i].votes_to_defeat) + "}";
  }
  out += "]";
  out += ",\n  \"budgets\": ";
  append_json_u64_array(out, m.axes.budgets);
  if (!m.axes.cell_budgets.empty()) {
    out += ",\n  \"cell_budgets\": ";
    append_json_u64_array(out, m.axes.cell_budgets);
  }
  out += "\n}\n";
  return out;
}

namespace {

// The demand and experiment manifest payloads lead with their job kind so
// the three manifest payloads can never alias under the shared FNV-1a
// fingerprint hash (the scenario payload predates the tag and keeps its
// PR 4 layout for fingerprint stability).

void write_demand_manifest_payload(wire_writer& w, const demand_manifest& m) {
  w.put_u32(static_cast<std::uint32_t>(job_kind::demand_campaign));
  w.put_u64(m.seed);
  w.put_u64(m.demands);
  w.put_u64(m.window);
  write_f64_vec(w, m.target_pfd);
}

demand_manifest read_demand_manifest_payload(wire_reader& r) {
  demand_manifest m;
  if (r.get_u32() != static_cast<std::uint32_t>(job_kind::demand_campaign)) {
    throw stats::wire_error("wire: demand manifest job-kind tag mismatch");
  }
  m.seed = r.get_u64();
  m.demands = r.get_u64();
  m.window = r.get_u64();
  m.target_pfd = read_f64_vec(r);
  m.validate();
  return m;
}

void write_experiment_manifest_payload(wire_writer& w, const experiment_manifest& m) {
  w.put_u32(static_cast<std::uint32_t>(job_kind::experiment_shards));
  w.put_u64(m.seed);
  w.put_u64(m.samples);
  w.put_u32(m.shards);
  w.put_u32(static_cast<std::uint32_t>(m.engine));
  w.put_u8(m.keep_samples ? 1 : 0);
  w.put_f64(m.ci_level);
  w.put_u32(m.window);
  w.put_u64(m.universe.size());
  for (const auto& atom : m.universe.atoms()) {
    w.put_f64(atom.p);
    w.put_f64(atom.q);
  }
}

experiment_manifest read_experiment_manifest_payload(wire_reader& r) {
  experiment_manifest m;
  if (r.get_u32() != static_cast<std::uint32_t>(job_kind::experiment_shards)) {
    throw stats::wire_error("wire: experiment manifest job-kind tag mismatch");
  }
  m.seed = r.get_u64();
  m.samples = r.get_u64();
  m.shards = r.get_u32();
  // Wire values are append-only: exact=1, fast_simd=3; 0 (fast) and 2
  // (legacy) were retired engines and are refused.
  try {
    m.engine = sampling_engine_from_tag(r.get_u32());
  } catch (const std::invalid_argument& e) {
    throw stats::wire_error(std::string("wire: ") + e.what());
  }
  m.keep_samples = r.get_u8() != 0;
  m.ci_level = r.get_f64();
  m.window = r.get_u32();
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining() / 16) throw stats::wire_error("wire: universe size exceeds buffer");
  std::vector<double> p;
  std::vector<double> q;
  p.reserve(n);
  q.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    p.push_back(r.get_f64());
    q.push_back(r.get_f64());
  }
  m.universe = core::fault_universe::from_arrays(p, q, /*allow_q_overflow=*/true);
  m.validate();
  return m;
}

}  // namespace

std::string encode_demand_manifest(const demand_manifest& m) {
  wire_writer w;
  write_demand_manifest_payload(w, m);
  return encode_state_blob(state_kind::demand_manifest, w.buffer());
}

demand_manifest decode_demand_manifest(std::string_view blob) {
  return decode_payload(state_kind::demand_manifest, blob,
                        [](wire_reader& r) { return read_demand_manifest_payload(r); });
}

std::uint64_t demand_manifest_fingerprint(const demand_manifest& m) {
  wire_writer w;
  write_demand_manifest_payload(w, m);
  return stats::fnv1a64(w.buffer());
}

std::string demand_manifest_json(const demand_manifest& m) {
  m.validate();
  std::string out = "{\n  \"format_version\": " + std::to_string(kStateFormatVersion);
  out += ",\n  \"job_kind\": \"demand_campaign\"";
  out += ",\n  \"seed\": " + std::to_string(m.seed);
  out += ",\n  \"demands\": " + std::to_string(m.demands);
  out += ",\n  \"targets\": " + std::to_string(m.target_pfd.size());
  out += ",\n  \"window\": " + std::to_string(m.window);
  out += ",\n  \"window_count\": " + std::to_string(m.window_count());
  out += ",\n  \"fingerprint\": " + std::to_string(demand_manifest_fingerprint(m));
  const auto [lo, hi] =
      std::minmax_element(m.target_pfd.begin(), m.target_pfd.end());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", *lo);
  out += ",\n  \"pfd_min\": ";
  out += buf;
  std::snprintf(buf, sizeof(buf), "%.17g", *hi);
  out += ",\n  \"pfd_max\": ";
  out += buf;
  out += "\n}\n";
  return out;
}

std::string encode_experiment_manifest(const experiment_manifest& m) {
  wire_writer w;
  write_experiment_manifest_payload(w, m);
  return encode_state_blob(state_kind::experiment_manifest, w.buffer());
}

experiment_manifest decode_experiment_manifest(std::string_view blob) {
  return decode_payload(state_kind::experiment_manifest, blob, [](wire_reader& r) {
    return read_experiment_manifest_payload(r);
  });
}

std::uint64_t experiment_manifest_fingerprint(const experiment_manifest& m) {
  wire_writer w;
  write_experiment_manifest_payload(w, m);
  return stats::fnv1a64(w.buffer());
}

std::string experiment_manifest_json(const experiment_manifest& m) {
  m.validate();
  std::string out = "{\n  \"format_version\": " + std::to_string(kStateFormatVersion);
  out += ",\n  \"job_kind\": \"experiment_shards\"";
  out += ",\n  \"seed\": " + std::to_string(m.seed);
  out += ",\n  \"samples\": " + std::to_string(m.samples);
  out += ",\n  \"shards\": " + std::to_string(m.shards);
  out += ",\n  \"engine\": " + std::to_string(static_cast<std::uint32_t>(m.engine));
  out += ",\n  \"keep_samples\": ";
  out += m.keep_samples ? "true" : "false";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", m.ci_level);
  out += ",\n  \"ci_level\": ";
  out += buf;
  out += ",\n  \"window\": " + std::to_string(m.window);
  out += ",\n  \"window_count\": " + std::to_string(m.window_count());
  out += ",\n  \"faults\": " + std::to_string(m.universe.size());
  out += ",\n  \"fingerprint\": " + std::to_string(experiment_manifest_fingerprint(m));
  out += "\n}\n";
  return out;
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

void write_file_atomic(const fs::path& path, std::string_view contents) {
  io_env& env = active_io_env();
  const fs::path tmp =
      path.string() + ".tmp." + claim_host_name() + "." + std::to_string(::getpid());
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
