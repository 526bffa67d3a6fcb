#include "mc/tables.hpp"

#include <cstdio>
#include <span>

#include "mc/distributed.hpp"

namespace reldiv::mc {

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

namespace {

/// A table as CSV: the header row of its columns, then one row per record.
template <class Record>
std::string table_csv(std::span<const Record> records) {
  std::string out;
  row_writer header{out, row_style::csv_header};
  columns(header, Record{});
  out += '\n';
  for (const Record& r : records) {
    row_writer row{out, row_style::csv};
    columns(row, r);
    out += '\n';
  }
  return out;
}

}  // namespace

std::string grid_result::to_csv() const { return table_csv<scenario_cell_result>(cells); }

std::string grid_result::to_json() const {
  std::string out = "{\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out += i > 0 ? ",{" : "{";
    row_writer cell{out, row_style::json};
    columns(cell, cells[i]);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string experiment_result_csv(const experiment_result& r) {
  return table_csv<experiment_result>({&r, 1});
}

std::string experiment_result_json(const experiment_result& r) {
  std::string out = "{";
  row_writer members{out, row_style::pretty_json};
  columns(members, r);
  out += "\n}\n";
  return out;
}

std::string demand_tally_csv(const demand_manifest& m, const demand_tally& t) {
  std::string out;
  const auto target = [&](row_writer row, std::size_t i, double pfd, std::uint64_t failures) {
    row(field{.name = "target"}, i);
    row(field{.name = "pfd"}, pfd);
    row(field{.name = "failures"}, failures);
    row(field{.name = "rate"}, static_cast<double>(failures) / static_cast<double>(t.demands));
    out += '\n';
  };
  target({out, row_style::csv_header}, 0, 0.0, 0);
  for (std::size_t i = 0; i < t.failures.size(); ++i) {
    target({out, row_style::csv}, i, m.target_pfd[i], t.failures[i]);
  }
  return out;
}

std::string demand_tally_json(const demand_tally& t) {
  std::uint64_t total = 0;
  for (const std::uint64_t f : t.failures) total += f;
  std::string out = "{";
  row_writer members{out, row_style::pretty_json};
  members(field{.name = "demands"}, t.demands);
  members(field{.name = "targets"}, t.failures.size());
  members(field{.name = "total_failures"}, total);
  members(field{.name = "failures"}, t.failures);
  out += "\n}\n";
  return out;
}

}  // namespace reldiv::mc
