#pragma once
// mc::tables — deterministic text emission.  One emitter renders the merged
// result tables (grid, experiment and demand CSV/JSON), `describe` and the
// values of a written spec: every double as %.17g, which std::from_chars
// reads back bit-exactly, and every integer as locale-free %llu.  The grid
// and experiment tables walk the columns mc/manifest_fields.hpp declares, so
// a column is named once for CSV and JSON alike.  (reldiv_lint's spec-fmt
// rule bans the to_string/strtod families in this file family.)

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "mc/manifest_fields.hpp"

namespace reldiv::mc {

void append_f64(std::string& out, double v);
void append_u64(std::string& out, std::uint64_t v);

/// The words of `s`, split on spaces and tabs (a spec list, an enum's names).
[[nodiscard]] std::vector<std::string_view> split_tokens(std::string_view s);

/// A value as spec text (lists space-separated, an enum by its name) or as
/// JSON (lists as arrays, strings and an enum with names quoted, the engine
/// as its wire value, universes as atom arrays).  `names` are an enum's
/// spellings in wire-value order.
template <class T>
void render_value(std::string& out, const T& v, std::string_view names, bool json) {
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, sampling_engine>) {
    if (json) {
      append_u64(out, static_cast<std::uint64_t>(v));
    } else {
      out += sampling_engine_name(v);
    }
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::string>) {
    if (json) out += '"';
    if constexpr (std::is_enum_v<T>) {
      out += split_tokens(names).at(static_cast<std::size_t>(v));
    } else {
      out += v;
    }
    if (json) out += '"';
  } else if constexpr (std::is_floating_point_v<T>) {
    append_f64(out, v);
  } else if constexpr (std::is_integral_v<T>) {
    append_u64(out, v);
  } else if constexpr (std::is_same_v<T, core::architecture>) {
    if (!json) {
      append_u64(out, v.votes_to_defeat);
      out += "of";
      append_u64(out, v.versions);
      return;
    }
    out += "{\"versions\":";
    append_u64(out, v.versions);
    out += ",\"votes\":";
    append_u64(out, v.votes_to_defeat);
    out += '}';
  } else if constexpr (std::is_same_v<T, core::fault_universe>) {
    out += '[';
    const auto atoms = v.atoms();
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      out += i > 0 ? ",{\"p\":" : "{\"p\":";
      append_f64(out, atoms[i].p);
      out += ",\"q\":";
      append_f64(out, atoms[i].q);
      out += '}';
    }
    out += ']';
  } else if constexpr (std::is_same_v<T, named_universe>) {
    out += "{\"name\":\"" + v.first + "\",\"atoms\":";
    render_value(out, v.second, names, json);
    out += '}';
  } else {
    if (json) out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += json ? ',' : ' ';
      render_value(out, v[i], names, json);
    }
    if (json) out += ']';
  }
}

/// How a row_writer lays out the named rows it visits.
enum class row_style : std::uint8_t {
  csv_header,   ///< name,name,...
  csv,          ///< value,value,...
  json,         ///< "name":value,... (the grid's compact cells)
  pretty_json,  ///< one "name": value per line (describe, the experiment)
};

/// Visitor that renders the named rows of a declaration (`fields` or
/// `columns`) in one style.  Unnamed rows, nested records and an empty list
/// whose row says omit_empty are skipped.
struct row_writer {
  std::string& out;
  row_style style;
  bool first = true;

  template <class T>
  void operator()(const field& f, const T& value) {
    if constexpr (!declared<T>) {
      if (f.name.empty()) return;
      if constexpr (requires { value.empty(); }) {
        if (f.omit_empty && value.empty()) return;
      }
      if (!first) out += ',';
      first = false;
      switch (style) {
        case row_style::csv_header: out += f.name; return;
        case row_style::csv: render_value(out, value, f.names, /*json=*/false); return;
        case row_style::json: out += '"'; break;
        case row_style::pretty_json: out += "\n  \""; break;
      }
      out += f.name;
      out += style == row_style::json ? "\":" : "\": ";
      render_value(out, value, f.names, /*json=*/true);
    }
  }
};

}  // namespace reldiv::mc
