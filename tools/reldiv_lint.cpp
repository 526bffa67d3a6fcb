// reldiv_lint: the repo-invariant static-analysis pass.
//
// The reproduction's value rests on contracts that tests can only probe on
// the paths they exercise: results are bit-identical across thread counts
// and kill/resume histories (PR 2/3/5), every distributed byte flows through
// the mc::io_env seam (PR 6), and all state files decode portably through
// stats::wire (PR 4).  One stray std::rand(), system_clock::now(), direct
// ::open() in src/mc/, or unordered_map iteration in a merge path silently
// breaks those contracts on some path no test happens to cover.  This tool
// enforces them mechanically over src/, tools/ and tests/.
//
// It is a real tokenizer, not a grep: comments, string/char literals, raw
// strings and digit separators are lexed, qualified-name chains
// (a::b::c, ::open) are reassembled, and rules fire on identifier tokens —
// so "::open(" inside a string literal or a comment never trips a rule, and
// `read_file` never matches `read`.
//
// Diagnostics:  file:line: rule-id: message
// Suppression (shown with a real rule id):
//   // reldiv-lint: allow(io-seam) reason why this exact line is intentional
//   - trailing a line of code: suppresses that line;
//   - on a line of its own: suppresses the next line;
//   - a reason is mandatory; a missing reason or unknown rule id is itself
//     a finding (lint-suppress).
// Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/IO error.
//
// This file lints itself (tools/ is in scope): it deliberately contains no
// banned construct outside string literals.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct rule_info {
  std::string_view id;
  std::string_view guards;   ///< which contract the rule protects
  std::string_view summary;  ///< one-line description for --list-rules
};

constexpr rule_info kRules[] = {
    {"io-seam", "PR 6 fault-injection seam",
     "no direct POSIX/stdio/fstream I/O in src/mc/ outside io_env.cpp; route "
     "bytes through mc::active_io_env()"},
    {"det-rand", "PR 2 determinism",
     "no nondeterministic randomness (std::rand, random_device, ...); use "
     "stats::rng streams derived from the run seed"},
    {"det-time", "PR 2/5 determinism + lease rules",
     "no wall-clock reads (time, system_clock, gettimeofday, __DATE__); "
     "results are pure functions of (seed, inputs), leases use fs mtimes"},
    {"det-hash", "PR 2/3 merge order",
     "no std::hash in result/merge/serialization paths; its value is "
     "implementation-defined and must never order results"},
    {"det-unordered", "PR 2/3 merge order",
     "no unordered_map/unordered_set in result/merge/serialization paths; "
     "iteration order would leak into merged results"},
    {"wire-cast", "PR 4 portable codec",
     "no reinterpret_cast/memcpy serialization outside src/stats/wire.*; all "
     "state bytes go through the bounds-checked little-endian codec"},
    {"float-fmt", "PR 4/5 bit-exact emission",
     "float result emission must use %.17g-class formatting so merged "
     "CSV/JSON round-trips doubles exactly"},
    {"simd-isolation", "PR 8 dispatch confinement",
     "no <immintrin.h>/x86 intrinsics outside src/core/simd_sampler.*; all "
     "SIMD reaches code through the runtime-dispatched core::simd_sampler API"},
    {"spec-fmt", "PR 10 spec round-trip",
     "src/mc/spec.* and src/mc/tables.* must format/parse numbers via the "
     "snprintf/from_chars helpers only; the locale-sensitive "
     "to_string/strtod/atoi families would break the %.17g spec and table "
     "round-trip contract"},
    {"lint-suppress", "suppression hygiene",
     "reldiv-lint: allow(rule-id) must name a known rule and carry a reason"},
};

bool known_rule(std::string_view id) {
  for (const rule_info& r : kRules) {
    if (r.id == id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-directory policy
// ---------------------------------------------------------------------------

/// Which rules apply to a file, computed from its root-relative path.  The
/// layering makes the deterministic result/merge/serialization paths
/// identifiable by directory: src/mc/ (engine, campaign, scenario, run_dir,
/// distributed) and src/stats/ (wire codec, accumulators).
struct file_policy {
  bool io_seam = false;
  bool det_rand = false;
  bool det_time = false;
  bool det_hash = false;
  bool det_unordered = false;
  bool wire_cast = false;
  bool float_fmt = false;
  bool simd_isolation = false;
  bool spec_fmt = false;
};

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

file_policy policy_for(std::string_view rel) {
  file_policy p;
  const bool in_src = starts_with(rel, "src/");
  const bool in_tools = starts_with(rel, "tools/");
  const bool in_tests = starts_with(rel, "tests/");
  const bool in_mc = starts_with(rel, "src/mc/");
  const bool in_stats = starts_with(rel, "src/stats/");

  // (a) seam conformance: src/mc/ may not do its own I/O.  io_env.cpp IS
  // the seam's POSIX implementation, and io_env.hpp its interface (the
  // io_op enum names the ops it mediates) — the only two allowlisted files.
  p.io_seam = in_mc && rel != "src/mc/io_env.cpp" && rel != "src/mc/io_env.hpp";
  // (b) determinism: randomness is banned everywhere we lint (tests included
  // — a test that draws from random_device cannot pin bit-exactness); wall
  // clocks are banned in shipped code but allowed in tests, which time out
  // and measure real sleeps legitimately.
  p.det_rand = in_src || in_tools || in_tests;
  p.det_time = in_src || in_tools;
  // Hash/unordered ordering only corrupts results where results are
  // produced, merged or serialized.
  p.det_hash = in_mc || in_stats;
  p.det_unordered = in_mc || in_stats;
  // (c) wire discipline: byte reinterpretation lives in stats::wire only.
  p.wire_cast = (in_src || in_tools) && rel != "src/stats/wire.hpp" &&
                rel != "src/stats/wire.cpp";
  p.float_fmt = in_mc || in_stats || in_tools;
  // (d) SIMD confinement: intrinsics and their headers live in the
  // runtime-dispatched simd_sampler TU family only, so every other file
  // stays portable and the scalar/AVX2 choice stays a CPUID decision.
  p.simd_isolation = (in_src || in_tools || in_tests) &&
                     !starts_with(rel, "src/core/simd_sampler.");
  // (e) spec writer discipline: the sweep-spec TU family and the emitter it
  // shares with the result tables (src/mc/tables.*) promise that every
  // number they emit or consume goes through the snprintf %.17g / %llu and
  // std::from_chars helpers, so spec text and merged tables round-trip
  // bit-exactly and never depend on the C locale.  The to_string/strtod/atoi
  // families break both.
  p.spec_fmt = starts_with(rel, "src/mc/spec.") || starts_with(rel, "src/mc/tables.");
  return p;
}

// ---------------------------------------------------------------------------
// Identifier ban lists
// ---------------------------------------------------------------------------

/// An identifier ban: `anywhere` names fire wherever the name appears as a
/// component of a qualified-name chain (std::ofstream, ofstream, x::fopen);
/// `global_only` names are too common to ban bare (read, open, close, ...)
/// and fire only as the explicit global `::name`; `exact` entries match one
/// spelled-out chain (std::time).
struct ban_list {
  std::set<std::string_view> anywhere;
  std::set<std::string_view> global_only;
  std::set<std::string_view> exact;
  /// Identifier PREFIXES that fire wherever a chain part starts with one
  /// (_mm256_..., __m128i, ...): intrinsic families are far too large to
  /// enumerate name-by-name.
  std::vector<std::string_view> prefixes;
};

const ban_list& io_seam_bans() {
  static const ban_list bans{
      {"fopen",    "freopen",  "fdopen",   "fwrite",   "fread",    "fputs",
       "fgets",    "fputc",    "fgetc",    "fscanf",   "fclose",   "fflush",
       "setvbuf",  "tmpfile",  "mkstemp",  "mkostemp", "ofstream", "ifstream",
       "fstream",  "filebuf",  "basic_ofstream", "basic_ifstream",
       "basic_fstream", "fsync", "fdatasync", "syncfs", "mkdir", "mkdirat",
       "rmdir",    "unlink",   "unlinkat", "creat",    "openat",   "pread",
       "pwrite",   "readv",    "writev",   "renameat", "renameat2",
       "fprintf",  "vfprintf", "ftruncate", "truncate"},
      {"open", "close", "read", "write", "rename", "remove", "link",
       "symlink"},
      {"std::rename"},
      {},
  };
  return bans;
}

const ban_list& det_rand_bans() {
  static const ban_list bans{
      {"rand", "srand", "random_device", "random_shuffle", "drand48",
       "lrand48", "mrand48", "rand_r"},
      {},
      {},
      {},
  };
  return bans;
}

const ban_list& det_time_bans() {
  static const ban_list bans{
      {"gettimeofday", "clock_gettime", "timespec_get", "system_clock",
       "localtime", "gmtime", "localtime_r", "gmtime_r", "strftime", "ctime",
       "asctime", "__DATE__", "__TIME__", "__TIMESTAMP__"},
      {"time", "clock"},
      {"std::time", "std::clock"},
      {},
  };
  return bans;
}

const ban_list& det_hash_bans() {
  static const ban_list bans{{}, {}, {"std::hash"}, {}};
  return bans;
}

const ban_list& det_unordered_bans() {
  static const ban_list bans{
      {"unordered_map", "unordered_set", "unordered_multimap",
       "unordered_multiset"},
      {},
      {},
      {},
  };
  return bans;
}

const ban_list& wire_cast_bans() {
  static const ban_list bans{
      {"reinterpret_cast", "memcpy", "memmove"}, {}, {}, {}};
  return bans;
}

const ban_list& simd_isolation_bans() {
  static const ban_list bans{
      // Header names (an #include <immintrin.h> lexes `immintrin` as an
      // identifier) across the x86 intrinsic family, plus NEON for symmetry.
      {"immintrin", "x86intrin", "emmintrin", "xmmintrin", "pmmintrin",
       "tmmintrin", "smmintrin", "nmmintrin", "wmmintrin", "avxintrin",
       "avx2intrin", "avx512fintrin", "arm_neon"},
      {},
      {},
      // Intrinsic functions and vector register types.
      {"_mm_", "_mm256_", "_mm512_", "__m64", "__m128", "__m256", "__m512"},
  };
  return bans;
}

const ban_list& spec_fmt_bans() {
  static const ban_list bans{
      // Formatting (locale-sensitive, fixed 6-digit precision) and parsing
      // (locale-sensitive, silent-saturation/UB error contracts) families.
      {"to_string", "to_wstring", "stod", "stof", "stold", "stoi", "stol",
       "stoll", "stoul", "stoull", "atof", "atoi", "atol", "atoll", "strtod",
       "strtof", "strtold", "strtol", "strtoll", "strtoul", "strtoull",
       "sscanf", "vsscanf", "stringstream", "istringstream", "ostringstream"},
      {},
      {},
      {},
  };
  return bans;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct chain_part {
  std::string name;
  std::size_t line = 0;
};

/// One qualified-name chain: `a::b::c` (global = leading `::`).
struct name_chain {
  bool global = false;
  std::vector<chain_part> parts;
};

struct string_literal {
  std::string text;  ///< contents without quotes/delimiters
  std::size_t line = 0;
};

struct comment_block {
  std::string text;  ///< interior, without // or /* */ markers
  std::size_t line_begin = 0;
  std::size_t line_end = 0;
  bool code_before = false;  ///< non-comment code precedes it on line_begin
};

struct lexed_file {
  std::vector<name_chain> chains;
  std::vector<string_literal> strings;
  std::vector<comment_block> comments;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

bool string_prefix(std::string_view ident) {
  return ident == "R" || ident == "L" || ident == "u" || ident == "U" ||
         ident == "u8" || ident == "LR" || ident == "uR" || ident == "UR" ||
         ident == "u8R";
}

/// C++ keywords can never qualify a name: `return ::open(...)` is a global
/// call, not a chain `return::open`.  Keywords therefore break chains — but
/// are still emitted as standalone one-part chains, because the cast
/// keywords (reinterpret_cast) are themselves rule targets.
bool cpp_keyword(std::string_view s) {
  static const std::set<std::string_view> kKeywords{
      "alignas",   "alignof",  "asm",          "auto",         "bool",
      "break",     "case",     "catch",        "char",         "char8_t",
      "char16_t",  "char32_t", "class",        "co_await",     "co_return",
      "co_yield",  "concept",  "const",        "const_cast",   "consteval",
      "constexpr", "constinit","continue",     "decltype",     "default",
      "delete",    "do",       "double",       "dynamic_cast", "else",
      "enum",      "explicit", "export",       "extern",       "false",
      "float",     "for",      "friend",       "goto",         "if",
      "inline",    "int",      "long",         "mutable",      "namespace",
      "new",       "noexcept", "operator",     "private",      "protected",
      "public",    "register", "reinterpret_cast", "requires", "return",
      "short",     "signed",   "sizeof",       "static",       "static_cast",
      "struct",    "switch",   "template",     "this",         "thread_local",
      "throw",     "true",     "try",          "typedef",      "typeid",
      "typename",  "union",    "unsigned",     "using",        "virtual",
      "void",      "volatile", "wchar_t",      "while"};
  return kKeywords.count(s) != 0;
}

lexed_file lex(const std::string& src) {
  lexed_file out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  std::size_t line = 1;
  std::size_t last_code_line = 0;  // line holding the most recent code token

  name_chain cur;
  bool pending_colons = false;

  auto flush_chain = [&] {
    if (!cur.parts.empty()) out.chains.push_back(std::move(cur));
    cur = name_chain{};
    pending_colons = false;
  };

  auto count_newlines = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      if (src[k] == '\n') ++line;
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }

    // Line comment (handles backslash-continued lines).
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t begin_line = line;
      std::size_t j = i + 2;
      while (j < n) {
        if (src[j] == '\n') {
          std::size_t back = j;
          while (back > i + 2 && (src[back - 1] == '\r')) --back;
          if (back > i + 2 && src[back - 1] == '\\') {
            ++line;
            ++j;
            continue;
          }
          break;
        }
        ++j;
      }
      out.comments.push_back({src.substr(i + 2, j - i - 2), begin_line, line,
                              last_code_line == begin_line});
      flush_chain();
      i = j;
      continue;
    }

    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t begin_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) ++j;
      const std::size_t end = std::min(j, n);
      count_newlines(i + 2, end);
      out.comments.push_back({src.substr(i + 2, end - i - 2), begin_line, line,
                              last_code_line == begin_line});
      flush_chain();
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }

    // Ordinary string literal.
    if (c == '"') {
      const std::size_t begin_line = line;
      std::size_t j = i + 1;
      std::string text;
      while (j < n && src[j] != '"') {
        if (src[j] == '\\' && j + 1 < n) {
          if (src[j + 1] == '\n') ++line;
          text += src[j];
          text += src[j + 1];
          j += 2;
          continue;
        }
        if (src[j] == '\n') ++line;  // ill-formed, but keep line counts sane
        text += src[j];
        ++j;
      }
      out.strings.push_back({std::move(text), begin_line});
      flush_chain();
      last_code_line = line;
      i = (j < n) ? j + 1 : n;
      continue;
    }

    // Char literal (digit separators like 1'000'000 are handled by the
    // pp-number branch below, which consumes the quote inside a number).
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '\'') {
        if (src[j] == '\\' && j + 1 < n) {
          j += 2;
          continue;
        }
        if (src[j] == '\n') ++line;
        ++j;
      }
      flush_chain();
      last_code_line = line;
      i = (j < n) ? j + 1 : n;
      continue;
    }

    // pp-number: digits, letters, dots, digit separators, exponent signs.
    if (digit(c) || (c == '.' && i + 1 < n && digit(src[i + 1]))) {
      std::size_t j = i;
      while (j < n) {
        const char d = src[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') && j > i &&
                   (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                    src[j - 1] == 'p' || src[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      flush_chain();
      last_code_line = line;
      i = j;
      continue;
    }

    // Identifier (or a string-literal prefix).
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      std::string ident = src.substr(i, j - i);
      if (j < n && src[j] == '"' && string_prefix(ident)) {
        // Prefixed string; raw strings get delimiter-aware scanning.
        const bool raw = ident.back() == 'R';
        const std::size_t begin_line = line;
        std::string text;
        if (raw) {
          std::size_t k = j + 1;
          std::string delim;
          while (k < n && src[k] != '(') delim += src[k++];
          const std::string closer = ")" + delim + "\"";
          const std::size_t start = (k < n) ? k + 1 : n;
          const std::size_t close = src.find(closer, start);
          const std::size_t end = (close == std::string::npos) ? n : close;
          text = src.substr(start, end - start);
          count_newlines(start, end);
          i = (close == std::string::npos) ? n : close + closer.size();
        } else {
          std::size_t k = j + 1;
          while (k < n && src[k] != '"') {
            if (src[k] == '\\' && k + 1 < n) {
              if (src[k + 1] == '\n') ++line;
              text += src[k];
              text += src[k + 1];
              k += 2;
              continue;
            }
            if (src[k] == '\n') ++line;
            text += src[k];
            ++k;
          }
          i = (k < n) ? k + 1 : n;
        }
        out.strings.push_back({std::move(text), begin_line});
        flush_chain();
        last_code_line = line;
        continue;
      }
      if (cpp_keyword(ident)) {
        flush_chain();
        cur.parts.push_back({std::move(ident), line});
        flush_chain();
      } else if (pending_colons) {
        cur.parts.push_back({std::move(ident), line});
        pending_colons = false;
      } else {
        flush_chain();
        cur.parts.push_back({std::move(ident), line});
      }
      last_code_line = line;
      i = j;
      continue;
    }

    // Scope operator.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      if (cur.parts.empty()) {
        flush_chain();
        cur.global = true;
      }
      pending_colons = true;
      last_code_line = line;
      i += 2;
      continue;
    }

    // Any other token breaks a pending chain.
    flush_chain();
    last_code_line = line;
    ++i;
  }
  flush_chain();
  return out;
}

// ---------------------------------------------------------------------------
// Findings + suppressions
// ---------------------------------------------------------------------------

struct finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct suppression {
  std::size_t line = 0;
  std::set<std::string> rules;
};

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

/// Parse every reldiv-lint allow() marker in a comment (one or more rule
/// ids, comma-separated, then a reason).  Malformed markers become
/// lint-suppress findings.
void parse_suppressions(const comment_block& c, const std::string& file,
                        std::vector<suppression>& sups,
                        std::vector<finding>& findings) {
  static constexpr std::string_view kMarker = "reldiv-lint:";
  std::size_t pos = 0;
  while ((pos = c.text.find(kMarker, pos)) != std::string::npos) {
    pos += kMarker.size();
    std::string_view rest = std::string_view(c.text).substr(pos);
    while (!rest.empty() &&
           std::isspace(static_cast<unsigned char>(rest.front())) != 0) {
      rest.remove_prefix(1);
    }
    if (!starts_with(rest, "allow(")) {
      findings.push_back({file, c.line_begin, "lint-suppress",
                          "malformed suppression: expected "
                          "'reldiv-lint: allow(rule-id) reason'"});
      continue;
    }
    rest.remove_prefix(6);
    const std::size_t close = rest.find(')');
    if (close == std::string::npos) {
      findings.push_back({file, c.line_begin, "lint-suppress",
                          "malformed suppression: unterminated allow("});
      continue;
    }
    suppression sup;
    sup.line = c.code_before ? c.line_begin : c.line_end + 1;
    std::string ids(rest.substr(0, close));
    bool ok = !trim(ids).empty();
    std::size_t start = 0;
    while (ok && start <= ids.size()) {
      const std::size_t comma = ids.find(',', start);
      const std::string id =
          trim(ids.substr(start, comma == std::string::npos ? std::string::npos
                                                            : comma - start));
      if (id.empty() || !known_rule(id)) {
        findings.push_back({file, c.line_begin, "lint-suppress",
                            "unknown rule id '" + id + "' in allow()"});
        ok = false;
        break;
      }
      sup.rules.insert(id);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (!ok) continue;
    const std::string reason = trim(rest.substr(close + 1));
    if (reason.empty()) {
      findings.push_back({file, c.line_begin, "lint-suppress",
                          "suppression without a reason: every allow() must "
                          "say why the violation is intentional"});
      continue;
    }
    sups.push_back(std::move(sup));
  }
}

// ---------------------------------------------------------------------------
// Rule evaluation
// ---------------------------------------------------------------------------

std::string render_chain(const name_chain& chain) {
  std::string s = chain.global ? "::" : "";
  for (std::size_t k = 0; k < chain.parts.size(); ++k) {
    if (k > 0) s += "::";
    s += chain.parts[k].name;
  }
  return s;
}

/// "'<name>': <why>" — built by append rather than an operator+ chain,
/// which gcc 12 misdiagnoses under -Werror=restrict when inlined.
std::string quoted_message(const std::string& name, std::string_view why) {
  std::string msg;
  msg.reserve(name.size() + why.size() + 4);
  msg += '\'';
  msg += name;
  msg += "': ";
  msg += why;
  return msg;
}

void check_chain(const name_chain& chain, const ban_list& bans,
                 std::string_view rule, std::string_view why,
                 const std::string& file, std::vector<finding>& findings) {
  for (const chain_part& part : chain.parts) {
    if (bans.anywhere.count(part.name) != 0) {
      findings.push_back({file, part.line, std::string(rule),
                          quoted_message(render_chain(chain), why)});
      return;
    }
    for (const std::string_view prefix : bans.prefixes) {
      if (part.name.size() >= prefix.size() &&
          std::string_view(part.name).substr(0, prefix.size()) == prefix) {
        findings.push_back({file, part.line, std::string(rule),
                            quoted_message(render_chain(chain), why)});
        return;
      }
    }
  }
  if (chain.global && chain.parts.size() == 1 &&
      bans.global_only.count(chain.parts[0].name) != 0) {
    std::string global_name = "::";
    global_name += chain.parts[0].name;
    findings.push_back({file, chain.parts[0].line, std::string(rule),
                        quoted_message(global_name, why)});
    return;
  }
  if (!chain.parts.empty()) {
    std::string rendered;
    for (std::size_t k = 0; k < chain.parts.size(); ++k) {
      if (k > 0) rendered += "::";
      rendered += chain.parts[k].name;
    }
    if (bans.exact.count(rendered) != 0) {
      findings.push_back({file, chain.parts[0].line, std::string(rule),
                          quoted_message(rendered, why)});
    }
  }
}

/// Scan a string literal for printf-family float conversions; anything in
/// [eEfFgG] must carry precision 17 (%a/%A hex floats are exact and pass).
void check_float_formats(const string_literal& lit, const std::string& file,
                         std::vector<finding>& findings) {
  const std::string& s = lit.text;
  std::size_t i = 0;
  while ((i = s.find('%', i)) != std::string::npos) {
    std::size_t j = i + 1;
    if (j < s.size() && s[j] == '%') {
      i = j + 1;
      continue;
    }
    while (j < s.size() && (s[j] == '-' || s[j] == '+' || s[j] == ' ' ||
                            s[j] == '#' || s[j] == '0' || s[j] == '\'')) {
      ++j;
    }
    while (j < s.size() && (digit(s[j]) || s[j] == '*')) ++j;
    std::string prec;
    if (j < s.size() && s[j] == '.') {
      ++j;
      while (j < s.size() && (digit(s[j]) || s[j] == '*')) prec += s[j++];
    }
    while (j < s.size() && (s[j] == 'h' || s[j] == 'l' || s[j] == 'L' ||
                            s[j] == 'q' || s[j] == 'j' || s[j] == 'z' ||
                            s[j] == 't')) {
      ++j;
    }
    if (j < s.size()) {
      const char conv = s[j];
      if ((conv == 'e' || conv == 'E' || conv == 'f' || conv == 'F' ||
           conv == 'g' || conv == 'G') &&
          prec != "17") {
        findings.push_back(
            {file, lit.line, "float-fmt",
             "float conversion '" + s.substr(i, j - i + 1) +
                 "' in an emission path: use precision 17 (%.17g-class) so "
                 "doubles round-trip bit-exactly"});
      }
      i = j + 1;
    } else {
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-file driver
// ---------------------------------------------------------------------------

struct lint_stats {
  std::size_t files = 0;
  std::size_t suppressed = 0;
};

void lint_file(const fs::path& path, const std::string& rel,
               std::vector<finding>& out, lint_stats& stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.push_back({rel, 0, "lint-suppress", "cannot read file"});
    return;
  }
  std::string src((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  ++stats.files;

  const file_policy pol = policy_for(rel);
  const lexed_file lexed = lex(src);

  std::vector<finding> findings;
  std::vector<suppression> sups;
  for (const comment_block& c : lexed.comments) {
    parse_suppressions(c, rel, sups, findings);
  }

  for (const name_chain& chain : lexed.chains) {
    if (pol.io_seam) {
      check_chain(chain, io_seam_bans(), "io-seam",
                  "direct I/O bypasses the mc::io_env seam; fault plans "
                  "cannot replay it (route through active_io_env())",
                  rel, findings);
    }
    if (pol.det_rand) {
      check_chain(chain, det_rand_bans(), "det-rand",
                  "nondeterministic randomness; derive draws from "
                  "stats::rng::stream(seed, shard)",
                  rel, findings);
    }
    if (pol.det_time) {
      check_chain(chain, det_time_bans(), "det-time",
                  "wall-clock read; results must be pure functions of "
                  "(seed, inputs) and leases use filesystem mtimes",
                  rel, findings);
    }
    if (pol.det_hash) {
      check_chain(chain, det_hash_bans(), "det-hash",
                  "implementation-defined hashing must not influence "
                  "result/merge/serialization order",
                  rel, findings);
    }
    if (pol.det_unordered) {
      check_chain(chain, det_unordered_bans(), "det-unordered",
                  "unordered container in a result/merge/serialization "
                  "path; iteration order is nondeterministic",
                  rel, findings);
    }
    if (pol.wire_cast) {
      check_chain(chain, wire_cast_bans(), "wire-cast",
                  "byte-reinterpretation serialization outside stats::wire "
                  "breaks the portable state-file contract",
                  rel, findings);
    }
    if (pol.simd_isolation) {
      check_chain(chain, simd_isolation_bans(), "simd-isolation",
                  "intrinsics outside src/core/simd_sampler.* bypass runtime "
                  "dispatch; call the core::simd_sampler API instead",
                  rel, findings);
    }
    if (pol.spec_fmt) {
      check_chain(chain, spec_fmt_bans(), "spec-fmt",
                  "locale-sensitive number formatting/parsing in the spec "
                  "writer or table emitter; use the snprintf %.17g / "
                  "std::from_chars helpers so text round-trips bit-exactly",
                  rel, findings);
    }
  }
  if (pol.float_fmt) {
    for (const string_literal& lit : lexed.strings) {
      check_float_formats(lit, rel, findings);
    }
  }

  for (finding& f : findings) {
    bool suppressed = false;
    if (f.rule != "lint-suppress") {
      for (const suppression& s : sups) {
        if (s.line == f.line && s.rules.count(f.rule) != 0) {
          suppressed = true;
          break;
        }
      }
    }
    if (suppressed) {
      ++stats.suppressed;
    } else {
      out.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Walk + CLI
// ---------------------------------------------------------------------------

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".cxx" || ext == ".hh";
}

std::string rel_string(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  if (ec) return {};
  return rel.generic_string();
}

/// Collect lintable files under `p` (file or directory), as (abs, rel)
/// pairs.  The fixture corpus under tests/lint_fixtures/ holds deliberate
/// violations for the linter's own test suite and is skipped by the default
/// walk; pointing --root at the fixture tree lints it.
void collect(const fs::path& root, const fs::path& p,
             std::vector<std::pair<fs::path, std::string>>& files) {
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    for (fs::recursive_directory_iterator it(p, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      const std::string rel = rel_string(root, it->path());
      if (rel.empty() || starts_with(rel, "tests/lint_fixtures/")) continue;
      if (lintable_extension(it->path())) files.emplace_back(it->path(), rel);
    }
    return;
  }
  if (fs::is_regular_file(p, ec) && lintable_extension(p)) {
    const std::string rel = rel_string(root, p);
    if (!rel.empty()) files.emplace_back(p, rel);
  }
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [--root DIR] [--list-rules] [paths...]\n"
      << "  Lints src/, tools/ and tests/ under DIR (default: .) when no\n"
      << "  paths are given; paths are files or directories linted with\n"
      << "  policies computed from their DIR-relative location.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::vector<fs::path> targets;
  bool list_rules = false;

  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    if (arg == "--root") {
      if (a + 1 >= argc) return usage(argv[0]);
      root = argv[++a];
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (starts_with(arg, "--")) {
      return usage(argv[0]);
    } else {
      targets.emplace_back(std::string(arg));
    }
  }

  if (list_rules) {
    for (const rule_info& r : kRules) {
      std::cout << r.id << "  [" << r.guards << "]\n    " << r.summary << "\n";
    }
    return 0;
  }

  std::error_code ec;
  root = fs::absolute(root, ec);
  if (ec || !fs::is_directory(root)) {
    std::cerr << "reldiv_lint: --root is not a directory\n";
    return 2;
  }

  std::vector<std::pair<fs::path, std::string>> files;
  if (targets.empty()) {
    for (const char* sub : {"src", "tools", "tests"}) {
      collect(root, root / sub, files);
    }
  } else {
    for (const fs::path& t : targets) {
      const fs::path abs = fs::absolute(t, ec);
      const std::string rel = rel_string(root, abs);
      if (rel.empty() || starts_with(rel, "..")) {
        std::cerr << "reldiv_lint: " << t.string() << " is outside --root\n";
        return 2;
      }
      collect(root, abs, files);
    }
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  std::vector<finding> findings;
  lint_stats stats;
  for (const auto& [abs, rel] : files) {
    lint_file(abs, rel, findings, stats);
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const finding& a, const finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  for (const finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": " << f.rule << ": " << f.message
              << "\n";
  }
  std::cerr << "reldiv_lint: " << findings.size() << " finding(s) ("
            << stats.suppressed << " suppressed) in " << stats.files
            << " file(s)\n";
  return findings.empty() ? 0 : 1;
}
