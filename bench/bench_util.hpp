#pragma once
// Shared formatting helpers for the reproduction benches.  Each bench binary
// prints (a) what the paper states, (b) what this implementation measures,
// and (c) a qualitative-shape verdict, so EXPERIMENTS.md can be regenerated
// by running `for b in build/bench/*; do $b; done`.  A bench exits non-zero
// when any verdict is a MISMATCH.

#include <cstdio>
#include <string>
#include <vector>

namespace benchutil {

inline void title(const std::string& id, const std::string& what) {
  std::printf("\n==============================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("==============================================================================\n");
}

inline void section(const std::string& name) { std::printf("\n--- %s ---\n", name.c_str()); }

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// Simple fixed-width table printer.
class table {
 public:
  explicit table(std::vector<std::string> headers, int col_width = 14)
      : headers_(std::move(headers)), width_(col_width) {}

  void row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void print() const {
    auto print_row = [this](const std::vector<std::string>& cells) {
      std::printf("  ");
      for (const auto& c : cells) std::printf("%-*s", width_, c.c_str());
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("  %s\n", std::string(headers_.size() * width_, '-').c_str());
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  int width_;
};

inline std::string fmt(double x, const char* spec = "%.6g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, x);
  return buf;
}

inline std::string sci(double x) { return fmt(x, "%.3e"); }

/// MISMATCH verdicts printed so far.
inline int mismatches = 0;

inline void verdict(bool ok, const std::string& claim) {
  std::printf("  [%s] %s\n", ok ? "REPRODUCED" : "MISMATCH", claim.c_str());
  if (!ok) ++mismatches;
}

/// What each bench's main returns: non-zero when any claim failed to
/// reproduce, so ctest (label `paper`) catches a broken claim.
inline int exit_status() { return mismatches == 0 ? 0 : 1; }

}  // namespace benchutil
