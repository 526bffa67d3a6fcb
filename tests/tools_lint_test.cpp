// Tests for tools/reldiv_lint — the repo-invariant static-analysis pass.
//
// The binary is driven for real (popen) over the checked-in fixture corpus
// in tests/lint_fixtures/, which mirrors the repo layout (src/mc, src/stats,
// src/core, tools, tests) so every per-directory policy engages exactly as
// it does on the real tree.  The corpus holds a deliberate violation of
// every rule id, the suppression syntax with and without reasons, and the
// tokenizer traps (strings, raw strings, comments, bare common words) that
// must never fire — which is also why the repo-wide walk skips the corpus.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct lint_result {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

#ifdef RELDIV_LINT_BIN

lint_result run_lint(const std::string& args) {
  const std::string cmd = std::string(RELDIV_LINT_BIN) + " " + args + " 2>&1";
  lint_result r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) r.output.append(buf, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string fixtures_root() { return RELDIV_LINT_FIXTURES; }

/// Count occurrences of `needle` in `haystack`.
std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

// ---------------------------------------------------------------------------
// Rule catalogue
// ---------------------------------------------------------------------------

TEST(LintCli, ListRulesNamesEveryRuleId) {
  const lint_result r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* id : {"io-seam", "det-rand", "det-time", "det-hash",
                         "det-unordered", "wire-cast", "float-fmt",
                         "simd-isolation", "spec-fmt", "lint-suppress"}) {
    EXPECT_NE(r.output.find(id), std::string::npos) << "missing rule " << id;
  }
}

TEST(LintCli, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint("--root /nonexistent/lint/root").exit_code, 2);
  EXPECT_EQ(run_lint("--bogus-flag").exit_code, 2);
  EXPECT_EQ(run_lint("--root " + fixtures_root() + " /etc/hostname").exit_code,
            2)
      << "a target outside --root must be rejected";
}

// ---------------------------------------------------------------------------
// Fixture corpus: every diagnostic, by exact file:line: rule-id
// ---------------------------------------------------------------------------

struct expected_diag {
  const char* file;
  int line;
  const char* rule;
};

TEST(LintFixtures, EveryRuleFiresAtItsExactLocation) {
  const lint_result r = run_lint("--root " + fixtures_root());
  EXPECT_EQ(r.exit_code, 1) << r.output;

  const std::vector<expected_diag> expected = {
      {"src/core/cast_violation.cpp", 8, "wire-cast"},
      {"src/core/cast_violation.cpp", 10, "wire-cast"},
      {"src/core/simd_violation.cpp", 4, "simd-isolation"},
      {"src/core/simd_violation.cpp", 7, "simd-isolation"},
      {"src/core/simd_violation.cpp", 10, "simd-isolation"},
      {"src/mc/determinism.cpp", 5, "det-time"},
      {"src/mc/determinism.cpp", 6, "det-unordered"},
      {"src/mc/determinism.cpp", 11, "det-time"},
      {"src/mc/determinism.cpp", 14, "det-time"},
      {"src/mc/determinism.cpp", 17, "det-time"},
      {"src/mc/determinism.cpp", 19, "det-rand"},
      {"src/mc/determinism.cpp", 22, "det-rand"},
      {"src/mc/determinism.cpp", 26, "det-hash"},
      {"src/mc/determinism.cpp", 28, "det-unordered"},
      {"src/mc/emit.cpp", 9, "float-fmt"},
      {"src/mc/emit.cpp", 10, "float-fmt"},
      {"src/mc/spec.fixture.cpp", 9, "spec-fmt"},
      {"src/mc/spec.fixture.cpp", 10, "spec-fmt"},
      {"src/mc/spec.fixture.cpp", 11, "spec-fmt"},
      {"src/mc/tables.fixture.cpp", 8, "spec-fmt"},
      {"src/mc/seam_violation.cpp", 3, "io-seam"},
      {"src/mc/seam_violation.cpp", 8, "io-seam"},
      {"src/mc/seam_violation.cpp", 13, "io-seam"},
      {"src/mc/seam_violation.cpp", 17, "io-seam"},
      {"src/mc/seam_violation.cpp", 40, "io-seam"},
      {"src/mc/suppress_bad.cpp", 8, "lint-suppress"},
      {"src/mc/suppress_bad.cpp", 8, "det-rand"},
      {"src/mc/suppress_bad.cpp", 10, "lint-suppress"},
      {"src/mc/suppress_bad.cpp", 10, "det-rand"},
      {"src/mc/suppress_bad.cpp", 12, "det-rand"},
      {"tests/test_file.cpp", 11, "det-rand"},
      {"tools/tool_file.cpp", 7, "det-rand"},
      {"tools/tool_file.cpp", 15, "float-fmt"},
  };
  for (const expected_diag& d : expected) {
    const std::string needle =
        std::string(d.file) + ":" + std::to_string(d.line) + ": " + d.rule + ":";
    EXPECT_NE(r.output.find(needle), std::string::npos)
        << "missing diagnostic: " << needle << "\n"
        << r.output;
  }
  // The exact totals pin that nothing ELSE fired: every trap (strings, raw
  // strings, comments, bare `read`, steady_clock, tools-ofstream,
  // tests-system_clock, allowlisted io_env.cpp/wire.cpp, the sanctioned
  // snprintf/from_chars helpers in spec.fixture.cpp and tables.fixture.cpp)
  // stayed silent.
  EXPECT_NE(
      r.output.find("reldiv_lint: 33 finding(s) (4 suppressed) in 14 file(s)"),
      std::string::npos)
      << r.output;
}

TEST(LintFixtures, AllowlistedAndOutOfScopeFilesStaySilent) {
  const lint_result r = run_lint("--root " + fixtures_root());
  // The seam implementation and the wire codec are allowlisted.
  EXPECT_EQ(r.output.find("src/mc/io_env.cpp:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("src/stats/wire.cpp:"), std::string::npos)
      << r.output;
  // Per-directory boundaries: io-seam fires only under src/mc/, det-time
  // never in tests/, det-unordered never in src/core/.
  EXPECT_EQ(count_of(r.output, "io-seam"), 5u) << r.output;
  EXPECT_EQ(r.output.find("tests/test_file.cpp:8"), std::string::npos)
      << "det-time must not apply to tests/: " << r.output;
  EXPECT_EQ(count_of(r.output, "cast_violation.cpp:12"), 0u)
      << "det-unordered must not apply to src/core/: " << r.output;
  EXPECT_EQ(r.output.find("clean.cpp"), std::string::npos) << r.output;
  // The simd_sampler.* family name is allowlisted even though it holds the
  // same intrinsics that make simd_violation.cpp fire three times.
  EXPECT_EQ(r.output.find("src/core/simd_sampler.avx2.cpp:"), std::string::npos)
      << r.output;
  EXPECT_EQ(count_of(r.output, "simd-isolation:"), 3u) << r.output;
}

TEST(LintFixtures, SingleFileModeScopesToThatFile) {
  const std::string root = fixtures_root();
  const lint_result clean =
      run_lint("--root " + root + " " + root + "/src/core/clean.cpp");
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_NE(clean.output.find("0 finding(s)"), std::string::npos);

  const lint_result cast =
      run_lint("--root " + root + " " + root + "/src/core/cast_violation.cpp");
  EXPECT_EQ(cast.exit_code, 1);
  EXPECT_EQ(count_of(cast.output, "wire-cast"), 2u) << cast.output;
  EXPECT_EQ(cast.output.find("seam_violation"), std::string::npos)
      << "single-file mode must not walk siblings";
}

// ---------------------------------------------------------------------------
// Seeded violations: each rule class, written fresh, must fail the tool
// with the correct file:line: rule-id diagnostic.
// ---------------------------------------------------------------------------

class SeededViolation : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("reldiv_lint_seed_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Write `text` to root/rel and return the expected diagnostic prefix
  /// "rel:line: rule:".
  std::string seed(const std::string& rel, const std::string& text) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream f(p, std::ios::binary);
    f << text;
    return rel;
  }

  lint_result lint() { return run_lint("--root " + root_.string()); }

  fs::path root_;
};

TEST_F(SeededViolation, IoSeam) {
  seed("src/mc/bad.cpp", "int f(const char* p) {\n  return ::open(p, 0);\n}\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/mc/bad.cpp:2: io-seam:"), std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, DetRand) {
  seed("src/core/bad.cpp", "#include <cstdlib>\nint f() { return std::rand(); }\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/core/bad.cpp:2: det-rand:"), std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, DetTime) {
  seed("src/seq/bad.cpp", "#include <chrono>\nlong f() {\n  return std::chrono::system_clock::now().time_since_epoch().count();\n}\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/seq/bad.cpp:3: det-time:"), std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, DetHash) {
  seed("src/stats/bad.cpp", "#include <functional>\nunsigned long f(int v) {\n  return std::hash<int>{}(v);\n}\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/stats/bad.cpp:3: det-hash:"), std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, DetUnordered) {
  seed("src/mc/bad.cpp", "#include <map>\nint f();\nstruct unordered_map_user;\n#include <unordered_map>\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/mc/bad.cpp:4: det-unordered:"),
            std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, WireCast) {
  seed("tools/bad.cpp", "const char* f(const double* p) {\n  return reinterpret_cast<const char*>(p);\n}\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("tools/bad.cpp:2: wire-cast:"), std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, FloatFmt) {
  seed("src/mc/bad.cpp", "#include <cstdio>\nvoid f(char* b, unsigned long n, double v) {\n  std::snprintf(b, n, \"%f\", v);\n}\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/mc/bad.cpp:3: float-fmt:"), std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, SimdIsolation) {
  seed("src/mc/bad.cpp",
       "#include <immintrin.h>\n"
       "unsigned long long f(unsigned long long x) {\n"
       "  return _mm_popcnt_u64(x);\n"
       "}\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/mc/bad.cpp:1: simd-isolation:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/mc/bad.cpp:3: simd-isolation:"),
            std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, SimdSamplerFamilyIsAllowlisted) {
  // The identical intrinsics under the dispatched TU family's name: clean.
  seed("src/core/simd_sampler.avx2.cpp",
       "#include <immintrin.h>\n"
       "unsigned long long f(unsigned long long x) {\n"
       "  return _mm_popcnt_u64(x);\n"
       "}\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(SeededViolation, SpecFmt) {
  seed("src/mc/spec.cpp",
       "#include <string>\n"
       "std::string f(double v) { return std::to_string(v); }\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/mc/spec.cpp:2: spec-fmt:"), std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, SpecFmtConfinedToSpecTu) {
  // The identical call outside the src/mc/spec.* family: no spec-fmt (the
  // to_string family is only banned in the spec writer TU).
  seed("src/mc/other.cpp",
       "#include <string>\n"
       "std::string f(int v) { return std::to_string(v); }\n");
  const lint_result r = lint();
  EXPECT_EQ(r.output.find("spec-fmt"), std::string::npos) << r.output;
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(SeededViolation, LintSuppressWithoutReason) {
  seed("src/mc/bad.cpp", "#include <cstdlib>\nint f() { return std::rand(); }  // reldiv-lint: allow(det-rand)\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/mc/bad.cpp:2: lint-suppress:"),
            std::string::npos)
      << r.output;
  // The reasonless allow() must not have masked the underlying finding.
  EXPECT_NE(r.output.find("src/mc/bad.cpp:2: det-rand:"), std::string::npos)
      << r.output;
}

TEST_F(SeededViolation, ReasonedSuppressionIsClean) {
  seed("src/mc/ok.cpp",
       "#include <cstdlib>\n"
       "// reldiv-lint: allow(det-rand) seeded fixture: reason provided\n"
       "int f() { return std::rand(); }\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(1 suppressed)"), std::string::npos) << r.output;
}

TEST_F(SeededViolation, CleanTreeExitsZero) {
  seed("src/mc/ok.cpp", "int f() { return 1; }\n");
  seed("tools/ok.cpp", "int g() { return 2; }\n");
  const lint_result r = lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s) (0 suppressed) in 2 file(s)"),
            std::string::npos)
      << r.output;
}

#else  // !RELDIV_LINT_BIN

TEST(LintCli, DISABLED_LintBinaryUnavailable) {}

#endif

}  // namespace
