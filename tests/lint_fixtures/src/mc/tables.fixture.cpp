// spec-fmt fixture: this file's path matches the src/mc/tables.* family,
// which holds the emitter the result tables and describe share, so the
// locale-sensitive number formatting families are banned here as in the
// spec writer — the diagnostic below must fire at its exact line, and the
// snprintf idiom after it must stay silent.
#include <cstdio>
#include <string>
std::string bad_cell(unsigned long long v) { return std::to_string(v); }
void ok_cell(std::string& out, unsigned long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", v);
  out += buf;
}
