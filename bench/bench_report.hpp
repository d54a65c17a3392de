// Context block for benchmark result documents.
//
// Benchmark numbers are only comparable against the hardware and build
// that produced them, so a result stamps the same leading fields --
// schema version, CPU model, SIMD dispatch level, thread count, git
// revision, smoke flag -- through write_context(). Header-only; its one
// user is the repository benchmark, perfbench/ (src/util.cpp).
#pragma once

#include <cstdio>
#include <cstring>
#include <string>

#include "common/cpu_features.hpp"
#include "common/parallel.hpp"

namespace qokit::bench {

/// Strip characters that would break a JSON string literal (the fields
/// here are machine descriptions, never untrusted data).
inline std::string json_sanitize(std::string s) {
  for (char& c : s)
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
      c = ' ';
  return s;
}

/// The CPU model string from /proc/cpuinfo; "unknown" elsewhere.
inline std::string cpu_model() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f) {
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (!colon) continue;
      std::string model(colon + 1);
      // Trim the leading space and trailing newline.
      while (!model.empty() && (model.front() == ' ' || model.front() == '\t'))
        model.erase(model.begin());
      while (!model.empty() &&
             (model.back() == '\n' || model.back() == '\r'))
        model.pop_back();
      std::fclose(f);
      return model.empty() ? "unknown" : model;
    }
    std::fclose(f);
  }
#endif
  return "unknown";
}

/// `git describe --always --dirty` of the working tree the bench ran in;
/// "unknown" when git or a repo is unavailable (e.g. an installed tree).
inline std::string git_describe() {
#if defined(__unix__) || defined(__APPLE__)
  std::FILE* p =
      ::popen("git describe --always --dirty --tags 2>/dev/null", "r");
  if (p) {
    char buf[128] = {0};
    const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
    ::pclose(p);
    if (got) {
      std::string rev(buf);
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
        rev.pop_back();
      if (!rev.empty()) return rev;
    }
  }
#endif
  return "unknown";
}

/// Emit the shared context fields (with a trailing comma) right after the
/// opening '{' of a BENCH_*.json document.
inline void write_context(std::FILE* out, bool smoke) {
  std::fprintf(out,
               "  \"schema\": 1,\n"
               "  \"cpu_model\": \"%s\",\n"
               "  \"simd_level\": \"%s\",\n"
               "  \"threads\": %d,\n"
               "  \"git\": \"%s\",\n"
               "  \"smoke\": %s,\n",
               json_sanitize(cpu_model()).c_str(),
               simd_level_name(active_simd_level()), max_threads(),
               json_sanitize(git_describe()).c_str(),
               smoke ? "true" : "false");
}

}  // namespace qokit::bench
