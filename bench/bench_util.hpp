#pragma once

// Shared console-table formatting for the experiment harnesses. Every
// bench prints its table rows plus a [REPRODUCED]/[DIVERGED] verdict per
// claim, and returns exit_code() from main, so any [DIVERGED] fails the
// bench's CTest. JsonReport additionally persists the headline numbers as
// BENCH_<name>.json so perf trajectories can be diffed across commits.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace bench {

inline void title(const std::string& id, const std::string& text) {
  std::printf("\n================================================================\n");
  std::printf("%s  %s\n", id.c_str(), text.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

inline void rule() {
  std::printf("  ----------------------------------------------------------------\n");
}

/// Verdicts printed [DIVERGED] so far in this process.
inline int diverged = 0;

inline void verdict(bool ok, const std::string& claim) {
  if (!ok) ++diverged;
  std::printf("  [%s] %s\n", ok ? "REPRODUCED" : "DIVERGED", claim.c_str());
}

/// main's return value: nonzero once any verdict has diverged.
inline int exit_code() { return diverged == 0 ? 0 : 1; }

/// Flat machine-readable summary of one bench run. Keys are emitted in
/// insertion order; write() produces BENCH_<name>.json in the working
/// directory (one object, no nesting — trivially diffable / greppable).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void add(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    entries_.emplace_back(key, buf);
  }
  void add(const std::string& key, long long value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + escaped(value) + "\"");
  }
  // Without this overload a string literal would convert to bool (standard
  // conversion beats the user-defined one to const std::string&).
  void add(const std::string& key, const char* value) {
    add(key, std::string(value));
  }
  void add(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }

  /// Writes the file and prints its path; returns false (with a notice) if
  /// the working directory is not writable.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::printf("  (could not write %s)\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", escaped(entries_[i].first).c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("  json summary -> %s\n", path.c_str());
    return true;
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace bench
