// apn-lint CLI. See lint.hpp for the rule catalogue.
//
// Usage:
//   apn-lint [--baseline=FILE] [--update-baseline] [--sarif=FILE]
//            [--jobs=N] [--explain=RULE] <path>...
//
// Paths may be files or directories (directories are walked recursively for
// C/C++ sources). The whole tree is parsed first (phase 1: declaration
// harvest) so the flow rules see cross-file facts, then linted (phase 2).
// Both phases parallelize per file across --jobs worker threads (default:
// hardware concurrency); findings are committed in path order, so the
// output is byte-identical for every job count.
//
// Findings of every rule ratchet through the one --baseline file
// (`path|rule|count` lines); --update-baseline rewrites it from the
// current findings. --jobs takes a non-negative integer (0 = hardware
// concurrency); anything else is a usage error. --sarif writes a SARIF
// 2.1.0 log of the post-baseline findings (written even when clean, so CI
// can upload unconditionally). --explain=RULE prints the rule's documentation
// paragraph plus a minimal firing example and its diagnostic, then exits.
//
// Exit codes: 0 clean (stale baseline entries only warn), 1 findings not
// covered by a baseline, 2 usage or I/O error.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;
using apn::lint::Finding;

namespace {

bool is_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh";
}

void collect(const fs::path& root, std::vector<std::string>& files) {
  if (fs::is_directory(root)) {
    for (const auto& e : fs::recursive_directory_iterator(root)) {
      if (e.is_regular_file() && is_source(e.path()))
        files.push_back(e.path().generic_string());
    }
  } else {
    files.push_back(root.generic_string());
  }
}

bool load_baseline(const std::string& path, apn::lint::Baseline& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  out = apn::lint::parse_baseline(ss.str());
  return true;
}

bool write_text(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) return false;
  out << body;
  return true;
}

/// Parse the whole of `v` as a non-negative decimal int; false on an empty
/// value, trailing characters, a negative value or overflow.
bool parse_jobs(const std::string& v, int& out) {
  const char* end = v.data() + v.size();
  int n = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc() || ptr != end || n < 0) return false;
  out = n;
  return true;
}

/// --explain=RULE: print the registered doc paragraph, the firing example
/// and the diagnostic it produces. Returns the process exit code.
int explain_rule(const std::string& id) {
  for (const apn::lint::RuleInfo& r : apn::lint::rules()) {
    if (id != r.id) continue;
    std::printf("%s — %s\n\n%s\n\nExample (%s):\n", r.id, r.summary, r.doc,
                r.example_path);
    for (const char* p = r.example; *p != '\0';) {
      const char* nl = std::strchr(p, '\n');
      const std::size_t len = nl != nullptr ? static_cast<std::size_t>(nl - p)
                                            : std::strlen(p);
      std::printf("    %.*s\n", static_cast<int>(len), p);
      p += len + (nl != nullptr ? 1 : 0);
    }
    std::printf("\nDiagnostic:\n");
    for (const Finding& f : apn::lint::lint_source(r.example_path, r.example))
      if (f.rule == id)
        std::printf("    %s:%d: [%s] %s\n", f.path.c_str(), f.line,
                    f.rule.c_str(), f.detail.c_str());
    return 0;
  }
  std::fprintf(stderr, "apn-lint: unknown rule '%s'; registered rules:\n",
               id.c_str());
  for (const apn::lint::RuleInfo& r : apn::lint::rules())
    std::fprintf(stderr, "  %s\n", r.id);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string sarif_path;
  bool update_baseline = false;
  int jobs = 0;  // 0 = hardware concurrency
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(std::string("--baseline=").size());
    } else if (arg.rfind("--explain=", 0) == 0) {
      return explain_rule(arg.substr(std::string("--explain=").size()));
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(std::string("--sarif=").size());
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_jobs(arg.substr(std::string("--jobs=").size()), jobs)) {
        std::fprintf(stderr, "apn-lint: bad --jobs value '%s'\n", arg.c_str());
        return 2;
      }
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "apn-lint: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr,
                 "usage: apn-lint [--baseline=FILE] [--update-baseline] "
                 "[--sarif=FILE] [--jobs=N] [--explain=RULE] <path>...\n");
    return 2;
  }
  if (update_baseline && baseline_path.empty()) {
    std::fprintf(stderr, "apn-lint: --update-baseline needs --baseline=\n");
    return 2;
  }

  std::vector<std::string> files;
  for (const std::string& r : roots) {
    if (!fs::exists(r)) {
      std::fprintf(stderr, "apn-lint: no such path: %s\n", r.c_str());
      return 2;
    }
    collect(r, files);
  }
  std::sort(files.begin(), files.end());

  // Two-phase project analysis (parse + harvest + rules), parallel per file.
  std::vector<Finding> findings;
  std::string bad_path;
  if (!apn::lint::run_project(files, jobs, findings, &bad_path)) {
    std::fprintf(stderr, "apn-lint: cannot read %s\n", bad_path.c_str());
    return 2;
  }

  if (update_baseline) {
    if (!write_text(baseline_path, apn::lint::format_baseline(findings))) {
      std::fprintf(stderr, "apn-lint: cannot write %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "apn-lint: baseline updated (%zu findings) -> %s\n",
                 findings.size(), baseline_path.c_str());
    return 0;
  }

  apn::lint::Baseline baseline;
  if (!baseline_path.empty() && !load_baseline(baseline_path, baseline)) {
    std::fprintf(stderr, "apn-lint: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }

  std::vector<std::string> stale;
  std::vector<Finding> fresh =
      apn::lint::apply_baseline(findings, baseline, &stale);
  std::sort(fresh.begin(), fresh.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule, a.col) <
                     std::tie(b.path, b.line, b.rule, b.col);
            });

  if (!sarif_path.empty() &&
      !write_text(sarif_path, apn::lint::format_sarif(fresh))) {
    std::fprintf(stderr, "apn-lint: cannot write %s\n", sarif_path.c_str());
    return 2;
  }

  for (const Finding& f : fresh) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.path.c_str(), f.line,
                 f.rule.c_str(), f.detail.c_str());
  }
  for (const std::string& s : stale) {
    std::fprintf(stderr,
                 "apn-lint: warning: baseline entry exceeds current findings "
                 "(ratchet down): %s\n",
                 s.c_str());
  }
  if (!fresh.empty()) {
    std::fprintf(stderr, "apn-lint: %zu finding(s) in %zu file(s)\n",
                 fresh.size(), files.size());
    return 1;
  }
  std::fprintf(stderr, "apn-lint: OK (%zu files)\n", files.size());
  return 0;
}
