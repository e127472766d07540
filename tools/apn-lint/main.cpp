// apn-lint CLI. See lint.hpp for the rule catalogue.
//
// Usage:
//   apn-lint [--sarif=FILE] <path>...
//
// Paths may be files or directories (directories are walked recursively for
// C/C++ sources). The whole tree is parsed first (phase 1: declaration
// harvest) so the flow rules see cross-file facts, then linted (phase 2).
// Findings are reported sorted by path and line. The one suppression is an
// inline `// apn-lint: allow(<rule>)` comment carrying its rationale.
// --sarif writes a SARIF 2.1.0 log of the findings (written even when
// clean, so CI can upload unconditionally).
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
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

bool write_text(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) return false;
  out << body;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sarif_path;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(std::string("--sarif=").size());
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "apn-lint: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "usage: apn-lint [--sarif=FILE] <path>...\n");
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

  // Two-phase project analysis (parse + harvest, then rules).
  std::vector<Finding> findings;
  std::string bad_path;
  if (!apn::lint::run_project(files, findings, &bad_path)) {
    std::fprintf(stderr, "apn-lint: cannot read %s\n", bad_path.c_str());
    return 2;
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule, a.col) <
                     std::tie(b.path, b.line, b.rule, b.col);
            });

  if (!sarif_path.empty() &&
      !write_text(sarif_path, apn::lint::format_sarif(findings))) {
    std::fprintf(stderr, "apn-lint: cannot write %s\n", sarif_path.c_str());
    return 2;
  }

  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.path.c_str(), f.line,
                 f.rule.c_str(), f.detail.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "apn-lint: %zu finding(s) in %zu file(s)\n",
                 findings.size(), files.size());
    return 1;
  }
  std::fprintf(stderr, "apn-lint: OK (%zu files)\n", files.size());
  return 0;
}
