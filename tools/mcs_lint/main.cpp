// mcs_lint CLI — see lint.hpp for the rule set.
//
//   mcs_lint [options] <paths...>         lint files/directories
//     --jobs N                 index files on N threads (default 1); the
//                              merge is path-ordered, so output is
//                              byte-identical at any job count
//     --callgraph FILE         dump the repo call graph as Graphviz DOT
//     --sarif FILE             also write findings as SARIF 2.1.0 (CI
//                              annotation)
//     --explain RULE           print the rule's rationale + remedy, exit 0
//
// Exit code: 0 = clean, 1 = findings, 2 = usage/IO error. Every finding
// counts: nothing forgives one but a marker in the source (`allow(RULE)`,
// or `ordered-ok` for D2/D3) written beside its justification (DESIGN.md
// §8).
// Run from the repository root so path tags are repo-relative
// (`build/tools/mcs_lint src bench tests tools examples perfbench`); the
// `lint.tree` ctest and the `lint` CMake target do exactly that.
#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;
using mcs::lint::FileInput;
using mcs::lint::Finding;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::vector<std::string> collect_files(const std::vector<std::string>& paths,
                                       bool& ok) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (!ec && it->is_regular_file() && lintable(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(fs::path(p).generic_string());
    } else {
      std::cerr << "mcs_lint: no such file or directory: " << p << "\n";
      ok = false;
    }
  }
  std::sort(files.begin(), files.end());  // deterministic report order
  return files;
}

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "mcs_lint: cannot read " << path << "\n";
    ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "mcs_lint: cannot write " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string callgraph_path;
  std::string sarif_path;
  int jobs = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--callgraph" && i + 1 < argc) {
      callgraph_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      // Digits only, over the whole value: a sign, a space or trailing
      // text is a usage error, never a job count.
      const std::string value = argv[++i];
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, jobs);
      if (ec != std::errc() || ptr != end || jobs < 1) {
        std::cerr << "mcs_lint: --jobs needs a positive integer, got '"
                  << value << "'\n";
        return 2;
      }
    } else if (arg == "--explain" && i + 1 < argc) {
      mcs::lint::Rule rule;
      const std::string name = argv[++i];
      if (!mcs::lint::parse_rule(name, rule)) {
        std::cerr << "mcs_lint: unknown rule " << name
                  << " (rules: D1 D2 D3 D4 H1 H2 H3 S1 L1 R1)\n";
        return 2;
      }
      std::cout << mcs::lint::explain(rule) << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: mcs_lint [--jobs N] [--callgraph FILE] "
                   "[--sarif FILE] [--explain RULE] <paths...>\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mcs_lint: unknown option " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: mcs_lint [options] <paths...>\n";
    return 2;
  }

  bool io_ok = true;
  const std::vector<std::string> files = collect_files(paths, io_ok);

  std::vector<FileInput> inputs;
  inputs.reserve(files.size());
  for (const std::string& file : files) {
    inputs.push_back({file, read_file(file, io_ok)});
  }
  if (!io_ok) return 2;

  mcs::lint::RepoOptions opt;
  opt.jobs = jobs;
  opt.want_callgraph = !callgraph_path.empty();
  const mcs::lint::RepoResult result = mcs::lint::analyze_repo(inputs, opt);
  const std::vector<Finding>& findings = result.findings;

  if (!callgraph_path.empty() &&
      !write_file(callgraph_path, result.callgraph_dot)) {
    return 2;
  }

  if (!sarif_path.empty() &&
      !write_file(sarif_path, mcs::lint::to_sarif(findings))) {
    return 2;
  }

  for (const Finding& f : findings) {
    std::cout << mcs::lint::format_finding(f) << "\n";
  }
  if (findings.empty()) {
    std::cout << "mcs_lint: clean (" << files.size() << " files)\n";
    return 0;
  }
  std::cout << "mcs_lint: " << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << " across " << files.size()
            << " files\n";
  return 1;
}
