#include "workload/archive.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mcs::workload {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("MWF parse error at line " + std::to_string(line) +
                           ": " + what);
}

}  // namespace

void write_archive(std::ostream& os, const std::vector<Job>& jobs) {
  os << "# MWF 1 (mcs workload format)\n";
  os << "# jobs " << jobs.size() << "\n";
  os.precision(17);
  for (const Job& j : jobs) {
    os << "job " << j.id << ' ' << j.submit_time << ' '
       << (j.user.empty() ? "-" : j.user) << '\n';
    for (const Task& t : j.tasks) {
      os << "task " << t.work_seconds << ' ' << t.demand.cpu() << ' '
         << t.demand.mem() << ' ' << t.demand.gpu() << ' '
         << t.deps.size();
      for (std::size_t d : t.deps) os << ' ' << d;
      os << '\n';
    }
  }
}

std::vector<Job> read_archive(std::istream& is) {
  std::vector<Job> jobs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "job") {
      Job j;
      std::string user;
      if (!(fields >> j.id >> j.submit_time >> user)) {
        fail(line_no, "malformed job line");
      }
      if (j.submit_time < 0) fail(line_no, "negative submit time");
      j.user = user == "-" ? std::string{} : user;
      jobs.push_back(std::move(j));
    } else if (kind == "task") {
      if (jobs.empty()) fail(line_no, "task before any job");
      Task t;
      std::size_t ndeps = 0;
      if (!(fields >> t.work_seconds >> t.demand.cpu() >>
            t.demand.mem() >> t.demand.gpu() >> ndeps)) {
        fail(line_no, "malformed task line");
      }
      for (std::size_t i = 0; i < ndeps; ++i) {
        std::size_t dep = 0;
        if (!(fields >> dep)) fail(line_no, "missing dependency index");
        t.deps.push_back(dep);
      }
      jobs.back().tasks.push_back(std::move(t));
      if (!jobs.back().valid()) fail(line_no, "invalid task (range/order)");
    } else {
      fail(line_no, "unknown record kind '" + kind + "'");
    }
  }
  return jobs;
}

// mcs-lint: allow(R1) — only ArchiveTest (tests/extensions_test.cpp) calls
// it; the module goes with those five tests in a later change, since one
// change may take at most three tests out of the suite.
std::string to_archive_string(const std::vector<Job>& jobs) {
  std::ostringstream os;
  write_archive(os, jobs);
  return os.str();
}

// mcs-lint: allow(R1) — as to_archive_string.
std::vector<Job> from_archive_string(const std::string& text) {
  std::istringstream is(text);
  return read_archive(is);
}

}  // namespace mcs::workload
