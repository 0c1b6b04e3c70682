#include "exp/sweep.hpp"

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>

#include "sched/engine.hpp"

namespace mcs::exp {

std::uint64_t substream_seed(std::uint64_t base, std::uint64_t index) {
  // SplitMix64 finalizer over the combined state: statistically
  // independent outputs for adjacent indices, and a pure function of
  // (base, index) only.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 0x9e3779b97f4a7c15ull : z;
}

SweepCli parse_sweep_cli(int argc, const char* const* argv) {
  SweepCli cli;
  auto parse_count = [](const std::string& flag,
                        const char* value) -> std::size_t {
    if (value == nullptr) {
      throw std::invalid_argument(flag + ": missing value");
    }
    // Digits only: a sign, leading space or out-of-range value is an error,
    // never a count wrapped around to a huge size_t.
    const char* end = value + std::strlen(value);
    std::size_t n = 0;
    const auto [ptr, ec] = std::from_chars(value, end, n);
    if (ec != std::errc() || ptr != end) {
      throw std::invalid_argument(flag + ": not a count: " + value);
    }
    return n;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--digest") {
      cli.digest = true;
    } else if (arg == "--reps") {
      cli.reps = parse_count(arg, i + 1 < argc ? argv[++i] : nullptr);
    } else if (arg.rfind("--reps=", 0) == 0) {
      cli.reps = parse_count("--reps", arg.c_str() + 7);
    } else if (arg == "--threads") {
      cli.threads = parse_count(arg, i + 1 < argc ? argv[++i] : nullptr);
    } else if (arg.rfind("--threads=", 0) == 0) {
      cli.threads = parse_count("--threads", arg.c_str() + 10);
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        throw std::invalid_argument("--trace: missing file path");
      }
      cli.trace_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      cli.trace_path = arg.substr(8);
      if (cli.trace_path.empty()) {
        throw std::invalid_argument("--trace: missing file path");
      }
    } else if (arg == "--metrics") {
      cli.metrics = true;
    } else if (arg == "--report") {
      if (i + 1 >= argc) {
        throw std::invalid_argument("--report: missing file path");
      }
      cli.report_path = argv[++i];
    } else if (arg.rfind("--report=", 0) == 0) {
      cli.report_path = arg.substr(9);
      if (cli.report_path.empty()) {
        throw std::invalid_argument("--report: missing file path");
      }
    } else if (arg == "--slo") {
      if (i + 1 >= argc) {
        throw std::invalid_argument("--slo: missing spec");
      }
      cli.slo_spec = argv[++i];
    } else if (arg.rfind("--slo=", 0) == 0) {
      cli.slo_spec = arg.substr(6);
      if (cli.slo_spec.empty()) {
        throw std::invalid_argument("--slo: missing spec");
      }
    }
  }
  if (cli.reps == 0) cli.reps = 1;
  // Fail fast, before any cell runs, on a malformed SLO spec or a class no
  // job belongs to.
  if (cli.slo()) (void)sched::parse_engine_slo_specs(cli.slo_spec);
  return cli;
}

}  // namespace mcs::exp
