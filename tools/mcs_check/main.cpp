// mcs_check CLI — deterministic simulation fuzzing under invariant oracles.
//
//   mcs_check [options]
//     --seeds N       batch size (default 100)
//     --base B        base seed for the batch (default 1)
//     --threads N     worker threads (default: MCS_THREADS env, else cores)
//     --seed I        replay batch index I alone and print its full trace
//                     digest + spec (bit-identical to index I of the batch)
//     --replay FILE   run a repro file written by --shrink (or by hand)
//     --shrink I      shrink failing batch index I to a minimal repro file
//     --out FILE      where --shrink writes the repro (default
//                     mcs_check_repro_<index>.repro)
//     --digest        print only `summary <16-hex>` (for determinism diffs)
//     --het           draw the vector/placement heterogeneity knobs
//                     (zones, spread limits, net dimension, score policies)
//     --print-spec I  print the generated spec for batch index I and exit
//     --slo SPEC      attach the SLO engine to every scenario (obs/slo.hpp
//                     format, classes all/bot/workflow); SLO state folds
//                     into every seed digest
//     --report FILE   write the batch's merged mcs-report-v1 JSON to FILE
//
// Exit code: 0 = no violations, 1 = violations found (or replayed scenario
// fails), 2 = usage error (a malformed flag, --slo spec or repro file). The
// batch summary digest is bit-identical at any --threads value; `--seed I`
// reruns exactly the scenario the batch ran.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/shrink.hpp"
#include "core/parse.hpp"
#include "metrics/stats.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "parallel/thread_pool.hpp"
#include "sched/engine.hpp"

namespace {

using mcs::check::FuzzOptions;
using mcs::check::FuzzReport;
using mcs::check::ScenarioSpec;
using mcs::check::SeedRunResult;
using mcs::metrics::hex16;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--seeds N] [--base B] [--threads N] [--seed I]\n"
               "       [--replay FILE] [--shrink I [--out FILE]] [--digest]\n"
               "       [--print-spec I] [--het] [--slo SPEC]\n"
               "       [--report FILE]\n";
  return 2;
}

/// Writes the flight-recorder dump of a failing run next to its repro.
/// Returns the path on success, "" when there was nothing to write.
std::string write_trace_dump(const SeedRunResult& r, const std::string& path) {
  if (r.trace_dump.empty()) return "";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "mcs_check: cannot write trace dump: " << path << "\n";
    return "";
  }
  out << "# flight recorder for seed " << r.seed
      << " (convert: mcs_trace --chrome " << path << ")\n"
      << r.trace_dump;
  return path;
}

void print_result(const SeedRunResult& r) {
  std::cout << "seed " << r.seed << ": " << (r.ok ? "ok" : "VIOLATION")
            << " events=" << r.events << " transitions=" << r.transitions
            << " checks=" << r.checks << " jobs=" << r.jobs_submitted
            << " completed=" << r.jobs_completed
            << " abandoned=" << r.jobs_abandoned
            << " killed=" << r.tasks_killed << " digest=" << hex16(r.digest)
            << "\n";
  if (!r.ok) std::cout << "  " << r.violation << "\n";
}

int run_replay(const char* argv0, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "mcs_check: cannot open repro file: " << path << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  ScenarioSpec spec;
  try {
    spec = mcs::check::from_text(text.str());
  } catch (const std::exception& ex) {
    std::cerr << "mcs_check: " << path << ": " << ex.what() << "\n";
    return usage(argv0);
  }
  const SeedRunResult r = mcs::check::run_spec(spec);
  print_result(r);
  if (!r.ok) {
    // Dump into the working directory (not next to the repro, which may
    // live in the read-only source tree).
    const std::size_t slash = path.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::string trace_path = write_trace_dump(r, base + ".trace");
    if (!trace_path.empty()) {
      std::cout << "flight recorder -> " << trace_path << "\n";
    }
  }
  return r.ok ? 0 : 1;
}

int run_shrink(std::uint64_t base_seed, std::size_t index,
               const std::string& out_path, bool het) {
  const std::uint64_t seed = mcs::check::seed_for_index(base_seed, index);
  mcs::check::ShrinkResult shrunk =
      mcs::check::shrink(mcs::check::make_spec(seed, het));
  if (!shrunk.failing) {
    std::cout << "index " << index << " (seed " << seed
              << ") passes; nothing to shrink\n";
    return 0;
  }
  const std::string path =
      out_path.empty() ? "mcs_check_repro_" + std::to_string(index) + ".repro"
                       : out_path;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "mcs_check: cannot write repro file: " << path << "\n";
    return 2;
  }
  out << "# mcs_check minimal reproducer (replay: mcs_check --replay "
      << path << ")\n"
      << "# shrunk from base=" << base_seed << " index=" << index
      << " in " << shrunk.attempts << " runs (" << shrunk.accepted
      << " accepted)\n"
      << "# " << shrunk.result.violation << "\n"
      << mcs::check::to_text(shrunk.spec);
  std::cout << "index " << index << " (seed " << seed << ") shrunk after "
            << shrunk.attempts << " runs -> " << path << "\n";
  const std::string trace_path = write_trace_dump(shrunk.result,
                                                  path + ".trace");
  if (!trace_path.empty()) {
    std::cout << "flight recorder -> " << trace_path << "\n";
  }
  print_result(shrunk.result);
  return 1;  // a shrunken repro means the scenario fails
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seeds = 100;
  std::uint64_t base_seed = 1;
  std::size_t threads = 0;  // 0 => MCS_THREADS env, else hardware
  bool digest_only = false;
  bool het = false;
  bool have_single = false;
  std::size_t single_index = 0;
  bool have_shrink = false;
  std::size_t shrink_index = 0;
  bool have_print_spec = false;
  std::size_t print_spec_index = 0;
  std::string replay_path;
  std::string out_path;
  std::string slo_spec;
  std::string report_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Digits only: a sign or trailing garbage is a usage error, never a
    // wrapped or silently truncated count.
    auto next = [&](std::uint64_t& value) {
      return i + 1 < argc && mcs::core::parse_whole(argv[++i], value);
    };
    std::uint64_t v = 0;
    if (arg == "--seeds" && next(v)) {
      seeds = static_cast<std::size_t>(v);
    } else if (arg == "--base" && next(v)) {
      base_seed = v;
    } else if (arg == "--threads" && next(v)) {
      threads = static_cast<std::size_t>(v);
    } else if (arg == "--seed" && next(v)) {
      have_single = true;
      single_index = static_cast<std::size_t>(v);
    } else if (arg == "--shrink" && next(v)) {
      have_shrink = true;
      shrink_index = static_cast<std::size_t>(v);
    } else if (arg == "--print-spec" && next(v)) {
      have_print_spec = true;
      print_spec_index = static_cast<std::size_t>(v);
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--slo" && i + 1 < argc) {
      slo_spec = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--digest") {
      digest_only = true;
    } else if (arg == "--het") {
      het = true;
    } else {
      return usage(argv[0]);
    }
  }

  // Parse --slo once, before any seed runs: a malformed spec or a class no
  // job belongs to is a usage error, not an abort or a vacuous report.
  std::vector<mcs::obs::SloSpec> slo_specs;
  try {
    slo_specs = mcs::sched::parse_engine_slo_specs(slo_spec);
  } catch (const std::invalid_argument& ex) {
    std::cerr << "mcs_check: --slo: " << ex.what() << "\n";
    return usage(argv[0]);
  }

  if (!replay_path.empty()) return run_replay(argv[0], replay_path);
  if (have_print_spec) {
    std::cout << mcs::check::to_text(mcs::check::make_spec(
        mcs::check::seed_for_index(base_seed, print_spec_index), het));
    return 0;
  }
  if (have_shrink) return run_shrink(base_seed, shrink_index, out_path, het);
  if (have_single) {
    // Carry --slo into the single-seed replay so `--seed I` stays
    // bit-identical to index I of a batch run with the same spec.
    ScenarioSpec spec = mcs::check::make_spec(
        mcs::check::seed_for_index(base_seed, single_index), het);
    spec.slo = slo_spec;
    const SeedRunResult r = mcs::check::run_spec(spec);
    print_result(r);
    return r.ok ? 0 : 1;
  }

  mcs::parallel::ThreadPool pool(threads);
  FuzzOptions opt;
  opt.seeds = seeds;
  opt.base_seed = base_seed;
  opt.het = het;
  opt.slo = slo_spec;
  opt.capture_registry = !report_path.empty();
  opt.pool = &pool;
  const FuzzReport report = mcs::check::run_fuzz(opt);

  if (!report_path.empty() && report.registry != nullptr) {
    mcs::obs::ReportInputs inputs;
    inputs.registry = report.registry.get();
    inputs.slo = &slo_specs;
    inputs.cells = report.seeds_run;
    std::ofstream file(report_path);
    if (!file) {
      std::cerr << "mcs_check: cannot write report: " << report_path << "\n";
      return 2;
    }
    mcs::obs::write_report_json(file, inputs);
    if (!digest_only) {
      std::cout << "report written to " << report_path << " ("
                << report.seeds_run << " seeds)\n";
    }
  }

  if (digest_only) {
    std::cout << "summary " << hex16(report.summary_digest) << "\n";
  } else {
    std::cout << "mcs_check: " << report.seeds_run << " seeds, "
              << report.total_events << " events, "
              << report.total_transitions << " transitions, "
              << report.total_checks << " oracle sweeps\n"
              << "  jobs completed=" << report.total_completed
              << " abandoned=" << report.total_abandoned
              << " tasks killed=" << report.total_tasks_killed << "\n"
              << "  summary digest " << hex16(report.summary_digest) << "\n";
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
      std::cout << "FAIL index " << report.failing_indices[i] << " ";
      print_result(report.failures[i]);
      const std::string trace_path = write_trace_dump(
          report.failures[i], "mcs_check_fail_" +
                                  std::to_string(report.failing_indices[i]) +
                                  ".trace");
      if (!trace_path.empty()) {
        std::cout << "  flight recorder -> " << trace_path << "\n";
      }
    }
    if (report.failures.empty()) {
      std::cout << "  no violations\n";
    } else {
      std::cout << report.failures.size()
                << " violating seed(s); shrink with --shrink <index>\n";
    }
  }
  return report.failures.empty() ? 0 : 1;
}
