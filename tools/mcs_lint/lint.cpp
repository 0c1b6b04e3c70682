#include "lint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <thread>
#include <utility>

#include "callgraph.hpp"
#include "index.hpp"
#include "rules.hpp"

namespace mcs::lint {

const char* rule_name(Rule rule) {
  switch (rule) {
    case Rule::kD1: return "D1";
    case Rule::kD2: return "D2";
    case Rule::kD3: return "D3";
    case Rule::kD4: return "D4";
    case Rule::kH1: return "H1";
    case Rule::kH2: return "H2";
    case Rule::kH3: return "H3";
    case Rule::kS1: return "S1";
    case Rule::kL1: return "L1";
    case Rule::kR1: return "R1";
  }
  return "??";
}

const char* explain(Rule rule) {
  switch (rule) {
    case Rule::kD1:
      return
          "D1 — ambient time & randomness in src/.\n"
          "Simulation results must be pure functions of (scenario, seed).\n"
          "std::random_device, system_clock/steady_clock/high_resolution_\n"
          "clock, rand()/srand() and time(nullptr) read ambient machine\n"
          "state, so two runs of the same experiment disagree and the\n"
          "gate.* ctests fail. Remedy: draw randomness from sim::Rng\n"
          "(seeded per scenario) and time from Simulator::now() virtual\n"
          "time. src/sim/random.* (the Rng implementation) and\n"
          "src/parallel/ (real-time pool plumbing) are exempt by design.";
    case Rule::kD2:
      return
          "D2 — order-dependent iteration over std::unordered_*.\n"
          "Bucket order is implementation-defined and changes with\n"
          "load factor, libstdc++ version, and insertion history. A loop\n"
          "that folds values, appends to a vector, or mutates state while\n"
          "iterating an unordered container bakes that order into results.\n"
          "Remedy: iterate an ordered or insertion-ordered container, or\n"
          "sort keys first; annotate a reviewed commutative fold with\n"
          "`// mcs-lint: ordered-ok`.";
    case Rule::kD3:
      return
          "D3 — pointer-order nondeterminism.\n"
          "Raw pointer values are ASLR-dependent: std::map/std::set keyed\n"
          "on T*, std::sort over pointers without a comparator, and folds\n"
          "over pointer-keyed unordered containers all produce an order\n"
          "that changes per run even with identical seeds — unlike D2 this\n"
          "cannot be fixed by sorting later, because the *keys themselves*\n"
          "are addresses. Remedy: key by a stable id (task id, node index)\n"
          "or supply a comparator over stable fields.";
    case Rule::kD4:
      return
          "D4 — ambient time/randomness reachable from a deterministic\n"
          "context (D1 made interprocedural). Sweep cells handed to\n"
          "exp::run_sweep and callbacks handed to Simulator::schedule_at/\n"
          "schedule_after/schedule_recurring must be pure functions of\n"
          "(scenario, seed) — the replication + digest machinery depends\n"
          "on it. D4 chases the call graph from those lambdas and flags\n"
          "any reachable wall-clock or ambient-RNG observation, with the\n"
          "chain that gets there.\n"
          "src/ is already covered by D1; D4 adds bench/, tests/ and\n"
          "tools/ cell code. Remedy: use SweepPoint substream seeds and\n"
          "Simulator::now(); `allow(D4)` on a function definition stops\n"
          "propagation through its subtree.";
    case Rule::kH1:
      return
          "H1 — std::function in hot-path files (src/sim/, src/graph/,\n"
          "src/parallel/, src/obs/). std::function type-erases with a\n"
          "possible heap allocation per assignment and an indirect call\n"
          "per invocation; on event dispatch and graph kernels this is\n"
          "measurable. Remedy: core::UniqueFunction (owning, small-\n"
          "buffer, move-only; sim::Callback is its void() form) or\n"
          "core::FunctionRef (borrowed).";
    case Rule::kH2:
      return
          "H2 — heap allocation in functions annotated `// mcs-lint: hot`.\n"
          "new / make_unique / make_shared, and push_back / emplace_back /\n"
          "resize without a prior reserve on the same receiver, can\n"
          "allocate on the critical path (event dispatch, per-edge graph\n"
          "kernels, metric record). Remedy: preallocate in setup, reserve\n"
          "before growth loops, or restructure; `allow(H2)` a reviewed\n"
          "cold branch.";
    case Rule::kH3:
      return
          "H3 — hotness is transitive (H2 made interprocedural).\n"
          "A `// mcs-lint: hot` annotation covers everything the function\n"
          "calls, not just its own body: a helper that allocates is on the\n"
          "hot path whether or not it carries the marker. H3 walks the\n"
          "call graph from every hot root and flags reachable allocation\n"
          "or std::function use, reporting the call chain that makes the\n"
          "site hot. Remedy: make the helper allocation-free, annotate it\n"
          "hot (opting into H2 locally), or justify with `allow(H3)` —\n"
          "which also stops propagation through that subtree (e.g. a\n"
          "deliberately amortized growth path).";
    case Rule::kS1:
      return
          "S1 — mutable static / namespace-scope state in src/.\n"
          "Shared mutable globals make runs order- and thread-count-\n"
          "dependent and break experiment replication. Remedy: pass state\n"
          "explicitly (context objects); deliberate process-wide\n"
          "singletons live in the reviewed whitelist\n"
          "(src/parallel/thread_pool.cpp) or carry `allow(S1)`.";
    case Rule::kL1:
      return
          "L1 — the DESIGN.md layer DAG, enforced on #include edges:\n"
          "  core <- sim/metrics <- graph/parallel/infra/workload\n"
          "       <- sched/failures/obs <- exp/check <- domains\n"
          "An include may point only at the same or a lower layer, and\n"
          "module-level include cycles are never legal. Upward includes\n"
          "are how 'the simulator knows about the scheduler' erosion\n"
          "starts; the paper's ecosystem framing depends on the kernel\n"
          "staying domain-agnostic. Remedy: invert the dependency (inject\n"
          "a callback / interface defined lower) or move the shared piece\n"
          "down a layer.";
    case Rule::kR1:
      return
          "R1 — src/ holds only code a bench, tool or example runs.\n"
          "A function defined under src/ must be reachable from a root:\n"
          "any function defined under bench/, tools/, examples/ or\n"
          "perfbench/ (each main, each BM_* benchmark). Reachability\n"
          "follows every name a reached body mentions, as a call or as a\n"
          "value (function pointers, template arguments, the T of\n"
          "std::make_unique<T>). tests/ is not a root: code that only its\n"
          "own unit tests call is weight the library carries for nothing.\n"
          "R1 is skipped when the input holds no root file; lint src\n"
          "bench tests tools examples perfbench together. Remedy: call it\n"
          "from the bench that regenerates its artifact, move a sequential\n"
          "reference or fixture to tests/, or delete it with its tests;\n"
          "`allow(R1) — <reason>` on the definition keeps reviewed\n"
          "reference code (and what it reaches).";
  }
  return nullptr;
}

bool parse_rule(const std::string& name, Rule& out) {
  static const std::pair<const char*, Rule> kRules[] = {
      {"D1", Rule::kD1}, {"D2", Rule::kD2}, {"D3", Rule::kD3},
      {"D4", Rule::kD4}, {"H1", Rule::kH1}, {"H2", Rule::kH2},
      {"H3", Rule::kH3}, {"S1", Rule::kS1}, {"L1", Rule::kL1},
      {"R1", Rule::kR1}};
  for (const auto& [n, r] : kRules) {
    if (name == n) {
      out = r;
      return true;
    }
  }
  return false;
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<Finding> analyze_file(const std::string& path_tag,
                                  const std::string& content) {
  return run_file_rules(index_file(path_tag, content));
}

RepoResult analyze_repo(const std::vector<FileInput>& files,
                        const RepoOptions& opt) {
  // Deterministic order: everything downstream (node ids, finding order,
  // DOT output) is keyed off the sorted file sequence.
  std::vector<const FileInput*> ordered;
  ordered.reserve(files.size());
  for (const FileInput& f : files) ordered.push_back(&f);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FileInput* a, const FileInput* b) {
                     return a->path < b->path;
                   });

  // Pass 1 — index every file and run the per-file rules. Each slot is
  // written by exactly one worker; the merge below walks slots in path
  // order, so output is byte-identical at any job count.
  std::vector<FileIndex> indexes(ordered.size());
  std::vector<std::vector<Finding>> file_findings(ordered.size());
  const int jobs = std::max(1, opt.jobs);
  auto work = [&](std::atomic<std::size_t>& next) {
    for (std::size_t i = next.fetch_add(1); i < ordered.size();
         i = next.fetch_add(1)) {
      indexes[i] = index_file(ordered[i]->path, ordered[i]->content);
      file_findings[i] = run_file_rules(indexes[i]);
    }
  };
  if (jobs <= 1 || ordered.size() <= 1) {
    std::atomic<std::size_t> next{0};
    work(next);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    const int n = std::min<int>(jobs, static_cast<int>(ordered.size()));
    pool.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) pool.emplace_back([&] { work(next); });
    for (std::thread& t : pool) t.join();
  }

  RepoResult result;
  for (std::vector<Finding>& fs : file_findings) {
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(fs.begin()),
                           std::make_move_iterator(fs.end()));
  }

  // Pass 2 — serial: call graph + include graph over the merged index.
  const CallGraph graph = CallGraph::build(indexes);
  std::vector<Finding> repo = run_repo_rules(indexes, graph);
  result.findings.insert(result.findings.end(),
                         std::make_move_iterator(repo.begin()),
                         std::make_move_iterator(repo.end()));
  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     const std::string ra = rule_name(a.rule);
                     const std::string rb = rule_name(b.rule);
                     if (ra != rb) return ra < rb;
                     return a.message < b.message;
                   });
  if (opt.want_callgraph) result.callgraph_dot = graph.to_dot();
  return result;
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + rule_name(f.rule) +
         "] " + f.message;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string to_sarif(const std::vector<Finding>& findings) {
  static const Rule kAll[] = {Rule::kD1, Rule::kD2, Rule::kD3, Rule::kD4,
                              Rule::kH1, Rule::kH2, Rule::kH3, Rule::kS1,
                              Rule::kL1, Rule::kR1};
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\n"
      << "      \"name\": \"mcs_lint\",\n"
      << "      \"informationUri\": "
         "\"https://github.com/mcs/mcs/blob/main/DESIGN.md\",\n"
      << "      \"rules\": [\n";
  for (std::size_t i = 0; i < std::size(kAll); ++i) {
    const char* text = explain(kAll[i]);
    std::string first_line(text);
    const std::size_t nl = first_line.find('\n');
    if (nl != std::string::npos) first_line.resize(nl);
    out << "        {\"id\": \"" << rule_name(kAll[i])
        << "\", \"shortDescription\": {\"text\": \"" << json_escape(first_line)
        << "\"}, \"fullDescription\": {\"text\": \"" << json_escape(text)
        << "\"}}" << (i + 1 < std::size(kAll) ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }},\n"
      << "    \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(f.fingerprint));
    out << "      {\"ruleId\": \"" << rule_name(f.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(f.message)
        << "\"}, \"partialFingerprints\": {\"mcsLint/v1\": \"" << fp
        << "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << json_escape(f.file) << "\"}, \"region\": {\"startLine\": "
        << f.line << "}}}]}" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }]\n}\n";
  return out.str();
}

}  // namespace mcs::lint
