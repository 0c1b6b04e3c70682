// Fixture suite for tools/mcs_lint: every rule has at least one known-bad
// snippet that fires and one known-good snippet where the suppression
// escape (or a whitelist / scoping boundary) is honored. The fixtures are
// string literals — the linter's lexer skips string contents, so this file
// itself stays lint-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "callgraph.hpp"
#include "index.hpp"
#include "lint.hpp"

namespace {

using mcs::lint::FileInput;
using mcs::lint::Finding;
using mcs::lint::Rule;
using mcs::lint::analyze_file;
using mcs::lint::analyze_repo;

std::vector<Finding> findings_for(const std::string& tag,
                                  const std::string& code, Rule rule) {
  std::vector<Finding> out;
  for (Finding& f : analyze_file(tag, code)) {
    if (f.rule == rule) out.push_back(std::move(f));
  }
  return out;
}

// ---- D1: ambient time & randomness ------------------------------------------

TEST(LintD1, FlagsAmbientClockAndRandomness) {
  const std::string code = R"cpp(
    int seed() { return rand(); }
    long stamp() { return time(nullptr); }
    double tick();
  )cpp";
  const auto hits = findings_for("src/sched/engine.cpp", code, Rule::kD1);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_EQ(hits[1].line, 3);
}

TEST(LintD1, FlagsChronoClocks) {
  const std::string code = R"cpp(
    auto t0 = std::chrono::steady_clock::now();
    std::random_device rd;
  )cpp";
  EXPECT_EQ(findings_for("src/faas/platform.cpp", code, Rule::kD1).size(),
            2u);
}

TEST(LintD1, WhitelistedPathsAreExempt) {
  const std::string code = "std::random_device rd;\n";
  EXPECT_TRUE(findings_for("src/sim/random.cpp", code, Rule::kD1).empty());
  EXPECT_TRUE(
      findings_for("src/parallel/thread_pool.cpp", code, Rule::kD1).empty());
  // bench/ may time with real clocks: D1 is a src/-only rule.
  EXPECT_TRUE(findings_for("bench/micro_sim.cpp", code, Rule::kD1).empty());
}

TEST(LintD1, AllowCommentSuppresses) {
  const std::string code =
      "int x = rand();  // mcs-lint: allow(D1)\n";
  EXPECT_TRUE(findings_for("src/core/nfr.cpp", code, Rule::kD1).empty());
}

// ---- D2: order-dependent unordered iteration --------------------------------

TEST(LintD2, FlagsAccumulatingRangeFor) {
  const std::string code = R"cpp(
    #include <unordered_map>
    int total(const std::unordered_map<int, int>& m) {
      int sum = 0;
      for (const auto& [k, v] : m) sum += v;
      return sum;
    }
  )cpp";
  const auto hits = findings_for("src/metrics/stats.cpp", code, Rule::kD2);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5);
}

TEST(LintD2, FlagsIteratorLoopOverUnordered) {
  const std::string code = R"cpp(
    std::unordered_set<int> seen;
    void drain(std::vector<int>& out) {
      for (auto it = seen.begin(); it != seen.end(); ++it) {
        out.push_back(*it);
      }
    }
  )cpp";
  EXPECT_EQ(findings_for("src/p2p/swarm.cpp", code, Rule::kD2).size(), 1u);
}

TEST(LintD2, TracksTypeAliases) {
  const std::string code = R"cpp(
    using Index = std::unordered_map<int, double>;
    Index index_;
    double mass() {
      double m = 0.0;
      for (const auto& kv : index_) m += kv.second;
      return m;
    }
  )cpp";
  EXPECT_EQ(findings_for("src/bigdata/storage.cpp", code, Rule::kD2).size(),
            1u);
}

TEST(LintD2, PureReadLoopIsFine) {
  const std::string code = R"cpp(
    bool contains(const std::unordered_map<int, int>& m, int needle) {
      for (const auto& [k, v] : m) {
        if (k == needle) return true;
      }
      return false;
    }
  )cpp";
  EXPECT_TRUE(findings_for("src/core/registry.cpp", code, Rule::kD2).empty());
}

TEST(LintD2, OrderedOkSuppresses) {
  const std::string code = R"cpp(
    int total(const std::unordered_map<int, int>& m) {
      int sum = 0;
      // mcs-lint: ordered-ok
      for (const auto& [k, v] : m) sum += v;
      return sum;
    }
  )cpp";
  EXPECT_TRUE(findings_for("src/metrics/stats.cpp", code, Rule::kD2).empty());
}

TEST(LintD2, OrderedContainersAreFine) {
  const std::string code = R"cpp(
    int total(const std::map<int, int>& m) {
      int sum = 0;
      for (const auto& [k, v] : m) sum += v;
      return sum;
    }
  )cpp";
  EXPECT_TRUE(findings_for("src/metrics/stats.cpp", code, Rule::kD2).empty());
}

// ---- H1: std::function in hot-path files ------------------------------------

TEST(LintH1, FlagsStdFunctionInHotDirs) {
  const std::string code = "using Fn = std::function<void()>;\n";
  EXPECT_EQ(findings_for("src/sim/arrival.hpp", code, Rule::kH1).size(), 1u);
  EXPECT_EQ(findings_for("src/graph/graph.hpp", code, Rule::kH1).size(), 1u);
  EXPECT_EQ(
      findings_for("src/parallel/thread_pool.hpp", code, Rule::kH1).size(),
      1u);
}

TEST(LintH1, ColdDirsAndCommentsAreFine) {
  // Cold layers may still choose std::function deliberately.
  const std::string code = "using Fn = std::function<void()>;\n";
  EXPECT_TRUE(findings_for("src/evolve/evolution.hpp", code, Rule::kH1)
                  .empty());
  // Mentions in comments must not fire: the lexer strips them.
  const std::string comment_only =
      "// Unlike std::function this accepts move-only closures.\n"
      "class Callback {};\n";
  EXPECT_TRUE(
      findings_for("src/sim/simulator.hpp", comment_only, Rule::kH1).empty());
}

TEST(LintH1, AllowCommentSuppresses) {
  const std::string code =
      "using Fn = std::function<void()>;  // mcs-lint: allow(H1)\n";
  EXPECT_TRUE(findings_for("src/sim/arrival.hpp", code, Rule::kH1).empty());
}

// ---- H2: heap allocation in hot functions -----------------------------------

TEST(LintH2, FlagsAllocationsInHotFunction) {
  const std::string code = R"cpp(
    // mcs-lint: hot
    void drain(std::vector<int>& out) {
      out.push_back(1);
      auto p = std::make_unique<int>(2);
      int* q = new int(3);
      delete q;
    }
  )cpp";
  const auto hits = findings_for("src/sim/simulator.cpp", code, Rule::kH2);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].line, 4);  // push_back without reserve
  EXPECT_EQ(hits[1].line, 5);  // make_unique
  EXPECT_EQ(hits[2].line, 6);  // new
}

TEST(LintH2, ReserveInSameFunctionPermitsPushBack) {
  const std::string code = R"cpp(
    // mcs-lint: hot
    void fill(std::vector<int>& out, std::size_t n) {
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i) out.push_back(1);
    }
  )cpp";
  EXPECT_TRUE(
      findings_for("src/graph/algorithms.cpp", code, Rule::kH2).empty());
}

TEST(LintH2, UnmarkedFunctionsAreNotChecked) {
  const std::string code = R"cpp(
    void cold(std::vector<int>& out) {
      out.push_back(1);
      int* q = new int(3);
      delete q;
    }
  )cpp";
  EXPECT_TRUE(
      findings_for("src/sim/simulator.cpp", code, Rule::kH2).empty());
}

TEST(LintH2, AllowCommentSuppresses) {
  const std::string code = R"cpp(
    // mcs-lint: hot
    void drain(std::vector<int>& out) {
      out.push_back(1);  // mcs-lint: allow(H2)
    }
  )cpp";
  EXPECT_TRUE(
      findings_for("src/sim/simulator.cpp", code, Rule::kH2).empty());
}

TEST(LintH2, FlagsResizeInHotFunction) {
  // resize can reallocate just like push_back; a prior reserve on the same
  // receiver (fixed upper bound) is the sanctioned pattern.
  const std::string code = R"cpp(
    // mcs-lint: hot
    void grow(std::vector<int>& out, std::size_t n) {
      out.resize(n);
    }
  )cpp";
  const auto hits = findings_for("src/obs/trace.cpp", code, Rule::kH2);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4);

  const std::string reserved = R"cpp(
    // mcs-lint: hot
    void grow(std::vector<int>& out, std::size_t n) {
      out.reserve(n);
      out.resize(n);
    }
  )cpp";
  EXPECT_TRUE(findings_for("src/obs/trace.cpp", reserved, Rule::kH2).empty());
}

TEST(LintH2, ObsRecordPathsAreCovered) {
  // src/obs/ is a hot directory: H1 fires on std::function there, and the
  // obs record-path idiom (fixed ring + counter bump) stays H2-clean under
  // the hot marker — the guarantee the DESIGN.md §11 overhead budget
  // depends on.
  const std::string h1 = "std::function<void()> cb;\n";
  EXPECT_EQ(findings_for("src/obs/registry.cpp", h1, Rule::kH1).size(), 1u);

  const std::string record = R"cpp(
    // mcs-lint: hot
    void record(std::uint64_t* bins, std::size_t b, long* count) {
      ++bins[b];
      ++*count;
    }
  )cpp";
  EXPECT_TRUE(findings_for("src/obs/registry.hpp", record, Rule::kH2).empty());

  const std::string bad = R"cpp(
    // mcs-lint: hot
    void record(std::vector<long>& samples, long v) {
      samples.push_back(v);
    }
  )cpp";
  EXPECT_EQ(findings_for("src/obs/registry.hpp", bad, Rule::kH2).size(), 1u);
}

// ---- S1: mutable static state -----------------------------------------------

TEST(LintS1, FlagsMutableStatics) {
  const std::string code = R"cpp(
    static int call_count = 0;
    int bump() {
      static double last = 0.0;
      last += 1.0;
      return ++call_count;
    }
  )cpp";
  const auto hits = findings_for("src/core/ecosystem.cpp", code, Rule::kS1);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_EQ(hits[1].line, 4);
}

TEST(LintS1, ConstAndConstexprStaticsAreFine) {
  const std::string code = R"cpp(
    static const int kAnswer = 42;
    static constexpr double kPi = 3.14159;
    static bool helper(int x) { return x > 0; }
  )cpp";
  EXPECT_TRUE(
      findings_for("src/core/ecosystem.cpp", code, Rule::kS1).empty());
}

TEST(LintS1, WhitelistedSingletonFileIsExempt) {
  const std::string code =
      "ThreadPool& default_pool() { static ThreadPool pool; return pool; }\n";
  EXPECT_TRUE(findings_for("src/parallel/thread_pool.cpp", code, Rule::kS1)
                  .empty());
  // The same code anywhere else in src/ fires.
  EXPECT_EQ(findings_for("src/sched/engine.cpp", code, Rule::kS1).size(),
            1u);
}

TEST(LintS1, AllowCommentSuppresses) {
  const std::string code =
      "static int reviewed_registry_count = 0;  // mcs-lint: allow(S1)\n";
  EXPECT_TRUE(
      findings_for("src/core/registry.cpp", code, Rule::kS1).empty());
}

// ---- D3: pointer-order nondeterminism ---------------------------------------

TEST(LintD3, FlagsOrderedContainerKeyedOnPointers) {
  const std::string code = R"cpp(
    struct Task;
    std::map<Task*, int> retries;
    std::set<const Task*> blocked;
    std::map<int, Task*> by_id;
  )cpp";
  const auto hits = findings_for("src/sched/engine.cpp", code, Rule::kD3);
  ASSERT_EQ(hits.size(), 2u);  // by_id keys on int: value pointers are fine
  EXPECT_EQ(hits[0].line, 3);
  EXPECT_EQ(hits[1].line, 4);
}

TEST(LintD3, FlagsPointerSortWithoutComparator) {
  const std::string code = R"cpp(
    struct Task;
    void order(std::vector<Task*>& queue) {
      std::sort(queue.begin(), queue.end());
    }
    void fine(std::vector<Task*>& queue) {
      std::sort(queue.begin(), queue.end(),
                [](const Task* a, const Task* b) { return true; });
    }
    void ints(std::vector<int>& v) { std::sort(v.begin(), v.end()); }
  )cpp";
  const auto hits = findings_for("src/sched/engine.cpp", code, Rule::kD3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4);
}

TEST(LintD3, PointerKeyedUnorderedFoldEscalatesFromD2) {
  const std::string code = R"cpp(
    struct Task;
    std::unordered_map<Task*, int> retries;
    int total() {
      int sum = 0;
      for (const auto& [k, v] : retries) sum += v;
      return sum;
    }
  )cpp";
  EXPECT_EQ(findings_for("src/sched/engine.cpp", code, Rule::kD3).size(), 1u);
  // D3 supersedes D2 on the same loop: the hazard is the keys themselves.
  EXPECT_TRUE(findings_for("src/sched/engine.cpp", code, Rule::kD2).empty());
}

TEST(LintD3, AllowCommentSuppresses) {
  const std::string code =
      "std::map<void*, int> sizes;  // mcs-lint: allow(D3)\n";
  EXPECT_TRUE(findings_for("src/core/registry.cpp", code, Rule::kD3).empty());
}

TEST(LintMarkers, AllowAppliesThroughMultiLineCommentBlock) {
  // NOLINTNEXTLINE-style: the justification may wrap onto further comment
  // lines without detaching the marker from the code line below the block.
  const std::string code =
      "// mcs-lint: allow(D1) — a long justification that wraps\n"
      "// onto a second comment line, and then a third one too,\n"
      "// without detaching the marker from the statement below.\n"
      "long stamp() { return time(nullptr); }\n";
  EXPECT_TRUE(findings_for("src/core/x.cpp", code, Rule::kD1).empty());
}

TEST(LintMarkers, CommentBlockDoesNotLeakPastFirstCodeLine) {
  const std::string code =
      "// mcs-lint: allow(D1) — covers only the next statement\n"
      "int covered() { return time(nullptr); }\n"
      "int uncovered() { return time(nullptr); }\n";
  const auto hits = findings_for("src/core/x.cpp", code, Rule::kD1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
}

// ---- index / call graph -----------------------------------------------------

TEST(LintIndex, BuildsFunctionTableWithFacts) {
  const std::string code = R"cpp(
    namespace demo {
    int helper(int x) { return x + 1; }
    struct Engine {
      void step() {
        helper(1);
        notify();
      }
      void notify();
    };
    }  // namespace demo
  )cpp";
  const mcs::lint::FileIndex idx =
      mcs::lint::index_file("src/sched/demo.cpp", code);
  ASSERT_EQ(idx.functions.size(), 2u);
  EXPECT_EQ(idx.functions[0].name, "helper");
  EXPECT_EQ(idx.functions[1].qual, "Engine::step");
  ASSERT_EQ(idx.functions[1].calls.size(), 2u);
  EXPECT_EQ(idx.functions[1].calls[0].callee, "helper");
  EXPECT_EQ(idx.functions[1].calls[1].callee, "notify");
}

TEST(LintIndex, ConstructorWithInitializerListIsNamedForItsClass) {
  const std::string code =
      "struct Grower {\n"
      "  Grower(int n, Sink& s) : n_(n), sink_{make_sink(s)} {\n"
      "    v_.push_back(n_);\n"
      "  }\n"
      "  int n_;\n"
      "};\n";
  const mcs::lint::FileIndex idx =
      mcs::lint::index_file("src/sched/grow.hpp", code);
  ASSERT_EQ(idx.functions.size(), 1u);
  EXPECT_EQ(idx.functions[0].qual, "Grower::Grower");
  // The initializers' calls belong to the constructor, and so does its
  // body: the `{...}` initializer opens no function of its own.
  ASSERT_EQ(idx.functions[0].calls.size(), 3u);
  EXPECT_EQ(idx.functions[0].calls[0].callee, "n_");
  EXPECT_EQ(idx.functions[0].calls[1].callee, "make_sink");
  EXPECT_EQ(idx.functions[0].calls[2].callee, "push_back");
  EXPECT_EQ(idx.functions[0].allocs.size(), 1u);
}

TEST(LintIndex, TemplateSpecializationHeadIsAClass) {
  const std::string code =
      "template <typename R, typename... Args>\n"
      "class UniqueFunction<R(Args...)> {\n"
      " public:\n"
      "  void reset() { ops_ = nullptr; }\n"
      "};\n";
  const mcs::lint::FileIndex idx =
      mcs::lint::index_file("src/core/callback.hpp", code);
  ASSERT_EQ(idx.functions.size(), 1u);
  EXPECT_EQ(idx.functions[0].qual, "UniqueFunction::reset");
}

TEST(LintIndex, RecordsIncludeEdges) {
  const std::string code =
      "#include \"sched/engine.hpp\"\n"
      "#include <vector>\n";
  const mcs::lint::FileIndex idx =
      mcs::lint::index_file("src/exp/sweep.cpp", code);
  ASSERT_EQ(idx.includes.size(), 2u);
  EXPECT_EQ(idx.includes[0].path, "sched/engine.hpp");
  EXPECT_FALSE(idx.includes[0].angled);
  EXPECT_TRUE(idx.includes[1].angled);
}

TEST(LintCallGraph, LinksCallsAcrossFiles) {
  std::vector<mcs::lint::FileIndex> files;
  files.push_back(mcs::lint::index_file(
      "src/sched/a.cpp", "void helper() {}\n"));
  files.push_back(mcs::lint::index_file(
      "src/sched/b.cpp", "void driver() { helper(); }\n"));
  const mcs::lint::CallGraph g = mcs::lint::CallGraph::build(files);
  ASSERT_EQ(g.nodes().size(), 2u);
  int driver = -1;
  for (std::size_t n = 0; n < g.nodes().size(); ++n) {
    if (g.nodes()[n].fn->name == "driver") driver = static_cast<int>(n);
  }
  ASSERT_NE(driver, -1);
  ASSERT_EQ(g.edges(static_cast<std::size_t>(driver)).size(), 1u);
  EXPECT_EQ(g.nodes()[static_cast<std::size_t>(
                          g.edges(static_cast<std::size_t>(driver))[0])]
                .fn->name,
            "helper");
}

// ---- H3: transitive hotness -------------------------------------------------

std::vector<Finding> repo_findings(const std::vector<FileInput>& files,
                                   Rule rule) {
  std::vector<Finding> out;
  for (Finding& f : analyze_repo(files).findings) {
    if (f.rule == rule) out.push_back(std::move(f));
  }
  return out;
}

TEST(LintH3, FlagsAllocationInTransitiveCallee) {
  // The chain crosses two files: hot root -> mid -> leaf-that-allocates.
  const std::vector<FileInput> files = {
      {"src/sched/root.cpp",
       "void mid(std::vector<int>& v);\n"
       "// mcs-lint: hot\n"
       "void dispatch(std::vector<int>& v) { mid(v); }\n"},
      {"src/sched/mid.cpp",
       "void leaf(std::vector<int>& v);\n"
       "void mid(std::vector<int>& v) { leaf(v); }\n"
       "void leaf(std::vector<int>& v) { v.push_back(1); }\n"},
  };
  const auto hits = repo_findings(files, Rule::kH3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/sched/mid.cpp");
  EXPECT_EQ(hits[0].line, 3);
  EXPECT_NE(hits[0].message.find("dispatch -> mid -> leaf"),
            std::string::npos);
}

TEST(LintH3, HotFunctionsThemselvesAreH2Territory) {
  const std::vector<FileInput> files = {
      {"src/sched/root.cpp",
       "// mcs-lint: hot\n"
       "void dispatch(std::vector<int>& v) { v.push_back(1); }\n"},
  };
  // The root's own allocation is H2, not H3 — no double report.
  EXPECT_TRUE(repo_findings(files, Rule::kH3).empty());
  mcs::lint::RepoResult r = analyze_repo(files);
  int h2 = 0;
  for (const Finding& f : r.findings) h2 += f.rule == Rule::kH2;
  EXPECT_EQ(h2, 1);
}

TEST(LintH3, AllowOnDefinitionStopsPropagation) {
  // allow(H3) on the intermediate helper covers its whole subtree.
  const std::vector<FileInput> files = {
      {"src/sched/root.cpp",
       "void mid(std::vector<int>& v);\n"
       "// mcs-lint: hot\n"
       "void dispatch(std::vector<int>& v) { mid(v); }\n"},
      {"src/sched/mid.cpp",
       "void leaf(std::vector<int>& v);\n"
       "// mcs-lint: allow(H3) — reviewed amortized growth\n"
       "void mid(std::vector<int>& v) { leaf(v); }\n"
       "void leaf(std::vector<int>& v) { v.push_back(1); }\n"},
  };
  EXPECT_TRUE(repo_findings(files, Rule::kH3).empty());
}

TEST(LintH3, FlagsConstructorWithInitializerList) {
  // A hot caller reaches a constructor whose member-initializer list used
  // to hide it from the call graph (it was indexed under the last
  // initializer's name, `n_`).
  const std::vector<FileInput> files = {
      {"src/sched/grow.hpp",
       "struct Grower {\n"
       "  Grower(int n) : n_(n) { v_.push_back(n_); }\n"
       "  std::size_t size() const { return v_.size(); }\n"
       "  int n_;\n"
       "  std::vector<int> v_;\n"
       "};\n"},
      {"src/sched/root.cpp",
       "// mcs-lint: hot\n"
       "std::size_t dispatch(int n) { return Grower(n).size(); }\n"},
  };
  const auto hits = repo_findings(files, Rule::kH3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/sched/grow.hpp");
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("dispatch -> Grower::Grower"),
            std::string::npos);
}

TEST(LintH3, ReserveSanctionsTransitiveCallee) {
  const std::vector<FileInput> files = {
      {"src/sched/root.cpp",
       "// mcs-lint: hot\n"
       "void dispatch(std::vector<int>& v) { fill(v); }\n"
       "void fill(std::vector<int>& v) {\n"
       "  v.reserve(8);\n"
       "  v.push_back(1);\n"
       "}\n"},
  };
  EXPECT_TRUE(repo_findings(files, Rule::kH3).empty());
}

// ---- D4: determinism roots --------------------------------------------------

TEST(LintD4, FlagsWallClockReachableFromSweepCell) {
  const std::vector<FileInput> files = {
      {"bench/exp_demo.cpp",
       "long stamp() { return time(nullptr); }\n"
       "int main() {\n"
       "  run_sweep(scenarios, opt, [](const SweepPoint& p) {\n"
       "    return stamp();\n"
       "  });\n"
       "}\n"},
  };
  const auto hits = repo_findings(files, Rule::kD4);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "bench/exp_demo.cpp");
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("sweep cell"), std::string::npos);
}

TEST(LintD4, EnclosingMainMayTimeTheSweep) {
  // Wall-clock around the sweep (bench timing) is fine: only the cell
  // lambda is a determinism root, not the enclosing main().
  const std::vector<FileInput> files = {
      {"bench/exp_demo.cpp",
       "int pure(int x) { return x; }\n"
       "int main() {\n"
       "  auto t0 = std::chrono::steady_clock::now();\n"
       "  run_sweep(scenarios, opt, [](const SweepPoint& p) {\n"
       "    return pure(1);\n"
       "  });\n"
       "  auto t1 = std::chrono::steady_clock::now();\n"
       "}\n"},
  };
  EXPECT_TRUE(repo_findings(files, Rule::kD4).empty());
}

TEST(LintD4, FlagsSimulatorCallbacks) {
  const std::vector<FileInput> files = {
      {"tests/sim_demo.cpp",
       "int jitter() { return rand(); }\n"
       "void arm(Simulator& sim) {\n"
       "  sim.schedule_after(10, [&]() { return jitter(); });\n"
       "}\n"},
  };
  const auto hits = repo_findings(files, Rule::kD4);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("simulator callback"), std::string::npos);
}

TEST(LintD4, FlagsRecurringCallbacks) {
  const std::vector<FileInput> files = {
      {"tests/sim_demo.cpp",
       "int jitter() { return rand(); }\n"
       "void arm(Simulator& sim) {\n"
       "  sim.schedule_recurring(10, [&]() { return jitter(); });\n"
       "}\n"},
  };
  const auto hits = repo_findings(files, Rule::kD4);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("simulator callback"), std::string::npos);
}

// ---- R1: src/ code some bench, tool or example reaches ---------------------

TEST(LintR1, FlagsSrcFunctionOnlyATestCalls) {
  const std::vector<FileInput> files = {
      {"src/metrics/stats.cpp",
       "double mean(const Series& s) { return s.sum / s.n; }\n"
       "double skew(const Series& s) { return 0; }\n"},
      {"bench/exp_demo.cpp", "int main() { return mean(load()) > 0; }\n"},
      {"tests/stats_test.cpp",
       "void check() { expect(skew(x) == mean(x)); }\n"},
  };
  const auto hits = repo_findings(files, Rule::kR1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/metrics/stats.cpp");
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("`skew`"), std::string::npos);
}

TEST(LintR1, AllowOnDefinitionKeepsReferenceCode) {
  // allow(R1) keeps the function and what only it reaches.
  const std::vector<FileInput> files = {
      {"src/graph/algorithms.cpp",
       "double lcc_of_vertex(const Graph& g, int v) { return 0; }\n"
       "// mcs-lint: allow(R1) — the sequential reference that\n"
       "// ParallelKernelTest diffs lcc_parallel against.\n"
       "std::vector<double> lcc(const Graph& g) {\n"
       "  return {lcc_of_vertex(g, 0)};\n"
       "}\n"},
      {"bench/exp_demo.cpp", "int main() { return 0; }\n"},
      {"tests/graph_test.cpp", "void check() { lcc(g); }\n"},
  };
  EXPECT_TRUE(repo_findings(files, Rule::kR1).empty());
}

TEST(LintR1, ValueUsesCountAsReferences) {
  // Function pointers and template arguments reach a function without
  // calling it.
  const std::vector<FileInput> files = {
      {"src/sched/allocation.cpp",
       "bool order_fcfs(const Task& a, const Task& b) { return a < b; }\n"
       "bool order_sjf(const Task& a, const Task& b) { return a < b; }\n"
       "bool order_edf(const Task& a, const Task& b) { return a < b; }\n"
       "Policy make_policy(const std::string& name) {\n"
       "  static const Entry kTable[] = {{\"fcfs\", order_fcfs}};\n"
       "  if (name == \"sjf\") return ordered<order_sjf>(name);\n"
       "  return lookup(kTable, name);\n"
       "}\n"},
      {"bench/exp_scheduling.cpp",
       "int main() { return make_policy(\"fcfs\").run(); }\n"},
  };
  const auto hits = repo_findings(files, Rule::kR1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("`order_edf`"), std::string::npos);
}

TEST(LintR1, MakeUniqueReachesTheConstructor) {
  const std::vector<FileInput> files = {
      {"src/autoscale/autoscaler.hpp",
       "class PidScaler {\n"
       " public:\n"
       "  PidScaler(double kp) : kp_(kp) { reset(); }\n"
       "  void reset() { acc_ = 0; }\n"
       "  double kp_, acc_;\n"
       "};\n"},
      {"src/autoscale/autoscaler.cpp",
       "std::unique_ptr<Scaler> make_pid() {\n"
       "  return std::make_unique<PidScaler>(0.5);\n"
       "}\n"},
      {"examples/quickstart.cpp", "int main() { return !make_pid(); }\n"},
  };
  EXPECT_TRUE(repo_findings(files, Rule::kR1).empty());
}

TEST(LintR1, SkippedWithoutARootFile) {
  // `mcs_lint src` alone has no bench, tool or example to reach from.
  const std::vector<FileInput> files = {
      {"src/metrics/stats.cpp", "double unused() { return 0; }\n"},
      {"tests/stats_test.cpp", "void check() {}\n"},
  };
  EXPECT_TRUE(repo_findings(files, Rule::kR1).empty());
}

// ---- L1: layer DAG ----------------------------------------------------------

TEST(LintL1, FlagsUpwardInclude) {
  const std::vector<FileInput> files = {
      {"src/sim/simulator.cpp",
       "#include \"sched/engine.hpp\"\n"},
  };
  const auto hits = repo_findings(files, Rule::kL1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/sim/simulator.cpp");
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("`sim`"), std::string::npos);
}

TEST(LintL1, FlagsSkipLayerInclude) {
  // core including a domain module skips every layer in between.
  const std::vector<FileInput> files = {
      {"src/core/nfr.cpp", "#include \"faas/platform.hpp\"\n"},
  };
  EXPECT_EQ(repo_findings(files, Rule::kL1).size(), 1u);
}

TEST(LintL1, FlagsModuleCycle) {
  // sim -> metrics is a legal same-rank edge; metrics -> sim closing the
  // loop is a cycle and must be reported exactly once.
  const std::vector<FileInput> files = {
      {"src/metrics/stats.cpp", "#include \"sim/simulator.hpp\"\n"},
      {"src/sim/simulator.cpp", "#include \"metrics/stats.hpp\"\n"},
  };
  const auto hits = repo_findings(files, Rule::kL1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("cycle"), std::string::npos);
}

TEST(LintL1, DownwardAndSameRankEdgesAreLegal) {
  const std::vector<FileInput> files = {
      {"src/sched/engine.cpp",
       "#include \"core/nfr.hpp\"\n"
       "#include \"sim/simulator.hpp\"\n"},
      {"src/metrics/elasticity.cpp", "#include \"sim/simulator.hpp\"\n"},
      {"bench/exp_demo.cpp", "#include \"core/nfr.hpp\"\n"},
  };
  EXPECT_TRUE(repo_findings(files, Rule::kL1).empty());
}

// ---- repo analysis infrastructure -------------------------------------------

TEST(LintRepo, JobCountDoesNotChangeOutput) {
  // The analyzer obeys its own determinism rules: identical findings (and
  // order) at any indexing thread count.
  std::vector<FileInput> files;
  for (int i = 0; i < 24; ++i) {
    const std::string tag = "src/sched/f" + std::to_string(i) + ".cpp";
    files.push_back(
        {tag,
         "int seed_" + std::to_string(i) + "() { return rand(); }\n"});
  }
  mcs::lint::RepoOptions j1;
  j1.jobs = 1;
  mcs::lint::RepoOptions j8;
  j8.jobs = 8;
  const auto a = analyze_repo(files, j1).findings;
  const auto b = analyze_repo(files, j8).findings;
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 24u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(mcs::lint::format_finding(a[i]),
              mcs::lint::format_finding(b[i]));
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint);
  }
}

TEST(LintRepo, CallgraphDotIsDeterministic) {
  const std::vector<FileInput> files = {
      {"src/sched/a.cpp", "void helper() {}\nvoid driver() { helper(); }\n"},
  };
  mcs::lint::RepoOptions opt;
  opt.want_callgraph = true;
  const std::string d1 = analyze_repo(files, opt).callgraph_dot;
  const std::string d2 = analyze_repo(files, opt).callgraph_dot;
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1.find("digraph mcs_callgraph"), std::string::npos);
  EXPECT_NE(d1.find("driver"), std::string::npos);
}

TEST(LintRepo, SarifContainsFindings) {
  const std::vector<FileInput> files = {
      {"src/core/nfr.cpp", "int f() { return rand(); }\n"},
  };
  const auto findings = analyze_repo(files).findings;
  ASSERT_EQ(findings.size(), 1u);
  const std::string sarif = mcs::lint::to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"D1\""), std::string::npos);
  EXPECT_NE(sarif.find("src/core/nfr.cpp"), std::string::npos);
}

TEST(LintExplain, EveryRuleHasRationale) {
  using mcs::lint::Rule;
  for (Rule r : {Rule::kD1, Rule::kD2, Rule::kD3, Rule::kD4, Rule::kH1,
                 Rule::kH2, Rule::kH3, Rule::kS1, Rule::kL1, Rule::kR1}) {
    ASSERT_NE(mcs::lint::explain(r), nullptr);
    EXPECT_NE(std::string(mcs::lint::explain(r)).find("Remedy"),
              std::string::npos)
        << mcs::lint::rule_name(r);
  }
  Rule parsed;
  EXPECT_TRUE(mcs::lint::parse_rule("H3", parsed));
  EXPECT_EQ(parsed, Rule::kH3);
  EXPECT_FALSE(mcs::lint::parse_rule("Z9", parsed));
}

// ---- infrastructure ---------------------------------------------------------

TEST(LintInfra, FingerprintsAreLineNumberIndependent) {
  const std::string a = "int f() { return rand(); }\n";
  const std::string b = "\n\n\nint f() { return rand(); }\n";
  const auto fa = findings_for("src/core/nfr.cpp", a, Rule::kD1);
  const auto fb = findings_for("src/core/nfr.cpp", b, Rule::kD1);
  ASSERT_EQ(fa.size(), 1u);
  ASSERT_EQ(fb.size(), 1u);
  EXPECT_NE(fa[0].line, fb[0].line);
  EXPECT_EQ(fa[0].fingerprint, fb[0].fingerprint);
}

TEST(LintInfra, FindingsFormatAndSortStably) {
  const std::string code = R"cpp(
    long stamp() { return time(nullptr); }
    int seed() { return rand(); }
  )cpp";
  const auto all = analyze_file("src/core/nfr.cpp", code);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const Finding& x, const Finding& y) {
                               return x.line < y.line;
                             }));
  const std::string line = mcs::lint::format_finding(all[0]);
  EXPECT_NE(line.find("src/core/nfr.cpp:2: [D1]"), std::string::npos);
}

TEST(LintInfra, StringsAndRawStringsAreSkipped) {
  const std::string code =
      "const char* msg = \"never call rand() here\";\n"
      "const char* raw = R\"(std::function<void()> in a string)\";\n";
  EXPECT_TRUE(analyze_file("src/sim/arrival.cpp", code).empty());
}

}  // namespace
