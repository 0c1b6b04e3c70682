// Tests for the deterministic observability layer (src/obs): tracer ring
// semantics, dump round-trips, digest stability, instrument registry
// merge/digest behavior, and the engine/injector emission integration.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "failures/failure_model.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sched/engine.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mcs;

// ---- Tracer ring ------------------------------------------------------------

TEST(Tracer, InternDeduplicatesAndResolves) {
  obs::Tracer t(16);
  const auto a = t.intern("task");
  const auto b = t.intern("job");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("task"), a);
  EXPECT_EQ(t.name(a), "task");
  EXPECT_EQ(t.names().size(), 2u);
}

TEST(Tracer, RecordsAndSnapshotsInTimeOrder) {
  obs::Tracer t(16);
  const auto n = t.intern("e");
  // Recorded out of time order; snapshot must sort by (at, seq).
  t.instant(300, n);
  t.instant(100, n);
  t.complete(200, 50, n, /*track=*/7, /*a=*/1, /*b=*/2);
  std::vector<obs::TraceEvent> out;
  t.snapshot(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at, 100);
  EXPECT_EQ(out[1].at, 200);
  EXPECT_EQ(out[1].dur, 50);
  EXPECT_EQ(out[1].track, 7u);
  EXPECT_EQ(out[2].at, 300);
  EXPECT_EQ(t.total(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, SameInstantEventsKeepRecordOrderViaSeq) {
  obs::Tracer t(8);
  const auto n = t.intern("e");
  t.instant(500, n, 0, /*a=*/1);
  t.instant(500, n, 0, /*a=*/2);
  t.instant(500, n, 0, /*a=*/3);
  std::vector<obs::TraceEvent> out;
  t.snapshot(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].a, 1);
  EXPECT_EQ(out[1].a, 2);
  EXPECT_EQ(out[2].a, 3);
  EXPECT_LT(out[0].seq, out[1].seq);
  EXPECT_LT(out[1].seq, out[2].seq);
}

TEST(Tracer, RingOverwritesOldestFlightRecorderStyle) {
  obs::Tracer t(4);
  const auto n = t.intern("e");
  for (int i = 0; i < 10; ++i) {
    t.instant(i * 10, n, 0, /*a=*/i);
  }
  EXPECT_EQ(t.total(), 10u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  std::vector<obs::TraceEvent> out;
  t.snapshot(out);
  ASSERT_EQ(out.size(), 4u);
  // The last 4 records survive.
  EXPECT_EQ(out[0].a, 6);
  EXPECT_EQ(out[3].a, 9);
}

TEST(Tracer, ClearKeepsNamesAndCapacity) {
  obs::Tracer t(8);
  const auto n = t.intern("e");
  t.instant(1, n);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total(), 0u);
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.name(n), "e");
}

TEST(Tracer, ZeroCapacityThrows) {
  EXPECT_THROW(obs::Tracer t(0), std::invalid_argument);
}

TEST(Tracer, IdenticalRecordingsDigestIdentically) {
  auto record = [](obs::Tracer& t) {
    const auto n1 = t.intern("x");
    const auto n2 = t.intern("y");
    t.instant(10, n1, 1, 5);
    t.complete(20, 7, n2, 2, 6, 7);
    t.counter(30, n1, 42);
  };
  obs::Tracer a(32), b(32);
  record(a);
  record(b);
  EXPECT_EQ(a.digest(), b.digest());
  // A payload difference must change the digest.
  obs::Tracer c(32);
  record(c);
  c.instant(40, c.intern("x"));
  EXPECT_NE(a.digest(), c.digest());
}

// ---- dump round-trip & exports ----------------------------------------------

TEST(TraceExport, DumpRoundTripPreservesEventsAndDigest) {
  obs::Tracer t(16);
  const auto n1 = t.intern("task");
  const auto n2 = t.intern("machine.fail");
  t.complete(100, 50, n1, 3, 7, 1);
  t.instant(120, n2, 3);
  t.counter(130, n1, 42);

  const obs::TraceDump dump = obs::snapshot(t);
  std::ostringstream out;
  obs::write_dump(out, dump);
  std::istringstream in(out.str());
  const obs::TraceDump back = obs::read_dump(in);

  EXPECT_EQ(back.names, dump.names);
  EXPECT_EQ(back.events, dump.events);
  EXPECT_EQ(back.dropped, dump.dropped);
  EXPECT_EQ(back.total, dump.total);
  EXPECT_EQ(obs::trace_digest(back), t.digest());
}

TEST(TraceExport, ReadDumpSkipsLeadingComments) {
  obs::Tracer t(4);
  t.instant(1, t.intern("e"));
  std::ostringstream out;
  out << "# flight recorder for seed 7\n\n";
  obs::write_dump(out, obs::snapshot(t));
  std::istringstream in(out.str());
  EXPECT_EQ(obs::read_dump(in).events.size(), 1u);
}

TEST(TraceExport, ReadDumpRejectsMalformedInput) {
  const std::string names = "mcs-trace v1\nnames 1\n0 e\n";
  const struct {
    std::string text;
    std::size_t line;  // the line the error names
  } cases[] = {
      {"not-a-trace v9\n", 1},
      // Declares 2 events, provides 1.
      {names + "events 2 dropped 0 total 2\n1 0 0 0 0 0 0 0\n", 5},
      // Counts no dump could hold: the reader runs out of lines, it does
      // not size its tables from the header.
      {"mcs-trace v1\nnames 18446744073709551615\n0 e\n", 3},
      {names + "events 18446744073709551615 dropped 0 total 0\n"
               "1 0 0 0 0 0 0 0\n",
       5},
      // A name entry must carry its own index.
      {"mcs-trace v1\nnames 2\n1 b\n0 a\n", 3},
      // A negative unsigned seq, and an event with one field too many.
      {names + "events 1 dropped 0 total 1\n1 -1 0 0 0 0 0 0\n", 5},
      {names + "events 1 dropped 0 total 1\n1 0 0 0 0 0 0 0 9\n", 5},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    try {
      (void)obs::read_dump(in);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "trace dump line " + std::to_string(c.line) + ":", 0),
                0u)
          << e.what();
    }
  }
}

TEST(TraceExport, ChromeTraceIsWellFormedJsonShape) {
  obs::Tracer t(8);
  const auto n = t.intern("task");
  t.complete(100, 50, n, 3);
  t.instant(120, n);
  t.counter(130, n, 9);
  // Names go through the report's JSON string writer: quotes, backslashes
  // and control characters are escaped.
  t.instant(140, t.intern("a\"b\\c\nd\te\x01"));
  std::ostringstream out;
  obs::write_chrome_trace(out, obs::snapshot(t));
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"a\\\"b\\\\c\\nd\\te\\u0001\""),
            std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExport, TimelineListsEventsInOrder) {
  obs::Tracer t(8);
  const auto n = t.intern("task");
  t.instant(200, n);
  t.complete(100, 5, n);
  std::ostringstream out;
  obs::write_timeline(out, obs::snapshot(t));
  const std::string text = out.str();
  const auto span = text.find("span");
  const auto instant = text.find("instant");
  ASSERT_NE(span, std::string::npos);
  ASSERT_NE(instant, std::string::npos);
  EXPECT_LT(span, instant);  // 100us span line precedes 200us instant line
}

// ---- Registry ---------------------------------------------------------------

TEST(Registry, FindOrCreateReturnsStableReferences) {
  obs::Registry r;
  obs::Counter& c = r.counter("jobs");
  c.add(2);
  // Creating more instruments must not invalidate earlier references
  // (deque storage contract).
  for (int i = 0; i < 100; ++i) {
    r.counter("c" + std::to_string(i));
  }
  c.add(3);
  EXPECT_EQ(r.counter("jobs").value(), 5u);
  EXPECT_EQ(r.size(), 101u);
}

TEST(Registry, KindMismatchThrows) {
  obs::Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::logic_error);
  EXPECT_THROW(r.histogram("x"), std::logic_error);
  EXPECT_NE(r.find_counter("x"), nullptr);
  EXPECT_EQ(r.find_counter("absent"), nullptr);
}

TEST(Registry, MergeCreatesAndCombines) {
  obs::Registry a, b;
  a.counter("n").add(1);
  a.histogram("h").record(2.0);
  b.counter("n").add(10);
  b.gauge("g").set(3.0);
  b.histogram("h").record(8.0);
  a.merge(b);
  EXPECT_EQ(a.counter("n").value(), 11u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 3.0);
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("h").sum(), 10.0);
}

TEST(Registry, GaugeMergeTakesLastValueAndMaxOfMaxes) {
  obs::Gauge a, b;
  a.set(5.0);
  a.set(2.0);  // max 5, last 2
  b.set(4.0);  // max 4, last 4
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.value(), 4.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  obs::Gauge unset;
  a.merge(unset);  // merging a never-set gauge changes nothing
  EXPECT_DOUBLE_EQ(a.value(), 4.0);
}

TEST(Registry, DigestIsOrderSensitiveAndValueSensitive) {
  auto fill = [](obs::Registry& r, std::uint64_t n) {
    r.counter("a").add(n);
    r.gauge("g").set(1.0);
    r.histogram("h").record(3.0);
  };
  obs::Registry r1, r2, r3;
  fill(r1, 4);
  fill(r2, 4);
  fill(r3, 5);
  metrics::Digest d1, d2, d3;
  r1.fold_digest(d1);
  r2.fold_digest(d2);
  r3.fold_digest(d3);
  EXPECT_EQ(d1.value(), d2.value());
  EXPECT_NE(d1.value(), d3.value());
}

TEST(Registry, PrintListsInRegistrationOrder) {
  obs::Registry r;
  r.counter("zeta").add(1);
  r.counter("alpha").add(2);
  std::ostringstream out;
  r.print(out);
  const std::string text = out.str();
  EXPECT_LT(text.find("zeta"), text.find("alpha"));
}

// ---- engine / injector integration ------------------------------------------

workload::Job make_job(int id, sim::SimTime submit) {
  workload::Job job;
  job.id = id;
  job.submit_time = submit;
  workload::Task task;
  task.demand = infra::ResourceVector{1.0, 1.0, 0.0};
  task.work_seconds = 10.0;
  job.tasks.push_back(task);
  return job;
}

TEST(EngineObs, LifecycleEventsLandInTracerAndRegistry) {
  infra::Datacenter dc("obs-dc", "eu");
  dc.add_uniform_racks(1, 2, infra::ResourceVector{4, 16, 0}, 1.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  obs::Tracer tracer(256);
  engine.set_tracer(&tracer);
  engine.submit_all({make_job(0, 0), make_job(1, sim::kSecond)});
  sim.run_until();

  // Registry instruments replaced the old ad-hoc tallies.
  EXPECT_EQ(engine.jobs_submitted(), 2u);
  const auto* completed = engine.registry().find_counter("jobs.completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value(), 2u);
  const auto* runtime =
      engine.registry().find_histogram("task.runtime_seconds");
  ASSERT_NE(runtime, nullptr);
  EXPECT_EQ(runtime->count(), 2u);

  // The tracer saw job arrivals, task spans, and job spans.
  const obs::TraceDump dump = obs::snapshot(tracer);
  std::size_t spans = 0, instants = 0;
  for (const auto& e : dump.events) {
    if (e.phase == obs::Phase::kComplete) ++spans;
    if (e.phase == obs::Phase::kInstant) ++instants;
  }
  EXPECT_EQ(spans, 4u);     // 2 task spans + 2 job spans
  EXPECT_GE(instants, 4u);  // 2 arrivals + 2 task starts
}

TEST(EngineObs, TracerlessRunsBehaveIdentically) {
  auto run = [](bool traced) {
    infra::Datacenter dc("obs-dc", "eu");
    dc.add_uniform_racks(1, 2, infra::ResourceVector{4, 16, 0}, 1.0);
    sim::Simulator sim;
    sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
    obs::Tracer tracer(64);
    if (traced) engine.set_tracer(&tracer);
    engine.submit_all({make_job(0, 0)});
    sim.run_until();
    return sim.now();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FailureObs, InjectorCountsAndEmits) {
  infra::Datacenter dc("obs-dc", "eu");
  dc.add_uniform_racks(1, 4, infra::ResourceVector{4, 16, 0}, 1.0);
  sim::Simulator sim;
  obs::Tracer tracer(64);
  obs::Registry registry;
  std::vector<failures::FailureEvent> events(1);
  events[0].at = 5 * sim::kSecond;
  events[0].downtime = sim::kSecond;
  events[0].machines = {0, 1};
  failures::FailureInjector injector(sim, dc, events);
  injector.attach_observability(&tracer, &registry);
  injector.arm({}, {});
  sim.run_until();

  EXPECT_EQ(injector.injected_failures(), 2u);
  EXPECT_EQ(registry.counter("failures.injected").value(), 2u);
  const obs::TraceDump dump = obs::snapshot(tracer);
  std::size_t fails = 0, repairs = 0;
  for (const auto& e : dump.events) {
    const std::string& name = dump.names[e.name];
    if (name == "machine.fail") ++fails;
    if (name == "machine.repair") ++repairs;
  }
  EXPECT_EQ(fails, 2u);
  EXPECT_EQ(repairs, 2u);
}

// ---- SLO engine (src/obs/slo) -----------------------------------------------

TEST(Slo, ParseSpecListAppliesDefaultsAndRoundTrips) {
  const auto specs = obs::parse_slo_specs("bot:60:0.95;workflow:600:0.9:120:3");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].klass, "bot");
  EXPECT_DOUBLE_EQ(specs[0].threshold_seconds, 60.0);
  EXPECT_DOUBLE_EQ(specs[0].target, 0.95);
  EXPECT_EQ(specs[0].window, 5 * sim::kMinute);  // default
  EXPECT_DOUBLE_EQ(specs[0].burn_threshold, 2.0);  // default
  EXPECT_EQ(specs[1].window, 2 * sim::kMinute);
  EXPECT_DOUBLE_EQ(specs[1].burn_threshold, 3.0);
  // to_string renders the parse format: reparsing reproduces the spec.
  const auto back = obs::parse_slo_specs(obs::to_string(specs[1]));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].klass, specs[1].klass);
  EXPECT_DOUBLE_EQ(back[0].threshold_seconds, specs[1].threshold_seconds);
  EXPECT_DOUBLE_EQ(back[0].target, specs[1].target);
  EXPECT_EQ(back[0].window, specs[1].window);
  EXPECT_DOUBLE_EQ(back[0].burn_threshold, specs[1].burn_threshold);
  EXPECT_TRUE(obs::parse_slo_specs("").empty());
}

TEST(Slo, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"bot", "bot:60", "bot:60:0.9:300:2:extra", ":60:0.9", "bot:x:0.9",
        "bot:0:0.9", "bot:-5:0.9", "bot:60:0", "bot:60:1.5", "bot:60:0.9:0",
        "bot:60:0.9:300:0", "all:1:0.5;all:2:0.5",
        // Numbers are finite plain decimals: no blank, no hex float, no inf.
        "all: 60:0.9", "all:0x3C:0.9", "all:inf:0.9", "all:60:0.9:inf",
        "all:60:0.9:300:infinity"}) {
    EXPECT_THROW((void)obs::parse_slo_specs(bad), std::invalid_argument)
        << "accepted: " << bad;
  }
}

TEST(Slo, TrackerAccountsViolationMinutesExactly) {
  obs::SloSpec spec;
  spec.klass = "all";
  spec.threshold_seconds = 1.0;
  spec.target = 0.5;
  spec.window = sim::kMinute;
  obs::Registry registry;
  obs::SloTracker slo({spec}, registry, nullptr);

  slo.observe(0, 1 * sim::kSecond, 0.5);  // good: 1/1
  EXPECT_FALSE(slo.violating(0));
  slo.observe(0, 2 * sim::kSecond, 2.0);  // 1/2 == target, still met
  EXPECT_FALSE(slo.violating(0));
  slo.observe(0, 3 * sim::kSecond, 2.0);  // 1/3 < target: violation begins
  EXPECT_TRUE(slo.violating(0));
  slo.observe(0, 10 * sim::kSecond, 0.5);  // 2/4: recovered, 7 s violated
  EXPECT_FALSE(slo.violating(0));
  EXPECT_EQ(registry.counter("slo.all.violation_us").value(),
            static_cast<std::uint64_t>(7 * sim::kSecond));

  slo.observe(0, 20 * sim::kSecond, 9.0);  // 2/5 < target: violating again
  EXPECT_TRUE(slo.violating(0));
  slo.finalize(30 * sim::kSecond);  // closes the open interval: +10 s
  EXPECT_EQ(registry.counter("slo.all.violation_us").value(),
            static_cast<std::uint64_t>(17 * sim::kSecond));
  EXPECT_EQ(registry.counter("slo.all.samples").value(), 5u);
  EXPECT_EQ(registry.counter("slo.all.good").value(), 2u);
}

TEST(Slo, BurnCrossingsCountUpwardEdgesOnly) {
  obs::SloSpec spec;
  spec.klass = "all";
  spec.threshold_seconds = 1.0;
  spec.target = 0.5;
  spec.window = sim::kMinute;
  spec.burn_threshold = 1.0;
  obs::Registry registry;
  obs::Tracer tracer(64);
  obs::SloTracker slo({spec}, registry, &tracer);

  slo.observe(0, 1 * sim::kSecond, 9.0);  // bad 1 > budget 0.5: crossing
  slo.observe(0, 2 * sim::kSecond, 9.0);  // still burning, no new edge
  slo.observe(0, 3 * sim::kSecond, 0.1);
  slo.observe(0, 4 * sim::kSecond, 0.1);  // bad 2 == budget 2: recovered
  slo.observe(0, 5 * sim::kSecond, 9.0);  // bad 3 > budget 2.5: crossing
  EXPECT_EQ(registry.counter("slo.all.burn_crossings").value(), 2u);

  const obs::TraceDump dump = obs::snapshot(tracer);
  std::size_t burns = 0;
  for (const auto& e : dump.events) {
    if (dump.names[e.name] == "slo.all.burn") ++burns;
  }
  EXPECT_EQ(burns, 2u);
}

TEST(Slo, SlidingWindowEvictsExpiredSamples) {
  obs::SloSpec spec;
  spec.klass = "all";
  spec.threshold_seconds = 1.0;
  spec.target = 0.9;
  spec.window = 64 * sim::kSecond;  // slot width exactly 1 s
  obs::Registry registry;
  obs::SloTracker slo({spec}, registry, nullptr);

  slo.observe(0, 1 * sim::kSecond, 9.0);  // bad: violating
  EXPECT_TRUE(slo.violating(0));
  // Two minutes later the bad sample has rotated out of the window: the
  // fresh good sample is judged alone and the violation interval closes.
  slo.observe(0, 120 * sim::kSecond, 0.1);
  EXPECT_FALSE(slo.violating(0));
  EXPECT_EQ(registry.counter("slo.all.violation_us").value(),
            static_cast<std::uint64_t>(119 * sim::kSecond));
}

// ---- Report rendering (src/obs/report) --------------------------------------

TEST(Report, JsonIsByteStableAcrossWrites) {
  obs::Registry registry;
  registry.counter("jobs.completed").add(7);
  registry.gauge("pool.size").set(3.5);
  auto& h = registry.histogram("job.response_seconds");
  for (double v : {0.5, 1.0, 2.0, 64.0}) h.record(v);
  const auto specs = obs::parse_slo_specs("all:60:0.9");
  registry.counter("slo.all.samples").add(10);
  registry.counter("slo.all.good").add(9);

  obs::ReportInputs in;
  in.registry = &registry;
  in.slo = &specs;
  in.cells = 4;
  std::ostringstream a, b;
  obs::write_report_json(a, in);
  obs::write_report_json(b, in);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.str().rfind("{\"schema\":\"mcs-report-v1\",\"cells\":4,", 0), 0u);
  EXPECT_NE(a.str().find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(a.str().find("\"p999\":{\"value\":"), std::string::npos);
  EXPECT_NE(a.str().find("\"attainment\":0.9"), std::string::npos);
  EXPECT_NE(a.str().find("\"met\":true"), std::string::npos);
}

TEST(Report, QuantileEstimateBoundsBracketTheTruth) {
  metrics::Histogram h;
  h.record(3.0);
  h.record(5.0);
  const obs::QuantileEstimate top = obs::histogram_quantile(h, 1.0);
  EXPECT_GE(top.lo, 3.0);   // clamped to min
  EXPECT_LE(top.hi, 5.0);   // clamped to max
  EXPECT_GE(top.value, top.lo);
  EXPECT_LE(top.value, top.hi);
  const obs::QuantileEstimate empty =
      obs::histogram_quantile(metrics::Histogram{}, 0.5);
  EXPECT_DOUBLE_EQ(empty.value, 0.0);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 0.0);
}

TEST(Report, FoldCostsSumsCompleteSpansPerName) {
  obs::Tracer tracer(64);
  const auto task = tracer.intern("task");
  const auto blip = tracer.intern("blip");
  (void)tracer.intern("unused");  // zero events: omitted from the fold
  tracer.complete(10, 5, task, 0);
  tracer.complete(20, 7, task, 1);
  tracer.instant(30, blip, 0);
  const auto rows = obs::fold_costs(obs::snapshot(tracer));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "task");
  EXPECT_EQ(rows[0].events, 2u);
  EXPECT_EQ(rows[0].span_us, 12u);
  EXPECT_EQ(rows[1].name, "blip");
  EXPECT_EQ(rows[1].events, 1u);
  EXPECT_EQ(rows[1].span_us, 0u);  // instants carry no duration
}

TEST(Report, SloRowsWithoutCountersReportZeroSamplesAsMet) {
  obs::Registry registry;  // SLO engine never attached
  const auto specs = obs::parse_slo_specs("bot:60:0.95");
  const auto rows = obs::slo_rows(specs, registry);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].samples, 0u);
  EXPECT_DOUBLE_EQ(rows[0].attainment, 1.0);
  EXPECT_TRUE(rows[0].met);
}

}  // namespace
