// Trace export: ring-dump round-trip, Chrome trace_event JSON, and a text
// timeline.
//
// A TraceDump is the serializable snapshot of a Tracer: name table +
// events sorted by (at, seq) + drop accounting. The flight recorder
// (check/fuzz.cpp, mcs_check) writes dumps next to shrunken repros in the
// versioned text format below; `tools/mcs_trace` converts dumps to Chrome
// trace_event JSON (load in chrome://tracing or Perfetto) or a terminal
// timeline. The exp_* harness writes Chrome JSON directly via --trace.
//
// Dump format (line-oriented, '#' comments allowed before the header):
//   mcs-trace v1
//   names <N>
//   <id> <name>            ... N lines
//   events <M> dropped <D> total <T>
//   <at> <seq> <phase> <name-id> <track> <dur> <a> <b>   ... M lines
// Fields are separated by one space, and the name ids run 0..N-1 in order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace mcs::obs {

struct TraceDump {
  std::vector<std::string> names;
  std::vector<TraceEvent> events;  ///< sorted by (at, seq)
  std::uint64_t dropped = 0;
  std::uint64_t total = 0;
};

/// Snapshots a tracer into the serializable form.
[[nodiscard]] TraceDump snapshot(const Tracer& tracer);

/// Writes / parses the versioned dump format above. read_dump throws
/// std::invalid_argument on malformed input.
void write_dump(std::ostream& out, const TraceDump& dump);
[[nodiscard]] TraceDump read_dump(std::istream& in);
[[nodiscard]] std::string dump_to_string(const Tracer& tracer);

/// Writes `s` as a quoted JSON string: quote, backslash, newline and tab
/// get their short escapes, other control characters \u00XX. The one
/// string writer behind both the Chrome trace and the mcs-report-v1 JSON.
void write_json_string(std::ostream& out, std::string_view s);

/// Chrome trace_event JSON (the {"traceEvents": [...]} object form).
/// Complete spans become "X" events (ts/dur in µs), instants "i", counter
/// samples "C"; the track is the tid, so machines get their own lanes.
void write_chrome_trace(std::ostream& out, const TraceDump& dump);

/// Plain-text timeline, one event per line, sim-time ordered.
void write_timeline(std::ostream& out, const TraceDump& dump);

/// Same digest Tracer::digest() computes, but from a parsed dump — so a
/// dump file can be re-verified after the fact.
[[nodiscard]] std::uint64_t trace_digest(const TraceDump& dump);

}  // namespace mcs::obs
