#include "obs/export.hpp"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "metrics/stats.hpp"

namespace mcs::obs {

TraceDump snapshot(const Tracer& tracer) {
  TraceDump dump;
  dump.names = tracer.names();
  tracer.snapshot(dump.events);
  dump.dropped = tracer.dropped();
  dump.total = tracer.total();
  return dump;
}

void write_dump(std::ostream& out, const TraceDump& dump) {
  out << "mcs-trace v1\n";
  out << "names " << dump.names.size() << "\n";
  for (std::size_t i = 0; i < dump.names.size(); ++i) {
    out << i << " " << dump.names[i] << "\n";
  }
  out << "events " << dump.events.size() << " dropped " << dump.dropped
      << " total " << dump.total << "\n";
  for (const TraceEvent& e : dump.events) {
    out << e.at << " " << e.seq << " " << static_cast<int>(e.phase) << " "
        << e.name << " " << e.track << " " << e.dur << " " << e.a << " "
        << e.b << "\n";
  }
}

std::string dump_to_string(const Tracer& tracer) {
  std::ostringstream out;
  write_dump(out, snapshot(tracer));
  return out.str();
}

namespace {
[[noreturn]] void malformed(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("trace dump line " + std::to_string(line_no) +
                              ": " + what);
}
}  // namespace

TraceDump read_dump(std::istream& in) {
  TraceDump dump;
  std::string line;
  std::size_t line_no = 0;
  // Header (skipping comments and blank lines).
  for (;;) {
    if (!std::getline(in, line)) malformed(line_no, "missing header");
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (line != "mcs-trace v1") malformed(line_no, "bad header '" + line + "'");
    break;
  }
  std::size_t name_count = 0;
  {
    if (!std::getline(in, line)) malformed(line_no, "missing names header");
    ++line_no;
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> name_count) || tag != "names") {
      malformed(line_no, "expected 'names <N>'");
    }
  }
  dump.names.resize(name_count);
  for (std::size_t i = 0; i < name_count; ++i) {
    if (!std::getline(in, line)) malformed(line_no, "truncated name table");
    ++line_no;
    std::istringstream ls(line);
    std::size_t id = 0;
    std::string name;
    if (!(ls >> id >> name) || id >= name_count) {
      malformed(line_no, "bad name entry '" + line + "'");
    }
    dump.names[id] = name;
  }
  std::size_t event_count = 0;
  {
    if (!std::getline(in, line)) malformed(line_no, "missing events header");
    ++line_no;
    std::istringstream ls(line);
    std::string tag, dtag, ttag;
    if (!(ls >> tag >> event_count >> dtag >> dump.dropped >> ttag >>
          dump.total) ||
        tag != "events" || dtag != "dropped" || ttag != "total") {
      malformed(line_no, "expected 'events <M> dropped <D> total <T>'");
    }
  }
  dump.events.reserve(event_count);
  for (std::size_t i = 0; i < event_count; ++i) {
    if (!std::getline(in, line)) malformed(line_no, "truncated event list");
    ++line_no;
    std::istringstream ls(line);
    TraceEvent e;
    int phase = 0;
    unsigned name = 0;
    if (!(ls >> e.at >> e.seq >> phase >> name >> e.track >> e.dur >> e.a >>
          e.b) ||
        phase < 0 || phase > 2 || name >= dump.names.size()) {
      malformed(line_no, "bad event '" + line + "'");
    }
    e.phase = static_cast<Phase>(phase);
    e.name = static_cast<NameId>(name);
    dump.events.push_back(e);
  }
  return dump;
}

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_chrome_trace(std::ostream& out, const TraceDump& dump) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : dump.events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":";
    write_json_string(out, dump.names[e.name]);
    out << ",\"pid\":0,\"tid\":" << e.track << ",\"ts\":" << e.at;
    switch (e.phase) {
      case Phase::kComplete:
        out << ",\"ph\":\"X\",\"dur\":" << e.dur;
        break;
      case Phase::kCounter:
        out << ",\"ph\":\"C\"";
        break;
      case Phase::kInstant:
        out << ",\"ph\":\"i\",\"s\":\"t\"";
        break;
    }
    if (e.phase == Phase::kCounter) {
      out << ",\"args\":{\"value\":" << e.a << "}";
    } else {
      out << ",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b
          << ",\"seq\":" << e.seq << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

void write_timeline(std::ostream& out, const TraceDump& dump) {
  for (const TraceEvent& e : dump.events) {
    out << e.at << "us ";
    switch (e.phase) {
      case Phase::kComplete:
        out << "[span " << e.dur << "us] ";
        break;
      case Phase::kCounter:
        out << "[counter] ";
        break;
      case Phase::kInstant:
        out << "[instant] ";
        break;
    }
    out << dump.names[e.name] << " track=" << e.track;
    if (e.phase == Phase::kCounter) {
      out << " value=" << e.a;
    } else {
      out << " a=" << e.a << " b=" << e.b;
    }
    out << " seq=" << e.seq << "\n";
  }
  if (dump.dropped > 0) {
    out << "(" << dump.dropped << " older events dropped; ring total "
        << dump.total << ")\n";
  }
}

std::uint64_t trace_digest(const TraceDump& dump) {
  metrics::Digest d;
  for (const std::string& n : dump.names) d.add_bytes(n.data(), n.size());
  d.add_u64(dump.total);
  for (const TraceEvent& e : dump.events) {
    d.add_u64(static_cast<std::uint64_t>(e.at));
    d.add_u64(e.seq);
    d.add_u64(static_cast<std::uint64_t>(e.dur));
    d.add_u64(static_cast<std::uint64_t>(e.a));
    d.add_u64(static_cast<std::uint64_t>(e.b));
    d.add_u64((static_cast<std::uint64_t>(e.track) << 32) |
              (static_cast<std::uint64_t>(e.name) << 8) |
              static_cast<std::uint64_t>(e.phase));
  }
  return d.value();
}

}  // namespace mcs::obs
