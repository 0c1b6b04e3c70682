#include "obs/export.hpp"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/parse.hpp"
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

// Entries are appended as their lines arrive, so the header counts bound
// the loops but never size a table: a short dump that claims 10^9 names
// fails on its first missing line instead of allocating for them.
TraceDump read_dump(std::istream& in) {
  TraceDump dump;
  std::string line;
  std::size_t line_no = 0;
  std::vector<std::string_view> f;  // the fields of `line`
  // Reads the next line and splits it at each space, write_dump's
  // separator: a doubled space makes an empty field, which no parse takes.
  const auto next_line = [&](const char* missing) {
    if (!std::getline(in, line)) malformed(line_no, missing);
    ++line_no;
    f.clear();
    for (std::string_view rest = line;;) {
      const std::size_t space = rest.find(' ');
      f.push_back(rest.substr(0, space));
      if (space == std::string_view::npos) break;
      rest.remove_prefix(space + 1);
    }
  };
  // Header (skipping comments and blank lines).
  do {
    next_line("missing header");
  } while (line.empty() || line[0] == '#');
  if (line != "mcs-trace v1") malformed(line_no, "bad header '" + line + "'");
  next_line("missing names header");
  std::size_t name_count = 0;
  if (f.size() != 2 || f[0] != "names" ||
      !core::parse_whole(f[1], name_count)) {
    malformed(line_no, "expected 'names <N>'");
  }
  for (std::size_t i = 0; i < name_count; ++i) {
    next_line("truncated name table");
    std::size_t id = 0;  // must be the entry's index
    if (f.size() != 2 || f[1].empty() || !core::parse_whole(f[0], id) ||
        id != i) {
      malformed(line_no, "bad name entry '" + line + "'");
    }
    dump.names.emplace_back(f[1]);
  }
  next_line("missing events header");
  std::size_t event_count = 0;
  if (f.size() != 6 || f[0] != "events" || f[2] != "dropped" ||
      f[4] != "total" || !core::parse_whole(f[1], event_count) ||
      !core::parse_whole(f[3], dump.dropped) ||
      !core::parse_whole(f[5], dump.total)) {
    malformed(line_no, "expected 'events <M> dropped <D> total <T>'");
  }
  for (std::size_t i = 0; i < event_count; ++i) {
    next_line("truncated event list");
    TraceEvent e;
    std::uint8_t phase = 0;
    if (f.size() != 8 || !core::parse_whole(f[0], e.at) ||
        !core::parse_whole(f[1], e.seq) || !core::parse_whole(f[2], phase) ||
        !core::parse_whole(f[3], e.name) || !core::parse_whole(f[4], e.track) ||
        !core::parse_whole(f[5], e.dur) || !core::parse_whole(f[6], e.a) ||
        !core::parse_whole(f[7], e.b) || phase > 2 ||
        e.name >= dump.names.size()) {
      malformed(line_no, "bad event '" + line + "'");
    }
    e.phase = static_cast<Phase>(phase);
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
