// mcs_report — render and diff mcs-report-v1 JSON documents.
//
// The exp_* harness and mcs_check write reports with `--report FILE`
// (src/obs/report.hpp). This tool is the consumer side:
//
//   mcs_report <report.json>           human tables to stdout
//   mcs_report --diff <a.json> <b.json>
//                                      structural diff: prints every
//                                      leaf path whose value moved
//                                      (old -> new), keys added/removed
//
// Exit codes: 0 ok / identical, 1 reports differ (--diff), 2 bad usage
// or unreadable/malformed input.
//
// The parser below covers exactly the JSON subset write_report_json
// emits (objects, arrays, strings with \-escapes, numbers, true/false/
// null) and keeps object keys in document order, so the rendered tables
// and diff paths follow the writer's stable ordering. It recurses once per
// nesting level, so nesting deeper than kMaxDepth is malformed input, not
// a stack overflow (mcs-report-v1 documents nest 4 levels).
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal order-preserving JSON value + recursive-descent parser.

struct JsonValue;
using JsonMember = std::pair<std::string, JsonValue>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;      // string payload, and the raw numeric token
  std::vector<JsonValue> items;
  std::vector<JsonMember> members;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const JsonMember& m : members) {
      if (m.first == key) return &m.second;
    }
    return nullptr;
  }
};

/// Deepest array/object nesting the parser accepts.
constexpr std::size_t kMaxDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json offset " + std::to_string(pos_) + ": " +
                             what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++depth_;
      JsonValue v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.text = string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return number();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only \u-escapes control characters (< 0x20);
          // render anything in latin-1 range directly, else a '?'.
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.' ||
          c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.text = std::string(text_.substr(start, pos_ - start));
    try {
      v.number = std::stod(v.text);
    } catch (const std::exception&) {
      fail("bad number: " + v.text);
    }
    return v;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      // mcs-lint: allow(H3) — cold CLI parser; the hot-path edge is a
      // name collision on `value` with the instrument accessors.
      v.items.push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      // mcs-lint: allow(H3) — cold CLI parser (see array() above).
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects open at pos_
};

// ---------------------------------------------------------------------------
// Rendering: mcs-report-v1 -> the human-readable report tables (the only
// text renderer; src/obs writes the JSON alone).

std::string scalar_to_string(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber: return v.text;
    case JsonValue::Kind::kString: return v.text;
    case JsonValue::Kind::kArray: return "[...]";
    case JsonValue::Kind::kObject: return "{...}";
  }
  return "?";
}

std::string field(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? "-" : scalar_to_string(*v);
}

void render_quantile(std::ostream& out, const char* label,
                     const JsonValue& inst, const std::string& key) {
  const JsonValue* q = inst.find(key);
  if (q == nullptr || q->kind != JsonValue::Kind::kObject) return;
  out << "    " << label << " " << field(*q, "value") << " ["
      << field(*q, "lo") << ", " << field(*q, "hi") << "]\n";
}

int render(std::ostream& out, const JsonValue& doc) {
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->text != "mcs-report-v1") {
    std::cerr << "mcs_report: not an mcs-report-v1 document\n";
    return 2;
  }
  out << "mcs report (mcs-report-v1), cells " << field(doc, "cells") << "\n";

  if (const JsonValue* insts = doc.find("instruments")) {
    bool header = false;
    for (const JsonValue& inst : insts->items) {
      if (field(inst, "kind") != "histogram") continue;
      if (!header) {
        out << "\nhistograms (quantiles as estimate [lo, hi] bucket bounds)\n";
        header = true;
      }
      out << "  " << field(inst, "name") << ": count " << field(inst, "count")
          << ", mean " << field(inst, "mean") << ", min " << field(inst, "min")
          << ", max " << field(inst, "max") << "\n";
      render_quantile(out, "p50", inst, "p50");
      render_quantile(out, "p95", inst, "p95");
      render_quantile(out, "p99", inst, "p99");
      render_quantile(out, "p99.9", inst, "p999");
    }
    header = false;
    for (const JsonValue& inst : insts->items) {
      const std::string kind = field(inst, "kind");
      if (kind == "histogram") continue;
      if (!header) {
        out << "\ncounters & gauges\n";
        header = true;
      }
      out << "  " << field(inst, "name") << " = " << field(inst, "value");
      if (kind == "gauge") out << " (max " << field(inst, "max") << ")";
      out << "\n";
    }
  }

  if (const JsonValue* slo = doc.find("slo")) {
    out << "\nslo attainment\n";
    for (const JsonValue& r : slo->items) {
      const JsonValue* met = r.find("met");
      const bool ok = met != nullptr && met->boolean;
      out << "  " << field(r, "class") << " (<= " << field(r, "threshold_s")
          << " s, target " << field(r, "target") << "): "
          << (ok ? "MET" : "MISSED") << ", attainment "
          << field(r, "attainment") << " (" << field(r, "good") << "/"
          << field(r, "samples") << "), violation "
          << field(r, "violation_minutes") << " min, burn crossings "
          << field(r, "burn_crossings") << "\n";
    }
  }

  if (const JsonValue* costs = doc.find("costs")) {
    out << "\ntrace cost attribution (exemplar cell; "
        << field(doc, "trace_dropped") << " of " << field(doc, "trace_total")
        << " events dropped)\n";
    for (const JsonValue& r : costs->items) {
      out << "  " << field(r, "name") << ": events " << field(r, "events")
          << ", span " << field(r, "span_us") << " us\n";
    }
  }

  if (const JsonValue* digest = doc.find("trace_digest")) {
    out << "\ntrace digest " << digest->text << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Structural diff: walk both documents, print every leaf that moved.

/// Label an array element by its identifying member when it has one
/// (instruments/costs carry "name", slo rows carry "class") so diff
/// paths survive insertions better than raw indices would.
std::string element_label(const JsonValue& v, std::size_t index) {
  if (v.kind == JsonValue::Kind::kObject) {
    for (const char* key : {"name", "class"}) {
      const JsonValue* id = v.find(key);
      if (id != nullptr && id->kind == JsonValue::Kind::kString) {
        return "[" + id->text + "]";
      }
    }
  }
  return "[" + std::to_string(index) + "]";
}

void diff_values(const std::string& path, const JsonValue* a,
                 const JsonValue* b, std::vector<std::string>& out);

void diff_objects(const std::string& path, const JsonValue& a,
                  const JsonValue& b, std::vector<std::string>& out) {
  for (const JsonMember& m : a.members) {
    diff_values(path.empty() ? m.first : path + "." + m.first, &m.second,
                b.find(m.first), out);
  }
  for (const JsonMember& m : b.members) {
    if (a.find(m.first) == nullptr) {
      diff_values(path.empty() ? m.first : path + "." + m.first, nullptr,
                  &m.second, out);
    }
  }
}

void diff_arrays(const std::string& path, const JsonValue& a,
                 const JsonValue& b, std::vector<std::string>& out) {
  const std::size_t n = std::max(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < n; ++i) {
    const JsonValue* av = i < a.items.size() ? &a.items[i] : nullptr;
    const JsonValue* bv = i < b.items.size() ? &b.items[i] : nullptr;
    const std::string label =
        element_label(av != nullptr ? *av : *bv, i);
    diff_values(path + label, av, bv, out);
  }
}

void diff_values(const std::string& path, const JsonValue* a,
                 const JsonValue* b, std::vector<std::string>& out) {
  if (a == nullptr) {
    out.push_back(path + ": (absent) -> " + scalar_to_string(*b));
    return;
  }
  if (b == nullptr) {
    out.push_back(path + ": " + scalar_to_string(*a) + " -> (absent)");
    return;
  }
  if (a->kind != b->kind) {
    out.push_back(path + ": " + scalar_to_string(*a) + " -> " +
                  scalar_to_string(*b));
    return;
  }
  switch (a->kind) {
    case JsonValue::Kind::kObject: diff_objects(path, *a, *b, out); return;
    case JsonValue::Kind::kArray: diff_arrays(path, *a, *b, out); return;
    case JsonValue::Kind::kNull: return;
    case JsonValue::Kind::kBool:
      if (a->boolean != b->boolean) {
        out.push_back(path + ": " + scalar_to_string(*a) + " -> " +
                      scalar_to_string(*b));
      }
      return;
    case JsonValue::Kind::kNumber:
      // Compare raw tokens: the writer is byte-stable, so any textual
      // drift is a real change (and 0 vs -0 etc. stays visible).
      if (a->text != b->text) {
        out.push_back(path + ": " + a->text + " -> " + b->text);
      }
      return;
    case JsonValue::Kind::kString:
      if (a->text != b->text) {
        out.push_back(path + ": " + a->text + " -> " + b->text);
      }
      return;
  }
}

// ---------------------------------------------------------------------------

int usage() {
  std::cerr << "usage: mcs_report REPORT.json\n"
               "       mcs_report --diff A.json B.json\n"
               "Renders (or structurally diffs) mcs-report-v1 documents\n"
               "written by exp_* --report / mcs_check --report.\n";
  return 2;
}

bool load(const std::string& path, JsonValue& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "mcs_report: cannot read " << path << "\n";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    out = JsonParser(text.str()).parse();
  } catch (const std::exception& e) {
    std::cerr << "mcs_report: " << path << ": " << e.what() << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool diff = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diff") {
      diff = true;
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mcs_report: unknown flag " << arg << "\n";
      return usage();
    } else {
      paths.push_back(arg);
    }
  }

  if (diff) {
    if (paths.size() != 2) return usage();
    JsonValue a;
    JsonValue b;
    if (!load(paths[0], a) || !load(paths[1], b)) return 2;
    std::vector<std::string> changes;
    diff_values("", &a, &b, changes);
    if (changes.empty()) {
      std::cout << "reports identical\n";
      return 0;
    }
    for (const std::string& line : changes) std::cout << line << "\n";
    std::cout << changes.size() << " difference(s)\n";
    return 1;
  }

  if (paths.size() != 1) return usage();
  JsonValue doc;
  if (!load(paths[0], doc)) return 2;
  return render(std::cout, doc);
}
