#include <functional>
#include "bigdata/dataflow.hpp"

#include <algorithm>
#include <map>

namespace mcs::bigdata {

Dataflow Dataflow::from(std::vector<Record> records) {
  Dataflow df;
  df.source_ = std::make_shared<const std::vector<Record>>(std::move(records));
  return df;
}

Dataflow Dataflow::map(std::function<Record(const Record&)> fn) const {
  Dataflow next = *this;
  Op op;
  op.kind = Op::Kind::kMap;
  op.map_fn = std::move(fn);
  next.ops_.push_back(std::move(op));
  return next;
}

Dataflow Dataflow::filter(std::function<bool(const Record&)> fn) const {
  Dataflow next = *this;
  Op op;
  op.kind = Op::Kind::kFilter;
  op.filter_fn = std::move(fn);
  next.ops_.push_back(std::move(op));
  return next;
}

Dataflow Dataflow::group_sum() const {
  Dataflow next = *this;
  Op op;
  op.kind = Op::Kind::kGroupSum;
  next.ops_.push_back(std::move(op));
  return next;
}

std::vector<Record> Dataflow::collect() const {
  std::vector<Record> data = source_ ? *source_ : std::vector<Record>{};
  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kMap: {
        for (Record& r : data) r = op.map_fn(r);
        break;
      }
      case Op::Kind::kFilter: {
        data.erase(std::remove_if(data.begin(), data.end(),
                                  [&](const Record& r) {
                                    return !op.filter_fn(r);
                                  }),
                   data.end());
        break;
      }
      case Op::Kind::kGroupSum: {
        std::map<std::string, double> groups;
        for (const Record& r : data) groups[r.key] += r.value;
        data.clear();
        for (const auto& [k, v] : groups) data.push_back(Record{k, v});
        break;  // std::map iteration leaves output key-sorted
      }
    }
  }
  return data;
}

std::vector<std::string> Dataflow::explain() const {
  std::vector<std::string> lines;
  std::string current = "stage 1: scan";
  std::size_t stage = 1;
  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kMap:
        current += " -> map";
        break;
      case Op::Kind::kFilter:
        current += " -> filter";
        break;
      case Op::Kind::kGroupSum:
        current += " -> shuffle";
        lines.push_back(current);
        ++stage;
        current = "stage " + std::to_string(stage) + ": group_sum";
        break;
    }
  }
  lines.push_back(current);
  return lines;
}

}  // namespace mcs::bigdata
