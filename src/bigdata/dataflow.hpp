// The High-Level Language layer of Fig. 1 (Pig/Hive-style): a small lazy
// dataflow over (key, value) records that compiles to stages executed on
// the MapReduce programming model — narrow ops (map/filter) fuse into one
// stage; a wide op (group_sum) forces a shuffle boundary and a new stage,
// exactly the stage-planning rule of real dataflow compilers.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mcs::bigdata {

struct Record {
  std::string key;
  double value = 0.0;
  friend bool operator==(const Record& a, const Record& b) {
    return a.key == b.key && a.value == b.value;
  }
};

class Dataflow {
 public:
  [[nodiscard]] static Dataflow from(std::vector<Record> records);

  /// Narrow transformation (fuses into the current stage).
  [[nodiscard]] Dataflow map(std::function<Record(const Record&)> fn) const;
  [[nodiscard]] Dataflow filter(std::function<bool(const Record&)> fn) const;

  /// Wide transformation: groups by key and sums values; closes the
  /// current stage (a shuffle happens here).
  [[nodiscard]] Dataflow group_sum() const;

  /// Executes the plan and returns the records (sorted by key for
  /// determinism after wide stages).
  [[nodiscard]] std::vector<Record> collect() const;

  /// Human-readable plan, one line per stage (C13: explainability).
  [[nodiscard]] std::vector<std::string> explain() const;

 private:
  struct Op {
    enum class Kind { kMap, kFilter, kGroupSum } kind;
    std::function<Record(const Record&)> map_fn;
    std::function<bool(const Record&)> filter_fn;
  };

  std::shared_ptr<const std::vector<Record>> source_;
  std::vector<Op> ops_;
};

}  // namespace mcs::bigdata
