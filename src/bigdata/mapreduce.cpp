#include "bigdata/mapreduce.hpp"

#include <cctype>
#include <numeric>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace mcs::bigdata {

namespace {
/// CPU seconds per block at reference speed (map function cost).
constexpr double kMapSecondsPerBlock = 10.0;
/// Speculative execution backs up a task running longer than this many
/// times the median.
constexpr double kStragglerThreshold = 1.5;
/// Shuffle volume per input MB (selectivity) and reduce phase shape.
constexpr double kShuffleMbPerInputMb = 0.2;
constexpr std::size_t kReducers = 8;
constexpr double kReduceSecondsEach = 5.0;
/// Map slots per machine (Hadoop-style slot model).
constexpr std::size_t kSlotsPerMachine = 2;
}  // namespace

std::map<std::string, std::uint64_t> word_count(
    const std::vector<std::string>& lines) {
  FunctionalMapReduce<std::string, std::string, std::uint64_t> job(
      [](const std::string& line) {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        std::string word;
        std::istringstream is(line);
        while (is >> word) {
          std::string clean;
          for (char c : word) {
            if (std::isalnum(static_cast<unsigned char>(c))) {
              clean.push_back(static_cast<char>(
                  std::tolower(static_cast<unsigned char>(c))));
            }
          }
          if (!clean.empty()) out.emplace_back(std::move(clean), 1);
        }
        return out;
      },
      [](const std::string&, const std::vector<std::uint64_t>& vs) {
        return std::accumulate(vs.begin(), vs.end(), std::uint64_t{0});
      });
  return job.run(lines);
}

MapReduceStats MapReduceSimulation::run(const MapReduceJobConfig& config) {
  const auto& blocks = storage_.blocks(config.dataset);
  MapReduceStats stats;
  stats.map_tasks = blocks.size();
  if (blocks.empty()) return stats;

  // Collect usable machines and their slots.
  struct Slot {
    infra::MachineId machine;
    double speed;
    double free_at = 0.0;
  };
  std::vector<Slot> slots;
  const infra::Datacenter& dc = dc_;
  for (const infra::Machine* m : dc.machines()) {
    if (!m->usable()) continue;
    for (std::size_t s = 0; s < kSlotsPerMachine; ++s) {
      slots.push_back(Slot{m->id(), m->speed_factor(), 0.0});
    }
  }
  if (slots.empty()) {
    throw std::runtime_error("MapReduceSimulation: no usable machines");
  }

  // ---- map phase: list scheduling with locality preference ----------------
  std::vector<const Block*> pending;
  pending.reserve(blocks.size());
  for (const Block& b : blocks) pending.push_back(&b);

  struct TaskRun {
    double start = 0.0;
    double runtime = 0.0;
    double finish = 0.0;
  };
  std::vector<TaskRun> runs;
  runs.reserve(blocks.size());
  double total_input_mb = 0.0;

  while (!pending.empty()) {
    // Earliest-free slot.
    std::size_t s = 0;
    for (std::size_t i = 1; i < slots.size(); ++i) {
      if (slots[i].free_at < slots[s].free_at) s = i;
    }
    // Delay scheduling: prefer a block local to that slot's machine, then
    // rack-local, then any.
    std::size_t pick = pending.size();
    for (Locality want : {Locality::kLocal, Locality::kRackLocal}) {
      for (std::size_t i = 0; i < pending.size() && pick == pending.size();
           ++i) {
        if (storage_.locality(*pending[i], slots[s].machine) == want) pick = i;
      }
      if (pick != pending.size()) break;
    }
    if (pick == pending.size()) pick = 0;

    const Block& block = *pending[pick];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    total_input_mb += block.size_mb;

    switch (storage_.locality(block, slots[s].machine)) {
      case Locality::kLocal: ++stats.local_reads; break;
      case Locality::kRackLocal: ++stats.rack_reads; break;
      case Locality::kRemote: ++stats.remote_reads; break;
    }

    const double noise =
        config.straggler_cv <= 0.0
            ? 1.0
            : rng_.lognormal_mean_cv(1.0, config.straggler_cv);
    const double runtime = (storage_.read_seconds(block, slots[s].machine) +
                            kMapSecondsPerBlock * noise) /
                           slots[s].speed;
    TaskRun run;
    run.start = slots[s].free_at;
    run.runtime = runtime;
    run.finish = run.start + runtime;
    slots[s].free_at = run.finish;
    runs.push_back(run);
  }

  // ---- speculative execution ------------------------------------------------
  if (config.speculative_execution && runs.size() >= 4) {
    std::vector<double> runtimes;
    for (const TaskRun& r : runs) runtimes.push_back(r.runtime);
    std::nth_element(runtimes.begin(),
                     runtimes.begin() + static_cast<std::ptrdiff_t>(
                                            runtimes.size() / 2),
                     runtimes.end());
    const double median = runtimes[runtimes.size() / 2];
    for (TaskRun& r : runs) {
      if (r.runtime > kStragglerThreshold * median) {
        // Backup launched once the straggler is detected; fresh draw
        // without straggler noise (it usually lands on a healthy node).
        const double backup_start =
            r.start + kStragglerThreshold * median;
        const double backup_finish = backup_start + kMapSecondsPerBlock;
        if (backup_finish < r.finish) {
          r.finish = backup_finish;
          ++stats.speculative_copies;
        }
      }
    }
  }

  for (const TaskRun& r : runs) {
    stats.map_phase_seconds = std::max(stats.map_phase_seconds, r.finish);
  }

  // ---- shuffle: all-to-all over the oversubscribed core --------------------
  const double shuffle_mb = total_input_mb * kShuffleMbPerInputMb;
  const double cross_section_mbps =
      StorageEngine::kRemoteMbps *
      std::max(1.0, static_cast<double>(dc.machine_count()) / 2.0);
  stats.shuffle_seconds = shuffle_mb / cross_section_mbps;

  // ---- reduce phase: waves of reducers over the slots -----------------------
  double mean_speed = 0.0;
  for (const Slot& s : slots) mean_speed += s.speed;
  mean_speed /= static_cast<double>(slots.size());
  const std::size_t waves = (kReducers + slots.size() - 1) / slots.size();
  stats.reduce_phase_seconds =
      static_cast<double>(waves) * kReduceSecondsEach / mean_speed;

  stats.makespan_seconds = stats.map_phase_seconds + stats.shuffle_seconds +
                           stats.reduce_phase_seconds;
  return stats;
}

}  // namespace mcs::bigdata
