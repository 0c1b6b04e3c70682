// Tests for tasks, workflow generators, and trace generation (src/workload).
#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.hpp"
#include "workload/trace.hpp"
#include "workload/workflow.hpp"

namespace mcs::workload {
namespace {

// ---- Job structure ------------------------------------------------------------

TEST(JobTest, BagOfTasksBasics) {
  const Job bag = make_bag_of_tasks(7, 10, 30.0);
  EXPECT_EQ(bag.id, 7u);
  EXPECT_EQ(bag.tasks.size(), 10u);
  EXPECT_FALSE(bag.is_workflow());
  EXPECT_DOUBLE_EQ(bag.total_work_seconds(), 300.0);
  // Critical path of a bag is its longest task.
  EXPECT_DOUBLE_EQ(bag.critical_path_seconds(), 30.0);
  EXPECT_EQ(max_parallelism(bag), 10u);
  EXPECT_TRUE(bag.valid());
}

TEST(JobTest, ChainCriticalPathIsTotalWork) {
  const Job chain = make_chain(1, 5, 10.0);
  EXPECT_TRUE(chain.is_workflow());
  EXPECT_DOUBLE_EQ(chain.critical_path_seconds(), 50.0);
  EXPECT_EQ(max_parallelism(chain), 1u);
  const auto levels = level_of_tasks(chain);
  for (std::size_t i = 0; i < levels.size(); ++i) EXPECT_EQ(levels[i], i);
}

TEST(JobTest, ForkJoinShape) {
  const Job fj = make_fork_join(1, 4, 2, 10.0);
  // Per stage: 1 source + 4 body + 1 sink = 6; 2 stages = 12 tasks.
  EXPECT_EQ(fj.tasks.size(), 12u);
  EXPECT_EQ(max_parallelism(fj), 4u);
  // Critical path: per stage source+body+sink = 30; 2 stages = 60.
  EXPECT_DOUBLE_EQ(fj.critical_path_seconds(), 60.0);
  EXPECT_TRUE(fj.valid());
}

TEST(JobTest, InvalidForwardDependencyDetected) {
  Job j;
  j.tasks.resize(2);
  j.tasks[0].deps.push_back(1);  // forward dep: invalid
  EXPECT_FALSE(j.valid());
}

TEST(JobTest, NegativeWorkDetected) {
  Job j;
  j.tasks.resize(1);
  j.tasks[0].work_seconds = -5.0;
  EXPECT_FALSE(j.valid());
  // NaN fails too: it would break the SJF/LJF queue order.
  j.tasks[0].work_seconds = std::nan("");
  EXPECT_FALSE(j.valid());
}

// ---- scientific workflow generators ------------------------------------------------

class WorkflowShapeTest : public ::testing::Test {
 protected:
  sim::Rng rng_{42};
  WorkflowSizing sizing_;
};

TEST_F(WorkflowShapeTest, MontageHasDiamondStructure) {
  const Job m = make_montage_like(1, 8, sizing_, rng_);
  ASSERT_TRUE(m.valid());
  EXPECT_TRUE(m.is_workflow());
  // 8 project + 7 diff + 1 fit + 8 background + 1 add = 25.
  EXPECT_EQ(m.tasks.size(), 25u);
  // Entry tasks (projections) have no deps; the final add depends on all
  // backgrounds.
  EXPECT_TRUE(m.tasks[0].deps.empty());
  EXPECT_EQ(m.tasks.back().deps.size(), 8u);
  EXPECT_EQ(max_parallelism(m), 8u);
}

TEST_F(WorkflowShapeTest, EpigenomicsLanesMerge) {
  const Job e = make_epigenomics_like(1, 3, sizing_, rng_);
  ASSERT_TRUE(e.valid());
  // 3 lanes x 4 stages + merge + analyze = 14.
  EXPECT_EQ(e.tasks.size(), 14u);
  EXPECT_EQ(max_parallelism(e), 3u);
  // The merge depends on all three lane tails.
  EXPECT_EQ(e.tasks[12].deps.size(), 3u);
}

TEST_F(WorkflowShapeTest, LigoBanksChain) {
  const Job l = make_ligo_like(1, 3, 5, sizing_, rng_);
  ASSERT_TRUE(l.valid());
  // 3 banks x (5 inspirals + 1 thinca) = 18.
  EXPECT_EQ(l.tasks.size(), 18u);
  EXPECT_EQ(max_parallelism(l), 5u);
  // Critical path spans all banks: > per-bank path.
  const auto levels = level_of_tasks(l);
  EXPECT_EQ(*std::max_element(levels.begin(), levels.end()), 5u);
}

TEST_F(WorkflowShapeTest, RandomDagIsValidAndLayered) {
  for (int trial = 0; trial < 20; ++trial) {
    const Job d = make_random_dag(1, 40, 5, sizing_, rng_);
    ASSERT_TRUE(d.valid());
    EXPECT_EQ(d.tasks.size(), 40u);
    EXPECT_TRUE(d.is_workflow());
  }
}

TEST_F(WorkflowShapeTest, GeneratorsRejectDegenerateParameters) {
  EXPECT_THROW(make_montage_like(1, 1, sizing_, rng_), std::invalid_argument);
  EXPECT_THROW(make_epigenomics_like(1, 0, sizing_, rng_),
               std::invalid_argument);
  EXPECT_THROW(make_ligo_like(1, 0, 5, sizing_, rng_), std::invalid_argument);
}

// ---- trace generation ----------------------------------------------------------------

TEST(TraceTest, GeneratesRequestedVolume) {
  sim::Rng rng(7);
  TraceConfig config;
  config.job_count = 200;
  const auto jobs = generate_trace(config, rng);
  ASSERT_EQ(jobs.size(), 200u);
  // Ids consecutive, submit times non-decreasing, all valid.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);
    EXPECT_TRUE(jobs[i].valid());
    if (i > 0) { EXPECT_GE(jobs[i].submit_time, jobs[i - 1].submit_time); }
  }
}

TEST(TraceTest, SummaryMatchesConfiguration) {
  sim::Rng rng(7);
  TraceConfig config;
  config.job_count = 500;
  config.mean_tasks_per_job = 6.0;
  config.mean_task_seconds = 45.0;
  const auto jobs = generate_trace(config, rng);
  const TraceSummary s = summarize(jobs);
  EXPECT_EQ(s.jobs, 500u);
  EXPECT_NEAR(s.mean_tasks_per_job, 6.0, 1.5);
  EXPECT_NEAR(s.mean_task_seconds, 45.0, 8.0);
  EXPECT_EQ(s.workflow_jobs, 0u);
}

TEST(TraceTest, WorkflowFractionProducesWorkflows) {
  sim::Rng rng(7);
  TraceConfig config;
  config.job_count = 300;
  config.workflow_fraction = 0.5;
  const auto jobs = generate_trace(config, rng);
  const TraceSummary s = summarize(jobs);
  EXPECT_NEAR(static_cast<double>(s.workflow_jobs) / 300.0, 0.5, 0.1);
}

TEST(TraceTest, FragmentationTrendSplitsTasks) {
  sim::Rng rng(7);
  TraceConfig config;
  config.job_count = 600;
  config.fragmentation_factor = 4.0;
  const auto jobs = generate_trace(config, rng);
  // Early third vs late third: task counts up, task sizes down.
  double early_tasks = 0, late_tasks = 0, early_size = 0, late_size = 0;
  std::size_t early_n = 0, late_n = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    early_tasks += static_cast<double>(jobs[i].tasks.size());
    for (const auto& t : jobs[i].tasks) early_size += t.work_seconds;
    early_n += jobs[i].tasks.size();
  }
  for (std::size_t i = 400; i < 600; ++i) {
    late_tasks += static_cast<double>(jobs[i].tasks.size());
    for (const auto& t : jobs[i].tasks) late_size += t.work_seconds;
    late_n += jobs[i].tasks.size();
  }
  EXPECT_GT(late_tasks / 200.0, early_tasks / 200.0 * 1.5);
  EXPECT_LT(late_size / static_cast<double>(late_n),
            early_size / static_cast<double>(early_n));
}

TEST(TraceTest, BurstyArrivalsHaveHigherGapVariability) {
  auto gap_cv = [](ArrivalKind kind) {
    sim::Rng rng(11);
    TraceConfig config;
    config.job_count = 2000;
    config.arrivals = kind;
    const auto jobs = generate_trace(config, rng);
    double mean = 0.0;
    std::vector<double> gaps;
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      gaps.push_back(
          sim::to_seconds(jobs[i].submit_time - jobs[i - 1].submit_time));
      mean += gaps.back();
    }
    mean /= static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    return std::sqrt(var) / mean;
  };
  EXPECT_GT(gap_cv(ArrivalKind::kBursty), gap_cv(ArrivalKind::kPoisson) * 1.3);
}

TEST(TraceTest, UsersFollowZipfActivity) {
  sim::Rng rng(3);
  TraceConfig config;
  config.job_count = 1000;
  config.user_count = 10;
  const auto jobs = generate_trace(config, rng);
  std::map<std::string, int> counts;
  for (const auto& j : jobs) ++counts[j.user];
  // The most active user dominates the least active one.
  int max_c = 0, min_c = 1 << 30;
  for (const auto& [u, c] : counts) {
    max_c = std::max(max_c, c);
    min_c = std::min(min_c, c);
  }
  EXPECT_GT(max_c, min_c * 3);
}

TEST(TraceTest, AcceleratedFractionHonoured) {
  sim::Rng rng(5);
  TraceConfig config;
  config.job_count = 300;
  config.accelerated_fraction = 0.25;
  const auto jobs = generate_trace(config, rng);
  std::size_t acc = 0, total = 0;
  for (const auto& j : jobs) {
    for (const auto& t : j.tasks) {
      ++total;
      if (t.demand.gpu() > 0.0) ++acc;
    }
  }
  EXPECT_NEAR(static_cast<double>(acc) / static_cast<double>(total), 0.25,
              0.06);
}

TEST(TraceTest, InvalidConfigThrows) {
  sim::Rng rng(1);
  TraceConfig config;
  config.workflow_fraction = 1.5;
  EXPECT_THROW((void)generate_trace(config, rng), std::invalid_argument);
  config.workflow_fraction = 0.0;
  config.fragmentation_factor = 0.5;
  EXPECT_THROW((void)generate_trace(config, rng), std::invalid_argument);
}

}  // namespace
}  // namespace mcs::workload
