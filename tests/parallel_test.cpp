// Tests for the shared parallelism substrate (src/parallel): pool
// lifecycle, the deterministic static-chunking contract of parallel_for,
// and exception propagation. These are the tests the TSan build
// (-DMCS_SANITIZE=thread) must pass.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace mcs::parallel {
namespace {

TEST(ThreadPoolTest, ConstructsRequestedThreadCount) {
  ThreadPool one(1), four(4);
  EXPECT_EQ(one.thread_count(), 1u);
  EXPECT_EQ(four.thread_count(), 4u);
}

TEST(ThreadPoolTest, McsThreadsTakesOnlyAWholeNumberUpToTheCap) {
  const char* saved = std::getenv("MCS_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  for (const char* bad :
       {"3x", "99999999999", "0", "-2", "+4", " 4", "4 ", "0x4", "1025"}) {
    ::setenv("MCS_THREADS", bad, 1);
    EXPECT_THROW((void)ThreadPool(), std::invalid_argument) << bad;
  }
  ::setenv("MCS_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool().thread_count(), 3u);
  ::setenv("MCS_THREADS", "", 1);  // empty means unset
  EXPECT_GE(ThreadPool().thread_count(), 1u);
  if (saved != nullptr) {
    ::setenv("MCS_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("MCS_THREADS");
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.run_tasks(hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  pool.run_tasks(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.run_tasks(17, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 17);
  }
}

TEST(ThreadPoolTest, RethrowsLowestTaskIndexException) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    try {
      pool.run_tasks(64, [&](std::size_t i) {
        if (i % 2 == 1) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      // Deterministic error reporting: always the lowest failing index,
      // regardless of which thread hit its failure first.
      EXPECT_STREQ(e.what(), "1");
    }
  }
  // The pool survives an exceptional batch.
  std::atomic<int> count{0};
  pool.run_tasks(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ParallelForTest, ChunkBoundariesPartitionTheRange) {
  ThreadPool pool(4);
  for (std::size_t range : {1u, 2u, 63u, 64u, 65u, 1000u}) {
    std::vector<std::atomic<int>> seen(range);
    std::atomic<std::size_t> max_chunk{0};
    parallel_for(pool, 0, range,
                 [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
                   std::size_t prev = max_chunk.load();
                   while (chunk > prev &&
                          !max_chunk.compare_exchange_weak(prev, chunk)) {
                   }
                   for (std::size_t i = lo; i < hi; ++i) {
                     seen[i].fetch_add(1);
                   }
                 });
    for (std::size_t i = 0; i < range; ++i) {
      ASSERT_EQ(seen[i].load(), 1) << "range " << range << " index " << i;
    }
    EXPECT_EQ(max_chunk.load() + 1, default_chunk_count(range));
  }
}

TEST(ParallelForTest, ChunkingIsIndependentOfThreadCount) {
  // The determinism contract: chunk boundaries are a pure function of the
  // range. Record (lo, hi) per chunk under different pool sizes.
  auto boundaries = [](std::size_t threads, std::size_t range) {
    ThreadPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> out(
        default_chunk_count(range));
    parallel_for(pool, 0, range,
                 [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
                   out[chunk] = {lo, hi};
                 });
    return out;
  };
  for (std::size_t range : {5u, 64u, 129u, 4096u}) {
    const auto b1 = boundaries(1, range);
    const auto b2 = boundaries(2, range);
    const auto b8 = boundaries(8, range);
    EXPECT_EQ(b1, b2);
    EXPECT_EQ(b1, b8);
  }
}

TEST(ParallelForTest, OrderedChunkReductionIsDeterministic) {
  // The canonical usage pattern: per-chunk partials merged in chunk order
  // must give the same bits at any thread count.
  const std::size_t n = 10000;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = 1.0 / static_cast<double>(i + 1);
  }
  auto reduce = [&](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> partial(default_chunk_count(n), 0.0);
    parallel_for(pool, 0, n,
                 [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
                   double s = 0.0;
                   for (std::size_t i = lo; i < hi; ++i) s += data[i];
                   partial[chunk] = s;
                 });
    double total = 0.0;
    for (double p : partial) total += p;
    return total;
  };
  const double t1 = reduce(1);
  EXPECT_EQ(t1, reduce(2));
  EXPECT_EQ(t1, reduce(8));
}

TEST(ParallelForTest, EmptyAndReversedRangesDoNothing) {
  ThreadPool pool(2);
  int runs = 0;
  parallel_for(pool, 5, 5,
               [&](std::size_t, std::size_t, std::size_t) { ++runs; });
  parallel_for(pool, 7, 3,
               [&](std::size_t, std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
}

TEST(DefaultPoolTest, IsASingleton) {
  ThreadPool& a = default_pool();
  ThreadPool& b = default_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
}

}  // namespace
}  // namespace mcs::parallel
