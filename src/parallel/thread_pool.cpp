#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mcs::parallel {

namespace {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv("MCS_THREADS");
  if (env != nullptr && *env != '\0') {
    // Digits only: no sign, no blanks, no trailing text. Parsing stops once
    // the value passes the cap, so an overlong value cannot overflow.
    std::size_t n = 0;
    const char* p = env;
    for (; *p >= '0' && *p <= '9' && n <= kMaxThreads; ++p) {
      n = n * 10 + static_cast<std::size_t>(*p - '0');
    }
    if (*p != '\0' || n == 0 || n > kMaxThreads) {
      throw std::invalid_argument(
          "MCS_THREADS=" + std::string(env) +
          ": expected a whole number from 1 to " + std::to_string(kMaxThreads));
    }
    return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = resolve_thread_count(threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen_batch = 0;
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || (batch_id_ != seen_batch && next_task_ < batch_size_);
    });
    if (stop_) return;
    seen_batch = batch_id_;
    claim_and_run(lock, seen_batch);
  }
}

void ThreadPool::claim_and_run(std::unique_lock<std::mutex>& lock,
                               std::uint64_t batch) {
  while (batch_id_ == batch && next_task_ < batch_size_) {
    const std::size_t task = next_task_++;
    ++in_flight_;
    lock.unlock();
    std::exception_ptr error;
    try {
      batch_fn_(task);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    // mcs-lint: allow(H3) — exception path only: one entry per *failed*
    // task; the success path never touches errors_.
    if (error) errors_.emplace_back(task, error);
    --in_flight_;
    if (next_task_ >= batch_size_ && in_flight_ == 0) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_tasks(std::size_t tasks,
                           core::FunctionRef<void(std::size_t)> fn) {
  if (tasks == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  batch_fn_ = fn;
  batch_size_ = tasks;
  next_task_ = 0;
  errors_.clear();
  ++batch_id_;
  work_cv_.notify_all();
  // The caller participates too: with a 1-thread pool this still overlaps
  // compute with the worker, and it never deadlocks a small pool.
  claim_and_run(lock, batch_id_);
  done_cv_.wait(lock, [&] { return in_flight_ == 0; });
  batch_size_ = 0;
  batch_fn_ = {};
  if (!errors_.empty()) {
    // Deterministic error reporting: rethrow the lowest task index.
    auto first = std::min_element(
        errors_.begin(), errors_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::exception_ptr error = first->second;
    errors_.clear();
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mcs::parallel
