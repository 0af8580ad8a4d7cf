#include "util/thread_pool.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "util/arena.hpp"
#include "util/check.hpp"

namespace psdns::util {

ThreadPool::ThreadPool(int threads) {
  PSDNS_REQUIRE(threads >= 1 && threads <= kMaxThreads,
                "thread pool width out of range");
  threads_ = threads;
  start_workers();
}

ThreadPool::~ThreadPool() { stop_workers(); }

ThreadPool& ThreadPool::global() {
  // Touch the arena first so its singleton outlives the pool: worker
  // threads hold thread_local arena Handles that release their blocks back
  // into the arena when the workers join during the pool's destruction.
  WorkspaceArena::global();
  static ThreadPool pool(env_threads());
  return pool;
}

int ThreadPool::env_threads() {
  const char* env = std::getenv("PSDNS_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  PSDNS_REQUIRE(end != env && *end == '\0' && v >= 1 && v <= kMaxThreads,
                "PSDNS_THREADS must be an integer in [1, 256]");
  return static_cast<int>(v);
}

void ThreadPool::start_workers() {
  next_.assign(static_cast<std::size_t>(threads_ - 1), seq_);
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 0; w < threads_ - 1; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  next_.clear();
  stop_ = false;
}

void ThreadPool::set_threads(int threads) {
  PSDNS_REQUIRE(threads >= 1 && threads <= kMaxThreads,
                "thread pool width out of range");
  {
    // Drain: every submitted job has cleared its ring slot.
    std::unique_lock lock(mutex_);
    cv_done_.wait(lock, [this] {
      for (const Job* j : ring_) {
        if (j != nullptr) return false;
      }
      return true;
    });
  }
  stop_workers();
  threads_ = threads;
  start_workers();
}

int ThreadPool::stage_index(const char* name) {
  // Called under mutex_. Fixed table of string-literal stage labels; linear
  // scan is fine at this granularity (one lookup per threaded job).
  const int n = nstages_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if (stages_[i].name == name || std::strcmp(stages_[i].name, name) == 0) {
      return i;
    }
  }
  if (n >= kMaxStages) return -1;
  stages_[n].name = name;
  nstages_.store(n + 1, std::memory_order_release);
  return n;
}

void ThreadPool::run_job(const char* stage, std::size_t begin,
                         std::size_t end, TaskFn fn, void* ctx) {
  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.begin = begin;
  job.end = end;
  job.nstripes = threads_;
  job.remaining.store(threads_, std::memory_order_relaxed);
  {
    std::unique_lock lock(mutex_);
    job.stage = stage_index(stage);
    cv_done_.wait(lock, [this] { return ring_[seq_ % kRing] == nullptr; });
    job.slot = seq_ % kRing;
    ring_[job.slot] = &job;
    ++seq_;
  }
  cv_work_.notify_all();
  run_stripe(job, 0);
  {
    std::unique_lock lock(mutex_);
    cv_done_.wait(lock, [&job] {
      return job.remaining.load(std::memory_order_acquire) == 0;
    });
    if (job.error) std::rethrow_exception(job.error);
  }
  jobs_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::run_stripe(Job& job, int stripe) {
  const auto t0 = std::chrono::steady_clock::now();
  ++depth();
  try {
    for (std::size_t i = job.begin + static_cast<std::size_t>(stripe);
         i < job.end; i += static_cast<std::size_t>(job.nstripes)) {
      job.fn(job.ctx, i);
    }
  } catch (...) {
    std::lock_guard lock(mutex_);
    if (stripe < job.error_stripe) {
      job.error_stripe = stripe;
      job.error = std::current_exception();
    }
  }
  --depth();
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  if (job.stage >= 0) {
    stages_[job.stage].busy_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  stripes_.fetch_add(1, std::memory_order_relaxed);
  // Snapshot the slot before the final decrement: once remaining hits 0 the
  // submitter may wake and destroy the (stack-allocated) Job.
  const std::size_t slot = job.slot;
  if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard lock(mutex_);
      ring_[slot] = nullptr;
    }
    cv_done_.notify_all();
  }
}

void ThreadPool::worker_main(int widx) {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_work_.wait(lock, [this, widx] {
      return stop_ || next_[static_cast<std::size_t>(widx)] < seq_;
    });
    if (stop_) return;
    const std::uint64_t myseq = next_[static_cast<std::size_t>(widx)]++;
    // The slot cannot have been recycled: this worker's stripe is part of
    // the job's remaining count, so the job cannot complete (and the slot
    // cannot clear) before this stripe runs.
    Job* job = ring_[myseq % kRing];
    lock.unlock();
    run_stripe(*job, widx + 1);
    lock.lock();
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats out;
  out.jobs = jobs_.load(std::memory_order_relaxed);
  out.stripes = stripes_.load(std::memory_order_relaxed);
  out.busy_seconds =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  const int n = nstages_.load(std::memory_order_acquire);
  out.stages.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.stages.push_back(
        {stages_[i].name,
         static_cast<double>(
             stages_[i].busy_ns.load(std::memory_order_relaxed)) *
             1e-9});
  }
  return out;
}

}  // namespace psdns::util
