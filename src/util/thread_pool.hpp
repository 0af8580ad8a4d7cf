#pragma once
// Persistent worker pool for intra-rank loop parallelism (the OpenMP layer
// of the paper's hybrid MPI+OpenMP+CUDA stack, mapped onto our thread-rank
// comm layer). PSDNS_THREADS picks the width (default 1: every parallel_for
// runs inline on the caller, so single-thread behavior is bit-for-bit the
// pre-pool code path).
//
// Determinism and the arena contract shape the design:
//   * Static striping with a fixed stripe->thread binding: stripe 0 always
//     runs on the submitting thread, stripe t > 0 always on worker t-1.
//     Which thread computes which indices is therefore a pure function of
//     (loop bounds, thread count) — never of scheduling luck — so
//     thread_local arena scratch warms deterministically and a warmed hot
//     path stays allocation-free (proven by tests/alloc_test.cpp).
//   * Jobs are a function pointer + context pointer into the caller's
//     stack frame, queued in a fixed ring: submitting a job performs no
//     heap allocation.
//   * parallel_for nested inside a running parallel_for (any participant)
//     executes inline: the outermost loop owns the pool.
//
// Workers execute jobs strictly in submission order and never block inside
// a stripe, so concurrent submitters (the thread-per-rank communicator)
// cannot deadlock; they just interleave their jobs through the same pool.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace psdns::util {

class ThreadPool {
 public:
  using TaskFn = void (*)(void* ctx, std::size_t index);

  /// Width 1: everything inline, no worker threads.
  ThreadPool() : ThreadPool(1) {}
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized from PSDNS_THREADS on first use.
  static ThreadPool& global();

  /// PSDNS_THREADS (default 1, clamped to [1, kMaxThreads]).
  static int env_threads();

  int threads() const { return threads_; }

  /// Drains in-flight jobs, then resizes the pool (tests and benches; not
  /// meant for the hot path).
  void set_threads(int threads);

  /// Runs f(i) for every i in [begin, end), striped across the pool. The
  /// caller participates (stripe 0) and returns only when every index has
  /// run; the first exception (lowest stripe) is rethrown. `stage` labels
  /// the busy-time accounting (string literal; see stats()).
  template <class F>
  void parallel_for(const char* stage, std::size_t begin, std::size_t end,
                    F&& f) {
    if (end <= begin) return;
    if (threads_ <= 1 || depth() > 0 || end - begin == 1) {
      ++depth();
      struct Depth {
        ~Depth() { --depth(); }
      } depth_guard;
      for (std::size_t i = begin; i < end; ++i) f(i);
      return;
    }
    run_job(
        stage, begin, end,
        [](void* ctx, std::size_t i) { (*static_cast<F*>(ctx))(i); }, &f);
  }

  /// Runs f(slot) exactly once on every pool thread: slot 0 on the caller,
  /// slot t > 0 on worker t-1. Used to prepare per-thread state (arena
  /// warm-up, allocation-tracking opt-in) on the exact threads the striped
  /// loops will use.
  template <class F>
  void for_each_thread(F&& f) {
    parallel_for("pool.for_each_thread", 0,
                 static_cast<std::size_t>(threads_), std::forward<F>(f));
  }

  struct StageBusy {
    const char* name = nullptr;
    double busy_seconds = 0.0;
  };
  struct Stats {
    std::int64_t jobs = 0;     // threaded parallel_for calls completed
    std::int64_t stripes = 0;  // stripe executions across all jobs
    double busy_seconds = 0.0;  // sum over stripes (caller + workers)
    std::vector<StageBusy> stages;
  };
  Stats stats() const;

  static constexpr int kMaxThreads = 256;

 private:
  struct Job {
    TaskFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    int nstripes = 0;
    int stage = -1;           // index into stage busy table
    std::size_t slot = 0;     // ring slot, cleared by the last stripe
    std::atomic<int> remaining{0};
    std::exception_ptr error;     // guarded by pool mutex
    int error_stripe = kMaxThreads + 1;  // lowest stripe's exception wins
  };

  void run_job(const char* stage, std::size_t begin, std::size_t end,
               TaskFn fn, void* ctx);
  void run_stripe(Job& job, int stripe);
  void worker_main(int widx);
  void start_workers();
  void stop_workers();
  int stage_index(const char* name);

  /// >0 while this thread runs inside any parallel_for. A function-local
  /// thread_local with constant initialization: every access is a direct
  /// TLS offset. (A static data member defined in another translation unit
  /// is reached through GCC's TLS wrapper instead, whose address
  /// computation UBSan misreports as a null-pointer load.)
  static int& depth() {
    thread_local int d = 0;
    return d;
  }

  static constexpr std::size_t kRing = 64;
  static constexpr int kMaxStages = 32;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;  // workers: new job or stop
  std::condition_variable cv_done_;  // submitters: stripe done / slot free
  std::vector<std::thread> workers_;
  int threads_ = 1;
  bool stop_ = false;

  Job* ring_[kRing] = {};
  std::uint64_t seq_ = 0;            // jobs submitted so far
  std::vector<std::uint64_t> next_;  // per-worker next sequence to claim

  struct StageSlot {
    const char* name = nullptr;
    std::atomic<std::uint64_t> busy_ns{0};
  };
  StageSlot stages_[kMaxStages];
  std::atomic<int> nstages_{0};
  std::atomic<std::int64_t> jobs_{0};
  std::atomic<std::int64_t> stripes_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace psdns::util
