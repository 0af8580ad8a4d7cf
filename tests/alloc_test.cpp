// Heap-allocation regression tests for the zero-allocation steady state:
// after a warm-up step has grown every workspace-arena handle, registry
// key and thread-local scratch buffer, SpectralEngine::step() must not
// touch the heap at all - no operator new/delete on any rank thread, and
// no workspace-arena misses (the arena allocates through aligned_alloc,
// which the new/delete overrides below cannot see, so the miss counter is
// asserted separately).
//
// The overrides count only while a thread opts in via t_track, so gtest
// bookkeeping and warm-up allocations stay invisible. This file must not
// be built under ASan/LSan (replacing global new/delete defeats the
// interceptors); the sanitizer CI job excludes it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "comm/communicator.hpp"
#include "dns/pencil_solver.hpp"
#include "dns/solver.hpp"
#include "obs/arena_metrics.hpp"
#include "obs/registry.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"

namespace {

std::atomic<long> g_news{0};
std::atomic<long> g_deletes{0};
thread_local bool t_track = false;

void* tracked_alloc(std::size_t size, std::size_t align) {
  if (t_track) g_news.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    const std::size_t rounded = (size + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded);
  } else {
    p = std::malloc(size);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  if (t_track) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size, 0); }
void* operator new[](std::size_t size) { return tracked_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return tracked_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return tracked_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}

namespace psdns::dns {
namespace {

struct StepDeltas {
  long news = 0;
  long deletes = 0;
  std::int64_t arena_misses = 0;
};

/// Warms the solver up with two untracked steps, then runs `steps` tracked
/// steps and reports the allocation/miss deltas. Collective: every rank
/// must call it in lockstep.
template <class Solver>
StepDeltas tracked_steps(Solver& solver, comm::Communicator& comm, int steps,
                         double dt) {
  solver.step(dt);
  solver.step(dt);
  comm.barrier();
  const auto arena_before = util::WorkspaceArena::global().stats();
  const long n0 = g_news.load();
  const long d0 = g_deletes.load();
  t_track = true;
  for (int i = 0; i < steps; ++i) solver.step(dt);
  t_track = false;
  comm.barrier();
  const auto arena_after = util::WorkspaceArena::global().stats();
  return {g_news.load() - n0, g_deletes.load() - d0,
          static_cast<std::int64_t>(arena_after.misses -
                                    arena_before.misses)};
}

TEST(AllocFree, SlabRk2SingleRank) {
  comm::run_ranks(1, [](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 16;
    config.viscosity = 0.02;
    SlabSolver solver(comm, config);
    solver.init_taylor_green();
    const StepDeltas d = tracked_steps(solver, comm, 4, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

TEST(AllocFree, SlabRk4ForcedScalarPhaseShiftTwoRanks) {
  comm::run_ranks(2, [](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 16;
    config.viscosity = 0.02;
    config.scheme = TimeScheme::RK4;
    config.phase_shift_dealias = true;
    config.forcing.enabled = true;
    config.forcing.power = 0.05;
    config.scalars.push_back(ScalarConfig{.schmidt = 0.7,
                                          .mean_gradient = 1.0});
    SlabSolver solver(comm, config);
    solver.init_isotropic(7, 3.0, 0.5);
    solver.init_scalar_isotropic(0, 11, 3.0, 0.25);
    const StepDeltas d = tracked_steps(solver, comm, 3, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

TEST(AllocFree, SlabMhdRk4TwoRanks) {
  // MHD doubles the field set (3 induction components) and forms 9
  // Elsasser products per substage; all of it must come out of the arena
  // blocks checked out at construction.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 16;
    config.viscosity = 0.02;
    config.scheme = TimeScheme::RK4;
    config.system = SystemType::Mhd;
    SlabSolver solver(comm, config);
    solver.init_isotropic(7, 3.0, 0.5);
    solver.init_magnetic_isotropic(9, 3.0, 0.25);
    solver.set_uniform_magnetic_field({0.0, 0.0, 0.5});
    const StepDeltas d = tracked_steps(solver, comm, 3, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

TEST(AllocFree, PencilRk4ForcedFourRanks) {
  comm::run_ranks(4, [](comm::Communicator& comm) {
    PencilSolverConfig config;
    config.n = 16;
    config.viscosity = 0.02;
    config.pr = 2;
    config.pc = 2;
    config.scheme = TimeScheme::RK4;
    config.forcing.enabled = true;
    config.forcing.power = 0.05;
    PencilSolver solver(comm, config);
    solver.init_isotropic(7, 3.0, 0.5);
    const StepDeltas d = tracked_steps(solver, comm, 3, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

TEST(AllocFree, SlabRk2PooledFourThreads) {
  // The worker pool's static striping warms each pool thread's arena
  // scratch during the untracked steps; the tracked steps then opt every
  // pool thread into the new/delete counters, so a single stray allocation
  // on any worker fails the test. Job submission itself must also be
  // allocation-free (fixed ring, function pointer + context).
  auto& pool = util::ThreadPool::global();
  const int prev = pool.threads();
  pool.set_threads(4);
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 32;  // big enough for several blocks per batched loop
    config.viscosity = 0.02;
    SlabSolver solver(comm, config);
    solver.init_taylor_green();
    solver.step(1e-3);
    solver.step(1e-3);
    comm.barrier();
    const auto arena_before = util::WorkspaceArena::global().stats();
    const long n0 = g_news.load();
    const long d0 = g_deletes.load();
    pool.for_each_thread([](std::size_t) { t_track = true; });
    for (int i = 0; i < 3; ++i) solver.step(1e-3);
    pool.for_each_thread([](std::size_t) { t_track = false; });
    comm.barrier();
    const auto arena_after = util::WorkspaceArena::global().stats();
    EXPECT_EQ(g_news.load() - n0, 0);
    EXPECT_EQ(g_deletes.load() - d0, 0);
    EXPECT_EQ(arena_after.misses - arena_before.misses, 0u);
  });
  pool.set_threads(prev);
}

TEST(ArenaMetrics, PublishesGaugesNextToUsage) {
  // Two rounds: the second solver checks out the buckets the first one
  // released, so the process shows recycling even when this test runs in
  // isolation (ctest executes each case in its own process).
  for (int round = 0; round < 2; ++round) {
    comm::run_ranks(1, [](comm::Communicator& comm) {
      SolverConfig config;
      config.n = 16;
      SlabSolver solver(comm, config);
      solver.init_taylor_green();
      solver.step(1e-3);
    });
  }
  obs::publish_arena_metrics();
  const auto snap = obs::registry().snapshot();
  ASSERT_TRUE(snap.gauges.contains("alloc.arena.peak_bytes"));
  ASSERT_TRUE(snap.gauges.contains("alloc.arena.resident_bytes"));
  ASSERT_TRUE(snap.gauges.contains("alloc.arena.misses"));
  ASSERT_TRUE(snap.gauges.contains("alloc.arena.hit_rate"));
  EXPECT_GT(snap.gauges.at("alloc.arena.peak_bytes"), 0.0);
  EXPECT_GE(snap.gauges.at("alloc.arena.peak_bytes"),
            snap.gauges.at("alloc.arena.resident_bytes"));
  // Blocks released by earlier solver/thread teardowns get reused, so a
  // process that has run a solver must show some recycling (the exact rate
  // depends on how many distinct bucket sizes were requested first).
  EXPECT_GT(snap.gauges.at("alloc.arena.hit_rate"), 0.0);
}

}  // namespace
}  // namespace psdns::dns
