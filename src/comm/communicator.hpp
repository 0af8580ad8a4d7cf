#pragma once
// Functional in-process communicator: MPI-shaped collectives over threads
// sharing one address space. One thread per rank; collectives synchronize
// through a generation barrier and exchange data by reading each other's
// published buffers. This is the substrate on which the distributed
// transpose and the DNS solvers run *for real* at laptop scale, so their
// numerics can be validated; the at-scale performance of the same call
// pattern is modeled by psdns::net.
//
// Semantics follow MPI: alltoall exchanges equal blocks ordered by rank;
// ialltoall returns a Request whose wait() completes the exchange (every
// rank of the communicator must reach wait(), like MPI_WAIT on a
// nonblocking collective); split() creates row/column sub-communicators.

#include <algorithm>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "resilience/fault.hpp"
#include "util/check.hpp"

namespace psdns::comm {

class Communicator;

/// Handle for a pending nonblocking collective. The exchange is performed
/// inside wait(); all ranks must call wait() in matching collective order.
/// Deliberately a plain function pointer plus arguments rather than a
/// std::function: the capture (communicator + two buffers + count) would
/// exceed the small-object buffer and heap-allocate on every ialltoall in
/// the async pipeline's steady state.
class Request {
 public:
  using RunFn = void (*)(Communicator&, const void*, void*, std::size_t);

  Request() = default;

  bool valid() const { return run_ != nullptr; }

  void wait() {
    PSDNS_REQUIRE(valid(), "wait() on an empty or consumed Request");
    RunFn fn = run_;
    run_ = nullptr;
    fn(*comm_, send_, recv_, count_);
  }

 private:
  friend class Communicator;
  Request(Communicator* comm, RunFn run, const void* send, void* recv,
          std::size_t count)
      : comm_(comm), run_(run), send_(send), recv_(recv), count_(count) {}

  Communicator* comm_ = nullptr;
  RunFn run_ = nullptr;
  const void* send_ = nullptr;
  void* recv_ = nullptr;
  std::size_t count_ = 0;
};

namespace detail {

/// Process-unique id tagging one communicator group's trace flows.
std::uint64_t next_group_trace_uid();

/// State shared by all ranks of one communicator.
struct Group {
  explicit Group(int n)
      : size(n), barrier(n), slots(static_cast<std::size_t>(n)),
        trace_uid(next_group_trace_uid()) {}

  int size;
  std::barrier<> barrier;
  std::vector<const void*> slots;  // per-rank published pointer
  std::uint64_t trace_uid;

  // split() bookkeeping: first arriving rank of each color creates the
  // subgroup.
  std::mutex split_mutex;
  std::map<int, std::shared_ptr<Group>> pending_splits;
  std::vector<std::pair<int, int>> split_keys;  // (color, key) per rank
};

}  // namespace detail

class Communicator {
 public:
  Communicator(std::shared_ptr<detail::Group> group, int rank)
      : group_(std::move(group)), rank_(rank) {
    PSDNS_REQUIRE(rank_ >= 0 && rank_ < group_->size, "rank out of range");
  }

  int rank() const { return rank_; }
  int size() const { return group_->size; }

  void barrier() { group_->barrier.arrive_and_wait(); }

  /// MPI_ALLTOALL: send holds size() blocks of `count` elements, block r
  /// destined for rank r; recv receives one block from every rank.
  template <class T>
  void alltoall(const T* send, T* recv, std::size_t count) {
    // Fault drill hook. Counted per thread, so every SPMD rank fires at the
    // same call index and a thrown fault unwinds all ranks *before* anyone
    // publishes or enters the barrier - no deadlock. A bit_flip plan entry
    // corrupts one bit of the received payload instead (silent fault).
    const auto fault = resilience::poll(resilience::site::comm_alltoall);
    if (fault == resilience::FaultKind::Throw ||
        fault == resilience::FaultKind::ShortWrite) {
      throw resilience::InjectedFault(resilience::site::comm_alltoall,
                                      *fault);
    }
    obs::registry().counter_add("comm.alltoall.calls");
    obs::registry().counter_add(
        "comm.alltoall.bytes",
        static_cast<std::int64_t>(sizeof(T) * count *
                                  static_cast<std::size_t>(size())));
    // Causal tracing: every rank's span emits its outgoing flow before the
    // publish barrier and consumes every peer's after the exchange, so the
    // trace records the full cross-rank happened-before fan of the
    // collective. The sequence number advances on every rank (SPMD call
    // order is identical), keeping flow ids aligned across the group.
    obs::TraceSpan span("comm.alltoall", obs::SpanKind::Comm);
    const std::uint64_t cseq = collective_seq_++;
    if (span.id() != 0) obs::flow_emit(collective_flow(cseq, rank_));
    publish(send);
    for (int r = 0; r < size(); ++r) {
      const T* theirs = peek<T>(r);
      std::copy(theirs + static_cast<std::size_t>(rank_) * count,
                theirs + static_cast<std::size_t>(rank_ + 1) * count,
                recv + static_cast<std::size_t>(r) * count);
    }
    barrier();  // all reads done before anyone reuses their send buffer
    if (span.id() != 0) {
      for (int r = 0; r < size(); ++r) {
        if (r != rank_) obs::flow_consume(collective_flow(cseq, r));
      }
    }
    if (fault == resilience::FaultKind::BitFlip && count > 0) {
      // Flip a high exponent bit of the first element's top byte: for
      // floating-point payloads the value jumps by many orders of
      // magnitude, so products go non-finite within one step and the
      // health monitor's NaN guard can catch the corruption immediately
      // (an LSB mantissa flip would hide below the diagnostics noise).
      reinterpret_cast<unsigned char*>(recv)[sizeof(T) - 1] ^= 0x40u;
    }
  }

  /// MPI_IALLTOALL. The returned Request's wait() performs the exchange.
  template <class T>
  Request ialltoall(const T* send, T* recv, std::size_t count) {
    return Request(
        this,
        [](Communicator& c, const void* s, void* r, std::size_t n) {
          c.alltoall(static_cast<const T*>(s), static_cast<T*>(r), n);
        },
        send, recv, count);
  }

  /// MPI_ALLTOALLV with per-destination counts and displacements (in
  /// elements). counts/displs arrays live on each rank and describe both
  /// its send layout (send_counts) and receive layout (recv_counts).
  template <class T>
  void alltoallv(const T* send, const std::size_t* send_counts,
                 const std::size_t* send_displs, T* recv,
                 const std::size_t* recv_counts,
                 const std::size_t* recv_displs) {
    struct Spec {
      const T* data;
      const std::size_t* counts;
      const std::size_t* displs;
    };
    // Same drill hook as alltoall: the v-variant is the same collective to
    // the fault plan (both count against the comm.alltoall site).
    resilience::maybe_throw(resilience::site::comm_alltoall);
    std::size_t send_elems = 0;
    for (int r = 0; r < size(); ++r) send_elems += send_counts[r];
    obs::registry().counter_add("comm.alltoall.calls");
    obs::registry().counter_add(
        "comm.alltoall.bytes",
        static_cast<std::int64_t>(sizeof(T) * send_elems));
    obs::TraceSpan span("comm.alltoallv", obs::SpanKind::Comm);
    const std::uint64_t cseq = collective_seq_++;
    if (span.id() != 0) obs::flow_emit(collective_flow(cseq, rank_));
    const Spec mine{send, send_counts, send_displs};
    publish(&mine);
    for (int r = 0; r < size(); ++r) {
      const Spec* theirs = peek<Spec>(r);
      const std::size_t n = theirs->counts[rank_];
      PSDNS_CHECK(n == recv_counts[r],
                  "alltoallv count mismatch between sender and receiver");
      std::copy(theirs->data + theirs->displs[rank_],
                theirs->data + theirs->displs[rank_] + n,
                recv + recv_displs[r]);
    }
    barrier();
    if (span.id() != 0) {
      for (int r = 0; r < size(); ++r) {
        if (r != rank_) obs::flow_consume(collective_flow(cseq, r));
      }
    }
  }

  /// MPI_ALLREDUCE(sum). In-place allowed (send == recv). The accumulator
  /// is per-thread scratch that grows to the largest count ever reduced,
  /// so steady-state calls (solver diagnostics every step) do not allocate.
  template <class T>
  void allreduce_sum(const T* send, T* recv, std::size_t count) {
    publish(send);
    thread_local std::vector<T> acc;
    if (acc.size() < count) acc.resize(count);
    std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(count),
              T{});
    for (int r = 0; r < size(); ++r) {
      const T* theirs = peek<T>(r);
      for (std::size_t i = 0; i < count; ++i) acc[i] += theirs[i];
    }
    barrier();  // reads complete before anyone overwrites recv==send
    std::copy(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(count),
              recv);
    barrier();
  }

  template <class T>
  T allreduce_sum(T value) {
    T out{};
    allreduce_sum(&value, &out, 1);
    return out;
  }

  template <class T>
  T allreduce_max(T value) {
    publish(&value);
    T best = value;
    for (int r = 0; r < size(); ++r) best = std::max(best, *peek<T>(r));
    barrier();
    return best;
  }

  /// MPI_BCAST from `root`.
  template <class T>
  void broadcast(T* data, std::size_t count, int root) {
    publish(data);
    if (rank_ != root) {
      const T* src = peek<T>(root);
      std::copy(src, src + count, data);
    }
    barrier();
  }

  /// MPI_GATHER: every rank contributes `count` elements; root receives
  /// size()*count elements ordered by rank. recv may be null on non-roots.
  template <class T>
  void gather(const T* send, T* recv, std::size_t count, int root) {
    publish(send);
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        const T* theirs = peek<T>(r);
        std::copy(theirs, theirs + count,
                  recv + static_cast<std::size_t>(r) * count);
      }
    }
    barrier();
  }

  /// MPI_SCATTER: root's send buffer holds size() blocks of `count`
  /// elements; every rank receives its block. send may be null on
  /// non-roots.
  template <class T>
  void scatter(const T* send, T* recv, std::size_t count, int root) {
    publish(send);
    const T* src = peek<T>(root);
    std::copy(src + static_cast<std::size_t>(rank_) * count,
              src + static_cast<std::size_t>(rank_ + 1) * count, recv);
    barrier();
  }

  /// MPI_GATHERV: rank r contributes counts[r] elements; root receives
  /// them back to back in rank order. recv may be null on non-roots.
  template <class T>
  void gatherv(const T* send, T* recv, const std::size_t* counts, int root) {
    publish(send);
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        const T* theirs = peek<T>(r);
        recv = std::copy(theirs, theirs + counts[r], recv);
      }
    }
    barrier();
  }

  /// MPI_SCATTERV: the inverse of gatherv (counts known on every rank).
  /// send may be null on non-roots.
  template <class T>
  void scatterv(const T* send, T* recv, const std::size_t* counts,
                int root) {
    publish(send);
    const T* src = peek<T>(root);
    for (int r = 0; r < rank_; ++r) src += counts[r];
    std::copy(src, src + counts[rank_], recv);
    barrier();
  }

  /// MPI_COMM_SPLIT: ranks with equal `color` form a new communicator,
  /// ordered by (key, parent rank).
  Communicator split(int color, int key);

 private:
  /// Publishes a pointer and synchronizes so every rank's slot is visible.
  template <class P>
  void publish(const P* ptr) {
    group_->slots[rank_] = ptr;
    barrier();
  }

  template <class P>
  const P* peek(int r) const {
    return static_cast<const P*>(group_->slots[r]);
  }

  /// Trace-flow id of src rank's contribution to this group's `seq`-th
  /// collective. Top bit set so ids never collide with obs::new_flow().
  std::uint64_t collective_flow(std::uint64_t seq, int src) const {
    return (std::uint64_t{1} << 63) |
           ((group_->trace_uid & 0x7FFFF) << 44) | ((seq & 0xFFFFFFFF) << 12) |
           (static_cast<std::uint64_t>(src) & 0xFFF);
  }

  std::shared_ptr<detail::Group> group_;
  int rank_;
  std::uint64_t collective_seq_ = 0;  // per-rank count of traced collectives
};

/// SPMD launcher: runs `body(comm)` on `nranks` threads, each with its own
/// rank of a fresh world communicator. Exceptions thrown by any rank are
/// collected and the first (by rank) is rethrown after all threads join.
void run_ranks(int nranks, const std::function<void(Communicator&)>& body);

}  // namespace psdns::comm
