#pragma once
// DAG runner: executes a graph of operations on the discrete-event engine.
//
// Lanes give CUDA-stream semantics: operations added to the same lane are
// implicitly ordered by insertion (issue) order, exactly like work queued to
// a CUDA stream or to a single CPU thread. Explicit dependencies model CUDA
// events / MPI_WAIT edges across lanes. Two op flavors exist:
//   - fixed ops: a precomputed duration (e.g. an FFT kernel),
//   - flow ops: a byte count moved through the FlowNetwork (e.g. an NVLink
//     copy or an all-to-all), whose duration emerges from bandwidth sharing.
//
// The trace is the one real runs produce: every op becomes an obs span on
// the sim clock, so the same overlap, attribution and Chrome-export code
// (obs/critical_path.hpp, obs/trace_export.hpp) serves both.

#include <cstddef>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "sim/engine.hpp"
#include "sim/flow_network.hpp"

namespace psdns::sim {

struct OpId {
  std::size_t index = static_cast<std::size_t>(-1);
  bool valid() const { return index != static_cast<std::size_t>(-1); }
};

using LaneId = std::size_t;

class DagRunner {
 public:
  DagRunner(Engine& engine, FlowNetwork& network)
      : engine_(engine), network_(network) {}

  /// A new lane; its ops' spans carry `rank` (-1 = untagged), which is
  /// what per-rank overlap analysis groups by.
  LaneId add_lane(std::string name, int rank = -1);

  /// Fixed-duration op. `overhead` is serial launch overhead charged on the
  /// lane before the op body (models API call / kernel launch latency).
  OpId add_op(std::string label, LaneId lane, obs::SpanKind kind,
              double duration, const std::vector<OpId>& deps,
              double overhead = 0.0);

  /// Bandwidth-shaped op: moves `bytes` through `path` at a max-min fair
  /// rate capped at `rate_cap`. The lane is blocked for the flow duration.
  OpId add_flow_op(std::string label, LaneId lane, obs::SpanKind kind,
                   double bytes, const std::vector<LinkId>& path,
                   double rate_cap, const std::vector<OpId>& deps,
                   double overhead = 0.0, int flow_class = 0,
                   double interference_factor = 1.0);

  /// Runs the whole DAG to completion; returns the makespan (finish time of
  /// the last op). Can only be called once.
  SimTime run();

  SimTime start_time(OpId id) const { return ops_.at(id.index).span.start_s; }
  SimTime finish_time(OpId id) const { return ops_.at(id.index).span.end_s; }

  /// One span per op, in issue order: id = op index + 1, thread = lane
  /// index, rank = the lane's rank, times on the sim clock.
  std::vector<obs::SpanRecord> spans() const;

  /// Lane names, indexed by LaneId (= a span's thread).
  const std::vector<std::string>& lanes() const { return lane_names_; }

 private:
  struct Op {
    obs::SpanRecord span;
    double duration = 0.0;  // fixed ops
    double bytes = -1.0;    // >= 0 marks a flow op
    std::vector<LinkId> path;
    double rate_cap = 0.0;
    double overhead = 0.0;
    int flow_class = 0;
    double interference_factor = 1.0;
    std::vector<std::size_t> deps;
    std::vector<std::size_t> dependents;
    std::size_t unmet = 0;
    bool started = false;
    bool finished = false;
  };

  void try_start(std::size_t index);
  void on_finished(std::size_t index);

  Engine& engine_;
  FlowNetwork& network_;
  std::vector<Op> ops_;
  std::vector<std::string> lane_names_;
  std::vector<int> lane_ranks_;
  std::vector<OpId> lane_tail_;  // last op issued to each lane
  std::size_t unfinished_ = 0;
  bool ran_ = false;
};

}  // namespace psdns::sim
