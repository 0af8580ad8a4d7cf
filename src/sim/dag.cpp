#include "sim/dag.hpp"

#include "util/check.hpp"

namespace psdns::sim {

LaneId DagRunner::add_lane(std::string name, int rank) {
  lane_names_.push_back(std::move(name));
  lane_ranks_.push_back(rank);
  lane_tail_.push_back(OpId{});
  return lane_names_.size() - 1;
}

OpId DagRunner::add_op(std::string label, LaneId lane, obs::SpanKind kind,
                       double duration, const std::vector<OpId>& deps,
                       double overhead) {
  PSDNS_REQUIRE(!ran_, "cannot add ops after run()");
  PSDNS_REQUIRE(lane < lane_names_.size(), "unknown lane");
  PSDNS_REQUIRE(duration >= 0.0, "negative duration");

  Op op;
  op.span.id = ops_.size() + 1;
  op.span.name = std::move(label);
  op.span.kind = kind;
  op.span.thread = static_cast<int>(lane);
  op.span.rank = lane_ranks_[lane];
  op.duration = duration;
  op.overhead = overhead;

  // Implicit in-lane ordering (stream semantics) plus explicit deps.
  if (lane_tail_[lane].valid()) op.deps.push_back(lane_tail_[lane].index);
  for (const OpId d : deps) {
    PSDNS_REQUIRE(d.valid() && d.index < ops_.size(), "unknown dependency");
    op.deps.push_back(d.index);
  }

  const std::size_t index = ops_.size();
  ops_.push_back(std::move(op));
  lane_tail_[lane] = OpId{index};
  return OpId{index};
}

OpId DagRunner::add_flow_op(std::string label, LaneId lane,
                            obs::SpanKind kind, double bytes,
                            const std::vector<LinkId>& path, double rate_cap,
                            const std::vector<OpId>& deps, double overhead,
                            int flow_class, double interference_factor) {
  const OpId id = add_op(std::move(label), lane, kind, 0.0, deps, overhead);
  Op& op = ops_[id.index];
  PSDNS_REQUIRE(bytes >= 0.0, "negative flow size");
  op.bytes = bytes;
  op.path = path;
  op.rate_cap = rate_cap;
  op.flow_class = flow_class;
  op.interference_factor = interference_factor;
  return id;
}

SimTime DagRunner::run() {
  PSDNS_REQUIRE(!ran_, "run() may only be called once");
  ran_ = true;
  unfinished_ = ops_.size();

  for (std::size_t i = 0; i < ops_.size(); ++i) {
    Op& op = ops_[i];
    op.unmet = op.deps.size();
    for (const std::size_t d : op.deps) ops_[d].dependents.push_back(i);
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].unmet == 0) try_start(i);
  }
  engine_.run();

  SimTime makespan = 0.0;
  for (const Op& op : ops_) {
    PSDNS_CHECK(op.finished, "DAG deadlock: op never ran: " + op.span.name);
    makespan = std::max(makespan, op.span.end_s);
  }
  return makespan;
}

void DagRunner::try_start(std::size_t index) {
  Op& op = ops_[index];
  PSDNS_CHECK(!op.started, "op started twice");
  op.started = true;
  const SimTime issue = engine_.now();
  op.span.start_s = issue;

  if (op.bytes >= 0.0) {
    // Flow op: overhead elapses serially, then the flow drains.
    engine_.schedule_after(op.overhead, [this, index] {
      Op& o = ops_[index];
      network_.start_flow(
          o.path, o.bytes, o.rate_cap,
          [this, index] { on_finished(index); }, o.flow_class,
          o.interference_factor);
    });
  } else {
    engine_.schedule_after(op.overhead + op.duration,
                           [this, index] { on_finished(index); });
  }
}

void DagRunner::on_finished(std::size_t index) {
  Op& op = ops_[index];
  PSDNS_CHECK(!op.finished, "op finished twice");
  op.finished = true;
  op.span.end_s = engine_.now();
  --unfinished_;
  for (const std::size_t dep : op.dependents) {
    Op& d = ops_[dep];
    PSDNS_CHECK(d.unmet > 0, "dependency count underflow");
    if (--d.unmet == 0) try_start(dep);
  }
}

std::vector<obs::SpanRecord> DagRunner::spans() const {
  std::vector<obs::SpanRecord> out;
  out.reserve(ops_.size());
  for (const Op& op : ops_) out.push_back(op.span);
  return out;
}

}  // namespace psdns::sim
