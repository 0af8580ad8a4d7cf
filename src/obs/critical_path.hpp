#pragma once
// Critical-path and overlap analysis of a DNS step: turns a span trace
// (obs/span.hpp) - of a real run, or of the co-simulator, whose DAG runner
// emits one span per op on the sim clock - into the two numbers the
// paper's asynchronism claim is about:
//
//  * overlap efficiency: the fraction of transfer+comm busy time hidden
//    under concurrent compute (Fig. 4's batched schedule as a metric -
//    ~0 for the serialized ablation, close to 1 when the pipeline works);
//  * critical-path attribution: the step's wall time split into compute /
//    exposed comm / exposed transfer / other / idle, by sweeping the
//    timeline and charging each instant to the highest-priority active
//    category (compute > comm > transfer > other). The buckets sum to the
//    analyzed makespan, so "what would speeding up X buy" reads directly
//    off the report.
//
// A true DAG walk is also provided: same-thread ordering plus the
// recorded flow edges form the dependency graph, and the longest chain of
// leaf spans (by summed duration) is the critical path.

#include <string>
#include <vector>

#include "obs/span.hpp"

namespace psdns::obs {

/// Wall-time attribution; all fields in seconds. total = compute + comm +
/// transfer + other + idle (up to rounding).
struct PathAttribution {
  double total = 0.0;     // analyzed interval (first start .. last finish)
  double compute = 0.0;   // >= 1 compute op active
  double comm = 0.0;      // exposed communication (no compute active)
  double transfer = 0.0;  // exposed CPU<->GPU traffic (no compute, no comm)
  double other = 0.0;     // exposed host-side / misc work
  double idle = 0.0;      // nothing active
};

/// Overlap of traffic (transfer + comm) with compute. Overlap is judged
/// per rank: traffic counts as hidden only while compute of the *same*
/// rank (span rank tag) is active. Two ranks coincidentally busy at the
/// same instant is not the schedule hiding anything.
struct OverlapStats {
  double compute_busy = 0.0;   // union of compute intervals, summed per rank
  double traffic_busy = 0.0;   // union of transfer+comm intervals, per rank
  double hidden = 0.0;         // traffic under same-rank concurrent compute
  double exposed = 0.0;        // traffic with no same-rank compute active
  /// Achieved overlap over achievable overlap: hidden divided by
  /// sum-per-rank min(compute_busy, traffic_busy), the most a schedule
  /// could possibly hide (whichever of compute or traffic is shorter can
  /// at best run entirely under the other). 0 for a serialized schedule,
  /// 1 for perfect pipelining, regardless of whether compute or
  /// communication dominates the step.
  double overlap_efficiency = 0.0;
};

// Only leaf spans (spans no other span names as parent) enter the
// analyses; enclosing phase spans would double-count their children.
// Kind buckets: Compute -> compute; Comm -> comm; Transfer -> transfer;
// Io+Other -> other.

OverlapStats overlap_stats(const std::vector<SpanRecord>& spans);
PathAttribution attribute_wall_time(const std::vector<SpanRecord>& spans);

/// Length of the union of the [start, end) intervals of one kind: the wall
/// time during which at least one such span was active, on any rank.
double busy_time(const std::vector<SpanRecord>& spans, SpanKind kind);

/// Longest dependency chain of leaf spans. Predecessors of a span are the
/// latest earlier leaf on the same (thread, rank) lane plus every span
/// with a recorded flow edge into it; the chain maximizing summed span
/// duration is returned, earliest span first.
struct CriticalPath {
  std::vector<SpanRecord> spans;  // the chain, in time order
  double path_seconds = 0.0;      // summed durations along the chain
  PathAttribution attribution;    // the chain's time by span kind; gaps
                                  // between consecutive chain spans -> idle
};

CriticalPath critical_path(const SpanTrace& trace);

/// Human-readable one-line summaries for logs and bench tables.
std::string to_string(const OverlapStats& s);
std::string to_string(const PathAttribution& a);

}  // namespace psdns::obs
