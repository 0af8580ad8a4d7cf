#pragma once
// Text rendering of simulated span traces as normalized timelines - the
// Fig.-10 view: one row per span kind (MPI / transfer / compute), a fixed
// number of character columns, '#' where at least one span of that kind
// is active.

#include <string>
#include <vector>

#include "obs/span.hpp"

namespace psdns::pipeline {

struct TimelineOptions {
  int columns = 100;
  /// Non-empty: one row per lane, named lanes[span.thread] (a simulated
  /// step's StepResult::lanes), instead of one row per span kind.
  std::vector<std::string> lanes = {};
};

/// Renders spans in [0, t_end] (t_end defaults to the last end).
std::string render_timeline(const std::vector<obs::SpanRecord>& spans,
                            double t_end = 0.0,
                            const TimelineOptions& options = {});

/// One-line per-kind summary: busy seconds and share of t_end.
std::string summarize_busy(const std::vector<obs::SpanRecord>& spans,
                           double t_end);

}  // namespace psdns::pipeline
