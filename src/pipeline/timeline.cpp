#include "pipeline/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/critical_path.hpp"
#include "util/format.hpp"

namespace psdns::pipeline {

namespace {

using obs::SpanKind;
using obs::SpanRecord;

/// The rows of the default view, top to bottom.
constexpr std::pair<SpanKind, const char*> kKindRows[] = {
    {SpanKind::Comm, "MPI"},
    {SpanKind::Transfer, "transfer"},
    {SpanKind::Compute, "compute"},
};

std::string paint_row(const std::vector<const SpanRecord*>& ops,
                      double t_end, int columns) {
  std::string row(static_cast<std::size_t>(columns), '.');
  for (const SpanRecord* op : ops) {
    if (op->end_s <= op->start_s) continue;
    // Clip to [0, t_end]: ops entirely outside the window paint nothing
    // (instead of smearing into the first/last column).
    if (op->start_s >= t_end || op->end_s <= 0.0) continue;
    const double start = std::max(op->start_s, 0.0);
    const double finish = std::min(op->end_s, t_end);
    const int c0 = std::clamp(
        static_cast<int>(start / t_end * columns), 0, columns - 1);
    const int c1 = std::clamp(
        static_cast<int>(finish / t_end * columns), c0, columns - 1);
    for (int c = c0; c <= c1; ++c) row[static_cast<std::size_t>(c)] = '#';
  }
  return row;
}

}  // namespace

std::string render_timeline(const std::vector<SpanRecord>& spans,
                            double t_end, const TimelineOptions& options) {
  if (t_end <= 0.0) {
    for (const auto& s : spans) t_end = std::max(t_end, s.end_s);
  }
  if (t_end <= 0.0) return "(empty timeline)\n";

  std::ostringstream os;
  if (!options.lanes.empty()) {
    std::map<std::string, std::vector<const SpanRecord*>> lanes;
    for (const auto& s : spans) {
      lanes[options.lanes.at(static_cast<std::size_t>(s.thread))].push_back(
          &s);
    }
    std::size_t width = 0;
    for (const auto& [name, ops] : lanes) width = std::max(width, name.size());
    for (const auto& [name, ops] : lanes) {
      os << name << std::string(width - name.size(), ' ') << " |"
         << paint_row(ops, t_end, options.columns) << "|\n";
    }
  } else {
    for (const auto& [kind, label] : kKindRows) {
      std::vector<const SpanRecord*> ops;
      for (const auto& s : spans) {
        if (s.kind == kind) ops.push_back(&s);
      }
      os << label << std::string(9 - std::string_view(label).size(), ' ')
         << "|" << paint_row(ops, t_end, options.columns) << "|\n";
    }
  }
  os << "          0" << std::string(static_cast<std::size_t>(
                             std::max(0, options.columns - 10)),
                                     ' ')
     << util::format_time(t_end) << "\n";
  return os.str();
}

std::string summarize_busy(const std::vector<SpanRecord>& spans,
                           double t_end) {
  std::ostringstream os;
  for (const auto& [kind, label] : kKindRows) {
    const double busy = obs::busy_time(spans, kind);
    os << label << ": " << util::format_time(busy) << " ("
       << util::format_fixed(100.0 * busy / t_end, 1) << "%)  ";
  }
  os << "\n";
  return os.str();
}

}  // namespace psdns::pipeline
