#pragma once
// Chrome trace-event export: converts span traces - of real runs, or of
// the co-simulator's DAG runner - into the JSON array form of the Trace
// Event Format, loadable by Perfetto (ui.perfetto.dev) and chrome://tracing
// - the paper's Fig.-10 timeline view, but interactive. Every span becomes
// a complete event (ph "X") with microsecond timestamps; each thread (or
// DAG lane) becomes one named track; span kinds map to stable Chrome color
// names so the transfer/compute/network streams render in the paper's
// blue/green/red scheme.

#include <string>
#include <vector>

#include "obs/span.hpp"

namespace psdns::obs {

struct ChromeTraceOptions {
  int pid = 1;
  double seconds_to_us = 1e6;  // sim/wall seconds -> trace microseconds
  std::string process_name = "psdns";
  /// Track name of thread k (a simulated trace's lane names); threads
  /// past its end are named "thread <k>".
  std::vector<std::string> thread_names;
};

/// Chrome color-name for a span kind (the `cname` event field; Fig.-4
/// scheme).
const char* chrome_color(SpanKind kind);

/// Span trace -> Chrome trace. Ranks map to processes (pid =
/// options.pid + rank + 1, untagged spans to options.pid) and threads to
/// tids, so every SPMD rank renders as its own named track group; each
/// flow edge becomes a Chrome flow-event pair (ph "s" at the source
/// span's end, ph "f" with bp "e" at the destination span's start) that
/// Perfetto/chrome://tracing draw as arrows between the tracks.
std::string to_chrome_trace(const SpanTrace& trace,
                            const ChromeTraceOptions& options = {});

/// Writes `text` to `path` (truncating). Throws util::Error on failure.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace psdns::obs
