#pragma once

#include <map>
#include <string>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::obs {

/// Where a run's self-reported observability artifacts go. Empty paths
/// skip that artifact.
struct ExportPaths {
  std::string metrics_json = "metrics.json";
  std::string trace_json = "trace.json";
  /// Extra top-level fields spliced into metrics.json verbatim
  /// (key -> raw JSON value), e.g. a chaos run's executed fault schedule.
  std::map<std::string, std::string> metrics_extra;
};

/// Writes `registry`/`tracer` to the given paths. Returns the first I/O
/// failure (with the offending path in the message).
Status ExportTo(const MetricsRegistry& registry, const Tracer& tracer,
                const ExportPaths& paths);

/// Exports the process-global registry and tracer — the one call every
/// experiment binary makes before exiting so the run self-reports.
Status ExportGlobal(const ExportPaths& paths = {});

/// Convenience for benches: exports the global instruments as
/// `<prefix>_metrics.json` / `<prefix>_trace.json` next to the
/// BENCH_*.json the bench already writes.
Status ExportGlobalWithPrefix(const std::string& prefix);

}  // namespace bcfl::obs
