#include "obs/exporter.h"

namespace bcfl::obs {

Status ExportTo(const MetricsRegistry& registry, const Tracer& tracer,
                const ExportPaths& paths) {
  if (!paths.metrics_json.empty() &&
      !registry.WriteFile(paths.metrics_json, paths.metrics_extra)) {
    return Status::Internal("cannot write metrics to " + paths.metrics_json);
  }
  if (!paths.trace_json.empty() &&
      !tracer.WriteChromeTraceFile(paths.trace_json)) {
    return Status::Internal("cannot write trace to " + paths.trace_json);
  }
  return Status::OK();
}

Status ExportGlobal(const ExportPaths& paths) {
  return ExportTo(MetricsRegistry::Global(), Tracer::Global(), paths);
}

Status ExportGlobalWithPrefix(const std::string& prefix) {
  ExportPaths paths;
  paths.metrics_json = prefix + "_metrics.json";
  paths.trace_json = prefix + "_trace.json";
  return ExportGlobal(paths);
}

}  // namespace bcfl::obs
