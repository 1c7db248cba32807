// bench_diff — the bench-regression gate.
//
//   $ ./tools/bench_diff --baseline BENCH_chain.json --candidate new.json
//
// `--metrics speedup,equivalence` restricts the comparison to those
// metrics, `--tolerance 0.5 --tolerance schnorr=0.9` sets the default
// and a per-metric relative tolerance, `--out verdict.json` names the
// verdict file.
//
// Compares every shared numeric/boolean metric of two BENCH_*.json
// documents under per-metric relative tolerances (see
// src/obs/bench_diff.h for the direction heuristics), writes a
// machine-readable verdict JSON and exits 0 when clean, 1 on any
// regression or missing metric, 2 on usage/parse errors. Wired into
// scripts/ci_check.sh against the committed baselines.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/bench_diff.h"
#include "obs/json_reader.h"

namespace {

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s --baseline F --candidate F [options]\n"
      "  --baseline F        committed bench JSON (required)\n"
      "  --candidate F       freshly generated bench JSON (required)\n"
      "  --tolerance FRAC    default relative tolerance (default 0.25)\n"
      "  --tolerance P=FRAC  override for metrics whose path contains P\n"
      "                      (repeatable; longest match wins)\n"
      "  --metrics S[,S...]  only check paths containing a listed "
      "substring\n"
      "  --ignore S[,S...]   never check paths containing a listed "
      "substring\n"
      "  --out F             verdict JSON path (default: stdout, - = "
      "stdout)\n"
      "  --quiet             suppress the per-metric summary\n"
      "  --help              this message\n",
      argv0);
}

void SplitCsv(const std::string& csv, std::vector<std::string>* out) {
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out->push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string candidate_path;
  std::string out_path = "-";
  bool quiet = false;
  bcfl::obs::BenchDiffOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help") {
      PrintUsage(argv[0]);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--baseline") {
      const char* v = next_value("--baseline");
      if (v == nullptr) return 2;
      baseline_path = v;
    } else if (arg == "--candidate") {
      const char* v = next_value("--candidate");
      if (v == nullptr) return 2;
      candidate_path = v;
    } else if (arg == "--out") {
      const char* v = next_value("--out");
      if (v == nullptr) return 2;
      out_path = v;
    } else if (arg == "--metrics") {
      const char* v = next_value("--metrics");
      if (v == nullptr) return 2;
      SplitCsv(v, &options.metric_filters);
    } else if (arg == "--ignore") {
      const char* v = next_value("--ignore");
      if (v == nullptr) return 2;
      SplitCsv(v, &options.ignored);
    } else if (arg == "--tolerance") {
      const char* v = next_value("--tolerance");
      if (v == nullptr) return 2;
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr) {
        options.default_tolerance = std::atof(v);
      } else {
        options.tolerance_overrides[std::string(v, eq - v)] =
            std::atof(eq + 1);
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
  }
  if (baseline_path.empty() || candidate_path.empty()) {
    std::fprintf(stderr, "--baseline and --candidate are required\n");
    PrintUsage(argv[0]);
    return 2;
  }

  auto baseline = bcfl::obs::ParseJsonFile(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 2;
  }
  auto candidate = bcfl::obs::ParseJsonFile(candidate_path);
  if (!candidate.ok()) {
    std::fprintf(stderr, "%s\n", candidate.status().ToString().c_str());
    return 2;
  }

  const bcfl::obs::BenchDiffResult result =
      bcfl::obs::DiffBench(*baseline, *candidate, options);

  if (!quiet) {
    for (const auto& verdict : result.verdicts) {
      if (verdict.status == "ok" || verdict.status == "info") continue;
      std::fprintf(stderr, "%-16s %s: baseline %.6g, candidate %.6g\n",
                   verdict.status.c_str(), verdict.path.c_str(),
                   verdict.baseline, verdict.candidate);
    }
    std::fprintf(stderr,
                 "bench_diff: %zu checked, %zu regression(s), %zu "
                 "missing -> %s\n",
                 result.checked, result.regressions, result.missing,
                 result.ok ? "OK" : "FAIL");
  }

  const std::string verdict_json =
      result.ToJson(baseline_path, candidate_path);
  if (out_path == "-") {
    std::printf("%s\n", verdict_json.c_str());
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(verdict_json.data(), 1, verdict_json.size(), f) !=
            verdict_json.size()) {
      std::fprintf(stderr, "cannot write verdict to %s\n", out_path.c_str());
      if (f != nullptr) std::fclose(f);
      return 2;
    }
    std::fputc('\n', f);
    std::fclose(f);
  }
  return result.ok ? 0 : 1;
}
