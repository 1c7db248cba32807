#include "obs/round_ledger.h"

#include <cmath>
#include <string>

#include "obs/json_reader.h"
#include "obs/json_writer.h"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace bcfl::obs {

std::vector<double> RollingSvVolatility(
    const std::vector<std::vector<double>>& sv_history, size_t window) {
  if (sv_history.empty()) return {};
  const size_t owners = sv_history.back().size();
  const size_t have = sv_history.size();
  const size_t use = window == 0 ? have : std::min(window, have);
  std::vector<double> volatility(owners, 0.0);
  if (use < 2) return volatility;
  for (size_t i = 0; i < owners; ++i) {
    double mean = 0.0;
    size_t n = 0;
    for (size_t r = have - use; r < have; ++r) {
      if (i >= sv_history[r].size()) continue;  // Roster grew? Skip.
      mean += sv_history[r][i];
      ++n;
    }
    if (n < 2) continue;
    mean /= static_cast<double>(n);
    double ss = 0.0;
    for (size_t r = have - use; r < have; ++r) {
      if (i >= sv_history[r].size()) continue;
      const double d = sv_history[r][i] - mean;
      ss += d * d;
    }
    volatility[i] = std::sqrt(ss / static_cast<double>(n - 1));
  }
  return volatility;
}

void AddPhaseDeltas(const MetricsSnapshot& before, const MetricsSnapshot& after,
                    std::map<std::string, double>* phase_us) {
  std::map<std::string, double> start;
  for (const auto& h : before.histograms) start.emplace(h.name, h.sum);
  for (const auto& h : after.histograms) {
    if (h.name.size() < 3 || h.name.compare(h.name.size() - 3, 3, "_us") != 0) {
      continue;
    }
    const auto it = start.find(h.name);
    const double grown = h.sum - (it != start.end() ? it->second : 0.0);
    if (grown > 0.0) (*phase_us)[h.name] += grown;
  }
}

RoundLedger::~RoundLedger() { Close(); }

Status RoundLedger::Open(const std::string& path) {
  Close();
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    return Status::Internal("cannot open round ledger: " + path);
  }
  path_ = path;
  return Status::OK();
}

Status RoundLedger::OpenForResume(
    const std::string& path, size_t keep_rounds,
    const std::vector<std::vector<double>>* exact_sv_history) {
  if (exact_sv_history != nullptr && exact_sv_history->size() < keep_rounds) {
    return Status::InvalidArgument(
        "exact SV history holds " + std::to_string(exact_sv_history->size()) +
        " rounds, resume needs " + std::to_string(keep_rounds));
  }
  Close();
  sv_history_.clear();
  last_volatility_.clear();

  std::FILE* file = std::fopen(path.c_str(), "r+");
  if (file == nullptr) {
    if (keep_rounds == 0) return Open(path);
    return Status::NotFound("no round ledger to resume at " + path);
  }

  // Scan line by line, keeping the byte offset after each whole record.
  std::string line;
  size_t kept = 0;
  long keep_offset = 0;
  int c;
  while (kept < keep_rounds && (c = std::fgetc(file)) != EOF) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    auto value = ParseJson(line);
    if (!value.ok() || !value->is_object()) {
      std::fclose(file);
      return Status::Corruption("unparseable round ledger record " +
                                std::to_string(kept) + " in " + path);
    }
    const JsonValue* sv = value->Find("sv");
    if (sv == nullptr || !sv->is_array()) {
      std::fclose(file);
      return Status::Corruption("round ledger record " + std::to_string(kept) +
                                " has no sv array");
    }
    std::vector<double> scores;
    scores.reserve(sv->array.size());
    for (const JsonValue& v : sv->array) scores.push_back(v.number);
    sv_history_.push_back(std::move(scores));
    line.clear();
    ++kept;
    keep_offset = std::ftell(file);
    if (keep_offset < 0) {
      std::fclose(file);
      return Status::Internal("cannot tell round ledger position");
    }
  }
  if (kept < keep_rounds) {
    std::fclose(file);
    return Status::Corruption(
        "round ledger holds " + std::to_string(kept) + " records, resume needs " +
        std::to_string(keep_rounds));
  }

  // Drop everything after the kept prefix (a torn tail from the kill, or
  // records past the checkpoint that the resumed run re-creates).
#if defined(_WIN32)
  std::fclose(file);
  return Status::Unimplemented("ledger resume unsupported on this platform");
#else
  if (std::fflush(file) != 0 ||
      ::ftruncate(fileno(file), static_cast<off_t>(keep_offset)) != 0 ||
      std::fseek(file, keep_offset, SEEK_SET) != 0) {
    std::fclose(file);
    return Status::Internal("cannot truncate round ledger: " + path);
  }
  file_ = file;
  path_ = path;
  if (exact_sv_history != nullptr) {
    // The parsed history validated the file; the checkpoint's doubles are
    // what the uninterrupted run's volatility window actually held.
    sv_history_.assign(exact_sv_history->begin(),
                       exact_sv_history->begin() +
                           static_cast<ptrdiff_t>(keep_rounds));
  }
  last_volatility_ = RollingSvVolatility(sv_history_, volatility_window_);
  return Status::OK();
#endif
}

Status RoundLedger::Append(const RoundRecord& record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("round ledger is not open");
  }
  sv_history_.push_back(record.sv);
  last_volatility_ = RollingSvVolatility(sv_history_, volatility_window_);
  double volatility_mean = 0.0;
  for (double v : last_volatility_) volatility_mean += v;
  if (!last_volatility_.empty()) {
    volatility_mean /= static_cast<double>(last_volatility_.size());
  }

  JsonWriter json;
  json.BeginObject();
  json.Field("round", static_cast<size_t>(record.round));
  json.BeginObject("phase_us");
  for (const auto& [phase, us] : record.phase_us) json.Field(phase, us);
  json.EndObject();
  json.Field("sig_cache_hit_rate", record.sig_cache_hit_rate);
  json.Field("sig_cache_lookups",
             static_cast<size_t>(record.sig_cache_lookups));
  json.BeginArray("fault_events");
  for (const auto& event : record.fault_events) {
    json.Element(event.c_str());
  }
  json.EndArray();
  json.BeginArray("dropouts");
  for (uint32_t owner : record.dropouts) {
    json.Element(static_cast<size_t>(owner));
  }
  json.EndArray();
  json.BeginArray("recovered");
  for (uint32_t owner : record.recovered) {
    json.Element(static_cast<size_t>(owner));
  }
  json.EndArray();
  json.BeginArray("slashed");
  for (uint32_t owner : record.slashed) {
    json.Element(static_cast<size_t>(owner));
  }
  json.EndArray();
  json.Field("accusations", static_cast<size_t>(record.accusations));
  json.BeginArray("sv");
  for (double v : record.sv) json.Element(v);
  json.EndArray();
  json.BeginArray("sv_volatility");
  for (double v : last_volatility_) json.Element(v);
  json.EndArray();
  json.Field("sv_volatility_mean", volatility_mean);
  json.Field("accuracy", record.accuracy);
  json.Field("blocks_committed",
             static_cast<size_t>(record.blocks_committed));
  json.Field("transactions", static_cast<size_t>(record.transactions));
  json.EndObject();

  const std::string& line = json.str();
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0) {
    return Status::Internal("short write to round ledger: " + path_);
  }
  return Status::OK();
}

void RoundLedger::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace bcfl::obs
