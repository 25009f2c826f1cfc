#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace pardon::perfbench {

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile result{.value = std::nullopt, .n = values.size()};
  if (values.empty()) return result;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  if (values.size() - 1 - index < kMinSamplesBeyond) return result;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  result.value = values[index];
  return result;
}

std::vector<RoundTimeline> RoundTimelines(const std::vector<Call>& calls,
                                          const std::vector<RunInfo>& runs) {
  // [run] -> round -> (first entry, slowest call)
  std::vector<std::map<int, std::pair<double, double>>> rounds(runs.size());
  for (const Call& call : calls) {
    if (call.hook != Hook::kTrainClient) continue;
    auto [it, inserted] = rounds[static_cast<std::size_t>(call.run)].try_emplace(
        call.round, call.start_s, call.end_s - call.start_s);
    if (!inserted) {
      it->second.first = std::min(it->second.first, call.start_s);
      it->second.second = std::max(it->second.second, call.end_s - call.start_s);
    }
  }
  std::vector<RoundTimeline> timelines(runs.size());
  for (std::size_t run = 0; run < runs.size(); ++run) {
    RoundTimeline& timeline = timelines[run];
    for (const auto& [round, entry] : rounds[run]) {
      timeline.start_s.push_back(entry.first);
      timeline.slowest_train_s.push_back(entry.second);
    }
    for (std::size_t i = 0; i < timeline.start_s.size(); ++i) {
      const double end = i + 1 < timeline.start_s.size()
                             ? timeline.start_s[i + 1]
                             : runs[run].end_s;
      timeline.period_s.push_back(end - timeline.start_s[i]);
    }
  }
  return timelines;
}

namespace {

// `{"a":1,"b":2}` from pre-rendered `"key":value` fields.
std::string JsonObject(const std::vector<std::string>& fields) {
  std::string out(1, '{');
  for (const std::string& field : fields) {
    if (out.size() > 1) out += ',';
    out += field;
  }
  out += '}';
  return out;
}

std::string JsonString(std::string_view text) {
  std::string out(1, '"');
  out += obs::JsonEscape(text);
  out += '"';
  return out;
}

std::string JsonField(std::string_view key, const std::string& json) {
  return JsonString(key) + ":" + json;
}

std::string JsonPercentile(const std::vector<double>& values, double q) {
  const Percentile percentile = PercentileOf(values, q);
  return percentile.value.has_value() ? obs::JsonNumber(*percentile.value)
                                      : std::string("null");
}

template <typename Map, typename Render>
std::string JsonMap(const Map& map, Render render) {
  std::vector<std::string> fields;
  for (const auto& [key, value] : map) {
    fields.push_back(JsonField(key, render(value)));
  }
  return JsonObject(fields);
}

}  // namespace

std::string ParamsDigest(const std::vector<float>& params) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
  for (std::size_t i = 0; i < params.size() * sizeof(float); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::string PassJson(const PassResult& pass, const RunContext& context) {
  const std::string json_context = JsonObject({
      obs::JsonKv("nproc", std::int64_t{context.nproc}),
      obs::JsonKv("gemm_backend", context.gemm_backend),
      obs::JsonKv("gemm_threads",
                  static_cast<std::int64_t>(context.gemm_threads)),
      obs::JsonKv("sim_threads", static_cast<std::int64_t>(context.sim_threads)),
      obs::JsonKv("build_type", context.build_type),
      obs::JsonKv("compiler", context.compiler),
  });
  std::vector<std::string> failures;
  for (const std::string& failure : pass.check_failures) {
    failures.push_back(JsonString(failure));
  }
  std::vector<std::string> missing;
  for (const std::string& name : pass.layers.missing) {
    missing.push_back(JsonString(name));
  }
  const auto number = [](double value) { return obs::JsonNumber(value); };
  const auto count = [](std::size_t value) { return std::to_string(value); };
  auto join = [](const std::vector<std::string>& items) {
    std::string out(1, '[');
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ',';
      out += items[i];
    }
    out += ']';
    return out;
  };
  return JsonObject({
      JsonField("context", json_context),
      obs::JsonKv("run_s", pass.run_s),
      obs::JsonKv("setup_s", pass.setup_s),
      obs::JsonKv("attempted", pass.attempted),
      obs::JsonKv("failed", pass.failed),
      obs::JsonKv("folded", pass.folded),
      obs::JsonKv("rounds", static_cast<std::int64_t>(pass.round_ms.size())),
      JsonField("round_p50_ms", JsonPercentile(pass.round_ms, 0.50)),
      JsonField("round_p95_ms", JsonPercentile(pass.round_ms, 0.95)),
      obs::JsonKv("accuracy_table", pass.accuracy_table),
      obs::JsonKv("test_acc_pct", pass.test_acc_pct),
      obs::JsonKv("wire_mb_per_round", pass.wire_mb_per_round),
      obs::JsonKv("peak_rss_mb", PeakRssMb()),
      obs::JsonKv("params_digest", pass.params_digest),
      JsonField("check_failures", join(failures)),
      JsonField("layers", JsonMap(pass.layers.value, number)),
      JsonField("layer_samples", JsonMap(pass.layers.samples, count)),
      JsonField("layer_missing", join(missing)),
      JsonField("self_s", JsonMap(pass.layers.self_s, number)),
  });
}

}  // namespace pardon::perfbench
