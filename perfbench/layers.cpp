#include "layers.hpp"

#include <cstdint>
#include <optional>
#include <string_view>

#include "report.hpp"

namespace pardon::perfbench {

void AddHookLayers(const std::vector<Call>& calls,
                   const std::vector<RunInfo>& runs, Layers& layers) {
  std::map<std::string, std::vector<double>> train_ms;
  std::map<std::string, std::vector<double>> aggregate_ms;
  double train_busy = 0.0;
  double aggregate_busy = 0.0;
  for (const Call& call : calls) {
    const std::string& method = runs[static_cast<std::size_t>(call.run)].method;
    const double seconds = call.end_s - call.start_s;
    switch (call.hook) {
      case Hook::kSetup:
        layers.value["setup_s." + method] += seconds;
        break;
      case Hook::kTrainClient:
        train_ms[method].push_back(seconds * 1e3);
        train_busy += seconds;
        break;
      case Hook::kAggregate:
        aggregate_ms[method].push_back(seconds * 1e3);
        aggregate_busy += seconds;
        break;
    }
  }
  for (const auto& [method, samples] : train_ms) {
    layers.SetPercentile("train_client_ms_p50." + method,
                         PercentileOf(samples, 0.50));
    layers.SetPercentile("train_client_ms_p95." + method,
                         PercentileOf(samples, 0.95));
  }
  for (const auto& [method, samples] : aggregate_ms) {
    layers.SetPercentile("aggregate_ms_p50." + method,
                         PercentileOf(samples, 0.50));
  }
  layers.value["train_client_busy_s"] = train_busy;
  layers.value["aggregate_busy_s"] = aggregate_busy;
}

namespace {

double CounterSum(const obs::MetricsRegistry& metrics, std::string_view name) {
  double total = 0.0;
  for (const std::string_view label :
       {"", "backend=\"naive\"", "backend=\"blocked\"", "backend=\"simd\""}) {
    total += metrics.CounterValue(name, label);
  }
  return total;
}

}  // namespace

void AddProgramLayers(obs::ObsSession& session, std::size_t workers,
                      Layers& layers) {
  std::map<std::string, double>& out = layers.value;
  const std::vector<obs::TraceEvent> events = session.trace().Events();
  // The simulator's round loop runs on the thread that records fl.run.
  std::optional<std::uint32_t> main_thread;
  for (const obs::TraceEvent& event : events) {
    if (event.name == "fl.run") main_thread = event.thread_id;
  }
  std::map<std::string, double> span_s;  // main-thread span -> summed seconds
  double rounds = 0.0;
  for (const obs::TraceEvent& event : events) {
    if (event.phase != 'X' || event.thread_id != main_thread) continue;
    span_s[event.name] += static_cast<double>(event.duration_us) * 1e-6;
    if (event.name == "fl.round") rounds += 1.0;
  }
  if (main_thread.has_value()) {
    double round_children = 0.0;
    for (const char* child : {"fl.sample", "fl.local_train", "fl.deliver",
                              "fl.aggregate", "fl.evaluate", "fl.checkpoint"}) {
      if (span_s[child] > 0.0) layers.self_s[child] = span_s[child];
      round_children += span_s[child];
    }
    const double round_self = span_s["fl.round"] - round_children;
    layers.self_s["fl.setup"] = span_s["fl.setup"];
    layers.self_s["fl.round_self"] = round_self;
    layers.self_s["fl.run_self"] =
        span_s["fl.run"] - span_s["fl.setup"] - span_s["fl.round"];
    out["fl.round_self_ms"] = round_self / rounds * 1e3;
    out["fl.evaluate_s"] = span_s["fl.evaluate"];
    out["fl.local_train_eff"] =
        out["train_client_busy_s"] /
        (static_cast<double>(workers) * span_s["fl.local_train"]);
    out["obs.fold_gap_s"] =
        session.metrics().CounterValue("pardon_fl_aggregate_seconds") -
        span_s["fl.aggregate"];
  }
  if (span_s.contains("fisc.style_extraction")) {
    out["fisc.style_extraction_s"] = span_s["fisc.style_extraction"];
    out["fisc.interpolation_s"] = span_s["fisc.interpolation"];
    out["fisc.cache_build_s"] = span_s["fisc.cache_build"];
  }

  obs::MetricsRegistry& metrics = session.metrics();
  const double gemm_calls =
      CounterSum(metrics, "pardon_tensor_gemm_calls_total");
  if (gemm_calls > 0.0) {
    const double gemm_flops =
        CounterSum(metrics, "pardon_tensor_gemm_flops_total");
    out["tensor.gemm_calls"] = gemm_calls;
    out["tensor.gemm_mflop_per_call"] = gemm_flops / gemm_calls / 1e6;
    out["tensor.gemm_gflops_eff"] =
        gemm_flops / out["train_client_busy_s"] / 1e9;
  }
  const double pool_tasks =
      metrics.CounterValue("pardon_util_thread_pool_tasks_total");
  if (pool_tasks > 0.0) {
    out["util.pool_tasks"] = pool_tasks;
    out["util.pool_queue_depth_max"] =
        metrics.GetGauge("pardon_util_thread_pool_queue_depth").Max();
  }
  const double hits =
      metrics.CounterValue("pardon_style_transfer_cache_hits_total");
  const double misses =
      metrics.CounterValue("pardon_style_transfer_cache_misses_total");
  if (hits + misses > 0.0) out["style.cache_hit_ratio"] = hits / (hits + misses);
}

}  // namespace pardon::perfbench
