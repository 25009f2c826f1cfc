// Simulator workloads: a committed paper config run the way
// tools/run_experiment runs it (every method x every repeat on fresh
// ScenarioData), each method wrapped in a TimingAlgorithm.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "experiment.hpp"
#include "fl/fault.hpp"
#include "layers.hpp"
#include "obs/session.hpp"
#include "util/config.hpp"
#include "workload.hpp"

namespace pardon::perfbench {
namespace {

// The config -> scenario mapping of tools/run_experiment.
bench::Scenario ScenarioFromConfig(const util::Config& config) {
  const std::string preset_name = config.GetString("dataset.preset", "pacs");
  data::ScenarioPreset preset;
  if (preset_name == "officehome") {
    preset = data::MakeOfficeHomeLike();
  } else if (preset_name == "iwildcam") {
    preset = data::MakeIWildCamLike(
        {.scale = config.GetDouble("dataset.scale", 0.15)});
  } else if (preset_name == "pacs") {
    preset = data::MakePacsLike();
  } else {
    throw std::invalid_argument("unknown dataset.preset '" + preset_name + "'");
  }
  bench::Scenario scenario{
      .preset = preset,
      .train_domains = config.GetIntList("dataset.train_domains", {1, 2}),
      .val_domains = config.GetIntList("dataset.val_domains", {0}),
      .test_domains = config.GetIntList("dataset.test_domains", {3}),
      .samples_per_train_domain =
          config.GetInt("dataset.samples_per_train_domain", 1500),
      .samples_per_eval_domain =
          config.GetInt("dataset.samples_per_eval_domain", 400),
      .total_clients = config.GetInt("fl.clients", 100),
      .participants = config.GetInt("fl.participants", 20),
      .rounds = config.GetInt("fl.rounds", 50),
      .lambda = config.GetDouble("fl.lambda", 0.1),
      .client_dropout = config.GetDouble("fl.client_dropout", 0.0),
      .faults = fl::FaultPlanFromConfig(config),
      .learning_rate = static_cast<float>(config.GetDouble("fl.lr", 3e-3)),
      .seed = config.GetUint64("fl.seed", 1),
  };
  if (preset_name == "iwildcam") {
    const data::IWildCamDomainSplit split = data::IWildCamDomains(preset);
    scenario.train_domains = split.train;
    scenario.val_domains = split.val;
    scenario.test_domains = split.test;
    scenario.samples_per_train_domain =
        config.GetInt("dataset.samples_per_train_domain", 60);
    scenario.samples_per_eval_domain =
        config.GetInt("dataset.samples_per_eval_domain", 30);
  }
  return scenario;
}

// The [methods] and [fisc] sections, selected as run_experiment selects them.
std::vector<bench::MethodSpec> MethodsFromConfig(const util::Config& config) {
  core::FiscOptions fisc;
  fisc.gamma1 = static_cast<float>(config.GetDouble("fisc.gamma1", fisc.gamma1));
  fisc.gamma2 = static_cast<float>(config.GetDouble("fisc.gamma2", fisc.gamma2));
  fisc.margin = static_cast<float>(config.GetDouble("fisc.margin", fisc.margin));
  fisc.transferred_ce_weight = static_cast<float>(config.GetDouble(
      "fisc.transferred_ce_weight", fisc.transferred_ce_weight));
  if (config.GetString("fisc.mining", "hardest") == "random") {
    fisc.mining = core::NegativeMining::kRandom;
  }
  if (config.GetString("fisc.contrast", "triplet") == "supcon") {
    fisc.contrast = core::ContrastKind::kSupCon;
  }
  const std::string run_list =
      config.GetString("methods.run", "FedSR,FedGMA,FPL,FedDG-GA,CCST,Ours");
  std::vector<bench::MethodSpec> selected;
  for (const bench::MethodSpec& spec : bench::PaperMethods(fisc)) {
    if (run_list.find(spec.name) != std::string::npos) selected.push_back(spec);
  }
  if (selected.empty()) {
    throw std::invalid_argument("methods.run selects no method: " + run_list);
  }
  return selected;
}

class SimWorkload final : public Workload {
 public:
  SimWorkload(std::string name, const std::string& config_path,
              bool observability, WorkloadOptions options,
              util::ThreadPool& pool)
      : name_(std::move(name)),
        config_(util::Config::Load(config_path)),
        scenario_(ScenarioFromConfig(config_)),
        methods_(MethodsFromConfig(config_)),
        repeats_(config_.GetInt("fl.repeats", 1)),
        observability_(observability),
        options_(std::move(options)),
        pool_(pool) {}

  PassResult RunPass(bool traced) override;

 private:
  obs::ObsOptions SinkOptions(bool traced) const {
    obs::ObsOptions sinks;
    sinks.trace = observability_ || traced;
    sinks.metrics = observability_ || traced;
    if (observability_) {
      const std::string stem = options_.out_dir + "/" + name_;
      sinks.manifest = true;
      sinks.trace_path = stem + ".trace.json";
      sinks.metrics_path = stem + ".metrics.prom";
      sinks.metrics_jsonl_path = stem + ".metrics.jsonl";
      sinks.manifest_path = stem + ".manifest.json";
    }
    return sinks;
  }

  std::string name_;
  util::Config config_;
  bench::Scenario scenario_;
  std::vector<bench::MethodSpec> methods_;
  int repeats_;
  bool observability_;
  WorkloadOptions options_;
  util::ThreadPool& pool_;
};

PassResult SimWorkload::RunPass(bool traced) {
  PassResult result;
  CallLog log;
  std::optional<obs::ObsSession> session;
  const obs::ObsOptions sinks = SinkOptions(traced);
  if (sinks.Enabled()) session.emplace(sinks);

  // [method][repeat] -> (val, test), averaged below in run_experiment's
  // order whatever order the seed ran them in.
  std::vector<std::vector<std::pair<double, double>>> accuracy(
      methods_.size(), std::vector<std::pair<double, double>>(
                           static_cast<std::size_t>(repeats_)));
  double data_build_s = 0.0;
  double method_runs_s = 0.0;
  std::size_t exchanged_floats = 0;
  std::int64_t peak_resident = 0;
  for (const int rep : SeededOrder(repeats_, options_.seed, 0)) {
    bench::Scenario instance = scenario_;
    instance.seed = scenario_.seed + static_cast<std::uint64_t>(rep) * 1000;
    const double build_start = log.Now();
    const bench::ScenarioData data(instance);
    data_build_s += log.Now() - build_start;
    exchanged_floats = data.initial_model().FlatParams().size();
    for (const int m : SeededOrder(static_cast<int>(methods_.size()),
                                   options_.seed,
                                   static_cast<std::uint64_t>(rep) + 1)) {
      const bench::MethodSpec& spec = methods_[static_cast<std::size_t>(m)];
      std::unique_ptr<fl::Algorithm> method = spec.make();
      const int run = log.AddRun(method->Name());
      TimingAlgorithm algorithm(std::move(method), log, run);
      const double run_start = log.Now();
      const bench::ScenarioRun outcome = data.Run(algorithm, &pool_);
      log.EndRun(run);
      method_runs_s += log.Now() - run_start;

      accuracy[static_cast<std::size_t>(m)][static_cast<std::size_t>(rep)] = {
          outcome.val_accuracy, outcome.test_accuracy};
      const fl::CostBreakdown& costs = outcome.result.costs;
      const std::int64_t lost =
          costs.dropped_updates + costs.updates_lost_to_corruption;
      result.attempted += costs.client_rounds;
      result.failed += lost;
      result.folded += costs.client_rounds - lost;
      peak_resident =
          std::max(peak_resident, outcome.result.peak_resident_updates);
      for (const float value : outcome.result.final_model.FlatParams()) {
        if (!std::isfinite(value)) {
          result.check_failures.push_back(
              name_ + ": " + spec.name + " repeat " + std::to_string(rep) +
              " ended with non-finite parameters");
          break;
        }
      }
    }
  }
  bench::MethodAverages averages;
  for (std::size_t m = 0; m < methods_.size(); ++m) {
    for (const auto& [val, test] : accuracy[m]) {
      averages.val[methods_[m].name] += val / repeats_;
      averages.test[methods_[m].name] += test / repeats_;
    }
  }
  double export_s = 0.0;
  if (session.has_value()) {
    const double export_start = log.Now();
    if (observability_) {
      obs::RunManifest& manifest = session->manifest();
      manifest.tool = "perfbench";
      for (const std::string& key : config_.Keys()) {
        manifest.config.emplace_back(key, config_.GetString(key, ""));
      }
      bench::FillRunManifest(manifest, scenario_, averages, repeats_);
    }
    session->Finish();
    export_s = log.Now() - export_start;
  }
  result.run_s = log.Now();

  // Everything below is analysis, outside the timed pass.
  const std::vector<Call> calls = log.calls();
  const std::vector<RunInfo> runs = log.runs();
  double setup_hooks_s = 0.0;
  for (const Call& call : calls) {
    if (call.hook == Hook::kSetup) setup_hooks_s += call.end_s - call.start_s;
  }
  result.setup_s = data_build_s + setup_hooks_s;
  for (const RoundTimeline& timeline : RoundTimelines(calls, runs)) {
    for (const double period : timeline.period_s) {
      result.round_ms.push_back(period * 1e3);
    }
  }
  double test_sum = 0.0;
  for (const bench::MethodSpec& spec : methods_) {
    char row[160];
    std::snprintf(row, sizeof(row), "%-10s val %.17g test %.17g\n",
                  spec.name.c_str(), averages.val[spec.name],
                  averages.test[spec.name]);
    result.accuracy_table += row;
    test_sum += averages.test[spec.name];
  }
  result.test_acc_pct = 100.0 * test_sum / static_cast<double>(methods_.size());
  // The simulator moves no bytes; report the raw f32 model exchange one
  // round would put on a wire (K broadcasts plus K updates).
  result.wire_mb_per_round = 2.0 * scenario_.participants *
                             static_cast<double>(exchanged_floats) *
                             sizeof(float) / 1e6;

  if (traced) {
    Layers& layers = result.layers;
    AddHookLayers(calls, runs, layers);
    AddProgramLayers(*session, pool_.NumThreads(), layers);
    layers.value["data.build_s"] = data_build_s;
    layers.value["fl.peak_resident_updates"] =
        static_cast<double>(peak_resident);
    // AddProgramLayers' self times tile the Simulator::Run calls. The rest
    // of the pass: data builds, the per-domain evaluation ScenarioData::Run
    // adds after Simulator::Run, and the artifact export.
    double fl_run_s = 0.0;
    for (const auto& [layer, seconds] : layers.self_s) fl_run_s += seconds;
    layers.self_s["data.build"] = data_build_s;
    layers.self_s["bench.per_domain_eval"] = method_runs_s - fl_run_s;
    if (observability_) {
      layers.self_s["obs.export"] = export_s;
    }
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeSimWorkload(const std::string& name,
                                          const std::string& config_path,
                                          bool observability,
                                          const WorkloadOptions& options,
                                          util::ThreadPool& pool) {
  return std::make_unique<SimWorkload>(name, config_path, observability,
                                       options, pool);
}

}  // namespace pardon::perfbench
