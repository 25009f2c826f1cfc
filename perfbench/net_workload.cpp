// The socket workload: tools/net_demo's PACS-like scenario served by
// net::FlServer on the calling thread to net::RunClient threads over a
// Unix-domain socket, lossless codec, every client in every round.
#include <cstdio>
#include <exception>
#include <optional>
#include <thread>
#include <unistd.h>

#include "baselines/fedavg.hpp"
#include "experiment.hpp"
#include "layers.hpp"
#include "metrics/evaluation.hpp"
#include "net/fl_client.hpp"
#include "net/fl_server.hpp"
#include "obs/session.hpp"
#include "workload.hpp"

namespace pardon::perfbench {
namespace {

constexpr int kClients = 3;
// Enough rounds per pass that a single pass puts 15 round periods beyond
// the p95.
constexpr int kRoundsPerPass = 300;
constexpr double kIoTimeoutSeconds = 20.0;

// net_demo's MakeScenario at --clients=3 --participants=3 --seed=7.
bench::Scenario MakeScenario() {
  bench::Scenario scenario;
  scenario.preset = data::MakePacsLike();
  scenario.train_domains = {0, 1, 2};
  scenario.val_domains = {3};
  scenario.test_domains = {3};
  scenario.samples_per_train_domain = 120;
  scenario.samples_per_eval_domain = 40;
  scenario.total_clients = kClients;
  scenario.participants = kClients;
  scenario.rounds = kRoundsPerPass;
  scenario.eval_every = 0;
  scenario.seed = 7;
  return scenario;
}

// The FlConfig fields FedAvg reads in Setup, matching what ScenarioData's
// simulator passes (see net_demo's MakeClientConfig).
fl::FlConfig ClientConfig(const bench::Scenario& scenario) {
  return fl::FlConfig{
      .total_clients = scenario.total_clients,
      .participants_per_round = scenario.participants,
      .rounds = scenario.rounds,
      .batch_size = scenario.preset.batch_size,
      .optimizer = {.lr = scenario.learning_rate},
      .eval_every = scenario.eval_every,
      .seed = scenario.seed,
  };
}

class NetWorkload final : public Workload {
 public:
  explicit NetWorkload(const WorkloadOptions& options)
      : scenario_(MakeScenario()),
        client_order_(SeededOrder(kClients, options.seed, 0)),
        socket_path_(options.out_dir + "/net-" + std::to_string(getpid()) +
                     ".sock") {}

  PassResult RunPass(bool traced) override;

 private:
  bench::Scenario scenario_;
  // The order client threads start, and so the order they connect in.
  std::vector<int> client_order_;
  std::string socket_path_;
};

PassResult NetWorkload::RunPass(bool traced) {
  PassResult result;
  CallLog log;
  std::optional<obs::ObsSession> session;
  if (traced) {
    obs::ObsOptions sinks;
    sinks.trace = true;
    sinks.metrics = true;
    session.emplace(sinks);
  }

  const bench::ScenarioData data(scenario_);
  const double build_s = log.Now();
  net::Listener listener = net::Listener::Bind(
      net::Endpoint::UnixSocket(socket_path_), kIoTimeoutSeconds);
  const net::Endpoint bound = listener.bound();
  const int run = log.AddRun("FedAvg");
  const fl::FlConfig config = ClientConfig(scenario_);

  std::vector<std::string> errors(kClients + 1);
  // jthread: the clients are joined even if starting one of them throws.
  std::vector<std::jthread> clients;
  clients.reserve(kClients);
  for (const int client : client_order_) {
    clients.emplace_back([&, client] {
      try {
        TimingAlgorithm algorithm(std::make_unique<baselines::FedAvg>(), log,
                                  run);
        algorithm.Setup(fl::FlContext{.client_data = nullptr,
                                      .initial_model = &data.initial_model(),
                                      .config = config,
                                      .pool = nullptr,
                                      .data_provider = nullptr});
        net::ClientOptions options;
        options.server = bound;
        options.client_id = client;
        options.retry.io_timeout_seconds = kIoTimeoutSeconds;
        net::RunClient(options, algorithm,
                       data.simulator().client_data()[static_cast<std::size_t>(
                           client)],
                       data.initial_model());
      } catch (const std::exception& error) {
        errors[static_cast<std::size_t>(client)] = error.what();
      }
    });
  }
  net::ServerResult server;
  try {
    net::ServerOptions options;
    options.total_clients = kClients;
    options.participants_per_round = kClients;
    options.rounds = kRoundsPerPass;
    options.seed = scenario_.seed;
    net::FlServer fl_server(std::move(listener), options);
    server = fl_server.Run(data.initial_model().FlatParams());
  } catch (const std::exception& error) {
    errors[kClients] = error.what();
  }
  log.EndRun(run);
  for (std::jthread& thread : clients) thread.join();
  if (session.has_value()) session->Finish();
  result.run_s = log.Now();

  // Everything below is analysis, outside the timed pass.
  const std::vector<Call> calls = log.calls();
  const RoundTimeline timeline = RoundTimelines(calls, log.runs()).front();
  std::int64_t trained = 0;
  for (const Call& call : calls) {
    if (call.hook == Hook::kTrainClient) ++trained;
  }
  result.attempted = std::int64_t{kClients} * kRoundsPerPass;
  bool failed = false;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (errors[i].empty()) continue;
    failed = true;
    const std::string who =
        i < kClients ? "net client " + std::to_string(i) : "net server";
    result.check_failures.push_back(who + ": " + errors[i]);
  }
  result.failed =
      failed ? std::max<std::int64_t>(1, result.attempted - trained) : 0;
  result.folded = result.attempted - result.failed;
  result.setup_s =
      timeline.start_s.empty() ? result.run_s : timeline.start_s.front();
  for (const double period : timeline.period_s) {
    result.round_ms.push_back(period * 1e3);
  }
  const double wire_bytes =
      static_cast<double>(server.bytes_sent + server.bytes_received);
  result.wire_mb_per_round = wire_bytes / kRoundsPerPass / 1e6;

  if (!failed) {
    result.params_digest = ParamsDigest(server.global_params);
    nn::MlpClassifier model = data.initial_model();
    model.SetFlatParams(server.global_params);
    result.test_acc_pct = 100.0 * metrics::Accuracy(model, data.split().test);
  }
  char table[64];
  std::snprintf(table, sizeof(table), "FedAvg test %.17g\n",
                result.test_acc_pct);
  result.accuracy_table = table;

  if (traced) {
    Layers& layers = result.layers;
    AddHookLayers(calls, log.runs(), layers);
    AddProgramLayers(*session, 1, layers);
    std::vector<double> train_ms;
    for (const Call& call : calls) {
      if (call.hook == Hook::kTrainClient) {
        train_ms.push_back((call.end_s - call.start_s) * 1e3);
      }
    }
    std::vector<double> exposed_ms;
    double slowest_sum = 0.0;
    double exposed_sum = 0.0;
    for (std::size_t i = 0; i < timeline.period_s.size(); ++i) {
      const double exposed = timeline.period_s[i] - timeline.slowest_train_s[i];
      exposed_ms.push_back(exposed * 1e3);
      exposed_sum += exposed;
      slowest_sum += timeline.slowest_train_s[i];
    }
    layers.SetPercentile("net.train_client_ms_p50",
                         PercentileOf(train_ms, 0.50));
    layers.SetPercentile("net.exposed_ms_p50", PercentileOf(exposed_ms, 0.50));
    layers.SetPercentile("net.exposed_ms_p95", PercentileOf(exposed_ms, 0.95));
    layers.value["net.bytes_per_round"] = wire_bytes / kRoundsPerPass;
    layers.value["data.build_s"] = build_s;
    layers.self_s["net.setup"] = result.setup_s;
    layers.self_s["net.train_slowest"] = slowest_sum;
    layers.self_s["net.exposed"] = exposed_sum;
    layers.self_s["net.teardown"] = result.run_s - log.runs().front().end_s;
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeNetWorkload(const WorkloadOptions& options) {
  return std::make_unique<NetWorkload>(options);
}

std::string NetSimulatorDigest() {
  const bench::ScenarioData data(MakeScenario());
  baselines::FedAvg algorithm;
  return ParamsDigest(
      data.Run(algorithm, nullptr).result.final_model.FlatParams());
}

}  // namespace pardon::perfbench
