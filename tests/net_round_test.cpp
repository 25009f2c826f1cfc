// End-to-end federated rounds over the socket transport (src/net/fl_server,
// src/net/fl_client): a real server and three clients exchanging protocol
// frames must reproduce fl::Simulator::Run BITWISE for the same seed — the
// transport conformance contract — plus protocol codec unit coverage and the
// multi-process net_demo smoke (server + 3 forked client processes).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baselines/fedavg.hpp"
#include "data/partition.hpp"
#include "data/presets.hpp"
#include "data/splits.hpp"
#include "fl/simulator.hpp"
#include "net/fl_client.hpp"
#include "net/fl_server.hpp"
#include "net/protocol.hpp"

namespace pardon::net {
namespace {

struct Fixture {
  std::vector<data::Dataset> shards;
  nn::MlpClassifier model;
  fl::FlConfig config;
};

// A small deterministic population: PACS-like generator, heterogeneous
// partition, tiny model — the same construction the in-process simulator
// tests use, so only the transport differs.
Fixture MakeFixture(int clients, int participants, int rounds,
                    std::uint64_t seed) {
  const data::ScenarioPreset preset = data::MakePacsLike();
  const data::DomainGenerator generator(preset.generator);
  const data::FederatedSplit split =
      data::BuildSplit(generator, {.train_domains = {0, 1},
                                          .val_domains = {2},
                                          .test_domains = {3},
                                          .samples_per_train_domain = 90,
                                          .samples_per_eval_domain = 30,
                                          .seed = seed + 13});
  Fixture fixture{
      .shards = data::PartitionHeterogeneous(
          split.train,
          {.num_clients = clients, .lambda = 0.1, .seed = seed + 31}),
      .model = nn::MlpClassifier(nn::MlpClassifier::Config{
          .input_dim = preset.generator.shape.FlatDim(),
          .hidden = {24},
          .embed_dim = 16,
          .num_classes = preset.generator.num_classes,
          .seed = seed + 29,
      }),
      .config = {},
  };
  fixture.config.total_clients = clients;
  fixture.config.participants_per_round = participants;
  fixture.config.rounds = rounds;
  fixture.config.batch_size = preset.batch_size;
  fixture.config.eval_every = 0;
  fixture.config.seed = seed;
  return fixture;
}

// Runs server + `clients` client threads over the given endpoint; returns
// the server's final global params.
ServerResult RunNetworkRound(const Fixture& fixture, const Endpoint& endpoint,
                             const fl::CompressionConfig& compression = {}) {
  Listener listener = Listener::Bind(endpoint, /*io_timeout=*/30.0);
  const Endpoint bound = listener.bound();

  std::vector<std::thread> workers;
  workers.reserve(fixture.shards.size());
  for (std::size_t client = 0; client < fixture.shards.size(); ++client) {
    workers.emplace_back([&fixture, &bound, client] {
      baselines::FedAvg algorithm;
      const fl::FlContext context{.client_data = nullptr,
                                  .initial_model = &fixture.model,
                                  .config = fixture.config,
                                  .pool = nullptr,
                                  .data_provider = nullptr};
      algorithm.Setup(context);
      ClientOptions options;
      options.server = bound;
      options.client_id = static_cast<int>(client);
      options.retry.io_timeout_seconds = 30.0;
      RunClient(options, algorithm, fixture.shards[client], fixture.model);
    });
  }

  ServerOptions server_options;
  server_options.total_clients = static_cast<int>(fixture.shards.size());
  server_options.participants_per_round =
      fixture.config.participants_per_round;
  server_options.rounds = fixture.config.rounds;
  server_options.seed = fixture.config.seed;
  server_options.compression = compression;
  FlServer server(std::move(listener), server_options);
  const ServerResult result = server.Run(fixture.model.FlatParams());
  for (std::thread& worker : workers) worker.join();
  return result;
}

std::vector<float> RunSimulator(const Fixture& fixture) {
  fl::Simulator simulator(fixture.shards, fixture.config);
  baselines::FedAvg algorithm;
  const fl::SimulationResult result =
      simulator.Run(algorithm, fixture.model, {}, nullptr);
  return result.final_model.FlatParams();
}

// -- the acceptance criterion ----------------------------------------------

TEST(NetRound, ThreeClientsOneRoundBitwiseEqualsSimulator) {
  const Fixture fixture = MakeFixture(3, 3, 1, 77);
  const ServerResult net =
      RunNetworkRound(fixture, Endpoint::Tcp("127.0.0.1", 0));
  const std::vector<float> sim = RunSimulator(fixture);
  ASSERT_EQ(net.global_params.size(), sim.size());
  EXPECT_EQ(0, std::memcmp(net.global_params.data(), sim.data(),
                           sim.size() * sizeof(float)));
  EXPECT_EQ(net.rounds_completed, 1);
  EXPECT_GT(net.bytes_sent, 0);
  EXPECT_GT(net.bytes_received, 0);
}

TEST(NetRound, MultiRoundWithIdleClientsBitwiseEqualsSimulator) {
  // K < N: the sampler leaves clients idle some rounds; the Idle protocol
  // path must keep every process in lockstep across 3 rounds.
  const Fixture fixture = MakeFixture(5, 2, 3, 78);
  const ServerResult net =
      RunNetworkRound(fixture, Endpoint::Tcp("127.0.0.1", 0));
  const std::vector<float> sim = RunSimulator(fixture);
  ASSERT_EQ(net.global_params.size(), sim.size());
  EXPECT_EQ(0, std::memcmp(net.global_params.data(), sim.data(),
                           sim.size() * sizeof(float)));
}

TEST(NetRound, UnixBackendBitwiseEqualsTcp) {
  const Fixture fixture = MakeFixture(3, 2, 2, 79);
  const ServerResult tcp =
      RunNetworkRound(fixture, Endpoint::Tcp("127.0.0.1", 0));
  const std::string path = "/tmp/pardon_net_round_" +
                           std::to_string(::getpid()) + ".sock";
  const ServerResult unix_result =
      RunNetworkRound(fixture, Endpoint::UnixSocket(path));
  ASSERT_EQ(tcp.global_params.size(), unix_result.global_params.size());
  EXPECT_EQ(0, std::memcmp(tcp.global_params.data(),
                           unix_result.global_params.data(),
                           tcp.global_params.size() * sizeof(float)));
  // Identical payload traffic on both backends.
  EXPECT_EQ(tcp.bytes_sent, unix_result.bytes_sent);
  EXPECT_EQ(tcp.bytes_received, unix_result.bytes_received);
}

TEST(NetRound, CompressedRoundTripShrinksUpdatesAndStillConverges) {
  const Fixture fixture = MakeFixture(3, 3, 2, 80);
  const ServerResult raw =
      RunNetworkRound(fixture, Endpoint::Tcp("127.0.0.1", 0));
  const ServerResult topk = RunNetworkRound(
      fixture, Endpoint::Tcp("127.0.0.1", 0),
      {.codec = fl::Codec::kTopK, .top_k_fraction = 0.01});
  // ~100x fewer upstream update bytes at 1% density.
  EXPECT_LT(topk.wire_update_bytes, raw.wire_update_bytes / 40);
  EXPECT_EQ(topk.raw_update_bytes, raw.raw_update_bytes);
  // Lossy params differ, but stay finite and the right size.
  ASSERT_EQ(topk.global_params.size(), raw.global_params.size());
  for (const float v : topk.global_params) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(NetRound, ServerRejectsDuplicateClientId) {
  Listener listener =
      Listener::Bind(Endpoint::Tcp("127.0.0.1", 0), /*io_timeout=*/5.0);
  const Endpoint bound = listener.bound();
  std::thread clients([&bound] {
    try {
      Connection a = Connect(bound);
      a.SendFrame(EncodeHello(HelloMessage{.client_id = 0}));
      Connection b = Connect(bound);
      b.SendFrame(EncodeHello(HelloMessage{.client_id = 0}));
      // Server throws on the duplicate and tears everything down; our side
      // just drains until the connections die.
      (void)a.RecvFrame();
    } catch (const NetError&) {
    }
  });
  ServerOptions options;
  options.total_clients = 2;
  options.participants_per_round = 1;
  FlServer server(std::move(listener), options);
  EXPECT_THROW(server.Run(std::vector<float>(8, 0.0f)), ProtocolError);
  clients.join();
}

// A peer that frames a well-formed Update around a payload the update codec
// cannot decode is a misbehaving client: the server must reject it with the
// typed protocol error naming the client and round, not leak the codec's
// decode error.
TEST(NetRound, ServerRejectsJunkUpdatePayloadAsProtocolError) {
  Listener listener =
      Listener::Bind(Endpoint::Tcp("127.0.0.1", 0), /*io_timeout=*/5.0);
  const Endpoint bound = listener.bound();
  std::thread peer([&bound] {
    try {
      Connection conn = Connect(bound);
      conn.SendFrame(EncodeHello(HelloMessage{.client_id = 0}));
      const BroadcastMessage broadcast = DecodeBroadcast(conn.RecvFrame());
      conn.SendFrame(EncodeUpdate(UpdateMessage{
          .client_id = 0,
          .round = broadcast.round,
          .payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}}));
      (void)conn.RecvFrame();  // drains until the server hangs up
    } catch (const NetError&) {
    }
  });
  ServerOptions options;
  options.total_clients = 1;
  options.participants_per_round = 1;
  FlServer server(std::move(listener), options);
  try {
    (void)server.Run(std::vector<float>(8, 0.0f));
    ADD_FAILURE() << "junk Update payload accepted";
  } catch (const ProtocolError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("client 0"), std::string::npos) << what;
    EXPECT_NE(what.find("round 1"), std::string::npos) << what;
  }
  peer.join();
}

// -- protocol codecs --------------------------------------------------------

TEST(NetProtocol, MessagesRoundTrip) {
  const HelloMessage hello = DecodeHello(EncodeHello({.client_id = 7}));
  EXPECT_EQ(hello.client_id, 7);

  BroadcastMessage broadcast;
  broadcast.round = 3;
  broadcast.rng = {.state = 0x0123456789abcdefULL,
                   .inc = 0xfedcba9876543210ULL,
                   .has_cached_gaussian = true,
                   .cached_gaussian = -1.5f};
  broadcast.compression = {.codec = fl::Codec::kTopK, .top_k_fraction = 0.25};
  broadcast.params = {1.0f, -2.0f, 3.5f};
  const BroadcastMessage decoded = DecodeBroadcast(EncodeBroadcast(broadcast));
  EXPECT_EQ(decoded.round, 3);
  EXPECT_EQ(decoded.rng.state, broadcast.rng.state);
  EXPECT_EQ(decoded.rng.inc, broadcast.rng.inc);
  EXPECT_TRUE(decoded.rng.has_cached_gaussian);
  EXPECT_EQ(decoded.rng.cached_gaussian, -1.5f);
  EXPECT_EQ(decoded.compression.codec, fl::Codec::kTopK);
  EXPECT_EQ(decoded.compression.top_k_fraction, 0.25);
  EXPECT_EQ(decoded.params, broadcast.params);

  const IdleMessage idle = DecodeIdle(EncodeIdle({.round = 9}));
  EXPECT_EQ(idle.round, 9);

  UpdateMessage update;
  update.client_id = 2;
  update.round = 4;
  update.payload = {0xde, 0xad, 0xbe, 0xef};
  const UpdateMessage update2 = DecodeUpdate(EncodeUpdate(update));
  EXPECT_EQ(update2.client_id, 2);
  EXPECT_EQ(update2.round, 4);
  EXPECT_EQ(update2.payload, update.payload);

  const DoneMessage done = DecodeDone(EncodeDone({.rounds_completed = 12}));
  EXPECT_EQ(done.rounds_completed, 12);
}

TEST(NetProtocol, MalformedMessagesThrowTyped) {
  EXPECT_THROW(PeekType({}), ProtocolError);
  const std::vector<std::uint8_t> junk = {0x7f, 1, 2, 3};
  EXPECT_THROW(PeekType(junk), ProtocolError);

  // Wrong type tag for the decoder.
  EXPECT_THROW(DecodeHello(EncodeIdle({.round = 1})), ProtocolError);
  // Truncation at every prefix: typed errors, no OOB (ASan-checked).
  const auto frame = EncodeBroadcast(BroadcastMessage{
      .round = 1, .rng = {}, .compression = {}, .params = {1.0f, 2.0f}});
  for (std::size_t len = 1; len < frame.size(); ++len) {
    EXPECT_THROW(
        DecodeBroadcast(std::span<const std::uint8_t>(frame.data(), len)),
        ProtocolError)
        << "length " << len;
  }
  // Trailing garbage.
  auto padded = EncodeDone({.rounds_completed = 1});
  padded.push_back(0x00);
  EXPECT_THROW(DecodeDone(padded), ProtocolError);
  // Unknown codec tag inside a Broadcast.
  auto bad_codec = frame;
  bad_codec[1 + 4 + 8 + 8 + 1 + 4] = 0x66;  // the codec byte
  EXPECT_THROW(DecodeBroadcast(bad_codec), ProtocolError);
}

// -- multi-process smoke (net_demo) ----------------------------------------

#ifdef PARDON_NET_DEMO_BIN
TEST(NetDemo, MultiProcessRoundMatchesSimulatorBitwise) {
  // One real server + 3 forked client PROCESSES, one round, then a bitwise
  // compare against the in-process simulator — net_demo exits 2 on any
  // parameter mismatch and non-zero on any client failure.
  const std::string cmd = std::string(PARDON_NET_DEMO_BIN) +
                          " --clients=3 --rounds=1 --seed=7 --compare"
                          " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(NetDemo, MultiProcessUnixBackendCompares) {
  const std::string cmd = std::string(PARDON_NET_DEMO_BIN) +
                          " --clients=3 --rounds=2 --seed=9 --backend=unix"
                          " --compare >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}
#endif  // PARDON_NET_DEMO_BIN

}  // namespace
}  // namespace pardon::net
