#include "net/fl_server.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "fl/aggregate.hpp"
#include "fl/comm.hpp"
#include "fl/event_engine.hpp"
#include "fl/sampler.hpp"
#include "net/protocol.hpp"
#include "tensor/rng.hpp"
#include "util/logging.hpp"

namespace pardon::net {

FlServer::FlServer(Listener listener, ServerOptions options)
    : listener_(std::move(listener)), options_(options) {
  if (options_.total_clients <= 0) {
    throw std::invalid_argument("FlServer: non-positive total_clients");
  }
  if (options_.participants_per_round <= 0 ||
      options_.participants_per_round > options_.total_clients) {
    throw std::invalid_argument(
        "FlServer: participants_per_round must be in [1, total_clients]");
  }
  if (options_.rounds <= 0) {
    throw std::invalid_argument("FlServer: non-positive rounds");
  }
}

ServerResult FlServer::Run(std::span<const float> initial_params) {
  const int n = options_.total_clients;

  // -- rendezvous: every client introduces itself exactly once ------------
  std::vector<Connection> clients(static_cast<std::size_t>(n));
  for (int accepted = 0; accepted < n; ++accepted) {
    Connection conn = listener_.Accept();
    const HelloMessage hello = DecodeHello(conn.RecvFrame());
    if (hello.client_id < 0 || hello.client_id >= n) {
      throw ProtocolError("FlServer: Hello with out-of-range client id " +
                          std::to_string(hello.client_id));
    }
    Connection& slot = clients[static_cast<std::size_t>(hello.client_id)];
    if (slot.valid()) {
      throw ProtocolError("FlServer: duplicate Hello for client id " +
                          std::to_string(hello.client_id));
    }
    slot = std::move(conn);
  }
  PARDON_LOG_INFO << "FlServer: " << n << " clients connected on "
                  << listener_.bound().ToString();

  // The simulator's exact sampling and RNG discipline (fl/simulator.cpp).
  const fl::ClientSampler sampler(n, options_.participants_per_round,
                                  options_.seed);
  tensor::Pcg32 root_rng(options_.seed, /*stream=*/0x73696dULL);

  ServerResult result;
  result.global_params.assign(initial_params.begin(), initial_params.end());

  for (int round = 1; round <= options_.rounds; ++round) {
    const std::vector<int> participants = sampler.Sample(round);

    // Fork upfront in participants order — Fork mutates the root generator,
    // so this order IS the determinism contract, shared with the simulator.
    std::vector<tensor::Pcg32State> rngs;
    rngs.reserve(participants.size());
    for (const int client : participants) {
      rngs.push_back(
          root_rng.Fork(fl::ClientForkSalt(round, client)).SaveState());
    }

    std::vector<bool> sampled(static_cast<std::size_t>(n), false);
    for (const int client : participants) {
      sampled[static_cast<std::size_t>(client)] = true;
    }

    // Broadcast to participants, Idle to everyone else. All sends complete
    // before any recv: clients only reply to a Broadcast, so the round
    // cannot deadlock.
    for (std::size_t k = 0; k < participants.size(); ++k) {
      BroadcastMessage broadcast;
      broadcast.round = round;
      broadcast.rng = rngs[k];
      broadcast.compression = options_.compression;
      broadcast.params = result.global_params;
      clients[static_cast<std::size_t>(participants[k])].SendFrame(
          EncodeBroadcast(broadcast));
    }
    for (int client = 0; client < n; ++client) {
      if (sampled[static_cast<std::size_t>(client)]) continue;
      clients[static_cast<std::size_t>(client)].SendFrame(
          EncodeIdle(IdleMessage{.round = round}));
    }

    // Collect in participants order — NOT arrival order. Each recv blocks on
    // that participant's own connection, so a slow client stalls the round
    // (the simulator's synchronous-round semantics) instead of reordering
    // the fold.
    std::vector<fl::ClientUpdate> updates;
    updates.reserve(participants.size());
    for (const int client : participants) {
      const std::vector<std::uint8_t> frame =
          clients[static_cast<std::size_t>(client)].RecvFrame();
      const UpdateMessage message = DecodeUpdate(frame);
      if (message.client_id != client || message.round != round) {
        throw ProtocolError(
            "FlServer: round " + std::to_string(round) + " expected Update{" +
            std::to_string(client) + "}, got Update{client=" +
            std::to_string(message.client_id) + ", round=" +
            std::to_string(message.round) + "}");
      }
      result.wire_update_bytes +=
          static_cast<std::int64_t>(message.payload.size());
      fl::ClientUpdate update;
      try {
        update = fl::DecodeClientUpdateCompressed(message.payload);
      } catch (const fl::CompressError& error) {
        throw ProtocolError("FlServer: client " + std::to_string(client) +
                            " sent a malformed Update payload in round " +
                            std::to_string(round) + " (" + error.what() + ")");
      }
      result.raw_update_bytes +=
          static_cast<std::int64_t>(fl::EncodeClientUpdate(update).size());
      if (update.params.size() != result.global_params.size()) {
        throw ProtocolError("FlServer: client " + std::to_string(client) +
                            " shipped " + std::to_string(update.params.size()) +
                            " params, expected " +
                            std::to_string(result.global_params.size()));
      }
      updates.push_back(std::move(update));
    }

    // The simulator's streaming fold, verbatim: total summed in participants
    // order, then normalize-first Adds in the same order. Weights are the
    // reported num_samples — under the streaming contract these equal the
    // client dataset sizes the simulator would read from its provider.
    double total_weight = 0.0;
    for (const fl::ClientUpdate& update : updates) {
      total_weight += static_cast<double>(update.num_samples);
    }
    fl::StreamingWeightedSum stream(result.global_params.size(), total_weight);
    for (const fl::ClientUpdate& update : updates) {
      stream.Add(update.params, static_cast<double>(update.num_samples));
    }
    result.global_params = stream.Finish();
    ++result.rounds_completed;
  }

  const std::vector<std::uint8_t> done =
      EncodeDone(DoneMessage{.rounds_completed = result.rounds_completed});
  for (Connection& conn : clients) {
    conn.SendFrame(done);
    result.bytes_sent += conn.bytes_sent();
    result.bytes_received += conn.bytes_received();
  }
  return result;
}

}  // namespace pardon::net
