#include "fl/algorithm.hpp"

#include "fl/aggregate.hpp"
#include "fl/sim_checkpoint.hpp"

namespace pardon::fl {

void Algorithm::LoadRoundState(std::span<const std::uint8_t> state) {
  if (!state.empty()) {
    throw CheckpointError("sim checkpoint: '" + Name() +
                          "' keeps no round state, but the checkpoint "
                          "carries " +
                          std::to_string(state.size()) + " bytes of it");
  }
}

std::vector<float> Algorithm::Aggregate(std::span<const float> /*global_params*/,
                                        std::span<const ClientUpdate> updates,
                                        std::span<const int> /*client_ids*/,
                                        int /*round*/) {
  return FedAvg(updates);
}

}  // namespace pardon::fl
