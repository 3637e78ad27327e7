#include "noc/router.hpp"

#include "util/error.hpp"

namespace hybridic::noc {

Router::Router(std::uint32_t id, RouterConfig config)
    : id_(id), config_(config) {
  require(config.buffer_flits > 0, "router buffer depth must be non-zero");
  require(config.pipeline_cycles > 0, "router pipeline must be >= 1 cycle");
  for (InputBuffer& buffer : inputs_) {
    buffer.slots.resize(config.buffer_flits);
  }
}

void Router::lock_output(PortDir out, PortDir owner_input) {
  auto& state = outputs_[static_cast<std::size_t>(out)];
  sim_assert(!state.locked, "double lock on router output");
  state.locked = true;
  state.owner = owner_input;
}

std::optional<PortDir> Router::arbitrate(
    PortDir out, const std::array<bool, kPortCount>& candidates) {
  auto& state = outputs_[static_cast<std::size_t>(out)];
  for (std::uint32_t offset = 1; offset <= kPortCount; ++offset) {
    const std::uint32_t idx = (state.last_winner + offset) % kPortCount;
    if (candidates[idx]) {
      state.last_winner = idx;
      return static_cast<PortDir>(idx);
    }
  }
  return std::nullopt;
}

}  // namespace hybridic::noc
