#include "protocol/asura/asura.hpp"

#include "protocol/asura/asura_internal.hpp"

namespace ccsql::asura {

std::unique_ptr<ProtocolSpec> make_asura() {
  auto p = std::make_unique<ProtocolSpec>("ASURA");
  detail::add_messages(*p);
  detail::add_directory(*p);
  detail::add_memory(*p);
  detail::add_node(*p);
  detail::add_cache(*p);
  detail::add_remote_snoop(*p);
  detail::add_rac(*p);
  detail::add_io(*p);
  detail::add_interrupt(*p);
  detail::add_channels(*p);
  detail::add_invariants(*p);
  return p;
}

const std::vector<std::string>& busy_states() {
  // s = snoop-invalidation acks pending, d = memory data pending,
  // r = remote (owner) data pending, f = flush data pending,
  // m = memory acknowledgement pending, si = owner invalidation pending
  // before the memory read is issued (the Figure 4 path: the mread is sent
  // only when the idone is processed), g = grant sent, requester's
  // acknowledgement (gdone) pending.
  // Upgrades share the rx states: with the coarse presence-vector encoding
  // (zero/one/gone) the directory cannot tell whether the requester still
  // holds its shared copy, so every upgrade is handled exactly like a
  // read-exclusive (invalidate all holders, deliver data with the grant).
  // Coherent I/O writes and atomics mirror the writeback/invalidate
  // structure with their own transaction prefixes (iow-*, at-*).
  static const std::vector<std::string> kStates = {
      "Busy-rd-d",  "Busy-rd-r",  "Busy-rd-g",   "Busy-rx-d",
      "Busy-rx-sd", "Busy-rx-s",  "Busy-rx-si",  "Busy-rx-g",
      "Busy-wb-m",  "Busy-fl-s",  "Busy-fl-f",   "Busy-fl-m",
      "Busy-ior-d", "Busy-ior-e", "Busy-ior-r",  "Busy-iow-m",
      "Busy-iow-s", "Busy-iow-si", "Busy-at-m",  "Busy-at-s",
      "Busy-at-si"};
  return kStates;
}

const std::vector<std::string>& processor_sinks() {
  static const std::vector<std::string> kSinks = {
      "pdata", "pdone", "devdata", "devdone", "hit", "miss", "astate"};
  return kSinks;
}

}  // namespace ccsql::asura
