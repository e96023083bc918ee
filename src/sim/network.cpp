#include "sim/network.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace ccsql::sim {

Network::Network(const ChannelAssignment& v, int n_quads, int capacity)
    : v_(&v),
      n_quads_(static_cast<std::size_t>(n_quads)),
      capacity_(static_cast<std::size_t>(capacity)),
      vc_values_{Value{}},
      vc_memo_(64) {
  // vc_for's codomain is channels(), so the code space — and with it the
  // ring layout — is fixed for the Network's lifetime.
  for (const Value& vc : v.channels()) vc_values_.push_back(vc);
  std::sort(vc_values_.begin(), vc_values_.end());
  n_queues_ = n_quads_ * n_quads_ * vc_values_.size();
  rings_.resize(n_queues_ + n_quads_);
  layout(std::max<std::size_t>(capacity_, 1));
}

void Network::vc_memo_grow() const {
  std::vector<VcMemoEntry> bigger(vc_memo_.size() * 2);
  const std::size_t mask = bigger.size() - 1;
  for (const VcMemoEntry& e : vc_memo_) {
    if (e.key_plus1 == 0) continue;
    std::size_t i = static_cast<std::size_t>(e.key_plus1) & mask;
    while (bigger[i].key_plus1 != 0) i = (i + 1) & mask;
    bigger[i] = e;
  }
  vc_memo_ = std::move(bigger);
}

Network::VcCode Network::vc_code(const SimMessage& msg,
                                 QuadId /*home*/) const {
  // Symbol ids are process-wide interning indices (far below 2^21), so the
  // triple packs into one 64-bit memo key; +1 keeps 0 free as the
  // empty-bucket marker.
  const std::uint64_t key1 =
      ((static_cast<std::uint64_t>(msg.type.id()) << 42) |
       (static_cast<std::uint64_t>(msg.role_src.id()) << 21) |
       msg.role_dst.id()) +
      1;
  const std::size_t mask = vc_memo_.size() - 1;
  std::size_t i = static_cast<std::size_t>(key1) & mask;
  while (true) {
    const VcMemoEntry& e = vc_memo_[i];
    if (e.key_plus1 == key1) return e.code;
    if (e.key_plus1 == 0) break;
    i = (i + 1) & mask;
  }
  // Roles are carried on the message: co-located roles make them
  // unrecoverable from the quad endpoints alone.
  const Value vc =
      v_->vc_for(msg.type, msg.role_src, msg.role_dst).value_or(Value{});
  const auto code = static_cast<VcCode>(
      std::find(vc_values_.begin(), vc_values_.end(), vc) -
      vc_values_.begin());
  if (vc_memo_used_ * 2 >= vc_memo_.size()) {
    vc_memo_grow();
    const std::size_t m2 = vc_memo_.size() - 1;
    i = static_cast<std::size_t>(key1) & m2;
    while (vc_memo_[i].key_plus1 != 0) i = (i + 1) & m2;
  }
  vc_memo_[i] = VcMemoEntry{key1, code};
  ++vc_memo_used_;
  return code;
}

void Network::layout(std::size_t cap) {
  head_.ring_cap = static_cast<std::uint32_t>(cap);
  arena_.resize(rings_.size() * cap);
}

void Network::regrow(std::size_t cap) {
  std::vector<SimMessage> bigger(rings_.size() * cap);
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const Ring old = ring(r);
    for (std::size_t i = 0; i < old.size(); ++i) bigger[r * cap + i] = old[i];
    rings_[r].head = 0;
  }
  arena_ = std::move(bigger);
  head_.ring_cap = static_cast<std::uint32_t>(cap);
}

void Network::push(std::size_t r, const SimMessage& msg) {
  if (rings_[r].len == head_.ring_cap) regrow(2 * head_.ring_cap);
  RingHdr& h = rings_[r];
  std::size_t k = h.head + h.len;
  if (k >= head_.ring_cap) k -= head_.ring_cap;
  arena_[r * head_.ring_cap + k] = msg;
  ++h.len;
}

void Network::pop_ring(std::size_t r) {
  RingHdr& h = rings_[r];
  if (h.len == 0) return;
  h.head = h.head + 1 == head_.ring_cap ? 0 : h.head + 1;
  --h.len;
}

void Network::erase_outbox(QuadId q, std::size_t i) {
  const std::size_t r = outbox_ring(q);
  const std::size_t cap = head_.ring_cap;
  RingHdr& h = rings_[r];
  for (std::size_t k = i; k + 1 < h.len; ++k) {
    arena_[r * cap + (h.head + k) % cap] =
        arena_[r * cap + (h.head + k + 1) % cap];
  }
  --h.len;
}

bool Network::can_send(const SimMessage& msg, QuadId home) const {
  const VcCode code = vc_code(msg, home);
  if (code == 0) return true;  // dedicated path, unbounded
  return rings_[queue_ring(msg.src, msg.dst, code)].len < capacity_;
}

void Network::send_coded(const SimMessage& msg, VcCode code) {
  push(queue_ring(msg.src, msg.dst, code), msg);
  ++head_.in_flight;
}

void Network::send(const SimMessage& msg, QuadId home) {
  send_coded(msg, vc_code(msg, home));
}

std::vector<Network::QueueRef> Network::queues_to(QuadId dst) const {
  std::vector<QueueRef> out;
  queues_to(dst, out);
  return out;
}

void Network::queues_to(QuadId dst, std::vector<QueueRef>& out) const {
  out.clear();
  for (QuadId src = 0; src < static_cast<QuadId>(n_quads_); ++src) {
    for (VcCode code = 0; code < vc_count(); ++code) {
      const std::size_t r = queue_ring(src, dst, code);
      if (rings_[r].len != 0) {
        out.push_back(QueueRef{src, dst, vc_values_[code],
                               static_cast<std::uint32_t>(r)});
      }
    }
  }
}

const SimMessage* Network::front(const QueueRef& q) const {
  if (rings_[q.slot].len == 0) return nullptr;
  return &ring(q.slot)[0];
}

void Network::pop(const QueueRef& q) {
  if (rings_[q.slot].len == 0) return;
  pop_ring(q.slot);
  --head_.in_flight;
}

std::size_t Network::state_words() const noexcept {
  return (sizeof(Header) + rings_.size() * sizeof(RingHdr) +
          arena_.size() * sizeof(SimMessage)) /
         sizeof(std::uint64_t);
}

void Network::save(std::uint64_t* out) const {
  auto* p = reinterpret_cast<unsigned char*>(out);
  std::memcpy(p, &head_, sizeof(Header));
  p += sizeof(Header);
  std::memcpy(p, rings_.data(), rings_.size() * sizeof(RingHdr));
  p += rings_.size() * sizeof(RingHdr);
  std::memcpy(p, arena_.data(), arena_.size() * sizeof(SimMessage));
}

void Network::load(const std::uint64_t* in) {
  // A saved state's rings may be smaller than this Network's (it grew
  // since): copy it at its own size, then grow back.  Capacity never
  // shrinks, so explorer lanes settle on the largest layout they meet.
  const std::size_t keep = head_.ring_cap;
  Header saved{};
  std::memcpy(&saved, in, sizeof(Header));
  if (saved.ring_cap != keep) layout(saved.ring_cap);
  const auto* p = reinterpret_cast<const unsigned char*>(in);
  std::memcpy(&head_, p, sizeof(Header));
  p += sizeof(Header);
  std::memcpy(rings_.data(), p, rings_.size() * sizeof(RingHdr));
  p += rings_.size() * sizeof(RingHdr);
  std::memcpy(arena_.data(), p, arena_.size() * sizeof(SimMessage));
  if (saved.ring_cap < keep) regrow(keep);
}

std::string Network::describe_blocked() const {
  std::ostringstream os;
  for (QuadId src = 0; src < static_cast<QuadId>(n_quads_); ++src) {
    for (QuadId dst = 0; dst < static_cast<QuadId>(n_quads_); ++dst) {
      for (VcCode code = 0; code < vc_count(); ++code) {
        const Ring q = queue(src, dst, code);
        if (q.empty()) continue;
        os << "  " << (code == 0 ? "direct" : std::string(vc_values_[code].str()))
           << " " << src << "->" << dst << " [" << q.size() << "/"
           << capacity_ << "]:";
        for (std::size_t i = 0; i < q.size(); ++i) os << ' ' << q[i].to_string();
        os << '\n';
      }
    }
  }
  return os.str();
}

std::vector<Value> Network::occupied_vcs() const {
  std::vector<Value> out;
  for (std::size_t r = 0; r < n_queues_; ++r) {
    const std::size_t code = r % vc_values_.size();
    if (code != 0 && rings_[r].len != 0) out.push_back(vc_values_[code]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace ccsql::sim
