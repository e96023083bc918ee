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
  ring_cap_ = static_cast<std::uint32_t>(std::max<std::size_t>(capacity_, 1));
  arena_.resize(rings_.size() * ring_cap_);
}

namespace {

/// Memo bucket of a packed triple: the key's low bits are only its
/// destination role, which a handful of symbols share, so mix first.
std::size_t memo_slot(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

}  // namespace

void Network::vc_memo_grow() const {
  std::vector<VcMemoEntry> bigger(vc_memo_.size() * 2);
  const std::size_t mask = bigger.size() - 1;
  for (const VcMemoEntry& e : vc_memo_) {
    if (e.key_plus1 == 0) continue;
    std::size_t i = memo_slot(e.key_plus1, mask);
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
  std::size_t i = memo_slot(key1, mask);
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
    i = memo_slot(key1, m2);
    while (vc_memo_[i].key_plus1 != 0) i = (i + 1) & m2;
  }
  vc_memo_[i] = VcMemoEntry{key1, code};
  ++vc_memo_used_;
  return code;
}

void Network::regrow(std::size_t cap) {
  std::vector<SimMessage> bigger(rings_.size() * cap);
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const Ring old = ring(r);
    for (std::size_t i = 0; i < old.size(); ++i) bigger[r * cap + i] = old[i];
    rings_[r].head = 0;
  }
  arena_ = std::move(bigger);
  ring_cap_ = static_cast<std::uint32_t>(cap);
}

void Network::push(std::size_t r, const SimMessage& msg) {
  if (rings_[r].len == ring_cap_) regrow(2 * std::size_t{ring_cap_});
  RingHdr& h = rings_[r];
  std::size_t k = h.head + h.len;
  if (k >= ring_cap_) k -= ring_cap_;
  arena_[r * ring_cap_ + k] = msg;
  ++h.len;
}

void Network::pop_ring(std::size_t r) {
  RingHdr& h = rings_[r];
  if (h.len == 0) return;
  h.head = h.head + 1 == ring_cap_ ? 0 : h.head + 1;
  --h.len;
}

void Network::erase_outbox(QuadId q, std::size_t i) {
  const std::size_t r = outbox_ring(q);
  const std::size_t cap = ring_cap_;
  RingHdr& h = rings_[r];
  for (std::size_t k = i; k + 1 < h.len; ++k) {
    arena_[r * cap + (h.head + k) % cap] =
        arena_[r * cap + (h.head + k + 1) % cap];
  }
  --h.len;
}

void Network::send_coded(const SimMessage& msg, VcCode code) {
  push(queue_ring(msg.src, msg.dst, code), msg);
  ++in_flight_;
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
  --in_flight_;
}

std::size_t Network::state_words() const noexcept {
  std::size_t words = 1;
  for (const RingHdr& h : rings_) {
    if (h.len != 0) words += 1 + h.len * kMessageWords;
  }
  return words;
}

std::size_t Network::save(std::uint64_t* out) const {
  std::uint64_t* p = out + 1;
  std::uint32_t saved = 0;
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const RingHdr& h = rings_[r];
    if (h.len == 0) continue;
    const RingTag tag{static_cast<std::uint32_t>(r), h.len};
    std::memcpy(p++, &tag, sizeof(RingTag));
    // Oldest first: head to the end of storage, then the wrapped part.
    const SimMessage* base = arena_.data() + r * ring_cap_;
    const std::size_t first = std::min<std::size_t>(h.len, ring_cap_ - h.head);
    std::memcpy(p, base + h.head, first * sizeof(SimMessage));
    std::memcpy(p + first * kMessageWords, base,
                (h.len - first) * sizeof(SimMessage));
    p += h.len * kMessageWords;
    ++saved;
  }
  const StateHead head{in_flight_, saved};
  std::memcpy(out, &head, sizeof(StateHead));
  return static_cast<std::size_t>(p - out);
}

void Network::load(const std::uint64_t* in) {
  StateHead head{};
  std::memcpy(&head, in++, sizeof(StateHead));
  in_flight_ = head.in_flight;
  std::fill(rings_.begin(), rings_.end(), RingHdr{});
  for (std::uint32_t i = 0; i < head.rings; ++i) {
    RingTag tag{};
    std::memcpy(&tag, in++, sizeof(RingTag));
    if (tag.len > ring_cap_) {
      // Rings restored so far keep their contents (their heads are 0).
      std::size_t cap = ring_cap_;
      while (cap < tag.len) cap *= 2;
      regrow(cap);
    }
    std::memcpy(static_cast<void*>(arena_.data() +
                                   std::size_t{tag.ring} * ring_cap_),
                in, tag.len * sizeof(SimMessage));
    rings_[tag.ring].len = tag.len;
    in += tag.len * kMessageWords;
  }
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
