#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "protocol/channel_assignment.hpp"
#include "sim/types.hpp"

namespace ccsql::sim {

/// The interconnect: finite-capacity virtual-channel FIFOs per directed
/// quad pair, as assigned by the protocol's V table, plus unbounded
/// dedicated paths for messages V leaves unassigned (the paper's fix) and
/// for intra-node delivery.
///
/// Blocking-send semantics are what make deadlocks real here: a controller
/// may only consume an input if every output it must emit has channel
/// space, exactly like the paper's Figure 4 scenario.
///
/// Storage is flat (DESIGN.md §15): every queue is a ring buffer in one
/// message arena sized at construction, next to one ring per quad for the
/// node's outbox (the RAC decoupling buffer, which Machine keeps here so
/// that one arena holds every queued message).  `capacity` bounds what
/// has_room admits, not storage: dedicated paths are unbounded, and one
/// step's outputs are each checked against the occupancy before any is
/// sent, so a channel may briefly hold more.  Rings therefore share one
/// storage capacity that doubles when a push finds a ring full.
///
/// save() packs the queue state: `in_flight`, then each non-empty ring as
/// its (ring, length) followed by its messages, oldest first.  Empty slots
/// and the ring layout (storage capacity, head offsets) are not state, so
/// one logical state saves to the same words whatever the rings' history.
/// load() rebuilds every ring from slot 0 and grows the storage itself
/// when a saved ring is longer than the current capacity.
class Network {
 public:
  Network(const ChannelAssignment& v, int n_quads, int capacity);

  /// A channel endpoint for receivers: all queues addressed to `dst`.
  struct QueueRef {
    QuadId src;
    QuadId dst;
    Value vc;  // NULL for the dedicated-path queue
    std::uint32_t slot = 0;  // ring index, filled by queues_to
  };

  /// Clears `out` and fills it with the non-empty queues addressed to
  /// `dst`, ordered by (src, vc symbol id) — the delivery order.  An
  /// out-parameter so the scheduler's hot loop reuses one buffer.
  void queues_to(QuadId dst, std::vector<QueueRef>& out) const;

  [[nodiscard]] const SimMessage* front(const QueueRef& q) const;
  void pop(const QueueRef& q);

  /// Messages queued on channels (outboxes excluded).
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

  /// Occupancy of every non-empty queue, for deadlock reports.
  [[nodiscard]] std::string describe_blocked() const;

  /// Distinct assigned virtual channels with at least one queued message
  /// (dedicated NULL-channel paths excluded), sorted.  In a deadlock state
  /// this is the wedge's channel set — what cycle classification matches
  /// against VCG cycles.
  [[nodiscard]] std::vector<Value> occupied_vcs() const;

  /// Small-integer handle for a virtual channel: 0 is the dedicated
  /// (NULL-channel) path, 1..k the assignment's channels in symbol-id
  /// order, so ascending codes are the delivery order.
  using VcCode = std::uint16_t;
  [[nodiscard]] VcCode vc_count() const noexcept {
    return static_cast<VcCode>(vc_values_.size());
  }

  /// The VC code of a message.  Memoized on the (type, role_src, role_dst)
  /// triple — the V table is immutable during simulation.
  [[nodiscard]] VcCode vc_code(const SimMessage& msg, QuadId home) const;

  /// The channel Value for a code (null for code 0).
  [[nodiscard]] const Value& vc_value(VcCode code) const {
    return vc_values_[code];
  }

  /// True if a message on channel `code` (from vc_code) can be sent now:
  /// always on the dedicated path, else while its channel is below
  /// capacity.  Machine resolves a message's channel once and passes the
  /// code to both calls.
  [[nodiscard]] bool has_room(const SimMessage& msg, VcCode code) const {
    return code == 0 ||  // dedicated path, unbounded
           rings_[queue_ring(msg.src, msg.dst, code)].len < capacity_;
  }
  /// Enqueues on channel `code`; the caller must have checked has_room.
  void send_coded(const SimMessage& msg, VcCode code);

  /// A ring's messages, oldest first.  Valid until the next push.
  class Ring {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return len_; }
    [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
    [[nodiscard]] const SimMessage& operator[](std::size_t i) const {
      const std::size_t k = head_ + i;
      return base_[k < cap_ ? k : k - cap_];
    }

   private:
    friend class Network;
    Ring(const SimMessage* base, std::size_t cap, std::size_t head,
         std::size_t len)
        : base_(base), cap_(cap), head_(head), len_(len) {}
    const SimMessage* base_;
    std::size_t cap_, head_, len_;
  };

  [[nodiscard]] Ring queue(QuadId src, QuadId dst, VcCode code) const {
    return ring(queue_ring(src, dst, code));
  }

  // ---- Node outboxes ------------------------------------------------------
  [[nodiscard]] Ring outbox(QuadId q) const { return ring(outbox_ring(q)); }
  void push_outbox(QuadId q, const SimMessage& msg) {
    push(outbox_ring(q), msg);
  }
  void pop_outbox(QuadId q) { pop_ring(outbox_ring(q)); }
  /// Removes the i-th oldest outbox message, keeping the rest in order.
  void erase_outbox(QuadId q, std::size_t i);

  // ---- Packed state -------------------------------------------------------
  /// Size of save()'s output for the current state, in 64-bit words.
  [[nodiscard]] std::size_t state_words() const noexcept;
  /// Packs the queue state into `out`; returns the words written
  /// (state_words()).
  std::size_t save(std::uint64_t* out) const;
  /// Replaces the queue state with one save() wrote, possibly by another
  /// Network of the same configuration.
  void load(const std::uint64_t* in);

  /// Message slots per ring: storage, not state (doubles on demand, never
  /// shrinks).
  [[nodiscard]] std::size_t ring_capacity() const noexcept {
    return ring_cap_;
  }

 private:
  /// save()'s first word, and the word before each saved ring's messages.
  struct StateHead {
    std::uint32_t in_flight;
    std::uint32_t rings;  // non-empty rings that follow
  };
  struct RingTag {
    std::uint32_t ring;
    std::uint32_t len;
  };
  static_assert(std::is_trivially_copyable_v<SimMessage> &&
                sizeof(SimMessage) % sizeof(std::uint64_t) == 0);
  static constexpr std::size_t kMessageWords =
      sizeof(SimMessage) / sizeof(std::uint64_t);

  struct RingHdr {
    std::uint32_t head = 0;
    std::uint32_t len = 0;
  };

  [[nodiscard]] std::size_t queue_ring(QuadId src, QuadId dst,
                                       VcCode code) const {
    return (static_cast<std::size_t>(src) * n_quads_ +
            static_cast<std::size_t>(dst)) *
               vc_values_.size() +
           code;
  }
  [[nodiscard]] std::size_t outbox_ring(QuadId q) const {
    return n_queues_ + static_cast<std::size_t>(q);
  }
  [[nodiscard]] Ring ring(std::size_t r) const {
    return Ring(arena_.data() + r * ring_cap_, ring_cap_, rings_[r].head,
                rings_[r].len);
  }
  void push(std::size_t r, const SimMessage& msg);
  void pop_ring(std::size_t r);
  /// Re-lays the arena out with rings of `cap` messages, keeping every
  /// ring's contents (oldest message at its ring's first slot).
  void regrow(std::size_t cap);

  const ChannelAssignment* v_;
  std::size_t n_quads_;
  std::size_t capacity_;
  std::size_t n_queues_;  // quad pairs x VC codes; outbox rings follow

  std::vector<Value> vc_values_;  // code -> channel (null for code 0)

  /// (type, role_src, role_dst) -> VC code, open-addressed with linear
  /// probing (the triple space is tiny and the lookup runs multiple times
  /// per message).  The stored key is the packed triple plus one, so 0
  /// marks an empty bucket.
  struct VcMemoEntry {
    std::uint64_t key_plus1 = 0;
    VcCode code = 0;
  };
  mutable std::vector<VcMemoEntry> vc_memo_;
  mutable std::size_t vc_memo_used_ = 0;
  void vc_memo_grow() const;

  // The state save()/load() pack: in_flight_ and the rings' contents.
  std::uint32_t ring_cap_ = 0;  // storage per ring; a full ring doubles all
  std::uint32_t in_flight_ = 0;
  std::vector<RingHdr> rings_;
  std::vector<SimMessage> arena_;
};

}  // namespace ccsql::sim
