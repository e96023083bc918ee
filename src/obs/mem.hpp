#pragma once

// Memory accounting for the long-lived allocations the query engine makes
// (database-resident tables, hash indexes, the materialised right sides
// joins index, cached plans) and for the reachability explorer's search
// state.
//
// MemTracker keeps a live/peak byte pair per category behind relaxed
// atomics, so the hooks (Database::put, Table::index_on, the executor's
// local build sides, the explorer's per-wave sample) cost two atomic RMWs
// each — cheap enough to stay on unconditionally, with or without tracing.
// EXPLAIN ANALYZE, the CLI's --stats page, and the bench metrics JSON all
// read the same tracker.
//
// MemReservation is the RAII handle the hooks hold: it registers bytes on
// construction and releases them on destruction, so live counts stay
// correct across table replacement, index-cache invalidation, and early
// exits.  Copying a reservation re-registers the same size (a copied table
// really does hold a second buffer); moves transfer ownership.

#include <atomic>
#include <cstdint>
#include <string>

namespace ccsql::obs {

class Metrics;

class MemTracker {
 public:
  enum class Category : unsigned {
    kTables = 0,      // catalog-resident table buffers
    kIndexes = 1,     // hash indexes (Table::index_on cache: point lookups
                      // and joins' right sides share one per column set)
    kHashBuilds = 2,  // materialised right sides a join's route indexes
    kPlans = 3,       // prepared-statement cache (serve::PlanCache)
    kExplorer = 4,    // explore_parallel: visited set, frontiers, parents
  };
  static constexpr unsigned kCategories = 5;

  MemTracker() = default;
  MemTracker(const MemTracker&) = delete;
  MemTracker& operator=(const MemTracker&) = delete;

  /// The process-wide tracker every hook reports to.
  static MemTracker& global();

  void add(Category cat, std::uint64_t bytes) noexcept;
  void release(Category cat, std::uint64_t bytes) noexcept;

  struct Usage {
    std::uint64_t live = 0;
    std::uint64_t peak = 0;
  };
  [[nodiscard]] Usage usage(Category cat) const noexcept;
  /// Sum over categories; peak is the high-water mark of the summed live.
  [[nodiscard]] Usage total() const noexcept;

  /// Writes mem.<category>_live_bytes / _peak_bytes gauges into `metrics`
  /// (overwriting, so repeated publishes do not accumulate).
  void publish(Metrics& metrics) const;

  /// One line, e.g. `memory: tables 1.2 MiB live / 1.5 MiB peak, ...`.
  [[nodiscard]] std::string summary() const;

  /// Zeroes every counter (tests only — live reservations then underflow
  /// on release, so call it only between isolated workloads).
  void reset() noexcept;

 private:
  struct Cell {
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> peak{0};
  };
  void bump(Cell& cell, std::uint64_t bytes) noexcept;

  Cell cells_[kCategories];
  Cell total_;
};

[[nodiscard]] const char* to_string(MemTracker::Category cat) noexcept;

/// "1.2 KiB" / "3.4 MiB" rendering shared by summaries and EXPLAIN ANALYZE.
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

/// RAII byte registration against MemTracker::global().
class MemReservation {
 public:
  MemReservation() = default;
  MemReservation(MemTracker::Category cat, std::uint64_t bytes)
      : cat_(cat), bytes_(bytes) {
    if (bytes_ != 0) MemTracker::global().add(cat_, bytes_);
  }
  /// A copy registers its own bytes: the copied owner holds its own buffer.
  MemReservation(const MemReservation& other)
      : MemReservation(other.cat_, other.bytes_) {}
  MemReservation& operator=(const MemReservation& other) {
    if (this != &other) {
      reset();
      cat_ = other.cat_;
      bytes_ = other.bytes_;
      if (bytes_ != 0) MemTracker::global().add(cat_, bytes_);
    }
    return *this;
  }
  MemReservation(MemReservation&& other) noexcept
      : cat_(other.cat_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  MemReservation& operator=(MemReservation&& other) noexcept {
    if (this != &other) {
      reset();
      cat_ = other.cat_;
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  ~MemReservation() { reset(); }

  void reset() noexcept {
    if (bytes_ != 0) MemTracker::global().release(cat_, bytes_);
    bytes_ = 0;
  }

  /// Re-registers as `bytes` (the owner grew or shrank), charging only the
  /// difference so the category's peak never counts both sizes at once.
  void resize(std::uint64_t bytes) noexcept {
    if (bytes > bytes_) {
      MemTracker::global().add(cat_, bytes - bytes_);
    } else if (bytes < bytes_) {
      MemTracker::global().release(cat_, bytes_ - bytes);
    }
    bytes_ = bytes;
  }

  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  MemTracker::Category cat_ = MemTracker::Category::kTables;
  std::uint64_t bytes_ = 0;
};

}  // namespace ccsql::obs
