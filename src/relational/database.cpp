#include "relational/database.hpp"

#include <atomic>

#include "core/pool.hpp"
#include "obs/mem.hpp"
#include "plan/planner.hpp"
#include "relational/error.hpp"

namespace ccsql {
namespace {

/// Live Snapshot handles, process-wide (the serve.snapshot.active gauge).
std::atomic<std::size_t> g_active_snapshots{0};

/// A snapshot's frozen catalog copy plus the MemTracker reservation
/// covering the copy's own footprint.  Column storage and indexes are
/// shared with the live catalog (COW per column) and stay accounted by
/// their original StoredTable reservations; what a snapshot newly
/// allocates is the catalog map copy itself (nodes, names, shared_ptr
/// control blocks).
struct FrozenCatalog {
  Catalog catalog;
  obs::MemReservation mem;
};

std::size_t catalog_copy_bytes(const Catalog& c) {
  std::size_t bytes = sizeof(Catalog);
  for (const auto& [name, ptr] : c.tables()) {
    // One map node: key string, shared_ptr, and node/control overhead.
    bytes += name.capacity() + sizeof(void*) * 6;
  }
  return bytes;
}

}  // namespace

// ---- Snapshot ---------------------------------------------------------------

Snapshot::Snapshot(std::shared_ptr<const Catalog> state,
                   std::uint64_t generation, std::size_t jobs)
    : state_(std::move(state)), generation_(generation), jobs_(jobs) {
  if (state_) g_active_snapshots.fetch_add(1, std::memory_order_relaxed);
}

Snapshot::Snapshot(const Snapshot& other)
    : state_(other.state_),
      generation_(other.generation_),
      jobs_(other.jobs_) {
  if (state_) g_active_snapshots.fetch_add(1, std::memory_order_relaxed);
}

Snapshot::Snapshot(Snapshot&& other) noexcept
    : state_(std::move(other.state_)),
      generation_(other.generation_),
      jobs_(other.jobs_) {
  other.state_.reset();
}

Snapshot& Snapshot::operator=(const Snapshot& other) {
  if (this != &other) {
    if (other.state_ && !state_) {
      g_active_snapshots.fetch_add(1, std::memory_order_relaxed);
    } else if (!other.state_ && state_) {
      g_active_snapshots.fetch_sub(1, std::memory_order_relaxed);
    }
    state_ = other.state_;
    generation_ = other.generation_;
    jobs_ = other.jobs_;
  }
  return *this;
}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    if (state_) g_active_snapshots.fetch_sub(1, std::memory_order_relaxed);
    state_ = std::move(other.state_);
    other.state_.reset();
    generation_ = other.generation_;
    jobs_ = other.jobs_;
  }
  return *this;
}

Snapshot::~Snapshot() {
  if (state_) g_active_snapshots.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t Snapshot::active() noexcept {
  return g_active_snapshots.load(std::memory_order_relaxed);
}

std::size_t Snapshot::jobs() const {
  return jobs_ != 0 ? jobs_ : core::Pool::default_jobs();
}

const Catalog& Snapshot::catalog() const {
  if (!state_) throw BindError("empty snapshot");
  return *state_;
}

// ---- Database ---------------------------------------------------------------

Snapshot Database::snapshot() const {
  auto frozen = std::make_shared<FrozenCatalog>();
  frozen->catalog = catalog_;
  frozen->mem = obs::MemReservation(obs::MemTracker::Category::kTables,
                                    catalog_copy_bytes(frozen->catalog));
  // Aliased: snapshots see a plain `const Catalog`, the reservation rides
  // along and releases when the last copy of this snapshot drops.
  const Catalog* view = &frozen->catalog;
  return Snapshot(std::shared_ptr<const Catalog>(std::move(frozen), view),
                  catalog_.generation(), jobs_);
}

std::size_t Database::jobs() const {
  return jobs_ != 0 ? jobs_ : core::Pool::default_jobs();
}

QueryResult Database::explain(std::string_view select_text) const {
  return {Table(),
          plan::explain_sql(catalog_, select_text, plan::ExecContext{jobs()})};
}

QueryResult Database::explain_analyze(std::string_view select_text) const {
  const plan::ExecContext ctx{jobs(), /*analyze=*/true};
  QueryResult r{Table(), plan::explain_sql(catalog_, select_text, ctx)};
  r.plan += obs::MemTracker::global().summary();
  r.plan += "\n";
  return r;
}

}  // namespace ccsql
