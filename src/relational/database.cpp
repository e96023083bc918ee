#include "relational/database.hpp"

#include <atomic>
#include <chrono>

#include "core/pool.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "plan/planner.hpp"
#include "relational/error.hpp"

namespace ccsql {
namespace {

std::uint64_t micros_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Live Snapshot handles, process-wide (the serve.snapshot.active gauge).
std::atomic<std::size_t> g_active_snapshots{0};

/// A per-generation frozen catalog copy plus the MemTracker reservation
/// covering the copy's own footprint.  Column storage and indexes are
/// shared with the live catalog (COW per column) and stay accounted by
/// their original StoredTable reservations; what a snapshot newly
/// allocates — and what used to go untracked — is the catalog map copy
/// itself (nodes, names, shared_ptr control blocks).
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

QueryResult Snapshot::query(std::string_view select_text) const {
  return query(parse_select(select_text));
}

QueryResult Snapshot::query(const SelectStmt& stmt) const {
  if (!state_) throw BindError("query on empty snapshot");
  QueryResult r;
  r.jobs = jobs();
  plan::PlannerOptions opts;
  opts.jobs = r.jobs;
  const auto t0 = std::chrono::steady_clock::now();
  r.rows = plan::run_select(*state_, stmt, opts);
  r.micros = micros_since(t0);
  return r;
}

bool Snapshot::check_empty(std::string_view invariant_text) const {
  for (const SelectStmt& s : parse_invariant(invariant_text)) {
    if (!check_empty(s)) return false;
  }
  return true;
}

bool Snapshot::check_empty(const SelectStmt& stmt) const {
  if (!state_) throw BindError("check_empty on empty snapshot");
  return plan::is_empty(*state_, stmt);
}

// ---- Database ---------------------------------------------------------------

Snapshot Database::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (!snap_cache_ || snap_gen_ != catalog_.generation()) {
    auto frozen = std::make_shared<FrozenCatalog>();
    frozen->catalog = catalog_;
    frozen->mem = obs::MemReservation(obs::MemTracker::Category::kTables,
                                      catalog_copy_bytes(frozen->catalog));
    // Aliased: snapshots see a plain `const Catalog`, the reservation rides
    // along and releases when the last snapshot of this generation drops.
    const Catalog* view = &frozen->catalog;
    snap_cache_ = std::shared_ptr<const Catalog>(std::move(frozen), view);
    snap_gen_ = catalog_.generation();
  }
  return Snapshot(snap_cache_, snap_gen_, jobs_);
}

std::size_t Database::jobs() const {
  return jobs_ != 0 ? jobs_ : core::Pool::default_jobs();
}

QueryResult Database::query(std::string_view select_text) const {
  return query(parse_select(select_text));
}

QueryResult Database::query(const SelectStmt& stmt) const {
  CCSQL_SPAN(span, "db.query", "relational");
  QueryResult r;
  r.jobs = jobs();
  plan::PlannerOptions opts;
  opts.jobs = r.jobs;
  const auto t0 = std::chrono::steady_clock::now();
  r.rows = plan::run_select(catalog_, stmt, opts);
  r.micros = micros_since(t0);
  span.arg("jobs", static_cast<std::uint64_t>(r.jobs));
  span.arg("rows", r.rows.row_count());
  CCSQL_COUNT("db.queries", 1);
  CCSQL_COUNT("db.rows_emitted", r.rows.row_count());
  return r;
}

bool Database::check_empty(std::string_view invariant_text) const {
  for (const SelectStmt& s : parse_invariant(invariant_text)) {
    if (!check_empty(s)) return false;
  }
  return true;
}

bool Database::check_empty(const SelectStmt& stmt) const {
  CCSQL_COUNT("db.emptiness_probes", 1);
  return plan::is_empty(catalog_, stmt);
}

QueryResult Database::explain(std::string_view select_text) const {
  QueryResult r;
  r.jobs = jobs();
  plan::PlannerOptions opts;
  opts.jobs = r.jobs;
  const auto t0 = std::chrono::steady_clock::now();
  r.plan = plan::explain_sql(catalog_, select_text, opts);
  r.micros = micros_since(t0);
  return r;
}

QueryResult Database::explain_analyze(std::string_view select_text) const {
  QueryResult r;
  r.jobs = jobs();
  plan::PlannerOptions opts;
  opts.jobs = r.jobs;
  opts.analyze = true;
  const auto t0 = std::chrono::steady_clock::now();
  r.plan = plan::explain_sql(catalog_, select_text, opts);
  r.micros = micros_since(t0);
  r.plan += obs::MemTracker::global().summary();
  r.plan += "\n";
  return r;
}

}  // namespace ccsql
