#include "obs/mem.hpp"

#include <cstdio>
#include <sstream>

#include "obs/obs.hpp"

namespace ccsql::obs {

MemTracker& MemTracker::global() {
  // Leaked like Tracer::global(): reservations held by function-local
  // statics (catalogs, cached specs) release during static destruction and
  // must still find a live tracker.
  static MemTracker* instance = new MemTracker();
  return *instance;
}

void MemTracker::bump(Cell& cell, std::uint64_t bytes) noexcept {
  const std::uint64_t live =
      cell.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = cell.peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !cell.peak.compare_exchange_weak(peak, live,
                                          std::memory_order_relaxed)) {
  }
}

void MemTracker::add(Category cat, std::uint64_t bytes) noexcept {
  bump(cells_[static_cast<unsigned>(cat)], bytes);
  bump(total_, bytes);
}

void MemTracker::release(Category cat, std::uint64_t bytes) noexcept {
  cells_[static_cast<unsigned>(cat)].live.fetch_sub(bytes,
                                                    std::memory_order_relaxed);
  total_.live.fetch_sub(bytes, std::memory_order_relaxed);
}

MemTracker::Usage MemTracker::usage(Category cat) const noexcept {
  const Cell& c = cells_[static_cast<unsigned>(cat)];
  return {c.live.load(std::memory_order_relaxed),
          c.peak.load(std::memory_order_relaxed)};
}

MemTracker::Usage MemTracker::total() const noexcept {
  return {total_.live.load(std::memory_order_relaxed),
          total_.peak.load(std::memory_order_relaxed)};
}

void MemTracker::publish(Metrics& metrics) const {
  for (unsigned i = 0; i < kCategories; ++i) {
    const Usage u = usage(static_cast<Category>(i));
    const std::string base =
        std::string("mem.") + to_string(static_cast<Category>(i));
    metrics.set(base + "_live_bytes", u.live);
    metrics.set(base + "_peak_bytes", u.peak);
  }
  const Usage t = total();
  metrics.set("mem.total_live_bytes", t.live);
  metrics.set("mem.total_peak_bytes", t.peak);
}

std::string MemTracker::summary() const {
  std::ostringstream os;
  os << "memory:";
  for (unsigned i = 0; i < kCategories; ++i) {
    const Usage u = usage(static_cast<Category>(i));
    os << (i == 0 ? " " : ", ") << to_string(static_cast<Category>(i)) << " "
       << format_bytes(u.live) << " live / " << format_bytes(u.peak)
       << " peak";
  }
  const Usage t = total();
  os << ", total " << format_bytes(t.live) << " live / "
     << format_bytes(t.peak) << " peak";
  return os.str();
}

void MemTracker::reset() noexcept {
  for (Cell& c : cells_) {
    c.live.store(0, std::memory_order_relaxed);
    c.peak.store(0, std::memory_order_relaxed);
  }
  total_.live.store(0, std::memory_order_relaxed);
  total_.peak.store(0, std::memory_order_relaxed);
}

const char* to_string(MemTracker::Category cat) noexcept {
  switch (cat) {
    case MemTracker::Category::kTables:
      return "tables";
    case MemTracker::Category::kIndexes:
      return "indexes";
    case MemTracker::Category::kHashBuilds:
      return "hash_builds";
    case MemTracker::Category::kPlans:
      return "plans";
    case MemTracker::Category::kExplorer:
      return "explorer";
  }
  return "?";
}

std::string format_bytes(std::uint64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double v = static_cast<double>(bytes);
  unsigned u = 0;
  while (v >= 1024.0 && u + 1 < sizeof(units) / sizeof(units[0])) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
  }
  return buf;
}

}  // namespace ccsql::obs
