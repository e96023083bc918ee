#pragma once

// The benchmark's measurement kit: a nanosecond clock, the one latency
// histogram every timing goes through, the in-memory span log of traced
// runs, and the metric sink the result line is printed from.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds since an arbitrary epoch.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latency samples in integer nanoseconds.  Samples below kDense are kept
/// as exact per-nanosecond counts (fixed memory however many calls a serve
/// run makes); larger samples are kept verbatim.  Quantiles interpolate
/// linearly between the two nearest ranks, so nothing is bucketed or
/// rounded to whole microseconds.
class Histogram {
 public:
  void record(std::uint64_t ns);
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// The q-quantile (0 <= q <= 1) in nanoseconds; 0 when empty.
  [[nodiscard]] double quantile_ns(double q) const;

 private:
  static constexpr std::uint64_t kDense = 1u << 16;
  /// The k-th smallest sample (0-based, k < count()).
  [[nodiscard]] std::uint64_t kth(std::uint64_t k) const;

  std::vector<std::uint32_t> dense_;  // sized on the first small sample
  std::uint64_t dense_count_ = 0;
  mutable std::vector<std::uint64_t> large_;
  mutable bool large_sorted_ = true;
  std::uint64_t count_ = 0;
};

/// The q-quantile of `values` with the same interpolation as Histogram.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// In-memory spans of a traced run.  Each thread records through its own
/// Lane; a span's parent is the innermost open span of the same lane.
/// Every span's duration also lands in a per-name Histogram, so layer
/// metrics read from the log even past the stored-span cap.  Span names
/// must be string literals (they are keyed by address).
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
  };

  class Lane {
   public:
    [[nodiscard]] const Histogram* durations(const char* name) const;

   private:
    friend class SpanLog;
    friend class Scope;
    std::uint64_t lane_id_ = 0;
    std::vector<Span> spans_;
    std::vector<std::uint64_t> open_;  // ids of open spans, innermost last
    std::uint64_t next_ = 0;
    std::uint64_t dropped_ = 0;
    std::unordered_map<const char*, Histogram> durations_;
  };

  /// Spans stored per lane; later spans only update the histograms.
  static constexpr std::size_t kSpanCap = 20'000;

  /// A new lane for the calling thread (thread-safe).
  Lane& lane();

  /// Durations of every span named `name` across all lanes.  Call after
  /// the threads recording into the lanes have been joined.
  [[nodiscard]] Histogram durations(const char* name) const;

  /// Writes every stored span as one JSON object per line, with its self
  /// time (duration minus the time its child spans cover).
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// RAII span on a lane; a null lane makes it a no-op (untraced runs).
class Scope {
 public:
  Scope(SpanLog::Lane* lane, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog::Lane* lane_;
  const char* name_;
  std::uint64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// CPU time of `clock` (CLOCK_THREAD_CPUTIME_ID, CLOCK_PROCESS_CPUTIME_ID)
/// in nanoseconds.  The kernel leaves out the time the host gave the
/// virtual CPU to someone else (steal), which wall time counts.
double cpu_ns(clockid_t clock);

/// The CPU time an operation would take on a host of fixed speed.  The
/// operation's CPU time is divided by readings of a fixed computation that
/// calls no program code, taken right before and after it: dependent reads
/// over a table larger than one core's L2 cache (memory latency) and
/// integer mixing over one that fits (core speed).  On a shared host both
/// drift by a fifth within a minute as neighbours come and go; a change to
/// the program moves the operation but not the readings.
class HostSpeed {
 public:
  /// The reference computation's CPU time on a quiet 4-vCPU Xeon host, so
  /// nominal times there read close to measured ones.
  static constexpr double kNominalNs = 2.0e6;

  HostSpeed();

  /// Runs `op` once; returns its CPU time (every thread of the process)
  /// times kNominalNs over the mean of the readings around it.  The
  /// closing reading opens the next call.
  double nominal_ns(const std::function<void()>& op);

  /// Memory the reference computation keeps resident, in MiB.
  [[nodiscard]] double resident_mb() const;

 private:
  /// The median CPU time of runs of the reference computation, as many as
  /// fit in `budget_ns`, at least one and at most 15.
  double reading_ns(double budget_ns);

  std::vector<std::uint64_t> chase_;  // one cycle through every word
  std::vector<std::uint64_t> mix_;
  double last_reading_ = 0;
};

/// Named metrics with units, printed in the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Copies every metric of `other` not already present here.
  void fill_from(const Metrics& other);
  /// Copies every metric of `other`, replacing values present here.
  void update(const Metrics& other);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with shortest round-trip
  /// number formatting.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Shortest round-trip decimal text of `v`.
std::string format_number(double v);

/// The process's peak resident set size in MiB (VmHWM), 0 when unknown.
double peak_rss_mb();

}  // namespace perfbench
