#pragma once

// Cross-cutting observability for the ccsql tree: structured trace events
// (nested spans + instants) and named metrics (counters + histograms),
// written through pluggable sinks (human text, JSON-Lines, Chrome
// trace_event for Perfetto).
//
// Design rules:
//  - Disabled is the default and must stay near-free: every instrumentation
//    site guards on one relaxed atomic load before doing any work.
//  - Instrumentation goes through the CCSQL_* macros below.
//  - One process-wide tracer (Tracer::global()) so deep layers (the query
//    engine, the simulator) need no plumbing; tests may construct private
//    Tracer instances.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ccsql::obs {

// ---- events -----------------------------------------------------------------

/// Chrome trace_event phase letters, reused across all sinks.
enum class Phase : char {
  kBegin = 'B',    // span opened
  kEnd = 'E',      // span closed (carries dur + args)
  kInstant = 'i',  // point event
  kCounter = 'C',  // metric sample (emitted when a trace is finalised)
};

/// One key/value annotation.  `numeric` values are emitted unquoted by the
/// JSON sinks.
struct Arg {
  std::string key;
  std::string value;
  bool numeric = false;
};

Arg arg(std::string_view key, std::string_view value);
Arg arg(std::string_view key, const char* value);
Arg arg(std::string_view key, std::int64_t value);
Arg arg(std::string_view key, std::uint64_t value);
Arg arg(std::string_view key, int value);
Arg arg(std::string_view key, bool value);
Arg arg(std::string_view key, double value);

/// One trace record, as handed to sinks.
struct Event {
  Phase phase = Phase::kInstant;
  std::string name;
  std::string category;  // layer tag: relational / solver / checks / sim / ...
  std::uint64_t ts_micros = 0;   // microseconds since the tracer's epoch
  std::uint64_t dur_micros = 0;  // kEnd only
  int depth = 0;                 // span nesting depth at emission
  int worker = -1;               // pool worker id; -1 = main / off-pool
  std::vector<Arg> args;
};

/// Tags the calling thread as pool worker `id` (-1 = not a worker).  Every
/// event emitted from this thread then carries the id, so parallel traces
/// stay attributable (the Chrome sink maps it to a tid lane).  Called by
/// ccsql::core::Pool when worker threads start.
void set_current_worker(int id) noexcept;
[[nodiscard]] int current_worker() noexcept;

// ---- sinks ------------------------------------------------------------------

/// Receives every event of a trace.  Writes arrive already serialised under
/// the tracer's lock; sinks need no locking of their own.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const Event& event) = 0;
  /// Called exactly once, after the last write.
  virtual void finish() {}
};

/// Human-readable lines, indented by span depth.
class TextSink : public Sink {
 public:
  explicit TextSink(std::ostream& os) : os_(&os) {}
  void write(const Event& event) override;

 private:
  std::ostream* os_;
};

/// One JSON object per line; the format read back by tools/trace_summary.
class JsonlSink : public Sink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(&os) {}
  void write(const Event& event) override;

 private:
  std::ostream* os_;
};

/// Chrome trace_event JSON array, loadable in Perfetto / chrome://tracing.
class ChromeSink : public Sink {
 public:
  explicit ChromeSink(std::ostream& os) : os_(&os) {}
  void write(const Event& event) override;
  void finish() override;

 private:
  std::ostream* os_;
  bool first_ = true;
};

enum class Format { kText, kJsonl, kChrome };

/// Parses "text" / "jsonl" / "chrome"; nullopt on anything else.
std::optional<Format> parse_format(std::string_view name);

/// Guesses a format from a path: .jsonl -> jsonl, .json -> chrome,
/// everything else -> text.
Format format_for_path(std::string_view path);

/// Opens `path` for writing and wraps it in the sink for `format`.
/// Throws std::runtime_error if the file cannot be opened.
std::unique_ptr<Sink> open_trace_file(const std::string& path, Format format);

/// JSON string-body escaping shared by the sinks (no surrounding quotes).
std::string json_escape(std::string_view text);

// ---- metrics ----------------------------------------------------------------

/// Log2-bucketed histogram: bucket i counts values in [2^(i-1), 2^i), with
/// bucket 0 for values < 1.
struct Histogram {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::vector<std::uint64_t> buckets;  // grown on demand

  void observe(double value);
  [[nodiscard]] double mean() const { return count ? sum / count : 0.0; }
  /// Approximate quantile (q in [0,1]) reconstructed from the log2 buckets
  /// by linear interpolation inside the crossing bucket, clamped to
  /// [min, max].  Exact for q=0/q=1; within a factor of 2 otherwise.
  [[nodiscard]] double percentile(double q) const;
};

/// Named counters and histograms.  Thread-safe; snapshot accessors copy.
class Metrics {
 public:
  void add(std::string_view counter, std::uint64_t delta = 1);
  /// Overwrites a counter (gauge semantics — repeated publishes of pool or
  /// memory snapshots must not accumulate).
  void set(std::string_view counter, std::uint64_t value);
  void observe(std::string_view histogram, double value);

  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  [[nodiscard]] std::map<std::string, Histogram> histograms() const;
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  void clear();

  /// Aligned human-readable table.
  [[nodiscard]] std::string summary() const;
  /// {"counters":{...},"histograms":{...}} on one line.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// ---- tracer -----------------------------------------------------------------

class Tracer;

/// RAII span: emits kBegin on creation (when tracing) and kEnd, carrying
/// accumulated args and the duration, on destruction.  A default-constructed
/// or moved-from span is inactive and all operations are no-ops.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  ~Span();

  Span& arg(Arg a);
  template <typename T>
  Span& arg(std::string_view key, T&& value) {
    if (tracer_ != nullptr) arg(obs::arg(key, std::forward<T>(value)));
    return *this;
  }

  /// Emits the end event now instead of at destruction.
  void end();

  [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::string_view name, std::string_view category);

  Tracer* tracer_ = nullptr;
  std::string name_;
  std::string category_;
  std::uint64_t begin_micros_ = 0;
  std::vector<Arg> args_;
};

/// The event/metric hub.  Tracing and metrics toggle independently; both
/// default to off.  `CCSQL_TRACE=<path>` (with optional `CCSQL_TRACE_FORMAT`)
/// and `CCSQL_METRICS=1` in the environment configure the global instance at
/// first use.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  /// The process-wide tracer used by the CCSQL_* macros.
  static Tracer& global();

  [[nodiscard]] bool tracing() const noexcept {
    return tracing_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool metrics_enabled() const noexcept {
    return metrics_on_.load(std::memory_order_relaxed);
  }
  /// True when any instrumentation should run (the hot-path guard).
  [[nodiscard]] bool enabled() const noexcept {
    return tracing() || metrics_enabled();
  }

  /// Installs a sink and enables tracing (nullptr disables).
  void set_sink(std::unique_ptr<Sink> sink);
  void enable_metrics(bool on = true);

  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// Opens a span (inactive when tracing is off).
  [[nodiscard]] Span span(std::string_view name, std::string_view category);
  void instant(std::string_view name, std::string_view category,
               std::vector<Arg> args = {});
  /// Counter/histogram shorthands; no-ops unless enabled().
  void count(std::string_view counter, std::uint64_t delta = 1);
  void observe(std::string_view histogram, double value);

  /// Dumps every metric into the trace as kCounter events, finishes and
  /// releases the sink, and stops tracing.  Metrics stay readable.
  void finish();

  [[nodiscard]] std::uint64_t now_micros() const;

 private:
  friend class Span;
  void emit(Event event);
  void end_span(Span& span);

  std::atomic<bool> tracing_{false};
  std::atomic<bool> metrics_on_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;            // guards sink_ + depth_
  std::unique_ptr<Sink> sink_;
  int depth_ = 0;
  Metrics metrics_;
};

}  // namespace ccsql::obs

// ---- instrumentation macros -------------------------------------------------
//
// All call sites in src/ use these.  Instant args and counter/histogram
// values are evaluated only while the tracer is enabled.

/// Declares `var` as a scoped span over the rest of the enclosing block.
#define CCSQL_SPAN(var, name, category)             \
  ::ccsql::obs::Span var =                          \
      ::ccsql::obs::Tracer::global().span((name), (category))

/// Point event; extra ::ccsql::obs::arg(...) entries may follow the category.
#define CCSQL_INSTANT(name, category, ...)                              \
  do {                                                                  \
    ::ccsql::obs::Tracer& ccsql_obs_t = ::ccsql::obs::Tracer::global(); \
    if (ccsql_obs_t.tracing()) {                                        \
      ccsql_obs_t.instant((name), (category), {__VA_ARGS__});           \
    }                                                                   \
  } while (0)

/// Adds `delta` to a named counter when metrics or tracing are enabled.
#define CCSQL_COUNT(name, delta)                                        \
  do {                                                                  \
    ::ccsql::obs::Tracer& ccsql_obs_t = ::ccsql::obs::Tracer::global(); \
    if (ccsql_obs_t.enabled()) ccsql_obs_t.count((name), (delta));      \
  } while (0)

/// Records `value` into a named histogram when metrics/tracing are enabled.
#define CCSQL_OBSERVE(name, value)                                      \
  do {                                                                  \
    ::ccsql::obs::Tracer& ccsql_obs_t = ::ccsql::obs::Tracer::global(); \
    if (ccsql_obs_t.enabled()) ccsql_obs_t.observe((name), (value));    \
  } while (0)
