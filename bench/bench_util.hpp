#pragma once

// Shared helpers for the benchmark binaries: a process-wide ASURA spec (the
// protocol is immutable; generation is benchmarked separately against fresh
// specs), a prefix-restricted GenerationInput used by the incremental /
// monolithic sweeps, and the ccsql-bench/1 metrics document scraped by the
// regression harness (tools/bench_diff, the CI perf-smoke job).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pool.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "protocol/asura/asura.hpp"
#include "solver/generator.hpp"

namespace ccsql::bench {

/// Turns on the global metric registry for this benchmark process.  Call
/// before the workload; pair with print_metrics_summary() at exit.
inline void enable_metrics() { obs::Tracer::global().enable_metrics(); }

/// Prints everything the workload counted as one machine-readable line
/// (`# metrics {...}`), for harnesses that scrape benchmark stdout.
inline void print_metrics_summary() {
  std::printf("# metrics %s\n",
              obs::Tracer::global().metrics().to_json().c_str());
}

/// Unit of a metric, inferred from its name suffix — the convention every
/// CCSQL_COUNT site follows (`*_us`, `*_nanos`, `*_bytes`; plain counts
/// otherwise).  bench_diff treats time units as regression-relevant.
inline const char* metric_unit(const std::string& name) {
  auto ends_with = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends_with("_us") || ends_with("_micros")) return "us";
  if (ends_with("_ms") || ends_with("_millis")) return "ms";
  if (ends_with("_ns") || ends_with("_nanos")) return "ns";
  if (ends_with("_bytes")) return "bytes";
  if (ends_with("_pct")) return "percent";
  if (ends_with("_qps")) return "qps";
  return "count";
}

/// The ccsql-bench/1 metrics document: schema tag, bench name, git sha
/// (GITHUB_SHA / CCSQL_GIT_SHA, else "unknown"), the jobs default, and every
/// counter as {name, value, unit}.  This is the file format bench_diff
/// compares and bench/baselines/*.json stores.
inline std::string metrics_json_v1(const char* bench_name) {
  const char* sha = std::getenv("GITHUB_SHA");
  if (sha == nullptr || *sha == '\0') sha = std::getenv("CCSQL_GIT_SHA");
  if (sha == nullptr || *sha == '\0') sha = "unknown";
  std::ostringstream os;
  os << "{\"schema\":\"ccsql-bench/1\",\"bench\":\""
     << obs::json_escape(bench_name) << "\",\"git_sha\":\""
     << obs::json_escape(sha) << "\",\"jobs\":" << core::Pool::default_jobs()
     << ",\"metrics\":[";
  bool first = true;
  for (const auto& [name, value] :
       obs::Tracer::global().metrics().counters()) {
    os << (first ? "" : ",") << "{\"name\":\"" << obs::json_escape(name)
       << "\",\"value\":" << value << ",\"unit\":\"" << metric_unit(name)
       << "\"}";
    first = false;
  }
  os << "]}";
  return os.str();
}

/// End-of-run reporting for a benchmark binary: folds the pool and memory
/// gauges into the registry, prints the legacy `# metrics` line, the pool
/// utilization line, and the ccsql-bench/1 document (`# bench_metrics`).
/// When CCSQL_BENCH_OUT names a file the document is also written there —
/// that is what the CI perf-smoke job diffs against bench/baselines/.
inline void finish_metrics(const char* bench_name) {
  obs::Metrics& metrics = obs::Tracer::global().metrics();
  core::Pool::global().publish_stats(metrics);
  obs::MemTracker::global().publish(metrics);
  print_metrics_summary();
  std::printf("# %s\n", core::Pool::global().stats().summary().c_str());
  const std::string doc = metrics_json_v1(bench_name);
  std::printf("# bench_metrics %s\n", doc.c_str());
  if (const char* path = std::getenv("CCSQL_BENCH_OUT");
      path != nullptr && *path != '\0') {
    std::ofstream out(path);
    if (out) {
      out << doc << "\n";
    } else {
      std::fprintf(stderr, "bench: cannot write CCSQL_BENCH_OUT=%s\n", path);
    }
  }
}

inline const ProtocolSpec& asura_spec() {
  static const std::unique_ptr<ProtocolSpec> spec = asura::make_asura();
  return *spec;
}

/// The predicates ASURA's constraints call (isrequest / isresponse).
inline const FunctionRegistry* asura_functions() {
  return &asura_spec().database().functions();
}

/// The generation input of controller `name` restricted to its first
/// `columns` columns, keeping exactly the constraints whose referenced
/// columns all fall in that prefix.  This is how the monolithic-vs-
/// incremental sweep scales the problem (the full 30-column D is far beyond
/// monolithic reach — the paper's "6 hours" grows without bound here).
inline GenerationInput prefix_input(const ProtocolSpec& spec,
                                    const char* name, std::size_t columns) {
  const ControllerSpec& c = spec.controller(name);
  const GenerationInput& full = c.generation_input();
  GenerationInput out;
  std::vector<Column> cols;
  for (std::size_t i = 0; i < columns && i < full.schema->size(); ++i) {
    cols.push_back(full.schema->column(i));
    out.domains.push_back(full.domains[i]);
  }
  out.schema = make_schema(std::move(cols));
  for (const auto& constraint : full.constraints) {
    bool applicable = out.schema->has(constraint.column);
    for (const auto& ref :
         constraint.expr.referenced_columns(*full.schema)) {
      if (!out.schema->has(ref)) applicable = false;
    }
    if (applicable) out.constraints.push_back(constraint);
  }
  return out;
}

/// The prefix input with its column order reversed: constraints now bind as
/// late as possible, so incremental generation loses most of its pruning —
/// the ablation behind the paper's "inputs first, then one output column at
/// a time" ordering advice.
inline GenerationInput reversed_prefix_input(const ProtocolSpec& spec,
                                             const char* name,
                                             std::size_t columns) {
  GenerationInput in = prefix_input(spec, name, columns);
  std::vector<Column> cols;
  for (std::size_t i = in.schema->size(); i-- > 0;) {
    cols.push_back(in.schema->column(i));
  }
  std::reverse(in.domains.begin(), in.domains.end());
  in.schema = make_schema(std::move(cols));
  return in;
}

}  // namespace ccsql::bench
