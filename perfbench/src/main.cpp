// ccsql end-to-end benchmark program.
//
//   perfbench --workload flow|reach|sim|serve --seed N --seconds S
//             --trace 0|1 [--tiny] [--trace-out FILE]
//             [--git-sha SHA] [--source-digest HEX]
//   perfbench --self-test
//
// Prints a `# fingerprint {...}` line, then the result as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones.  Exits 0
// when every correctness gate held, 1 when one failed, 2 on bad usage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "core/pool.hpp"
#include "kit.hpp"
#include "obs/obs.hpp"
#include "protocol/asura/asura.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload flow|reach|sim|serve --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-out FILE] "
               "[--git-sha SHA] [--source-digest HEX] | --self-test\n");
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Checks the histogram and quantile arithmetic the metrics rest on.
int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ++failures;
    }
  };
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v * 1000);  // 1..100 us
  expect(h.count() == 100, "count");
  expect(h.quantile_ns(0.5) == 50500.0, "interpolated median");
  expect(h.quantile_ns(0.0) == 1000.0 && h.quantile_ns(1.0) == 100000.0,
         "extremes across the dense and large ranges");
  Histogram a, b;
  a.record(3);
  b.record(1);
  b.record(200000);
  a.merge(b);
  expect(a.count() == 3 && a.quantile_ns(0.5) == 3.0, "merge");
  expect(Histogram().quantile_ns(0.5) == 0.0, "empty");
  expect(quantile({4, 1, 3, 2}, 0.5) == 2.5, "vector median");
  expect(format_number(0.0021430000000000001) == "0.002143",
         "shortest round-trip formatting");
  SpanLog log;
  SpanLog::Lane& lane = log.lane();
  {
    Scope outer(&lane, "outer");
    Scope inner(&lane, "inner");
  }
  expect(log.durations("outer").count() == 1 &&
             log.durations("inner").count() == 1,
         "span durations");
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string trace_out, git_sha = "unknown", source_digest = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") return self_test();
    if (arg == "--tiny") {
      opts.tiny = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opts.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(argv[++i]);
      have_seconds = opts.seconds > 0;
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      opts.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else if (arg == "--git-sha") {
      git_sha = argv[++i];
    } else if (arg == "--source-digest") {
      source_digest = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
  void (*run)(const Options&, Outcome&, SpanLog*) = nullptr;
  if (opts.workload == "flow") run = run_flow;
  if (opts.workload == "reach") run = run_reach;
  if (opts.workload == "sim") run = run_sim;
  if (opts.workload == "serve") run = run_serve;
  if (run == nullptr) return usage();

  // The program's own tracer stays off: the benchmark's spans live in its
  // own SpanLog, and untraced runs must not pay for any instrumentation.
  ccsql::obs::Tracer::global().set_sink(nullptr);
  ccsql::obs::Tracer::global().enable_metrics(false);

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  opts.serve_threads = std::min<std::size_t>(nproc, 4);
  ccsql::core::Pool::set_default_jobs(kJobs);

  std::printf(
      "# fingerprint {\"nproc\": %zu, \"build_type\": %s, \"compiler\": %s, "
      "\"git_sha\": %s, \"source_digest\": %s, \"jobs\": %zu, \"seed\": %llu, "
      "\"workload\": %s, \"seconds\": %s, \"trace\": %d, \"tiny\": %s}\n",
      nproc, json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(std::string("g++ ") + __VERSION__).c_str(),
      json_string(git_sha).c_str(), json_string(source_digest).c_str(),
      kJobs, static_cast<unsigned long long>(opts.seed),
      json_string(opts.workload).c_str(), format_number(opts.seconds).c_str(),
      opts.trace ? 1 : 0, opts.tiny ? "true" : "false");
  std::fflush(stdout);

  Outcome out;
  try {
    SpanLog log;
    run(opts, out, opts.trace ? &log : nullptr);
    if (opts.trace) {
      // The census needs a protocol of its own; it is not part of any
      // workload's set-up.
      const std::unique_ptr<ccsql::ProtocolSpec> spec =
          ccsql::asura::make_asura();
      (void)spec->database();
      layer_census(opts, *spec, log, out);
      if (!trace_out.empty() && !log.write_jsonl(trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload failed: %s\n",
                 opts.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", e.c_str());
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics.to_json().c_str());
  return correct ? 0 : 1;
}
