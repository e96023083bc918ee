// trace_summary — digest of a JSONL trace written by ccsql --trace.
//
//   trace_summary TRACE.jsonl [--top N]
//
// Prints the spans ranked by exclusive (self) time — inclusive duration
// minus the spans that closed inside it, tracked per worker lane so nested
// executor spans don't double-count — plus inclusive totals, the instant
// counts, and the counter/histogram rows the tracer flushed at finish().
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_mini.hpp"

namespace {

using ccsql::obs::json::JValue;

struct SpanStats {
  std::uint64_t count = 0;
  double total_us = 0;  // inclusive (span duration)
  double self_us = 0;   // exclusive: duration minus enclosed child spans
  double max_us = 0;
};

/// An open span on a worker lane's stack, accumulating the durations of the
/// child spans that close inside it.
struct Frame {
  double child_us = 0;
};

int usage() {
  std::cerr << "usage: trace_summary TRACE.jsonl [--top N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top = 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      top = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace_summary: cannot open " << path << "\n";
    return 1;
  }

  std::map<std::string, SpanStats> spans;     // "cat/name" -> stats
  // One span stack per worker lane (the "worker" field; -1 = off-pool), so
  // exclusive time attributes correctly in parallel traces: E events pop
  // their lane's top frame and charge their duration to the new top.
  std::map<int, std::vector<Frame>> lanes;
  std::map<std::string, std::uint64_t> instants;
  std::vector<std::pair<std::string, std::string>> counters;  // name, text
  std::map<std::string, double> serve;  // serve.* metric values
  std::map<std::string, double> sim;    // sim.* metric values
  std::uint64_t events = 0;
  std::uint64_t bad_lines = 0;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JValue v;
    try {
      v = ccsql::obs::json::parse(line);
    } catch (const std::exception& e) {
      std::cerr << "trace_summary: line " << lineno << ": " << e.what()
                << "\n";
      ++bad_lines;
      continue;
    }
    ++events;
    const std::string ph = v.has("ph") ? v.at("ph").str : "";
    const std::string name = v.has("name") ? v.at("name").str : "?";
    const std::string cat = v.has("cat") ? v.at("cat").str : "?";
    const int worker =
        v.has("worker") ? static_cast<int>(v.at("worker").number) : -1;
    if (ph == "B") {
      lanes[worker].push_back(Frame{});
    } else if (ph == "E") {
      SpanStats& s = spans[cat + "/" + name];
      ++s.count;
      const double dur = v.has("dur") ? v.at("dur").number : 0;
      s.total_us += dur;
      s.max_us = std::max(s.max_us, dur);
      double self = dur;
      auto& stack = lanes[worker];
      if (!stack.empty()) {
        self = std::max(0.0, dur - stack.back().child_us);
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += dur;
      s.self_us += self;
    } else if (ph == "i") {
      ++instants[cat + "/" + name];
    } else if (ph == "C" && v.has("args")) {
      std::string text;
      for (const auto& [key, val] : v.at("args").obj) {
        if (!text.empty()) text += "  ";
        text += key + "=";
        if (val.kind == JValue::Kind::kNumber) {
          std::ostringstream os;
          os << std::setprecision(6) << val.number;
          text += os.str();
        } else {
          text += val.str;
        }
      }
      counters.emplace_back(name, text);
      const bool is_serve = name.rfind("serve.", 0) == 0;
      const bool is_sim = name.rfind("sim.", 0) == 0;
      if (is_serve || is_sim) {
        const auto& args = v.at("args").obj;
        if (auto it = args.find("value");
            it != args.end() && it->second.kind == JValue::Kind::kNumber) {
          (is_serve ? serve : sim)[name] = it->second.number;
        }
      }
    }
  }

  std::cout << path << ": " << events << " events";
  if (bad_lines > 0) std::cout << " (" << bad_lines << " unparsable)";
  std::cout << "\n";

  if (!spans.empty()) {
    std::vector<std::pair<std::string, SpanStats>> ranked(spans.begin(),
                                                          spans.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second.self_us != b.second.self_us
                 ? a.second.self_us > b.second.self_us
                 : a.second.total_us > b.second.total_us;
    });
    if (ranked.size() > top) ranked.resize(top);
    std::cout << "\ntop spans (by self time):\n";
    for (const auto& [key, s] : ranked) {
      std::cout << "  " << std::left << std::setw(32) << key << std::right
                << std::setw(8) << s.count << " x  self "
                << static_cast<long long>(s.self_us) << " us  total "
                << static_cast<long long>(s.total_us) << " us  max "
                << static_cast<long long>(s.max_us) << " us\n";
    }
  }

  if (!instants.empty()) {
    std::cout << "\ninstants:\n";
    for (const auto& [key, n] : instants) {
      std::cout << "  " << std::left << std::setw(32) << key << std::right
                << std::setw(8) << n << "\n";
    }
  }

  if (!counters.empty()) {
    std::cout << "\ncounters:\n";
    for (const auto& [name, text] : counters) {
      std::cout << "  " << std::left << std::setw(32) << name << " " << text
                << "\n";
    }
  }

  // Serving-layer digest: the plan-cache and snapshot counters condensed to
  // two lines (same shape as the ccsql --stats one-pager).
  if (!serve.empty()) {
    auto sv = [&serve](const char* name) {
      auto it = serve.find(name);
      return it == serve.end() ? 0.0 : it->second;
    };
    const double hits = sv("serve.plan_cache.hits");
    const double misses = sv("serve.plan_cache.misses");
    std::cout << "\nserve:\n  queries=" << std::uint64_t(sv("serve.queries"))
              << " (uncached " << std::uint64_t(sv("serve.uncached_queries"))
              << ")  plan_cache hits=" << std::uint64_t(hits)
              << " misses=" << std::uint64_t(misses);
    if (hits + misses > 0) {
      std::cout << " (hit rate " << std::fixed << std::setprecision(1)
                << hits / (hits + misses) * 100.0 << "%)"
                << std::defaultfloat;
    }
    std::cout << " evictions=" << std::uint64_t(sv("serve.plan_cache.evictions"))
              << " invalidations="
              << std::uint64_t(sv("serve.plan_cache.invalidations"))
              << " rebinds=" << std::uint64_t(sv("serve.plan_cache.rebinds"))
              << " entries=" << std::uint64_t(sv("serve.plan_cache.entries"))
              << "\n  snapshots active="
              << std::uint64_t(sv("serve.snapshot.active"))
              << "  writer swaps=" << std::uint64_t(sv("serve.writer_swaps"))
              << "\n";
  }

  // Simulator digest: run/event totals with the events/sec throughput the
  // scale-out work is measured in, plus the sweep health counters.
  if (!sim.empty()) {
    auto mv = [&sim](const char* name) {
      auto it = sim.find(name);
      return it == sim.end() ? 0.0 : it->second;
    };
    const double run_us = mv("sim.run_us");
    std::cout << "\nsim:\n  runs=" << std::uint64_t(mv("sim.runs"))
              << "  events=" << std::uint64_t(mv("sim.events"));
    if (run_us > 0) {
      std::cout << " (" << std::uint64_t(mv("sim.events") / run_us * 1e6)
                << " events/sec)";
    }
    std::cout << "  cycles=" << std::uint64_t(mv("sim.cycles"))
              << "  deadlocks=" << std::uint64_t(mv("sim.deadlocks"))
              << "  stalled=" << std::uint64_t(mv("sim.stalled_runs"))
              << "  table_misses=" << std::uint64_t(mv("sim.table_misses"))
              << "\n";
    if (mv("sim.sweep_runs") > 0) {
      std::cout << "  sweep runs=" << std::uint64_t(mv("sim.sweep_runs"))
                << " deadlocked=" << std::uint64_t(mv("sim.sweep_deadlocks"))
                << " stalled=" << std::uint64_t(mv("sim.sweep_stalled"))
                << "\n";
    }
  }
  return bad_lines > 0 ? 1 : 0;
}
