#include "plan/explain.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "obs/mem.hpp"

namespace ccsql::plan {
namespace {

/// Estimates render as integers when whole, else with one decimal.
std::string format_est(double est) {
  if (est == std::floor(est) && est < 1e15) {
    return std::to_string(static_cast<long long>(est));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", est);
  return buf;
}

void render_node(const PlanNode& node, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += node.label();
  out += " (est=" + format_est(node.est_rows) + ", actual=";
  out += node.actual_rows == kNotExecuted ? "-"
                                          : std::to_string(node.actual_rows);
  out += ")\n";
  for (const auto& c : node.children) render_node(*c, depth + 1, out);
}

std::string format_micros(std::uint64_t us) {
  char buf[32];
  if (us < 1000) {
    std::snprintf(buf, sizeof(buf), "%lluus",
                  static_cast<unsigned long long>(us));
  } else if (us < 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fms",
                  static_cast<double>(us) / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs",
                  static_cast<double>(us) / 1e6);
  }
  return buf;
}

void render_analyze_node(const PlanNode& node, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += node.label();
  out += " (est=" + format_est(node.est_rows) + ", actual=";
  out += node.actual_rows == kNotExecuted ? "-"
                                          : std::to_string(node.actual_rows);
  out += ")";
  const OpStats& s = node.stats;
  if (s.executed()) {
    std::uint64_t child_micros = 0;
    for (const auto& c : node.children) child_micros += c->stats.wall_micros;
    const std::uint64_t self =
        s.wall_micros >= child_micros ? s.wall_micros - child_micros : 0;
    out += " [time=" + format_micros(s.wall_micros) +
           " self=" + format_micros(self);
    if (s.rows_in > 0) out += " rows_in=" + std::to_string(s.rows_in);
    out += " rows_out=" + std::to_string(s.rows_out);
    if (s.batches > 0) out += " batches=" + std::to_string(s.batches);
    if (s.morsels > 0) out += " morsels=" + std::to_string(s.morsels);
    if (s.rows_in > 0 && node.kind == PlanNode::Kind::kSelect) {
      char sel[16];
      std::snprintf(sel, sizeof(sel), "%.1f%%",
                    100.0 * static_cast<double>(s.rows_out) /
                        static_cast<double>(s.rows_in));
      out += " sel=";
      out += sel;
    }
    if (s.bytes_touched > 0) {
      out += " bytes=" + obs::format_bytes(s.bytes_touched);
    }
    out += "]";
  } else if (node.actual_rows != kNotExecuted) {
    // Executed, but only through a parent's fused path; a routed Cross
    // reports the right-side index its Select probed.
    out += " [fused";
    if (s.build_rows > 0) {
      out += " build=" + std::to_string(s.build_rows) + " rows/" +
             std::to_string(s.keys_indexed) + " keys/" +
             obs::format_bytes(s.build_bytes);
    }
    out += "]";
  }
  out += "\n";
  for (const auto& c : node.children) {
    render_analyze_node(*c, depth + 1, out);
  }
}

}  // namespace

std::string render(const PlanNode& root) {
  std::string out;
  render_node(root, 0, out);
  return out;
}

std::string render_analyze(const PlanNode& root) {
  std::string out;
  render_analyze_node(root, 0, out);
  return out;
}

}  // namespace ccsql::plan
