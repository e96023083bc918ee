#include "plan/vectorized.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace ccsql::plan::vec {
namespace {

/// Scratch selection buffers are acquired/released LIFO, so one
/// thread-local pool serves nested evaluations (a registry predicate that
/// itself filters) and is reused across every batch this thread runs.
bc::Scratch& scratch() {
  thread_local bc::Scratch s;
  return s;
}

/// The batch loop behind filter_range and filter_rows, over `n` candidates:
/// `eval(b, e, hits)` fills `hits` with the passing row ids of candidates
/// [b, e), and `position(row, b, e)` maps a hit back to its candidate
/// position.  Appends at most `limit` hits to `sel`; returns the number of
/// candidates visited.
template <class Eval, class Position>
std::size_t filter_batches(std::size_t n, std::size_t limit, bc::Sel& sel,
                           Eval eval, Position position) {
  if (limit == 0) return 0;
  bc::Sel& hits = scratch().acquire();
  std::size_t added = 0;
  std::size_t visited = n;
  for (std::size_t b = 0; b < n; b += kBatchRows) {
    const std::size_t e = std::min(b + kBatchRows, n);
    eval(b, e, hits);
    CCSQL_COUNT("exec.batches", 1);
    CCSQL_OBSERVE("exec.sel_density", static_cast<double>(hits.size()) /
                                          static_cast<double>(e - b));
    if (added + hits.size() < limit) {
      sel.insert(sel.end(), hits.begin(), hits.end());
      added += hits.size();
      continue;
    }
    // This batch fills the budget: stop at exactly the row that fills it,
    // as a row-by-row loop would.
    const std::size_t take = limit - added;
    sel.insert(sel.end(), hits.begin(), hits.begin() + take);
    visited = position(hits[take - 1], b, e) + 1;
    break;
  }
  scratch().release();
  return visited;
}

}  // namespace

RowFilter::RowFilter(const Expr& expr, const Schema& row_schema,
                     const Schema& full_schema,
                     const FunctionRegistry* functions)
    : prog_(compile_bytecode(expr, row_schema, full_schema, functions)) {}

std::size_t RowFilter::filter_range(Columns cols, std::size_t begin,
                                    std::size_t end, std::size_t limit,
                                    bc::Sel& sel) const {
  if (begin >= end) return 0;
  return filter_batches(
      end - begin, limit, sel,
      [&](std::size_t b, std::size_t e, bc::Sel& hits) {
        prog_.eval_range(cols, static_cast<std::uint32_t>(begin + b),
                         static_cast<std::uint32_t>(begin + e), hits,
                         scratch());
      },
      [&](std::uint32_t row, std::size_t, std::size_t) {
        return row - begin;
      });
}

std::size_t RowFilter::filter_rows(Columns cols,
                                   std::span<const std::uint32_t> rows,
                                   std::size_t limit, bc::Sel& sel) const {
  return filter_batches(
      rows.size(), limit, sel,
      [&](std::size_t b, std::size_t e, bc::Sel& hits) {
        prog_.eval_batch(cols, rows.subspan(b, e - b), hits, scratch());
      },
      [&](std::uint32_t row, std::size_t b, std::size_t e) {
        return static_cast<std::size_t>(
            std::lower_bound(rows.begin() + b, rows.begin() + e, row) -
            rows.begin());
      });
}

void RowFilter::refine(Columns cols, std::span<const std::uint32_t> rows,
                       bc::Sel& pass) const {
  bc::Sel& hits = scratch().acquire();
  for (std::size_t b = 0; b < rows.size(); b += kBatchRows) {
    const std::size_t n = std::min(kBatchRows, rows.size() - b);
    prog_.eval_batch(cols, rows.subspan(b, n), hits, scratch());
    pass.insert(pass.end(), hits.begin(), hits.end());
  }
  scratch().release();
}

}  // namespace ccsql::plan::vec
