#include "plan/executor.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "core/pool.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "plan/route.hpp"
#include "plan/vectorized.hpp"

namespace ccsql::plan {
namespace {

/// Morsel sizing for the parallel operators.  Below the threshold the
/// fork/join overhead exceeds the work; the grain is the per-claim row
/// chunk (fixed, so morsel boundaries — and therefore output order — are
/// independent of the worker count).  The grain doubles as the vectorized
/// batch size (vec::kBatchRows), so a parallel morsel is exactly one batch.
constexpr std::size_t kParallelRowThreshold = 2048;
constexpr std::size_t kMorselGrain = vec::kBatchRows;

/// First `limit` rows of `t` (t itself when it is already small enough).
/// Columnar storage makes this O(columns): head() shares column vectors.
Table take(Table t, std::size_t limit) {
  if (limit == kNoLimit || t.row_count() <= limit) return t;
  return t.head(limit);
}

/// Bytes a predicate scan reads: only the columns the program references,
/// 4 bytes (one interned id) per cell.
std::uint64_t scan_bytes(std::size_t rows_visited, std::size_t columns) {
  return static_cast<std::uint64_t>(rows_visited) * columns * sizeof(Value);
}

[[nodiscard]] bool picks_rows(const PlanNode& node) {
  return node.kind == PlanNode::Kind::kScan ||
         node.kind == PlanNode::Kind::kIndexLookup ||
         node.kind == PlanNode::Kind::kSelect;
}

/// Which rows an operator yields, before any gather: ids into its source —
/// the base table of a Scan or IndexLookup, else a table the executor
/// materialised — and, for a Select over a Cross, the paired ids into the
/// Cross's right side.  A Scan's rows, and those of an operator that only
/// materialises, are a prefix of the source, held as a count.
struct Rows {
  const Table* base = nullptr;
  std::optional<Table> held;   // the source, when not a base table
  std::optional<Table> right;  // a Select over a Cross: its right side
  bc::Sel ids;
  bc::Sel right_ids;
  std::optional<std::size_t> prefix;

  [[nodiscard]] const Table& source() const { return held ? *held : *base; }
  [[nodiscard]] std::size_t row_count() const {
    return prefix ? *prefix : ids.size();
  }
};

struct Executor {
  const ExecContext& ctx;

  /// True when work over `rows` input rows should fan out across the pool.
  /// Row-budgeted paths (emptiness checks) stay serial: their early exit
  /// depends on production order, which parallel lanes cannot honour.
  [[nodiscard]] bool go_parallel(std::size_t limit, std::size_t rows) const {
    return ctx.jobs > 1 && limit == kNoLimit && rows >= kParallelRowThreshold;
  }

  /// Runs one operator's `body`, recording the rows it yields in
  /// actual_rows and, under EXPLAIN ANALYZE, its time and output rows.
  template <class Body>
  auto run(PlanNode& node, Body body) {  // NOLINT(misc-no-recursion)
    const auto t0 = ctx.analyze ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
    auto out = body();  // a Table or Rows
    const std::size_t n = out.row_count();
    if (ctx.analyze) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      ++node.stats.invocations;
      node.stats.wall_micros += static_cast<std::uint64_t>(us > 0 ? us : 0);
      node.stats.rows_out += n;
    }
    if (ctx.record) node.actual_rows = n;
    return out;
  }

  Table exec(PlanNode& node, std::size_t limit) {  // NOLINT(misc-no-recursion)
    return run(node, [&] { return exec_impl(node, limit); });
  }

  /// The rows `node` yields, at most `limit` of them, not gathered: picked
  /// by id for a Scan, IndexLookup or Select, else all its materialised
  /// rows.
  Rows rows(PlanNode& node, std::size_t limit) {  // NOLINT(misc-no-recursion)
    if (picks_rows(node)) return run(node, [&] { return pick(node, limit); });
    Rows out;
    out.held = exec(node, limit);
    out.prefix = out.held->row_count();
    return out;
  }

  // NOLINTNEXTLINE(misc-no-recursion)
  Table exec_impl(PlanNode& node, std::size_t limit) {
    switch (node.kind) {
      case PlanNode::Kind::kScan:
      case PlanNode::Kind::kIndexLookup:
        return gather(pick(node, limit), node.schema);
      case PlanNode::Kind::kSelect: {
        const Rows picked = pick(node, limit);
        Table out = gather(picked, node.schema);
        // The gather reads and writes every cell of the passing rows.
        if (ctx.record) {
          node.stats.bytes_touched +=
              2 * scan_bytes(picked.row_count(), out.column_count());
        }
        return out;
      }
      case PlanNode::Kind::kProject: {
        const std::size_t child_limit =
            node.distinct ? (limit == 1 ? 1 : kNoLimit) : limit;
        Table in = exec(node.child(), child_limit);
        return take(in.project(node.columns, node.distinct), limit);
      }
      case PlanNode::Kind::kDistinct: {
        Table in = exec(node.child(), limit == 1 ? 1 : kNoLimit);
        return take(in.distinct(), limit);
      }
      case PlanNode::Kind::kCross: {
        // A budget of 1 flows into both sides: the product is empty iff
        // either side is.
        const std::size_t child_limit = limit == 1 ? 1 : kNoLimit;
        Table l = exec(node.child(0), child_limit);
        Table r = exec(node.child(1), child_limit);
        const std::size_t n = l.row_count() * r.row_count();
        return take(Table::cross(l, r, go_parallel(limit, n) ? ctx.jobs : 1),
                    limit);
      }
      case PlanNode::Kind::kUnion: {
        if (ctx.jobs > 1 && limit == kNoLimit && node.children.size() > 1) {
          // Branches execute concurrently (each touches only its own
          // subtree); the distinct-merge runs in branch order afterwards,
          // so the result matches the serial fold exactly.
          std::vector<Table> branches(node.children.size());
          core::Pool::global().parallel_tasks(
              node.children.size(), ctx.jobs,
              [&](std::size_t i) { branches[i] = exec(node.child(i), kNoLimit); });
          Table result = std::move(branches[0]);
          for (std::size_t i = 1; i < branches.size(); ++i) {
            result = Table::union_distinct(
                result, branches[i].with_schema(result.schema_ptr()));
          }
          return result;
        }
        const std::size_t child_limit = limit == 1 ? 1 : kNoLimit;
        Table result = exec(node.child(0), child_limit);
        for (std::size_t i = 1; i < node.children.size(); ++i) {
          if (limit == 1 && result.row_count() > 0) break;
          Table b = exec(node.child(i), child_limit);
          result =
              Table::union_distinct(result, b.with_schema(result.schema_ptr()));
        }
        return take(std::move(result), limit);
      }
      case PlanNode::Kind::kSort: {
        Table in = exec(node.child(), kNoLimit);
        return take(in.sorted_by(node.order_by), limit);
      }
      case PlanNode::Kind::kCount: {
        // The child's rows are counted, never gathered.
        Table counted(node.schema);
        counted.append({Symbol::intern(
            std::to_string(rows(node.child(), kNoLimit).row_count()))});
        return counted;
      }
    }
    return Table(node.schema);
  }

  /// `rows` as a table over `schema`.  A prefix shares the source's column
  /// vectors; a Select over a Cross gathers from each side only the
  /// columns `schema` keeps, which column pruning may have narrowed.
  static Table gather(const Rows& rows, const SchemaPtr& schema) {
    const Table& src = rows.source();
    if (rows.right) {
      std::vector<std::string> lnames, rnames;
      for (const Column& c : schema->columns()) {
        (src.schema().has(c.name) ? lnames : rnames).push_back(c.name);
      }
      return Table::hcat(
          schema, src.project(lnames, /*distinct=*/false).gather(rows.ids),
          rows.right->project(rnames, /*distinct=*/false)
              .gather(rows.right_ids));
    }
    if (!rows.prefix) return src.gather(rows.ids).with_schema(schema);
    if (*rows.prefix < src.row_count()) {
      return src.head(*rows.prefix).with_schema(schema);
    }
    return src.with_schema(schema);
  }

  /// The base rows an IndexLookup selects (ascending), probed through its
  /// prepared hash index; empty when the key is absent.
  static std::span<const std::uint32_t> lookup_rows(const PlanNode& lookup) {
    return lookup.index->find(lookup.key_values);
  }

  /// Which rows `node` — a Scan, IndexLookup or Select — yields, at most
  /// `limit` of them.
  Rows pick(PlanNode& node, std::size_t limit) {  // NOLINT(misc-no-recursion)
    Rows out;
    switch (node.kind) {
      case PlanNode::Kind::kScan:
        out.base = node.bound;
        out.prefix = std::min(limit, out.base->row_count());
        CCSQL_COUNT("query.rows_scanned", *out.prefix);
        return out;
      case PlanNode::Kind::kIndexLookup: {
        out.base = node.bound;
        const std::span<const std::uint32_t> rows = lookup_rows(node);
        out.ids.assign(rows.begin(),
                       rows.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(limit, rows.size())));
        CCSQL_COUNT("query.rows_scanned", out.ids.size());
        return out;
      }
      default:
        return select(node, limit);
    }
  }

  /// Row ids of `src` passing `pred`, in table order, stopping at `limit`
  /// hits.  Parallel when go_parallel(): each morsel — one batch, since
  /// kMorselGrain == kBatchRows — collects its hits, and morsels
  /// concatenate in order: identical output to the serial scan.
  bc::Sel matches(const Table& src, const vec::RowFilter& pred,
                  std::size_t limit, std::size_t& visited, OpStats& stats) {
    const std::size_t n = src.row_count();
    const std::vector<const Value*> cols = src.column_ptrs();
    bc::Sel sel;
    if (go_parallel(limit, n)) {
      const std::size_t morsels = (n + kMorselGrain - 1) / kMorselGrain;
      stats.morsels += morsels;
      stats.batches += morsels;
      std::vector<bc::Sel> hits(morsels);
      core::Pool::global().parallel_for(
          n, kMorselGrain, ctx.jobs,
          [&](std::size_t begin, std::size_t end, std::size_t morsel) {
            pred.filter_range(cols, begin, end, kNoLimit, hits[morsel]);
          });
      std::size_t total = 0;
      for (const auto& h : hits) total += h.size();
      sel.reserve(total);
      for (const auto& h : hits) sel.insert(sel.end(), h.begin(), h.end());
      visited = n;
    } else {
      visited = pred.filter_range(cols, 0, n, limit, sel);
      stats.batches += (visited + vec::kBatchRows - 1) / vec::kBatchRows;
    }
    // The predicate pass reads only the referenced columns.
    stats.bytes_touched += scan_bytes(visited, pred.columns_read());
    return sel;
  }

  /// Select over Cross through its route (route.hpp) — every join: the
  /// route picks each left row's candidate right rows, in product order,
  /// on pool morsels of left rows when the left side is large; the
  /// residual filters only those pairs, reading a narrow pair table of
  /// just its columns through the morsel path.  The surviving pairs are
  /// the rows; the full product is never materialised.  The degenerate
  /// route makes every pair a candidate: the full product, still never
  /// materialised wider than the residual's columns.
  Rows select_cross(PlanNode& node, std::size_t limit, OpStats& stats) {
    const CrossRoute& route = *node.route;
    PlanNode& cross = node.child();
    Rows out;
    const Table& l = out.held.emplace(exec(cross.child(0), kNoLimit));
    const Table& r = out.right.emplace(exec(cross.child(1), kNoLimit));
    // A scan's base table holds the index cache the keyed nodes probe, so
    // repeated queries reuse it; a materialised right side is held for the
    // index built over it: join-local memory.
    const bool scan = cross.child(1).is_scan();
    const Table& rbase = scan ? *cross.child(1).bound : r;
    obs::MemReservation build_mem;
    if (route.keyed() && !scan) {
      build_mem = obs::MemReservation(obs::MemTracker::Category::kHashBuilds,
                                      r.memory_bytes());
    }
    const CrossRoute::Right right = route.right_side(rbase);
    const vec::RowFilter* residual = route.residual();
    const std::size_t ln = l.row_count();
    bc::Sel& lsel = out.ids;
    bc::Sel& rsel = out.right_ids;
    if (go_parallel(limit, ln)) {
      // Each morsel of left rows routes on its own; morsels concatenate
      // in order, so the pairs are those of one serial pass.  A morsel
      // fills vectors of its own, not the shared array's neighbouring
      // slots, so lanes do not contend for their cache lines.
      const std::size_t morsels = (ln + kMorselGrain - 1) / kMorselGrain;
      stats.morsels += morsels;
      std::vector<std::pair<bc::Sel, bc::Sel>> parts(morsels);
      core::Pool::global().parallel_for(
          ln, kMorselGrain, ctx.jobs,
          [&](std::size_t begin, std::size_t end, std::size_t morsel) {
            bc::Sel ls, rs;
            route.candidates(l, right, begin, end, kNoLimit, ls, rs);
            parts[morsel] = {std::move(ls), std::move(rs)};
          });
      std::size_t total = 0;
      for (const auto& p : parts) total += p.first.size();
      lsel.reserve(total);
      rsel.reserve(total);
      for (auto& [ls, rs] : parts) {
        lsel.insert(lsel.end(), ls.begin(), ls.end());
        rsel.insert(rsel.end(), rs.begin(), rs.end());
      }
    } else {
      route.candidates(l, right, 0, ln, residual != nullptr ? kNoLimit : limit,
                       lsel, rsel);
    }
    const std::size_t pairs = lsel.size();
    std::size_t visited = pairs;
    if (residual != nullptr) {
      const Table narrow = Table::hcat(
          route.pair_schema(),
          l.project(route.left_columns(), /*distinct=*/false).gather(lsel),
          r.project(route.right_columns(), /*distinct=*/false).gather(rsel));
      const bc::Sel sel = matches(narrow, *residual, limit, visited, stats);
      for (std::size_t k = 0; k < sel.size(); ++k) {
        lsel[k] = lsel[sel[k]];
        rsel[k] = rsel[sel[k]];
      }
      lsel.resize(sel.size());
      rsel.resize(sel.size());
    }
    if (ctx.record) {
      cross.actual_rows = pairs;
      cross.routed = route.keyed();
      node.stats.rows_in += visited;
    }
    if (ctx.analyze && !right.index.empty()) {
      cross.stats.build_rows += right.rows;
      cross.stats.build_bytes += build_mem.bytes();
      for (const HashIndex* index : right.index) {
        cross.stats.keys_indexed += index->key_count();
        cross.stats.build_bytes += index->memory_bytes();
      }
    }
    return out;
  }

  /// The rows of Select `node`: its predicate over its child's rows —
  /// routed over a Cross, filtered in place over a Scan's base rows or an
  /// IndexLookup's bucket, over the materialised rows of anything else.
  Rows select(PlanNode& node, std::size_t limit) {  // NOLINT(misc-no-recursion)
    OpStats scratch;  // discarded stats sink for record-off executions
    OpStats& stats = ctx.record ? node.stats : scratch;
    PlanNode& child = node.child();
    if (child.kind == PlanNode::Kind::kCross) {
      return select_cross(node, limit, stats);
    }
    const vec::RowFilter& pred = *node.compiled;
    Rows out;
    std::size_t visited = 0;
    if (child.kind == PlanNode::Kind::kIndexLookup) {
      // Filter the index bucket's row ids in place, batch by batch: with a
      // row budget of 1 this stops at the first batch holding a passing
      // row.  Sound because an IndexLookup's schema is positionally
      // identical to its base table's.
      out.base = child.bound;
      visited = pred.filter_rows(out.base->column_ptrs(), lookup_rows(child),
                                 limit, out.ids);
      stats.batches += (visited + vec::kBatchRows - 1) / vec::kBatchRows;
      stats.bytes_touched += scan_bytes(visited, pred.columns_read());
    } else if (child.is_scan()) {
      // Filter base rows in place, no intermediate copy.
      out.base = child.bound;
      out.ids = matches(*out.base, pred, limit, visited, stats);
    } else {
      out.ids = matches(out.held.emplace(exec(child, kNoLimit)), pred, limit,
                        visited, stats);
    }
    if (ctx.record) {
      if (out.base != nullptr) child.actual_rows = visited;
      node.stats.rows_in += visited;
    }
    if (out.base != nullptr) CCSQL_COUNT("query.rows_scanned", visited);
    return out;
  }
};

}  // namespace

Table execute(PlanNode& root, const ExecContext& ctx, std::size_t limit) {
  CCSQL_SPAN(span, "plan.execute", "plan");
  Executor ex{ctx};
  Table out = ex.exec(root, limit);
  span.arg("rows", out.row_count());
  return out;
}

Table execute(const PlanNode& root, const ExecContext& ctx,
              std::size_t limit) {
  // With record (and therefore analyze) off, the executor never writes a
  // PlanNode field, so the const_cast is sound and one cached plan can be
  // executed concurrently from any number of threads.
  ExecContext read_only = ctx;
  read_only.record = false;
  read_only.analyze = false;
  return execute(const_cast<PlanNode&>(root), read_only, limit);
}

bool is_empty(const PlanNode& root, const ExecContext& ctx) {
  // Emptiness is invariant under projection, duplicate removal and
  // ordering: the rows below decide it.
  const PlanNode* node = &root;
  while (node->kind == PlanNode::Kind::kProject ||
         node->kind == PlanNode::Kind::kDistinct ||
         node->kind == PlanNode::Kind::kSort) {
    node = &node->child();
  }
  // Read-only, as the const execute(): the const_cast is sound.
  ExecContext read_only = ctx;
  read_only.record = false;
  read_only.analyze = false;
  Executor ex{read_only};
  return ex.rows(const_cast<PlanNode&>(*node), 1).row_count() == 0;
}

}  // namespace ccsql::plan
