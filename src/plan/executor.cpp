#include "plan/executor.hpp"

#include <algorithm>
#include <chrono>

#include "core/pool.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "plan/vectorized.hpp"
#include "relational/error.hpp"
#include "relational/expr.hpp"

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

struct Executor {
  const ExecContext& ctx;

  [[nodiscard]] const Table& base_of(const PlanNode& scan) const {
    if (scan.bound != nullptr) return *scan.bound;
    if (ctx.catalog == nullptr) {
      throw BindError("plan: scan of '" + scan.table_name +
                      "' without a catalog");
    }
    return ctx.catalog->get(scan.table_name);
  }

  /// Identifier-hood schema for compiling `node`'s predicate.
  [[nodiscard]] const Schema& full_of(const PlanNode& node) const {
    return ctx.ident_schema != nullptr ? *ctx.ident_schema : *node.schema;
  }

  /// True when work over `rows` input rows should fan out across the pool.
  /// Row-budgeted paths (exists mode / LIMIT) stay serial: their early exit
  /// depends on production order, which parallel lanes cannot honour.
  [[nodiscard]] bool go_parallel(std::size_t limit, std::size_t rows) const {
    return ctx.jobs > 1 && limit == kNoLimit && rows >= kParallelRowThreshold;
  }

  Table exec(PlanNode& node, std::size_t limit) {  // NOLINT(misc-no-recursion)
    if (!ctx.analyze) return exec_impl(node, limit);
    const auto t0 = std::chrono::steady_clock::now();
    Table out = exec_impl(node, limit);
    const auto t1 = std::chrono::steady_clock::now();
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count();
    ++node.stats.invocations;
    node.stats.wall_micros += static_cast<std::uint64_t>(us > 0 ? us : 0);
    node.stats.rows_out += out.row_count();
    return out;
  }

  // NOLINTNEXTLINE(misc-no-recursion)
  Table exec_impl(PlanNode& node, std::size_t limit) {
    Table out;
    switch (node.kind) {
      case PlanNode::Kind::kScan:
        out = scan(node, limit);
        break;
      case PlanNode::Kind::kIndexLookup:
        out = index_lookup(node, limit);
        break;
      case PlanNode::Kind::kSelect:
        out = select(node, limit);
        break;
      case PlanNode::Kind::kProject: {
        const std::size_t child_limit =
            node.distinct ? (limit == 1 ? 1 : kNoLimit) : limit;
        Table in = exec(node.child(), child_limit);
        out = take(in.project(node.columns, node.distinct), limit);
        break;
      }
      case PlanNode::Kind::kDistinct: {
        Table in = exec(node.child(), limit == 1 ? 1 : kNoLimit);
        out = take(in.distinct(), limit);
        break;
      }
      case PlanNode::Kind::kCross: {
        // A budget of 1 flows into both sides: the product is empty iff
        // either side is.
        const std::size_t child_limit = limit == 1 ? 1 : kNoLimit;
        Table l = exec(node.child(0), child_limit);
        Table r = exec(node.child(1), child_limit);
        const std::size_t n = l.row_count() * r.row_count();
        out = take(Table::cross(l, r, go_parallel(limit, n) ? ctx.jobs : 1),
                   limit);
        break;
      }
      case PlanNode::Kind::kHashJoin:
        out = hash_join(node, limit);
        break;
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
          out = std::move(result);
          break;
        }
        const std::size_t child_limit = limit == 1 ? 1 : kNoLimit;
        Table result = exec(node.child(0), child_limit);
        for (std::size_t i = 1; i < node.children.size(); ++i) {
          if (limit == 1 && result.row_count() > 0) break;
          Table b = exec(node.child(i), child_limit);
          result =
              Table::union_distinct(result, b.with_schema(result.schema_ptr()));
        }
        out = take(std::move(result), limit);
        break;
      }
      case PlanNode::Kind::kSort: {
        Table in = exec(node.child(), kNoLimit);
        out = take(in.sorted_by(node.order_by), limit);
        break;
      }
      case PlanNode::Kind::kLimit: {
        Table in = exec(node.child(), std::min(limit, node.limit));
        out = take(std::move(in), node.limit);
        break;
      }
      case PlanNode::Kind::kCount: {
        if (std::size_t total = 0; fused_count(node, total)) {
          Table counted(node.schema);
          counted.append({Symbol::intern(std::to_string(total))});
          out = std::move(counted);
          break;
        }
        Table in = exec(node.child(), kNoLimit);
        Table counted(node.schema);
        counted.append({Symbol::intern(std::to_string(in.row_count()))});
        out = std::move(counted);
        break;
      }
    }
    if (ctx.record) node.actual_rows = out.row_count();
    return out;
  }

  Table scan(PlanNode& node, std::size_t limit) {
    const Table& base = base_of(node);
    if (limit >= base.row_count()) {
      CCSQL_COUNT("query.rows_scanned", base.row_count());
      return base.with_schema(node.schema);
    }
    // O(columns): the head shares the base table's column vectors.
    CCSQL_COUNT("query.rows_scanned", limit);
    return base.head(limit).with_schema(node.schema);
  }

  /// The base rows an IndexLookup selects (ascending), probed through the
  /// base table's cached hash index; nullptr when the key is absent.
  const std::vector<std::size_t>* lookup_rows(const PlanNode& lookup) const {
    const Table& base = base_of(lookup);
    std::vector<std::size_t> cols;
    cols.reserve(lookup.columns.size());
    for (const auto& name : lookup.columns) {
      // lookup.schema is positionally identical to the base schema (only
      // alias-renamed), so its indices address base rows directly.
      cols.push_back(lookup.schema->index_of(name));
    }
    CCSQL_COUNT(base.has_cached_index(cols) ? "plan.index_hits"
                                            : "plan.index_builds",
                1);
    return base.index_on(cols).find(Table::index_key(lookup.key_values));
  }

  Table index_lookup(PlanNode& node, std::size_t limit) {
    const Table& base = base_of(node);
    const std::vector<std::size_t>* rows = lookup_rows(node);
    bc::Sel sel;
    if (rows != nullptr) {
      for (std::size_t i : *rows) {
        if (sel.size() >= limit) break;
        sel.push_back(static_cast<std::uint32_t>(i));
      }
    }
    CCSQL_COUNT("query.rows_scanned", sel.size());
    return base.gather(sel).with_schema(node.schema);
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

  /// Rows of `src` passing `pred`, in table order, as a table over `schema`.
  Table filter(const Table& src, const SchemaPtr& schema,
               const vec::RowFilter& pred, std::size_t limit,
               std::size_t& visited, OpStats& stats) {
    const bc::Sel sel = matches(src, pred, limit, visited, stats);
    // The output gather reads and writes every cell of the passing rows.
    stats.bytes_touched += 2 * scan_bytes(sel.size(), src.column_count());
    return src.gather(sel).with_schema(schema);
  }

  /// Select over Cross, late-materialised.  Crosses only the columns the
  /// predicate reads (project() shares column storage, so only the narrow
  /// product is copied), filters that product through the morsel path,
  /// then gathers each surviving row from the two sides by index: product
  /// row i*|right| + j pairs left row i with right row j.
  Table select_cross(PlanNode& node, const vec::RowFilter& pred,
                     const Schema& narrow, std::size_t limit,
                     OpStats& stats) {
    PlanNode& cross = node.child();
    const Table l = exec(cross.child(0), kNoLimit);
    const Table r = exec(cross.child(1), kNoLimit);
    std::vector<std::string> lnames, rnames;
    for (const Column& c : narrow.columns()) {
      (l.schema().has(c.name) ? lnames : rnames).push_back(c.name);
    }
    const Table product = Table::cross(l.project(lnames, /*distinct=*/false),
                                       r.project(rnames, /*distinct=*/false));
    std::size_t visited = 0;
    const bc::Sel sel = matches(product, pred, limit, visited, stats);
    const std::uint32_t rn = static_cast<std::uint32_t>(r.row_count());
    bc::Sel lsel(sel.size()), rsel(sel.size());
    for (std::size_t i = 0; i < sel.size(); ++i) {
      lsel[i] = sel[i] / rn;
      rsel[i] = sel[i] % rn;
    }
    Table out = Table::hcat(node.schema, l.gather(lsel), r.gather(rsel));
    // Each gather reads and writes every cell of the passing rows.
    stats.bytes_touched += 2 * scan_bytes(sel.size(), l.column_count()) +
                           2 * scan_bytes(sel.size(), r.column_count());
    if (ctx.record) {
      cross.actual_rows = product.row_count();
      node.stats.rows_in += visited;
    }
    return out;
  }

  Table select(PlanNode& node, std::size_t limit) {
    // Over a Cross the predicate reads the narrow product of only the
    // columns it references.
    const SchemaPtr narrow = node.child().kind == PlanNode::Kind::kCross
                                 ? predicate_schema(node, full_of(node))
                                 : nullptr;
    // A cached plan carries its predicate pre-compiled (shared across
    // concurrent executions); otherwise compile here, per execution.
    std::optional<vec::RowFilter> local;
    const vec::RowFilter& pred =
        node.compiled ? *node.compiled
                      : local.emplace(*node.predicate,
                                      narrow ? *narrow : *node.schema,
                                      full_of(node), ctx.functions);
    OpStats scratch;  // discarded stats sink for record-off executions
    OpStats& stats = ctx.record ? node.stats : scratch;
    if (narrow) return select_cross(node, pred, *narrow, limit, stats);
    std::size_t visited = 0;
    if (node.child().kind == PlanNode::Kind::kIndexLookup) {
      // Fused path: filter the index bucket's row ids in place, batch by
      // batch.  Skips materialising the (possibly large) lookup result —
      // with a row budget of 1 (exists mode) this stops at the first batch
      // holding a passing row.  Sound because an IndexLookup's schema is
      // positionally identical to its base table's.
      PlanNode& lookup = node.child();
      const Table& base = base_of(lookup);
      bc::Sel hits;
      if (const auto* rows = lookup_rows(lookup)) {
        visited = pred.filter_rows(base.column_ptrs(), *rows, limit, hits);
      }
      if (ctx.record) {
        lookup.actual_rows = visited;
        node.stats.rows_in += visited;
        node.stats.batches += (visited + vec::kBatchRows - 1) / vec::kBatchRows;
        node.stats.bytes_touched +=
            scan_bytes(visited, pred.columns_read()) +
            2 * scan_bytes(hits.size(), base.column_count());
      }
      CCSQL_COUNT("query.rows_scanned", visited);
      return base.gather(hits).with_schema(node.schema);
    }
    if (node.child().is_scan()) {
      // Fused path: filter base rows in place, no intermediate copy.
      const Table& base = base_of(node.child());
      Table out = filter(base, node.schema, pred, limit, visited, stats);
      if (ctx.record) {
        node.child().actual_rows = visited;
        node.stats.rows_in += visited;
      }
      CCSQL_COUNT("query.rows_scanned", visited);
      return out;
    }
    Table in = exec(node.child(), kNoLimit);
    Table out = filter(in, node.schema, pred, limit, visited, stats);
    if (ctx.record) node.stats.rows_in += visited;
    return out;
  }

  /// Count over Select over Scan, evaluated without materialising the
  /// filtered rows: per-morsel counters summed in morsel order.  Returns
  /// false (leaving `total` alone) when the shape or size does not apply;
  /// the caller then takes the generic path.
  bool fused_count(PlanNode& node, std::size_t& total) {
    PlanNode& sel = node.child();
    if (sel.kind != PlanNode::Kind::kSelect || !sel.child().is_scan()) {
      return false;
    }
    const Table& base = base_of(sel.child());
    const std::size_t n = base.row_count();
    if (!go_parallel(kNoLimit, n)) return false;
    std::optional<vec::RowFilter> local;
    const vec::RowFilter& pred =
        sel.compiled ? *sel.compiled
                     : local.emplace(*sel.predicate, *sel.schema, full_of(sel),
                                     ctx.functions);
    const std::size_t morsels = (n + kMorselGrain - 1) / kMorselGrain;
    if (ctx.record) {
      node.stats.morsels += morsels;
      node.stats.rows_in += n;
      node.stats.batches += morsels;
      node.stats.bytes_touched += scan_bytes(n, pred.columns_read());
    }
    const std::vector<const Value*> cols = base.column_ptrs();
    std::vector<std::size_t> counts(morsels, 0);
    core::Pool::global().parallel_for(
        n, kMorselGrain, ctx.jobs,
        [&](std::size_t begin, std::size_t end, std::size_t morsel) {
          bc::Sel hits;
          pred.filter_range(cols, begin, end, kNoLimit, hits);
          counts[morsel] = hits.size();
        });
    total = 0;
    for (std::size_t c : counts) total += c;
    if (ctx.record) {
      sel.actual_rows = total;
      sel.child().actual_rows = n;
    }
    CCSQL_COUNT("query.rows_scanned", n);
    return true;
  }

  Table hash_join(PlanNode& node, std::size_t limit) {
    PlanNode& lhs = node.child(0);
    PlanNode& rhs = node.child(1);
    std::vector<std::size_t> lk, rk;
    for (const auto& name : node.left_keys) {
      lk.push_back(lhs.schema->index_of(name));
    }
    for (const auto& name : node.right_keys) {
      rk.push_back(rhs.schema->index_of(name));
    }

    // Build side: the right child.  A scan build side probes the base
    // table's cached hash index — the same one its point lookups use,
    // reused across queries; anything else materialises and indexes its
    // local result.  The index partitions by key-hash radix above ~8k build
    // rows (partitions built in parallel on the pool) and is the classic
    // single hash table below.
    const Table* right = nullptr;
    Table right_local;
    obs::MemReservation build_mem;
    if (rhs.is_scan()) {
      right = &base_of(rhs);
      CCSQL_COUNT(right->has_cached_index(rk) ? "plan.index_hits"
                                              : "plan.index_builds",
                  1);
      if (ctx.record) rhs.actual_rows = right->row_count();
    } else {
      right_local = exec(rhs, kNoLimit);
      right = &right_local;
      // The materialised build side is join-local memory; the index built
      // over it is accounted by the table's index cache.
      build_mem = obs::MemReservation(obs::MemTracker::Category::kHashBuilds,
                                      right_local.memory_bytes());
    }
    const HashIndex& index = right->index_on(rk, ctx.jobs);
    if (ctx.record) {
      node.stats.build_rows += right->row_count();
      node.stats.build_keys += index.key_count();
      node.stats.build_bytes += index.memory_bytes() + build_mem.bytes();
    }

    // Probe side: the left child, streamed straight off the base table when
    // it is a scan.
    const Table* left = nullptr;
    Table left_local;
    if (lhs.is_scan()) {
      left = &base_of(lhs);
    } else {
      left_local = exec(lhs, kNoLimit);
      left = &left_local;
    }

    // Probe emits (probe-row, build-row) id pairs; the output is then one
    // gather per column from each side — no per-row assembly.  Only the
    // build side is partitioned, so probing stays in probe-row order and
    // output order matches the single-partition join exactly.
    const std::size_t n = left->row_count();
    bc::Sel lsel, rsel;
    std::size_t visited = 0;
    if (go_parallel(limit, n)) {
      const std::size_t morsels = (n + kMorselGrain - 1) / kMorselGrain;
      if (ctx.record) node.stats.morsels += morsels;
      std::vector<std::pair<bc::Sel, bc::Sel>> parts(morsels);
      core::Pool::global().parallel_for(
          n, kMorselGrain, ctx.jobs,
          [&](std::size_t begin, std::size_t end, std::size_t morsel) {
            auto& [ls, rs] = parts[morsel];
            std::vector<TupleKey> keys(end - begin);
            left->build_keys(lk, begin, end, keys.data());
            for (std::size_t i = begin; i < end; ++i) {
              const auto* rows = index.find(keys[i - begin]);
              if (rows == nullptr) continue;
              for (std::size_t j : *rows) {
                ls.push_back(static_cast<std::uint32_t>(i));
                rs.push_back(static_cast<std::uint32_t>(j));
              }
            }
          });
      std::size_t total = 0;
      for (const auto& p : parts) total += p.first.size();
      lsel.reserve(total);
      rsel.reserve(total);
      for (auto& [ls, rs] : parts) {
        lsel.insert(lsel.end(), ls.begin(), ls.end());
        rsel.insert(rsel.end(), rs.begin(), rs.end());
      }
      visited = n;
    } else {
      std::vector<TupleKey> keys;
      for (std::size_t begin = 0; begin < n && lsel.size() < limit;
           begin += kMorselGrain) {
        const std::size_t end = std::min(n, begin + kMorselGrain);
        keys.assign(end - begin, TupleKey{});
        left->build_keys(lk, begin, end, keys.data());
        for (std::size_t i = begin; i < end && lsel.size() < limit; ++i) {
          ++visited;
          const auto* rows = index.find(keys[i - begin]);
          if (rows == nullptr) continue;
          for (std::size_t j : *rows) {
            lsel.push_back(static_cast<std::uint32_t>(i));
            rsel.push_back(static_cast<std::uint32_t>(j));
            if (lsel.size() >= limit) break;
          }
        }
      }
    }

    // The output schema may be narrower than the two inputs (projection
    // pushdown, optimizer pass 4b): gather only the surviving columns.
    // project() shares column storage, so the narrowing itself is free.
    std::vector<std::string> lnames, rnames;
    for (const Column& c : node.schema->columns()) {
      (lhs.schema->has(c.name) ? lnames : rnames).push_back(c.name);
    }
    // Rebind the children's qualified schemas first: a scan probes the bare
    // base table, whose column names are unqualified.  Both rebind and
    // project share column storage — only the gathers below copy.
    const Table lcols =
        left->with_schema(lhs.schema).project(lnames, /*distinct=*/false);
    const Table rcols =
        right->with_schema(rhs.schema).project(rnames, /*distinct=*/false);
    Table out =
        Table::hcat(node.schema, lcols.gather(lsel), rcols.gather(rsel));
    if (ctx.record) {
      node.stats.rows_in += visited;
      node.stats.bytes_touched +=
          scan_bytes(visited, lk.size()) +
          scan_bytes(lsel.size(), lcols.column_count()) +
          scan_bytes(rsel.size(), rcols.column_count()) +
          scan_bytes(out.row_count(), out.column_count());
      if (lhs.is_scan()) lhs.actual_rows = visited;
    }
    if (lhs.is_scan()) CCSQL_COUNT("query.rows_scanned", visited);
    return out;
  }
};

}  // namespace

SchemaPtr predicate_schema(const PlanNode& select, const Schema& ident) {
  if (select.child().kind != PlanNode::Kind::kCross) return select.schema;
  const std::vector<std::string> refs =
      select.predicate->referenced_columns(ident);
  std::vector<Column> cols;
  for (const Column& c : select.schema->columns()) {
    if (std::find(refs.begin(), refs.end(), c.name) != refs.end()) {
      cols.push_back(c);
    }
  }
  return make_schema(std::move(cols));
}

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

}  // namespace ccsql::plan
