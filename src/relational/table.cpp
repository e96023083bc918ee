#include "relational/table.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <numeric>
#include <utility>

#include "core/pool.hpp"
#include "relational/error.hpp"

namespace ccsql {

// ---- Row keys ---------------------------------------------------------------

namespace {

std::vector<std::size_t> iota_cols(std::size_t n) {
  std::vector<std::size_t> cols(n);
  std::iota(cols.begin(), cols.end(), std::size_t{0});
  return cols;
}

/// KeyHash of every row of `t` over `cols`, folded one column at a time.
std::vector<std::uint64_t> hash_rows(const Table& t,
                                     std::span<const std::size_t> cols) {
  std::vector<std::uint64_t> h(t.row_count(), KeyHash::kSeed);
  for (const std::size_t c : cols) {
    const Value* col = t.column_data(c);
    for (std::size_t i = 0; i < h.size(); ++i) h[i] = KeyHash::step(h[i], col[i]);
  }
  for (std::uint64_t& x : h) x = KeyHash::finish(x);
  return h;
}

/// Open-addressing slots for `n` entries: a power of two, load at most 1/2.
std::size_t slot_count(std::size_t n) {
  return std::bit_ceil(std::max<std::size_t>(2, 2 * n));
}

/// True when row `a` of columns `ca` holds the same cells as row `b` of
/// columns `cb`.
bool same_cells(std::span<const Value* const> ca, std::size_t a,
                std::span<const Value* const> cb, std::size_t b) {
  for (std::size_t p = 0; p < ca.size(); ++p) {
    if (ca[p][a] != cb[p][b]) return false;
  }
  return true;
}

/// A set of rows of one table distinct over some of its columns: their
/// row ids in an open-addressing array (linear probing), every row's hash
/// alongside.  Rows compare cell by cell straight from the column vectors,
/// so a probe may be a row of another table with the same columns.
class RowSet {
 public:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  RowSet(const Table& t, std::span<const std::size_t> cols)
      : hashes_(hash_rows(t, cols)), slots_(slot_count(t.row_count())) {
    for (const std::size_t c : cols) cols_.push_back(t.column_data(c));
  }

  /// Adds row `r` of the table unless an equal row is in; returns the
  /// set's row equal to it — `r` itself when it was new.
  std::size_t insert(std::size_t r) {
    std::uint32_t& slot = slots_[probe(cols_, r, hashes_[r])];
    if (slot == 0) slot = static_cast<std::uint32_t>(r + 1);
    return slot - 1;
  }

  /// The row of the set equal to row `r` of columns `cols` (hashed `h`);
  /// kAbsent when there is none.
  [[nodiscard]] std::size_t find(std::span<const Value* const> cols,
                                 std::size_t r, std::uint64_t h) const {
    const std::uint32_t slot = slots_[probe(cols, r, h)];
    return slot == 0 ? kAbsent : slot - 1;
  }

  [[nodiscard]] std::uint64_t hash(std::size_t r) const { return hashes_[r]; }

 private:
  /// The slot holding a row equal to row `r` of `cols`, else the empty
  /// slot where it would go.
  [[nodiscard]] std::size_t probe(std::span<const Value* const> cols,
                                  std::size_t r, std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = h & mask;; s = (s + 1) & mask) {
      const std::uint32_t slot = slots_[s];
      if (slot == 0 ||
          (hashes_[slot - 1] == h && same_cells(cols_, slot - 1, cols, r))) {
        return s;
      }
    }
  }

  std::vector<const Value*> cols_;
  std::vector<std::uint64_t> hashes_;  // per row of the table
  std::vector<std::uint32_t> slots_;   // row id + 1; 0 is empty
};

}  // namespace

// ---- Table ------------------------------------------------------------------

Table::Table(SchemaPtr schema) : schema_(std::move(schema)) {
  if (!schema_) throw SchemaError("Table: null schema");
  cols_.reserve(schema_->size());
  for (std::size_t j = 0; j < schema_->size(); ++j) {
    cols_.push_back(std::make_shared<ColumnData>());
  }
}

Table Table::unit() {
  Table t;
  t.rows_ = 1;
  return t;
}

Table::ColumnData& Table::mut_col(std::size_t j) {
  ColumnPtr& c = cols_[j];
  if (c.use_count() != 1) {
    // Shared with another table: copy-on-write, trimming any tail beyond
    // row_count() (a shared LIMIT head) in the same pass.
    c = std::make_shared<ColumnData>(c->begin(),
                                     c->begin() + static_cast<std::ptrdiff_t>(
                                                      rows_));
  } else if (c->size() != rows_) {
    c->resize(rows_);
  }
  return *c;
}

void Table::append(RowView row) {
  if (row.size() != width()) {
    throw SchemaError("append: row arity " + std::to_string(row.size()) +
                      " != schema arity " + std::to_string(width()));
  }
  invalidate_indexes();
  for (std::size_t j = 0; j < width(); ++j) mut_col(j).push_back(row[j]);
  ++rows_;
}

void Table::append(std::initializer_list<Value> row) {
  append(RowView(row.begin(), row.size()));
}

void Table::append_texts(const std::vector<std::string>& texts) {
  std::vector<Value> vals;
  vals.reserve(texts.size());
  for (const auto& t : texts) vals.push_back(Symbol::intern(t));
  append(RowView(vals));
}

void Table::reserve_rows(std::size_t n) {
  for (std::size_t j = 0; j < width(); ++j) mut_col(j).reserve(n);
}

Table Table::gather(std::span<const std::uint32_t> sel) const {
  // The identity selection keeps every row in order: share the columns
  // (and the index cache) instead of copying them.
  if (sel.size() == rows_) {
    std::uint32_t i = 0;
    while (i < sel.size() && sel[i] == i) ++i;
    if (i == sel.size()) return *this;
  }
  Table out(schema_);
  out.rows_ = sel.size();
  for (std::size_t j = 0; j < width(); ++j) {
    const Value* src = cols_[j]->data();
    auto c = std::make_shared<ColumnData>(sel.size());
    Value* dst = c->data();
    for (std::size_t i = 0; i < sel.size(); ++i) dst[i] = src[sel[i]];
    out.cols_[j] = std::move(c);
  }
  return out;
}

Table Table::head(std::size_t n) const {
  Table out(schema_);
  out.cols_ = cols_;  // shared: mut_col trims the tail if `out` ever mutates
  out.rows_ = std::min(n, rows_);
  return out;
}

Table Table::project(const std::vector<std::string>& names,
                     bool distinct) const {
  Table out(schema_->project(names));
  for (std::size_t j = 0; j < names.size(); ++j) {
    // Zero-copy: the projected table shares the source column vectors.
    out.cols_[j] = cols_[schema_->index_of(names[j])];
  }
  out.rows_ = rows_;
  return distinct ? out.distinct() : out;
}

Table Table::distinct() const {
  if (width() == 0) {
    Table out(schema_);
    out.rows_ = rows_ > 0 ? 1 : 0;
    return out;
  }
  RowSet seen(*this, iota_cols(width()));
  std::vector<std::uint32_t> sel;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (seen.insert(r) == r) sel.push_back(static_cast<std::uint32_t>(r));
  }
  return gather(sel);
}

Table Table::cross(const Table& a, const Table& b, std::size_t jobs) {
  std::vector<Column> cols = a.schema().columns();
  for (const auto& c : b.schema().columns()) {
    cols.push_back(c);
  }
  Table out(make_schema(std::move(cols)));  // throws on duplicate names
  const std::size_t bn = b.row_count();
  out.rows_ = a.row_count() * bn;
  for (auto& c : out.cols_) c = std::make_shared<ColumnData>(out.rows_);
  // Row (i*bn + j) pairs a-row i with b-row j, so a's columns repeat each
  // cell bn times and b's columns tile whole: run-wise fills through raw
  // pointers (vector::insert per run costs ~10x more on the short runs
  // solver steps produce), no row assembly.
  const auto fill = [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t j = 0; j < a.width(); ++j) {
      const Value* src = a.cols_[j]->data();
      Value* dst = out.cols_[j]->data();
      for (std::size_t r = begin; r < end;) {
        const std::size_t run = std::min(end, (r / bn + 1) * bn) - r;
        std::fill_n(dst + r, run, src[r / bn]);
        r += run;
      }
    }
    for (std::size_t j = 0; j < b.width(); ++j) {
      const Value* src = b.cols_[j]->data();
      Value* dst = out.cols_[a.width() + j]->data();
      for (std::size_t r = begin; r < end;) {
        const std::size_t run = std::min(end - r, bn - r % bn);
        std::copy_n(src + r % bn, run, dst + r);
        r += run;
      }
    }
  };
  if (jobs <= 1) {
    fill(0, out.rows_, 0);
  } else {
    core::Pool::global().parallel_for(out.rows_, 4096, jobs, fill);
  }
  return out;
}

Table Table::hcat(SchemaPtr schema, const Table& a, const Table& b) {
  if (!schema || schema->size() != a.width() + b.width()) {
    throw SchemaError("hcat: schema arity != sum of input arities");
  }
  if (a.row_count() != b.row_count()) {
    throw SchemaError("hcat: row count mismatch");
  }
  Table out(std::move(schema));
  for (std::size_t j = 0; j < a.width(); ++j) out.cols_[j] = a.cols_[j];
  for (std::size_t j = 0; j < b.width(); ++j) {
    out.cols_[a.width() + j] = b.cols_[j];
  }
  out.rows_ = a.rows_;
  return out;
}

void Table::check_same_names(const Table& other) const {
  if (!schema_->same_names(other.schema())) {
    throw SchemaError("tables have different column names/order");
  }
}

Table Table::union_distinct(const Table& a, const Table& b) {
  a.check_same_names(b);
  Table all = a;
  all.invalidate_indexes();
  for (std::size_t j = 0; j < all.width(); ++j) {
    ColumnData& c = all.mut_col(j);
    const ColumnView bc = b.column(j);
    c.reserve(all.rows_ + bc.size());
    c.insert(c.end(), bc.begin(), bc.end());
  }
  all.rows_ += b.rows_;
  return all.distinct();
}

Table Table::with_schema(SchemaPtr schema) const {
  if (!schema || schema->size() != schema_->size()) {
    throw SchemaError("with_schema: arity mismatch");
  }
  Table out = *this;
  out.schema_ = std::move(schema);
  return out;
}

bool Table::contains_all(const Table& other) const {
  check_same_names(other);
  if (width() == 0) return rows_ > 0 || other.rows_ == 0;
  RowSet mine(*this, iota_cols(width()));
  for (std::size_t r = 0; r < rows_; ++r) mine.insert(r);
  const std::vector<const Value*> cols = other.column_ptrs();
  const std::vector<std::uint64_t> h = hash_rows(other, iota_cols(width()));
  for (std::size_t r = 0; r < other.rows_; ++r) {
    if (mine.find(cols, r, h[r]) == RowSet::kAbsent) return false;
  }
  return true;
}

bool Table::set_equal(const Table& other) const {
  check_same_names(other);
  if (width() == 0) return (rows_ > 0) == (other.rows_ > 0);
  // One row set: every row of `other` must find its match in it, and those
  // matches must cover every distinct row of this table.
  RowSet mine(*this, iota_cols(width()));
  std::size_t distinct = 0;
  for (std::size_t r = 0; r < rows_; ++r) distinct += mine.insert(r) == r;
  std::vector<bool> matched(rows_, false);
  std::size_t covered = 0;
  const std::vector<const Value*> cols = other.column_ptrs();
  const std::vector<std::uint64_t> h = hash_rows(other, iota_cols(width()));
  for (std::size_t r = 0; r < other.rows_; ++r) {
    const std::size_t m = mine.find(cols, r, h[r]);
    if (m == RowSet::kAbsent) return false;
    if (!matched[m]) {
      matched[m] = true;
      ++covered;
    }
  }
  return covered == distinct;
}

Table Table::sorted_by(const std::vector<std::string>& columns) const {
  std::vector<std::size_t> keys;
  keys.reserve(columns.size());
  for (const auto& c : columns) keys.push_back(schema_->index_of(c));
  std::vector<std::uint32_t> order(rows_);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     for (std::size_t k : keys) {
                       const std::string_view va = at(a, k).str();
                       const std::string_view vb = at(b, k).str();
                       if (va != vb) return va < vb;
                     }
                     return false;
                   });
  return gather(order);
}

// ---- Hash index cache -------------------------------------------------------

namespace {

/// Guards every table's index-cache pointers and map structure.  One global
/// mutex (not per-table) keeps Table copyable; the guarded sections are
/// pointer copies and installs and map lookups only — index *builds* happen
/// outside it.
std::mutex& index_cache_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

Table::Table(const Table& other)
    : schema_(other.schema_), cols_(other.cols_), rows_(other.rows_) {
  std::lock_guard<std::mutex> lock(index_cache_mutex());
  index_cache_ = other.index_cache_;
}

Table& Table::operator=(const Table& other) {
  if (this != &other) *this = Table(other);
  return *this;
}

const HashIndex& Table::index_on(
    const std::vector<std::size_t>& columns) const {
  {
    std::lock_guard<std::mutex> lock(index_cache_mutex());
    if (index_cache_) {
      auto it = index_cache_->find(columns);
      // std::map nodes are stable: the reference survives later inserts.
      if (it != index_cache_->end()) return it->second.index;
    }
  }
  // Build outside the lock, so builds of other indexes do not wait on this
  // one.  Concurrent callers may build the same index twice; emplace below
  // keeps the first and drops the duplicate — wasted work, never a wrong
  // answer.
  HashIndex built = HashIndex::build(*this, columns);
  obs::MemReservation mem(obs::MemTracker::Category::kIndexes,
                          built.memory_bytes());
  std::lock_guard<std::mutex> lock(index_cache_mutex());
  if (!index_cache_) {
    index_cache_ =
        std::make_shared<std::map<std::vector<std::size_t>, CachedIndex>>();
  }
  return index_cache_
      ->emplace(columns, CachedIndex{std::move(built), std::move(mem)})
      .first->second.index;
}

bool Table::has_cached_index(const std::vector<std::size_t>& columns) const {
  std::lock_guard<std::mutex> lock(index_cache_mutex());
  return index_cache_ && index_cache_->count(columns) > 0;
}

// ---- Hash index -------------------------------------------------------------

HashIndex HashIndex::build(const Table& t, std::span<const std::size_t> cols) {
  HashIndex idx;
  const std::size_t n = t.row_count();
  idx.width_ = cols.size();
  // Each row's key id, keys numbered in order of their first row.
  RowSet seen(t, cols);
  std::vector<std::uint32_t> key_of(n);
  std::vector<std::uint32_t> first;  // per key: its first row
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rep = seen.insert(i);
    if (rep == i) {
      key_of[i] = static_cast<std::uint32_t>(first.size());
      first.push_back(static_cast<std::uint32_t>(i));
    } else {
      key_of[i] = key_of[rep];
    }
  }

  const std::size_t keys = first.size();
  idx.hashes_.resize(keys);
  idx.keys_.resize(keys * idx.width_);
  idx.slots_.resize(slot_count(keys));
  const std::size_t mask = idx.slots_.size() - 1;
  for (std::size_t k = 0; k < keys; ++k) {
    idx.hashes_[k] = seen.hash(first[k]);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      idx.keys_[k * idx.width_ + p] = t.at(first[k], cols[p]);
    }
    std::size_t s = idx.hashes_[k] & mask;
    while (idx.slots_[s] != 0) s = (s + 1) & mask;
    idx.slots_[s] = static_cast<std::uint32_t>(k + 1);
  }
  // CSR row lists, filled in row order: each list is ascending.
  idx.offsets_.assign(keys + 1, 0);
  for (const std::uint32_t k : key_of) ++idx.offsets_[k + 1];
  std::partial_sum(idx.offsets_.begin(), idx.offsets_.end(),
                   idx.offsets_.begin());
  std::vector<std::uint32_t> cursor(idx.offsets_.begin(),
                                    idx.offsets_.end() - 1);
  idx.rows_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    idx.rows_[cursor[key_of[i]]++] = static_cast<std::uint32_t>(i);
  }
  return idx;
}

std::size_t HashIndex::memory_bytes() const noexcept {
  return keys_.capacity() * sizeof(Value) +
         hashes_.capacity() * sizeof(std::uint64_t) +
         slots_.capacity() * sizeof(std::uint32_t) +
         offsets_.capacity() * sizeof(std::uint32_t) +
         rows_.capacity() * sizeof(std::uint32_t);
}

}  // namespace ccsql
