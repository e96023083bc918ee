#include "relational/table.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/pool.hpp"
#include "relational/error.hpp"

namespace ccsql {

// ---- TupleKey ---------------------------------------------------------------

void TupleKey::set(std::size_t pos, std::uint32_t id) {
  if (pos < 2) {
    lo_ |= static_cast<std::uint64_t>(id) << (pos == 0 ? 32 : 0);
  } else if (pos < 4) {
    hi_ |= static_cast<std::uint64_t>(id) << (pos == 2 ? 32 : 0);
  } else {
    overflow_.push_back(id);
  }
}

TupleKey TupleKey::of_row(RowView row, std::span<const std::size_t> cols) {
  TupleKey k;
  if (cols.size() > 4) k.overflow_.reserve(cols.size() - 4);
  for (std::size_t i = 0; i < cols.size(); ++i) k.set(i, row[cols[i]].id());
  return k;
}

TupleKey TupleKey::of_values(std::span<const Value> key) {
  TupleKey k;
  if (key.size() > 4) k.overflow_.reserve(key.size() - 4);
  for (std::size_t i = 0; i < key.size(); ++i) k.set(i, key[i].id());
  return k;
}

std::size_t TupleKey::hash() const noexcept {
  if (hi_ == 0 && overflow_.empty()) {
    // Short key: one splitmix64 finalizer round over the packed word.
    std::uint64_t h = lo_ + 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the full tuple
  auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ull;
  };
  mix(lo_);
  mix(hi_);
  for (std::uint32_t id : overflow_) mix(id);
  return static_cast<std::size_t>(h);
}

// ---- Table ------------------------------------------------------------------

namespace {

/// Rows packed per build_keys / TupleKey-set pass before the key buffer is
/// recycled; also the morsel grain of parallel index builds.
constexpr std::size_t kKeyChunk = 4096;

std::vector<std::size_t> iota_cols(std::size_t n) {
  std::vector<std::size_t> cols(n);
  std::iota(cols.begin(), cols.end(), std::size_t{0});
  return cols;
}

/// Calls `fn(key, row)` with each row's full-row key, in row order; keys are
/// built column-at-a-time, one chunk at a time.  Stops and returns false as
/// soon as `fn` does.
template <typename Fn>
bool for_each_row_key(const Table& t, Fn fn) {
  const std::size_t n = t.row_count();
  const std::vector<std::size_t> cols = iota_cols(t.column_count());
  std::vector<TupleKey> keys;
  for (std::size_t begin = 0; begin < n; begin += kKeyChunk) {
    const std::size_t end = std::min(n, begin + kKeyChunk);
    keys.assign(end - begin, TupleKey{});
    t.build_keys(cols, begin, end, keys.data());
    for (std::size_t i = begin; i < end; ++i) {
      if (!fn(keys[i - begin], i)) return false;
    }
  }
  return true;
}

}  // namespace

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
  // Dedupe on packed symbol-id tuples built column-at-a-time: rows of up to
  // four columns hash and compare as two inline words, with no per-row key
  // formatting and no row materialisation.
  std::unordered_set<TupleKey, TupleKeyHash> seen;
  seen.reserve(rows_);
  std::vector<std::uint32_t> sel;
  for_each_row_key(*this, [&](TupleKey& k, std::size_t row) {
    if (seen.insert(std::move(k)).second) {
      sel.push_back(static_cast<std::uint32_t>(row));
    }
    return true;
  });
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
  std::unordered_set<TupleKey, TupleKeyHash> mine;
  mine.reserve(rows_);
  for_each_row_key(*this, [&](TupleKey& k, std::size_t) {
    mine.insert(std::move(k));
    return true;
  });
  return for_each_row_key(other, [&](const TupleKey& k, std::size_t) {
    return mine.count(k) != 0;
  });
}

bool Table::set_equal(const Table& other) const {
  check_same_names(other);
  if (width() == 0) return (rows_ > 0) == (other.rows_ > 0);
  // One key set: every row of `other` must find its key in it, and those
  // finds must cover every distinct key of this table.
  std::unordered_map<TupleKey, bool, TupleKeyHash> mine;  // key -> matched
  mine.reserve(rows_);
  for_each_row_key(*this, [&](TupleKey& k, std::size_t) {
    mine.emplace(std::move(k), false);
    return true;
  });
  std::size_t matched = 0;
  const bool covered =
      for_each_row_key(other, [&](const TupleKey& k, std::size_t) {
        const auto it = mine.find(k);
        if (it == mine.end()) return false;
        if (!it->second) {
          it->second = true;
          ++matched;
        }
        return true;
      });
  return covered && matched == mine.size();
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

// ---- Key building -----------------------------------------------------------

void Table::build_keys(std::span<const std::size_t> cols, std::size_t begin,
                       std::size_t end, TupleKey* out,
                       std::span<const Value> tail) const {
  const std::size_t n = end - begin;
  const std::size_t width = cols.size() + tail.size();
  // A wide key's overflow ids get their storage in one exact-size
  // allocation up front, not one growth step per pushed id.
  if (width > 4) {
    for (std::size_t i = 0; i < n; ++i) out[i].overflow_.reserve(width - 4);
  }
  // Position-major: one sequential pass per key column.  Positions ascend,
  // so overflow ids (arity > 4) push in the same order of_row encodes them.
  for (std::size_t pos = 0; pos < cols.size(); ++pos) {
    const Value* col = cols_[cols[pos]]->data() + begin;
    if (pos < 4) {
      const unsigned shift = (pos % 2 == 0) ? 32u : 0u;
      if (pos < 2) {
        for (std::size_t i = 0; i < n; ++i) {
          out[i].lo_ |= static_cast<std::uint64_t>(col[i].id()) << shift;
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          out[i].hi_ |= static_cast<std::uint64_t>(col[i].id()) << shift;
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        out[i].overflow_.push_back(col[i].id());
      }
    }
  }
  for (std::size_t k = 0; k < tail.size(); ++k) {
    for (std::size_t i = 0; i < n; ++i) out[i].set(cols.size() + k, tail[k].id());
  }
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

const HashIndex& Table::index_on(const std::vector<std::size_t>& columns,
                                 std::size_t jobs) const {
  {
    std::lock_guard<std::mutex> lock(index_cache_mutex());
    if (index_cache_) {
      auto it = index_cache_->find(columns);
      // std::map nodes are stable: the reference survives later inserts.
      if (it != index_cache_->end()) return it->second.index;
    }
  }
  // Build outside the lock: a pool worker building here can still take part
  // in nested parallel work (Group::wait helping) without holding the cache
  // mutex across it.  Concurrent callers may build the same index twice;
  // emplace below keeps the first and drops the duplicate — wasted work,
  // never a wrong answer.
  HashIndex built = HashIndex::build(*this, columns, jobs);
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

namespace {

/// Build sides below this row count get a single partition: the whole hash
/// table already fits in cache, so radix scatter is pure overhead.
constexpr std::size_t kRadixMinRows = 8192;
/// Partition count targets ~this many build rows per partition.
constexpr std::size_t kRadixTargetRows = 4096;
constexpr std::size_t kRadixMaxBits = 6;  // at most 64 partitions

}  // namespace

HashIndex HashIndex::build(const Table& t, std::span<const std::size_t> cols,
                           std::size_t jobs) {
  HashIndex idx;
  const std::size_t n = t.row_count();
  idx.rows_ = n;

  std::size_t bits = 0;
  if (n >= kRadixMinRows) {
    while (bits < kRadixMaxBits &&
           (std::size_t{1} << (bits + 1)) <= n / kRadixTargetRows) {
      ++bits;
    }
    if (bits == 0) bits = 1;  // past the threshold, always partition
  }
  const std::size_t parts = std::size_t{1} << bits;
  idx.mask_ = parts - 1;
  idx.parts_.assign(parts, IndexMap{});

  // Pass 1: pack every row's key, morsel-parallel (morsel boundaries are
  // jobs-independent, and each morsel writes disjoint key slots).
  std::vector<TupleKey> keys(n);
  core::Pool::global().parallel_for(
      n, kKeyChunk, jobs,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        t.build_keys(cols, begin, end, keys.data() + begin);
      });

  if (parts == 1) {
    IndexMap& m = idx.parts_[0];
    m.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      m[std::move(keys[i])].push_back(i);
    }
    return idx;
  }

  // Pass 2: count rows per (morsel, partition), then prefix-sum into
  // scatter offsets.  Scattering in morsel order keeps each partition's
  // (key, row) list in ascending row order, so per-key row lists — and
  // therefore probe output — are byte-identical to the single-partition
  // build at any partition count and any jobs value.
  const std::size_t morsels = (n + kKeyChunk - 1) / kKeyChunk;
  std::vector<std::uint8_t> pid(n);
  std::vector<std::vector<std::uint32_t>> counts(
      morsels, std::vector<std::uint32_t>(parts, 0));
  core::Pool::global().parallel_for(
      n, kKeyChunk, jobs,
      [&](std::size_t begin, std::size_t end, std::size_t morsel) {
        std::vector<std::uint32_t>& c = counts[morsel];
        for (std::size_t i = begin; i < end; ++i) {
          const auto p =
              static_cast<std::uint8_t>(keys[i].hash() & idx.mask_);
          pid[i] = p;
          ++c[p];
        }
      });

  std::vector<std::size_t> part_total(parts, 0);
  std::vector<std::vector<std::uint32_t>> offsets(
      morsels, std::vector<std::uint32_t>(parts, 0));
  for (std::size_t p = 0; p < parts; ++p) {
    std::size_t running = 0;
    for (std::size_t m = 0; m < morsels; ++m) {
      offsets[m][p] = static_cast<std::uint32_t>(running);
      running += counts[m][p];
    }
    part_total[p] = running;
  }

  struct PartInput {
    std::vector<TupleKey> keys;
    std::vector<std::uint32_t> rows;
  };
  std::vector<PartInput> inputs(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    inputs[p].keys.resize(part_total[p]);
    inputs[p].rows.resize(part_total[p]);
  }
  core::Pool::global().parallel_for(
      n, kKeyChunk, jobs,
      [&](std::size_t begin, std::size_t end, std::size_t morsel) {
        std::vector<std::uint32_t> cursor = offsets[morsel];
        for (std::size_t i = begin; i < end; ++i) {
          PartInput& in = inputs[pid[i]];
          const std::uint32_t d = cursor[pid[i]]++;
          in.keys[d] = std::move(keys[i]);
          in.rows[d] = static_cast<std::uint32_t>(i);
        }
      });

  // Pass 3: each partition's hash map builds independently — no serial
  // merge, and a probe only ever touches one partition-sized map.
  core::Pool::global().parallel_tasks(parts, jobs, [&](std::size_t p) {
    PartInput& in = inputs[p];
    IndexMap& m = idx.parts_[p];
    m.reserve(in.keys.size());
    for (std::size_t d = 0; d < in.keys.size(); ++d) {
      m[std::move(in.keys[d])].push_back(in.rows[d]);
    }
  });
  return idx;
}

std::size_t HashIndex::key_count() const noexcept {
  std::size_t keys = 0;
  for (const auto& p : parts_) keys += p.size();
  return keys;
}

std::size_t HashIndex::memory_bytes() const noexcept {
  std::size_t bytes = parts_.capacity() * sizeof(IndexMap);
  for (const auto& p : parts_) bytes += partition_bytes(p);
  return bytes;
}

std::size_t HashIndex::partition_bytes(const IndexMap& m) noexcept {
  std::size_t bytes = m.bucket_count() * sizeof(void*);
  for (const auto& [key, rows] : m) {
    bytes += sizeof(std::pair<TupleKey, std::vector<std::size_t>>) +
             key.heap_bytes() + rows.capacity() * sizeof(std::size_t);
  }
  return bytes;
}

}  // namespace ccsql
