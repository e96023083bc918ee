#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/mem.hpp"
#include "relational/schema.hpp"
#include "relational/value.hpp"

namespace ccsql {

class Table;

/// A contiguous read-only view of one column of a table: the primary
/// data-access shape of the engine (DESIGN.md section 13).  Scans, joins,
/// projections and the bytecode batch kernels all read column spans; rows
/// exist only as a compatibility gather (RowView).
using ColumnView = std::span<const Value>;

/// A read-only view of one row.
///
/// Storage is column-major, so a row is no longer contiguous memory: this is
/// a gather *proxy* — `operator[]` reads cell j out of column j — kept for
/// cold consumers (per-row predicates, tests, formatting).  Hot paths should
/// iterate columns instead (Table::column / QueryResult::column); treat the
/// per-row path as deprecated for bulk work (DESIGN.md section 13).
///
/// A RowView can also wrap a flat contiguous buffer (a temporary row being
/// assembled, the solver's odometer row), which is what the old span-typed
/// RowView was; both shapes evaluate identically.
class RowView {
 public:
  constexpr RowView() = default;
  /// Flat contiguous row (temporary buffers, odometer rows).
  constexpr RowView(const Value* data, std::size_t n) : flat_(data), n_(n) {}
  // NOLINTNEXTLINE(google-explicit-constructor): span compatibility
  constexpr RowView(std::span<const Value> s)
      : flat_(s.data()), n_(s.size()) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  RowView(const std::vector<Value>& v) : flat_(v.data()), n_(v.size()) {}
  /// Row `row` of a columnar table (the gather path).
  inline RowView(const Table& t, std::size_t row) noexcept;

  [[nodiscard]] constexpr std::size_t size() const noexcept { return n_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] inline Value operator[](std::size_t j) const noexcept;
  [[nodiscard]] Value front() const noexcept { return (*this)[0]; }
  [[nodiscard]] Value back() const noexcept { return (*this)[n_ - 1]; }

  /// Value-copying random-access iterator (cells are 4-byte ids; there is
  /// no contiguous memory to point into on the columnar side).  Carries the
  /// view's representation by value, so it stays valid after the temporary
  /// RowView it came from is gone.
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Value;

    iterator() = default;
    iterator(const Table* t, const Value* flat, std::size_t row,
             std::size_t i)
        : t_(t), flat_(flat), row_(row), i_(i) {}
    inline Value operator*() const noexcept;
    Value operator[](difference_type d) const noexcept {
      return *(*this + d);
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++i_;
      return t;
    }
    iterator& operator--() {
      --i_;
      return *this;
    }
    iterator operator--(int) {
      iterator t = *this;
      --i_;
      return t;
    }
    iterator& operator+=(difference_type d) {
      i_ += static_cast<std::size_t>(d);
      return *this;
    }
    iterator& operator-=(difference_type d) {
      i_ -= static_cast<std::size_t>(d);
      return *this;
    }
    friend iterator operator+(iterator it, difference_type d) {
      return it += d;
    }
    friend iterator operator+(difference_type d, iterator it) {
      return it += d;
    }
    friend iterator operator-(iterator it, difference_type d) {
      return it -= d;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return a.i_ != b.i_;
    }
    friend bool operator<(const iterator& a, const iterator& b) {
      return a.i_ < b.i_;
    }

   private:
    const Table* t_ = nullptr;
    const Value* flat_ = nullptr;
    std::size_t row_ = 0;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const noexcept {
    return {table_, flat_, row_, 0};
  }
  [[nodiscard]] iterator end() const noexcept {
    return {table_, flat_, row_, n_};
  }

 private:
  const Table* table_ = nullptr;  // columnar source (else flat_)
  const Value* flat_ = nullptr;
  std::size_t row_ = 0;
  std::size_t n_ = 0;
};

/// A tuple of symbol ids packed for hashing: the key type of hash
/// indexes, join probes, and row deduplication.  Values are already interned
/// 32-bit ids, so up to four of them pack into two inline words (no heap
/// traffic for the common 1-4 column keys); wider tuples spill the remainder
/// into an overflow vector.  Equality always compares the full tuple; the
/// hash is the packed word for short keys and an FNV-1a mix otherwise.
///
/// Keys of different arities may collide structurally (a NULL id is 0), but
/// every map is keyed by tuples of one fixed arity, so this never matters.
class TupleKey {
 public:
  TupleKey() = default;

  /// Key of the given cells of `row`, in `cols` order.
  static TupleKey of_row(RowView row, std::span<const std::size_t> cols);
  /// Key of an explicit tuple (same encoding as of_row).
  static TupleKey of_values(std::span<const Value> key);

  [[nodiscard]] std::size_t hash() const noexcept;

  /// Heap bytes held by an overflow (arity > 4) key; 0 for inline keys.
  /// MemTracker's index accounting adds this per cached key.
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return overflow_.capacity() * sizeof(std::uint32_t);
  }

  friend bool operator==(const TupleKey& a, const TupleKey& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_ && a.overflow_ == b.overflow_;
  }

 private:
  friend class Table;  // batch (column-at-a-time) key building

  void set(std::size_t pos, std::uint32_t id);

  std::uint64_t lo_ = 0;  // ids 0-1, packed high-to-low
  std::uint64_t hi_ = 0;  // ids 2-3
  std::vector<std::uint32_t> overflow_;  // ids 4+
};

struct TupleKeyHash {
  std::size_t operator()(const TupleKey& k) const noexcept { return k.hash(); }
};

/// A hash index over a column set: key tuple to the row indices holding it,
/// ascending.  The one index structure of the engine: point lookups
/// (IndexLookup) and the right sides of joins — a Select over a Cross,
/// routed on its equalities — share it through Table::index_on.  Keys are
/// packed symbol-id tuples, not strings: probing never formats or allocates
/// for keys of up to four columns.
///
/// Radix-partitioned: above 8192 rows, rows are scattered into 2^bits
/// partitions by the low bits of their key hash, and each partition is an
/// independent hash map built in parallel (no serial merge); probes route
/// by the same bits, so each lookup touches one cache-resident partition.
/// Smaller tables get a single partition, the classic hash table.  Row
/// lists stay ascending at any partition count and any jobs value, so
/// probe output is byte-identical across configurations.
class HashIndex {
 public:
  HashIndex() : parts_(1) {}

  /// Builds over the given columns of `t`; partition count is chosen from
  /// the row count alone.  `jobs` > 1 parallelizes key packing, the
  /// partition scatter and the per-partition map builds on the pool.
  static HashIndex build(const Table& t, std::span<const std::size_t> cols,
                         std::size_t jobs);

  /// The rows holding `k`, ascending; nullptr when absent.
  [[nodiscard]] const std::vector<std::size_t>* find(
      const TupleKey& k) const noexcept {
    // One partition (most tables): skip the routing hash; the map hashes.
    const IndexMap& m = mask_ == 0 ? parts_[0] : parts_[k.hash() & mask_];
    auto it = m.find(k);
    return it == m.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::size_t partitions() const noexcept {
    return parts_.size();
  }
  [[nodiscard]] std::size_t key_count() const noexcept;
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_; }
  /// Approximate heap footprint (buckets, key nodes incl. TupleKey overflow
  /// spill, row lists) — the MemTracker kIndexes reservation backing the
  /// index cache.  O(keys).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// One partition: key tuple to its ascending row list.
  using IndexMap =
      std::unordered_map<TupleKey, std::vector<std::size_t>, TupleKeyHash>;

  [[nodiscard]] static std::size_t partition_bytes(const IndexMap& m) noexcept;

  std::vector<IndexMap> parts_;  // power-of-two count
  std::size_t mask_ = 0;
  std::size_t rows_ = 0;
};

/// An in-memory relation: an ordered multiset of fixed-width rows over a
/// shared immutable Schema.  This is the database-table substrate on which
/// the whole methodology runs: controller tables, column tables, dependency
/// tables and implementation tables are all instances of Table.
///
/// Storage is column-major: one shared, contiguous Value vector per column.
/// Copying a table shares every column (a few shared_ptr copies); mutation
/// is copy-on-write per column, so catalog snapshots freeze columns, not
/// tables, and operators that keep a column intact (projection, renaming,
/// LIMIT heads) share it outright instead of copying rows.
class Table {
 public:
  /// An empty table over an empty schema.  Note this still has zero rows;
  /// use Table::unit() for the 0-column, 1-row identity of cross products.
  Table() : schema_(std::make_shared<const Schema>()) {}

  explicit Table(SchemaPtr schema);

  /// Copies share the columns and the index cache.  The cache is read
  /// under the cache mutex: a const table shared across threads (a snapshot
  /// entry) may be having an index installed while it is copied.
  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;

  /// The 0-column table with a single (empty) row: the identity element of
  /// cross(), used to seed incremental table generation.
  static Table unit();

  [[nodiscard]] const Schema& schema() const noexcept { return *schema_; }
  [[nodiscard]] const SchemaPtr& schema_ptr() const noexcept {
    return schema_;
  }
  [[nodiscard]] std::size_t column_count() const noexcept {
    return schema_->size();
  }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  // ---- Column access (the primary API) -------------------------------------

  /// Column `j` as a contiguous span of `row_count()` cells.
  [[nodiscard]] ColumnView column(std::size_t j) const noexcept {
    return ColumnView(cols_[j]->data(), rows_);
  }
  [[nodiscard]] ColumnView column(std::string_view name) const {
    return column(schema_->index_of(name));
  }
  /// Raw cell pointer of column `j` — what the bytecode batch kernels and
  /// gather loops read.  Valid for row indices [0, row_count()).
  [[nodiscard]] const Value* column_data(std::size_t j) const noexcept {
    return cols_[j]->data();
  }
  /// One base pointer per schema column, in order — the argument shape of
  /// bc::Program::eval_batch/eval_range.  Pointers stay valid while this
  /// table (or any table sharing its columns) is alive and unmutated.
  [[nodiscard]] std::vector<const Value*> column_ptrs() const {
    std::vector<const Value*> ptrs(cols_.size());
    for (std::size_t j = 0; j < cols_.size(); ++j) ptrs[j] = cols_[j]->data();
    return ptrs;
  }

  // ---- Row access (compatibility gather path) ------------------------------

  [[nodiscard]] RowView row(std::size_t i) const noexcept {
    return RowView(*this, i);
  }
  [[nodiscard]] Value at(std::size_t row, std::size_t col) const noexcept {
    return (*cols_[col])[row];
  }
  [[nodiscard]] Value at(std::size_t row, std::string_view col) const {
    return at(row, schema_->index_of(col));
  }

  /// Forward row iteration adapter: `for (RowView r : t.rows())`.
  class RowRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = RowView;
      using difference_type = std::ptrdiff_t;

      iterator(const Table* t, std::size_t i) : t_(t), i_(i) {}
      RowView operator*() const noexcept { return t_->row(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator t = *this;
        ++i_;
        return t;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.i_ == b.i_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return a.i_ != b.i_;
      }

     private:
      const Table* t_;
      std::size_t i_;
    };
    explicit RowRange(const Table* t) : t_(t) {}
    [[nodiscard]] iterator begin() const { return {t_, 0}; }
    [[nodiscard]] iterator end() const { return {t_, t_->row_count()}; }

   private:
    const Table* t_;
  };
  [[nodiscard]] RowRange rows() const noexcept { return RowRange(this); }

  // ---- Mutation ------------------------------------------------------------

  /// Appends a row; throws SchemaError if the arity does not match.
  void append(RowView row);
  void append(std::initializer_list<Value> row);
  /// Appends the row given as value texts (interned on the fly).
  void append_texts(const std::vector<std::string>& texts);

  void reserve_rows(std::size_t n);

  // ---- Relational algebra ------------------------------------------------
  // All operations return new tables; none mutate the receiver.

  /// pi: the named columns, in the given order.  If `distinct`, duplicate
  /// result rows are removed (SELECT DISTINCT).  A non-distinct projection
  /// copies no cells at all: the result shares the selected column vectors.
  [[nodiscard]] Table project(const std::vector<std::string>& names,
                              bool distinct = true) const;

  /// Removes duplicate rows, keeping first occurrences in order.
  [[nodiscard]] Table distinct() const;

  /// The given rows of this table, in `sel` order, as a new table.  The
  /// column-at-a-time gather every selecting operator (filter, join,
  /// sort, limit) funnels through.  The identity selection (every row, in
  /// order) copies nothing: the result shares this table's columns.
  [[nodiscard]] Table gather(std::span<const std::uint32_t> sel) const;

  /// First min(n, row_count()) rows.  O(columns): shares column storage.
  [[nodiscard]] Table head(std::size_t n) const;

  /// Cartesian product; column names must be disjoint.  At jobs > 1 the
  /// product's rows fill in fixed-size morsels on the pool: the same table
  /// at any jobs.
  [[nodiscard]] static Table cross(const Table& a, const Table& b,
                                   std::size_t jobs = 1);

  /// Horizontal concatenation: a's columns followed by b's, under `schema`
  /// (arity must equal a.width + b.width; row counts must match).  Shares
  /// column storage with both inputs — the join's output assembler.
  [[nodiscard]] static Table hcat(SchemaPtr schema, const Table& a,
                                  const Table& b);

  /// Set union (duplicates removed, first occurrences kept in order: a's
  /// rows, then b's); schemas must have identical column names/order.
  [[nodiscard]] static Table union_distinct(const Table& a, const Table& b);

  /// Reorders/renames columns to match `schema` by position (arity must
  /// match); used to align tables before union.
  [[nodiscard]] Table with_schema(SchemaPtr schema) const;

  // ---- Set queries ---------------------------------------------------------

  /// True if every row of `other` occurs in this table (both projected to
  /// their common order; schemas must have identical names).  This is the
  /// paper's "reconstructed table contains the original debugged table"
  /// check.
  [[nodiscard]] bool contains_all(const Table& other) const;

  /// True if both tables hold the same set of rows (duplicates ignored).
  [[nodiscard]] bool set_equal(const Table& other) const;

  /// Rows sorted by the given columns' textual values (SQL ORDER BY).
  [[nodiscard]] Table sorted_by(const std::vector<std::string>& columns) const;

  // ---- Hash indexes --------------------------------------------------------

  /// Encodes the given cells of a row as an index probe key.
  static TupleKey index_key(RowView row, std::span<const std::size_t> cols) {
    return TupleKey::of_row(row, cols);
  }
  /// Encodes an explicit key tuple (same format as the row overload).
  static TupleKey index_key(std::span<const Value> key) {
    return TupleKey::of_values(key);
  }

  /// Packs rows [begin, end) restricted to `cols` into out[0 .. end-begin),
  /// column at a time (one sequential pass per key column, no row gather),
  /// with the constants `tail` at the positions after the columns.  `out`
  /// must hold default-constructed keys.  This is the batch form of
  /// index_key that index builds, routed join probes and distinct all use.
  void build_keys(std::span<const std::size_t> cols, std::size_t begin,
                  std::size_t end, TupleKey* out,
                  std::span<const Value> tail = {}) const;

  /// Lazily-built hash index keyed by the given columns — what point
  /// lookups and joins' routed probes of their right sides all probe.  Built
  /// on first use and cached on the table (appending invalidates the
  /// cache); copies of a table share the already-built indexes.
  ///
  /// Thread-safe: concurrent callers may race to build the same index, but
  /// exactly one result is cached and all callers see a consistent index.
  /// The build itself runs outside the cache lock, so a pool worker building
  /// an index can still help with other pool tasks.  `jobs` > 1 builds on
  /// the pool; the index is identical at any jobs value.
  const HashIndex& index_on(const std::vector<std::size_t>& columns,
                            std::size_t jobs = 1) const;

  /// True if index_on(columns) has already been built (observability).
  [[nodiscard]] bool has_cached_index(
      const std::vector<std::size_t>& columns) const;

  // ---- Memory accounting ---------------------------------------------------

  /// Approximate heap footprint of the column storage referenced by this
  /// table (per-column capacity, not size).  Columns shared copy-on-write
  /// with other tables are counted by every holder, mirroring the
  /// MemReservation copy semantics.  Schema and index cache not included.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t bytes = cols_.capacity() * sizeof(ColumnPtr);
    for (const auto& c : cols_) bytes += c->capacity() * sizeof(Value);
    return bytes;
  }

 private:
  friend class RowView;
  friend RowView::iterator;

  using ColumnData = std::vector<Value>;
  using ColumnPtr = std::shared_ptr<ColumnData>;

  [[nodiscard]] std::size_t width() const noexcept { return schema_->size(); }

  /// Column `j`, uniquely owned and trimmed to row_count(), ready to
  /// mutate.  Clones a column shared with another table (COW) or one with
  /// a tail beyond row_count() (a shared LIMIT head).
  ColumnData& mut_col(std::size_t j);

  void check_same_names(const Table& other) const;

  /// Drops the index cache before a mutation.  A copy sharing the cache
  /// keeps the old (still valid for its rows) indexes; this table starts a
  /// fresh cache on next use.
  void invalidate_indexes() noexcept {
    if (index_cache_) index_cache_.reset();
  }

  /// A built index plus the MemTracker reservation covering it.  The
  /// reservation lives in the shared cache map, so the bytes release when
  /// the last table copy drops (or invalidates) the cache — copies sharing
  /// the cache never double-count.
  struct CachedIndex {
    HashIndex index;
    obs::MemReservation mem;
  };

  SchemaPtr schema_;
  // One shared column vector per schema column; each holds >= rows_ cells
  // (a shared LIMIT head leaves a tail that mut_col trims on first write).
  std::vector<ColumnPtr> cols_;
  std::size_t rows_ = 0;
  // Hash indexes by column-index set, built lazily.  Shared between copies
  // (rows are identical until one of them mutates, which resets only that
  // copy's pointer).
  mutable std::shared_ptr<std::map<std::vector<std::size_t>, CachedIndex>>
      index_cache_;
};

inline RowView::RowView(const Table& t, std::size_t row) noexcept
    : table_(&t), row_(row), n_(t.column_count()) {}

inline Value RowView::operator[](std::size_t j) const noexcept {
  return table_ != nullptr ? (*table_->cols_[j])[row_] : flat_[j];
}

inline Value RowView::iterator::operator*() const noexcept {
  return t_ != nullptr ? (*t_->cols_[i_])[row_] : flat_[i_];
}

}  // namespace ccsql
