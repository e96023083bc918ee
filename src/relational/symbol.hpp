#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace ccsql {

/// An interned string.
///
/// All values stored in tables, all column names, and all literals appearing
/// in constraints are interned in a process-wide pool so that rows can be
/// stored and compared as fixed-width integers.  Symbol id 0 is reserved for
/// SQL NULL (see Value); user strings always intern to ids >= 1.
///
/// Interning is thread-safe; lookups of already-interned strings take a
/// shared lock only.
class Symbol {
 public:
  /// Constructs the reserved NULL symbol.
  constexpr Symbol() noexcept : id_(0) {}

  /// Interns `text` and returns its symbol.  Interning the same text twice
  /// yields equal symbols.  The empty string and the literal text "NULL" both
  /// intern to the reserved NULL symbol.
  static Symbol intern(std::string_view text);

  /// Returns the symbol for `text` if it has been interned before, otherwise
  /// the NULL symbol.  Never allocates.
  static Symbol lookup(std::string_view text) noexcept;

  /// The interned text.  NULL renders as "NULL".
  [[nodiscard]] std::string_view str() const noexcept;

  [[nodiscard]] constexpr bool is_null() const noexcept { return id_ == 0; }
  [[nodiscard]] constexpr std::uint32_t id() const noexcept { return id_; }

  friend constexpr bool operator==(Symbol a, Symbol b) noexcept {
    return a.id_ == b.id_;
  }
  friend constexpr bool operator!=(Symbol a, Symbol b) noexcept {
    return a.id_ != b.id_;
  }
  /// Orders by interning id (stable within a process run, not alphabetical).
  friend constexpr bool operator<(Symbol a, Symbol b) noexcept {
    return a.id_ < b.id_;
  }

 private:
  constexpr explicit Symbol(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

}  // namespace ccsql

template <>
struct std::hash<ccsql::Symbol> {
  std::size_t operator()(ccsql::Symbol s) const noexcept {
    return std::hash<std::uint32_t>{}(s.id());
  }
};
