#pragma once

#include <array>
#include <string_view>

#include "relational/value.hpp"

namespace ccsql {

/// Node roles of a protocol transaction (paper, Figure 2): the node that
/// initiates the request (local), the node owning the memory/directory for
/// the line (home), and the nodes that may hold cached copies (remote).
/// All message source/destination columns and the virtual channel assignment
/// table V are expressed in these roles.
namespace roles {

inline constexpr std::string_view kLocal = "local";
inline constexpr std::string_view kHome = "home";
inline constexpr std::string_view kRemote = "remote";

// Interned once per process: placement substitution asks for these on every
// candidate dependency row.
inline Value local() {
  static const Value v = Symbol::intern(kLocal);
  return v;
}
inline Value home() {
  static const Value v = Symbol::intern(kHome);
  return v;
}
inline Value remote() {
  static const Value v = Symbol::intern(kRemote);
  return v;
}

inline std::array<Value, 3> all() { return {local(), home(), remote()}; }

inline bool is_role(Value v) {
  return v == local() || v == home() || v == remote();
}

}  // namespace roles

/// The five quad-placement relations of the paper (section 4.1): which of
/// the local (L), home (H) and remote (R) roles share a quad.  Dependency
/// composition is repeated under every placement, with co-located roles
/// identified.
enum class QuadPlacement {
  kAllDistinct,   // L != H != R
  kAllSame,       // L = H = R
  kLocalHome,     // L = H != R
  kHomeRemote,    // L != H = R
  kLocalRemote,   // L = R != H
};

inline constexpr std::array<QuadPlacement, 5> kAllPlacements = {
    QuadPlacement::kAllDistinct, QuadPlacement::kAllSame,
    QuadPlacement::kLocalHome, QuadPlacement::kHomeRemote,
    QuadPlacement::kLocalRemote};

std::string_view to_string(QuadPlacement p) noexcept;

/// Maps a role value to its canonical representative under `p` (co-located
/// roles map to the same representative).  Non-role values pass through.
Value place_role(QuadPlacement p, Value role);

}  // namespace ccsql
