#pragma once

// The monolithic solver: the paper's baseline for incremental generation
// and the differential oracle for src/solver.  It filters through the
// interpreted walk, so its equivalence tests compare two predicate engines.

#include <cstdint>

#include "relational/table.hpp"
#include "solver/generator.hpp"

namespace ccsql::naive {

/// Product of domain sizes: the size of the unsolved cross product the
/// monolithic strategy enumerates (saturates at uint64 max).
[[nodiscard]] std::uint64_t cross_cardinality(const GenerationInput& input);

/// Monolithic generation: enumerate the full cross product of all domains
/// (without materializing it) and keep rows satisfying the conjunction of
/// all constraints.  Exponential in the column count; exists as the paper's
/// baseline and as a differential-testing oracle for the incremental path.
[[nodiscard]] Table generate_monolithic(const GenerationInput& input);

}  // namespace ccsql::naive
