#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

/// Fundamental integer types shared across the library.
///
/// The paper's key memory optimization (Section III-C) is that, after degree
/// separation and Algorithm-1 edge distribution, almost all vertex indices fit
/// in 32 bits *locally*: local normal vertices are bounded by n/p and
/// delegates by d.  Only destinations of normal-to-normal edges need global
/// 64-bit ids in the paper; here they are 32-bit per-GPU ghost ids too
/// (graph::GhostTable).  We keep both widths as distinct named types so
/// the narrowing points are explicit and testable.
namespace dsbfs {

/// Global vertex identifier (may exceed 2^32 at Graph500 scales >= 32).
using VertexId = std::uint64_t;

/// Local vertex identifier: a normal vertex's index within its owning GPU
/// (bounded by n/p) or a delegate id (bounded by d).
using LocalId = std::uint32_t;

/// Edge count / CSR offset type.
using EdgeId = std::uint64_t;

/// BFS hop distance.  -1 (as unsigned max) marks "unvisited".
using Depth = std::int32_t;

inline constexpr Depth kUnvisited = -1;

/// Invalid / sentinel local id.
inline constexpr LocalId kInvalidLocal = static_cast<LocalId>(-1);

/// Invalid / sentinel global vertex.
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// Unreached distance for weighted traversals (the identity of min, so
/// unreached vertices fall out of min-reductions automatically).
inline constexpr std::uint64_t kInfiniteDistance = static_cast<std::uint64_t>(-1);

/// Lane-batched algorithms key (item, lane) pairs by a 32-bit slot id,
/// item * stride + lane.  Throws std::overflow_error unless every slot of
/// `items` items at `stride` lanes each stays below kInvalidLocal; past
/// that bound slots would alias.
inline void check_slot_ids_fit(std::uint64_t items, std::uint64_t stride) {
  if (items > kInvalidLocal / stride) {
    throw std::overflow_error("(vertex, lane) slot ids exceed 32 bits");
  }
}

}  // namespace dsbfs
