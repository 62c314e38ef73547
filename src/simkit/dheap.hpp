// simkit/dheap.hpp
//
// d-ary heap primitives shared by the Lane event heap and the engine's
// NextEventIndex, both at kHeapFanout = 4. The arity stays a template
// parameter so the BM_HeapFanout micro benchmark can measure 2, 4 and 8
// side by side; it never changes the pop order.
//
// The sifts are hole-based (shift the displaced entry along the path and
// store it once) rather than swap-based: for the 24-byte Lane::HeapEntry
// that halves the stores per level. Every store goes through a
// `place(i, e)` hook: a plain store for the lane heap, a store plus a
// lane->slot map update for the NextEventIndex.
#pragma once

#include <cstddef>
#include <vector>

namespace sym::sim {

inline constexpr unsigned kHeapFanout = 4;

/// Move `e` from hole `i` toward the root; returns the slot it lands in.
/// `before(a, b)` is the strict ordering (min element at index 0);
/// `place(j, x)` stores `x` at slot `j`.
template <unsigned Arity, typename T, typename Before, typename Place>
std::size_t dheap_sift_up(std::vector<T>& h, std::size_t i, T e, Before before,
                          Place place) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / Arity;
    if (!before(e, h[parent])) break;
    place(i, h[parent]);
    i = parent;
  }
  place(i, e);
  return i;
}

/// Move `e` from hole `i` toward the leaves; returns the slot it lands in.
template <unsigned Arity, typename T, typename Before, typename Place>
std::size_t dheap_sift_down(std::vector<T>& h, std::size_t i, T e,
                            Before before, Place place) {
  const std::size_t n = h.size();
  while (true) {
    const std::size_t first_child = Arity * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + Arity < n ? first_child + Arity : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(h[c], h[best])) best = c;
    }
    if (!before(h[best], e)) break;
    place(i, h[best]);
    i = best;
  }
  place(i, e);
  return i;
}

/// Append `e` and restore the heap property.
template <unsigned Arity, typename T, typename Before>
void dheap_push(std::vector<T>& h, T e, Before before) {
  h.push_back(e);  // placeholder; overwritten by the hole shift
  dheap_sift_up<Arity>(h, h.size() - 1, e, before,
                       [&h](std::size_t i, const T& x) { h[i] = x; });
}

/// Remove and return the minimum (caller guarantees non-empty).
template <unsigned Arity, typename T, typename Before>
T dheap_pop(std::vector<T>& h, Before before) {
  T top = h.front();
  const T last = h.back();
  h.pop_back();
  if (!h.empty()) {
    dheap_sift_down<Arity>(h, 0, last, before,
                           [&h](std::size_t i, const T& x) { h[i] = x; });
  }
  return top;
}

}  // namespace sym::sim
