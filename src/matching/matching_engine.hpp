// Broker-side filter store.
//
// Stores filters under opaque handles and compiles them into a dense,
// handle-ordered array of CompiledFilters. The routing table
// (broker/routing_tables) is the matcher: a publication that conforms to a
// registered advertisement scans that advertisement's candidate list, any
// other publication scans every compiled filter. There is no per-attribute
// index: in the PADRES model every publication conforms to its publisher's
// advertisement, so no routed publication would reach one (EXPERIMENTS.md,
// E10).
//
// Build-then-freeze: insert/remove only record each filter; compile() turns
// the whole set into an immutable array. It is built by one thread, then
// read as const by any number of threads at once — happens-before comes
// from whatever handed it over (thread start, a barrier), never from an
// atomic pointer. Matching touches only that array plus the thread_local
// walk counter.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "language/subscription.hpp"
#include "matching/compiled_filter.hpp"

namespace greenps {

class MatchingEngine {
 public:
  using Handle = std::uint64_t;

  // Insert a filter; `handle` must be unique among live entries.
  void insert(Handle handle, Filter filter);
  // Remove a previously inserted filter. Unknown handles are ignored.
  void remove(Handle handle);

  [[nodiscard]] std::size_t size() const { return filters_.size(); }
  [[nodiscard]] const Filter* find(Handle handle) const;

  // One stored filter in compiled form.
  struct Sub {
    Handle handle;
    CompiledFilter filter;
  };

  // Compile every stored filter, in ascending handle order.
  [[nodiscard]] std::vector<Sub> compile() const;

  // Number of candidate filters evaluated (CompiledFilter::matches calls)
  // by the calling thread, credited by the routing table. Test/bench hook
  // for the pruning invariant, mirroring
  // SubscriptionProfile::pairwise_walks(). Each matching thread accrues its
  // own walks.
  [[nodiscard]] static std::size_t match_walks();
  static void reset_match_walks();
  static void add_match_walks(std::size_t n);

 private:
  std::unordered_map<Handle, Filter> filters_;
};

}  // namespace greenps
