// Broker-side matching engine.
//
// Stores filters under opaque handles and compiles them into an index that,
// given a publication, returns all matching filters. The index is typed per
// attribute and keyed on interned ids (no string construction on the match
// path):
//
//   - equality: filters carrying an equality predicate are bucketed under
//     one (attribute id, value key) pair — the engine adaptively picks the
//     attribute with the highest observed selectivity;
//   - numeric intervals: range-only filters (e.g. `[volume,>,1000]`) are
//     indexed under one attribute's conservative [lo, hi] interval, sorted
//     by lower bound, so a match stabs the interval list instead of
//     brute-forcing the scan list;
//   - residual scan list: only filters with neither an equality nor a
//     numeric range predicate (pure string operators, negation, presence).
//
// Every probed candidate is confirmed with a full filter match, so the
// indexes only need to be conservative (never miss a possible match).
//
// Build-then-freeze: insert/remove only record each filter and its index
// slot, chosen at insert time; compile() turns the whole set into an
// immutable Index (dense candidate arrays). The Index is the only matcher.
// It is built by one thread, then read as const by any number of threads
// at once — happens-before comes from whatever handed it over (thread
// start, a barrier), never from an atomic pointer. Matching touches only
// the Index plus thread_local counters.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "language/interner.hpp"
#include "language/publication.hpp"
#include "language/subscription.hpp"
#include "matching/compiled_filter.hpp"

namespace greenps {

// Caller-owned scratch for the allocation-free match path. Each matching
// thread (simulation shard, test thread) owns one and reuses it across
// calls; nothing in the engine or routing table retains state between
// matches, which is what makes the const read path data-race free.
struct MatchScratch {
  std::vector<std::uint32_t> dense;  // compiled-index candidate indices
};

class MatchingEngine {
 public:
  using Handle = std::uint64_t;

  // Insert a filter; `handle` must be unique among live entries.
  void insert(Handle handle, Filter filter);
  // Remove a previously inserted filter. Unknown handles are ignored.
  void remove(Handle handle);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Filter* find(Handle handle) const;

  // Immutable, self-contained compiled form of the typed indexes, with
  // candidates as dense indices into `subs` (ascending handle order).
  // Matching touches only the Index itself plus thread_local counters, so
  // any number of threads can match one concurrently.
  struct Index {
    struct Sub {
      Handle handle;
      CompiledFilter filter;
    };
    struct Interval {
      double lo;  // conservative, inclusive bounds
      double hi;
      std::uint32_t sub;
    };
    struct AttrIdx {
      std::unordered_map<ValueKey, std::vector<std::uint32_t>, ValueKeyHash> eq;
      std::vector<Interval> intervals;  // sorted by (lo, hi, handle)
    };

    std::vector<Sub> subs;  // ascending handle
    std::unordered_map<InternId, AttrIdx> attr_indexes;
    std::vector<std::uint32_t> scan_list;

    // Appends the dense indices of all matching subs to `out` (not
    // cleared).
    void match_into(const Publication& pub, std::vector<std::uint32_t>& out) const;
  };

  // Compile every stored filter into an Index. Each filter keeps the slot
  // chosen when it was inserted.
  [[nodiscard]] Index compile() const;

  // Number of candidate filters evaluated (Filter::matches calls) by the
  // calling thread. Test/bench hook for the index-pruning invariant,
  // mirroring SubscriptionProfile::pairwise_walks(). Each matching thread
  // accrues its own walks; the sharded simulator harvests them per worker
  // slot so totals stay invariant.
  [[nodiscard]] static std::size_t match_walks();
  static void reset_match_walks();
  // Credit `n` candidate evaluations done outside the engine (the routing
  // table's advertisement-scoped fast path) to the same counter.
  static void add_match_walks(std::size_t n);

  // Test hook: disable the typed indexes process-wide and brute-force every
  // compiled filter instead. The match *set* is identical either way; the
  // determinism and differential tests assert exactly that. The flag is
  // atomic (safe to read from matching threads); flip it only while no
  // match is in flight or the walk-count accounting of concurrent matches
  // becomes unpredictable.
  static void set_index_enabled(bool enabled);
  [[nodiscard]] static bool index_enabled();

 private:
  enum class Slot : std::uint8_t { kScan, kEq, kInterval };

  struct Entry {
    Filter filter;
    Slot slot = Slot::kScan;
    InternId index_attr = kNoIntern;
    ValueKey eq_key;  // slot == kEq
    double lo = 0;    // slot == kInterval: conservative, inclusive bounds
    double hi = 0;
  };

  // Selectivity heuristic: prefer bucketing under the equality attribute
  // with the most distinct values observed so far.
  [[nodiscard]] const Predicate* pick_eq_predicate(const Filter& f) const;

  std::unordered_map<Handle, Entry> entries_;
  // Distinct equality keys per attribute, each with the number of stored
  // filters bucketed under it — the "observed so far" of the heuristic.
  std::unordered_map<InternId, std::unordered_map<ValueKey, std::size_t, ValueKeyHash>>
      eq_keys_;
};

}  // namespace greenps
