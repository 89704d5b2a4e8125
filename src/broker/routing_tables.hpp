// Routing state of a filter-based publish/subscribe broker: the
// subscription routing table (SRT) steering publications toward subscribers
// and the publication/advertisement routing table (PRT) steering
// subscriptions toward matching advertisements.
//
// Build-then-freeze: routing state changes only when a deployment installs
// it. One thread fills a table (insert/remove/register_advertisement), then
// freeze() compiles it once into an immutable routing table — the matching
// engine's Index, a hop per compiled subscription and the advertisement
// scopes. match_into() reads only that compiled table, as const, from any
// number of threads at once; happens-before comes from the thread start
// (or other synchronization) that hands the frozen table over. A mutation after freeze() marks the table
// stale, and matching a stale table asserts in debug builds.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "language/advertisement.hpp"
#include "matching/matching_engine.hpp"

namespace greenps {

// Next hop of a routed message: either a neighbor broker or a locally
// attached client.
struct Hop {
  enum class Kind : std::uint8_t { kBroker, kClient };

  Kind kind = Kind::kBroker;
  BrokerId broker;
  ClientId client;

  [[nodiscard]] static Hop to_broker(BrokerId b) {
    Hop h;
    h.kind = Kind::kBroker;
    h.broker = b;
    return h;
  }
  [[nodiscard]] static Hop to_client(ClientId c) {
    Hop h;
    h.kind = Kind::kClient;
    h.client = c;
    return h;
  }

  friend bool operator==(const Hop&, const Hop&) = default;
};

class SubscriptionRoutingTable {
 public:
  struct MatchResult {
    // Unique neighbor brokers that need one copy of the publication.
    std::vector<BrokerId> forward_to;
    // Local subscriber deliveries: one copy per matching subscription.
    std::vector<std::pair<SubId, ClientId>> deliver;

    void clear() {
      forward_to.clear();
      deliver.clear();
    }
  };

  SubscriptionRoutingTable() = default;

  // Install or replace the routing entry for `sub`.
  void insert(SubId sub, const Filter& filter, Hop next_hop);
  void remove(SubId sub);

  // Announce an advertisement known at this broker. A conforming publication
  // from `id` (one matching the advertisement's filter) can only match
  // subscriptions compatible with it, so freeze() precomputes a
  // conservative candidate set per advertisement and matching scans only
  // those candidates. Non-conforming publications fall back to the full
  // index match, so registration never changes the match set.
  void register_advertisement(AdvId id, const Filter& filter);

  // Compile the current entries into the immutable table match_into()
  // reads. Call once after installing routing state (and again after any
  // later mutation).
  void freeze();
  // True when a mutation happened since the last freeze(): the compiled
  // table no longer reflects the entries.
  [[nodiscard]] bool stale() const { return stale_; }

  // Match a publication against the compiled table, optionally excluding
  // the broker link it arrived on (never forward a publication back where
  // it came from). `out` is cleared first; `scratch` is caller-owned. Safe
  // from any number of threads at once. The table must not be stale.
  void match_into(const Publication& pub, const BrokerId* exclude, MatchResult& out,
                  MatchScratch& scratch) const;

  // Convenience overload with call-local scratch (allocates; tests and cold
  // paths only).
  void match_into(const Publication& pub, const BrokerId* exclude, MatchResult& out) const {
    MatchScratch scratch;
    match_into(pub, exclude, out, scratch);
  }

  [[nodiscard]] MatchResult match(const Publication& pub,
                                  const BrokerId* exclude = nullptr) const {
    MatchResult out;
    match_into(pub, exclude, out);
    return out;
  }

  [[nodiscard]] std::size_t filter_count() const { return hops_.size(); }
  [[nodiscard]] bool contains(SubId sub) const { return hops_.contains(sub); }

  // Test hook: disable advertisement-scoped candidate pruning process-wide
  // (the determinism test asserts identical results either way). The flag
  // is atomic; flip it only while no match is in flight.
  static void set_adv_pruning_enabled(bool enabled);
  [[nodiscard]] static bool adv_pruning_enabled();

 private:
  // One equality predicate of a filter in interned form, for the
  // candidate-set disjointness test: two filters with equality predicates on
  // the same attribute but different values can never match the same
  // publication.
  struct EqPred {
    InternId attr = kNoIntern;
    ValueKey key;
  };

  // The compiled table: the engine index (dense subs in ascending handle
  // order), a hop per dense sub, and per advertisement its conformance
  // check plus candidates as dense indices.
  struct Table {
    struct AdvScope {
      CompiledFilter compiled;
      std::vector<std::uint32_t> candidates;  // dense, ascending handle
    };

    MatchingEngine::Index index;
    std::vector<Hop> hops;  // parallel to index.subs
    std::unordered_map<AdvId, AdvScope> advs;
  };

  [[nodiscard]] static std::vector<EqPred> eq_preds(const Filter& f);
  [[nodiscard]] static bool eq_disjoint(const std::vector<EqPred>& a,
                                        const std::vector<EqPred>& b);
  static void finalize(MatchResult& out);

  MatchingEngine engine_;
  std::unordered_map<SubId, Hop> hops_;
  std::unordered_map<AdvId, Filter> advs_;
  Table table_;
  bool stale_ = false;
};

class AdvertisementRoutingTable {
 public:
  struct Entry {
    Advertisement adv;
    Hop last_hop;  // direction toward the publisher
  };

  void insert(Advertisement adv, Hop last_hop);
  void remove(AdvId id);

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  // Directions (deduplicated) toward every advertisement intersecting `f`.
  [[nodiscard]] std::vector<Hop> directions_for(const Filter& f) const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace greenps
