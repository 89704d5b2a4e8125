#include "broker/routing_tables.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "matching/relations.hpp"

namespace greenps {

namespace {
std::atomic<bool> g_adv_pruning_enabled{true};
}  // namespace

void SubscriptionRoutingTable::set_adv_pruning_enabled(bool enabled) {
  g_adv_pruning_enabled.store(enabled, std::memory_order_relaxed);
}
bool SubscriptionRoutingTable::adv_pruning_enabled() {
  return g_adv_pruning_enabled.load(std::memory_order_relaxed);
}

std::vector<SubscriptionRoutingTable::EqPred> SubscriptionRoutingTable::eq_preds(
    const Filter& f) {
  std::vector<EqPred> out;
  for (const Predicate& p : f.predicates()) {
    if (p.op != Op::kEq) continue;
    out.push_back(EqPred{Interner::global().intern(p.attribute), value_key(p.value)});
  }
  return out;
}

// Conservative disjointness: if both filters carry an equality predicate on
// the same attribute with different value keys, no publication value can
// equal both, so the filters share no matching publication. (Equal keys of
// different values exist only for NaN; keeping such a candidate is merely
// conservative.) This is far cheaper than a full intersects() — no filter
// normalization/copies — at the cost of a slightly wider candidate set for
// range-disjoint filters, which the per-candidate match re-check absorbs.
bool SubscriptionRoutingTable::eq_disjoint(const std::vector<EqPred>& a,
                                           const std::vector<EqPred>& b) {
  for (const EqPred& pa : a) {
    for (const EqPred& pb : b) {
      if (pa.attr == pb.attr && !(pa.key == pb.key)) return true;
    }
  }
  return false;
}

void SubscriptionRoutingTable::insert(SubId sub, const Filter& filter, Hop next_hop) {
  engine_.insert(sub.value(), filter);
  hops_.insert_or_assign(sub, next_hop);
  stale_ = true;
}

void SubscriptionRoutingTable::remove(SubId sub) {
  if (hops_.erase(sub) == 0) return;
  engine_.remove(sub.value());
  stale_ = true;
}

void SubscriptionRoutingTable::register_advertisement(AdvId id, const Filter& filter) {
  advs_.insert_or_assign(id, filter);
  stale_ = true;
}

void SubscriptionRoutingTable::freeze() {
  Table t;
  t.subs = engine_.compile();
  const std::size_t n = t.subs.size();
  t.hops.reserve(n);
  // Every engine handle has a hop (insert/remove keep them in sync).
  for (const auto& sub : t.subs) t.hops.push_back(hops_.at(SubId{sub.handle}));
  if (!advs_.empty()) {
    std::vector<std::vector<EqPred>> sub_eqs;
    sub_eqs.reserve(n);
    for (const auto& sub : t.subs) sub_eqs.push_back(eq_preds(*engine_.find(sub.handle)));
    t.advs.reserve(advs_.size());
    for (const auto& [id, filter] : advs_) {
      Table::AdvScope scope;
      scope.compiled = CompiledFilter(filter);
      const std::vector<EqPred> adv_eqs = eq_preds(filter);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!eq_disjoint(adv_eqs, sub_eqs[i])) scope.candidates.push_back(i);
      }
      t.advs.emplace(id, std::move(scope));
    }
  }
  table_ = std::move(t);
  stale_ = false;
}

void SubscriptionRoutingTable::finalize(MatchResult& result) {
  // Deterministic ordering for reproducible simulations; forwarding dedup is
  // one sort + unique instead of a quadratic std::find per hop.
  std::sort(result.forward_to.begin(), result.forward_to.end());
  result.forward_to.erase(std::unique(result.forward_to.begin(), result.forward_to.end()),
                          result.forward_to.end());
  std::sort(result.deliver.begin(), result.deliver.end());
}

void SubscriptionRoutingTable::match_into(const Publication& pub, const BrokerId* exclude,
                                          MatchResult& result) const {
  assert(!stale_ && "routing table mutated after freeze(); freeze it again before matching");
  result.clear();
  const Table& t = table_;
  auto visit = [&](std::uint32_t idx) {
    if (!t.subs[idx].filter.matches(pub)) return;
    const Hop& hop = t.hops[idx];
    if (hop.kind == Hop::Kind::kClient) {
      result.deliver.emplace_back(SubId{t.subs[idx].handle}, hop.client);
    } else {
      if (exclude != nullptr && hop.broker == *exclude) return;
      result.forward_to.push_back(hop.broker);
    }
  };
  const Table::AdvScope* scope = nullptr;
  if (adv_pruning_enabled() && pub.adv_id().valid()) {
    const auto it = t.advs.find(pub.adv_id());
    // Pruning applies only to conforming publications; anything else (or an
    // unknown advertisement) scans every compiled filter.
    if (it != t.advs.end() && it->second.compiled.matches(pub)) scope = &it->second;
  }
  if (scope != nullptr) {
    MatchingEngine::add_match_walks(scope->candidates.size());
    for (const std::uint32_t idx : scope->candidates) visit(idx);
  } else {
    const auto n = static_cast<std::uint32_t>(t.subs.size());
    MatchingEngine::add_match_walks(n);
    for (std::uint32_t idx = 0; idx < n; ++idx) visit(idx);
  }
  finalize(result);
}

void AdvertisementRoutingTable::insert(Advertisement adv, Hop last_hop) {
  remove(adv.id());
  entries_.push_back(Entry{std::move(adv), last_hop});
}

void AdvertisementRoutingTable::remove(AdvId id) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [id](const Entry& e) { return e.adv.id() == id; }),
                 entries_.end());
}

std::vector<Hop> AdvertisementRoutingTable::directions_for(const Filter& f) const {
  std::vector<Hop> out;
  for (const Entry& e : entries_) {
    if (!intersects(e.adv.filter(), f)) continue;
    if (std::find(out.begin(), out.end(), e.last_hop) == out.end()) {
      out.push_back(e.last_hop);
    }
  }
  return out;
}

}  // namespace greenps
