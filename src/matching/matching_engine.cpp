#include "matching/matching_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

namespace greenps {

namespace {

thread_local std::size_t t_match_walks = 0;
std::atomic<bool> g_index_enabled{true};

// Conservative numeric interval [lo, hi] implied by a filter's inequality
// predicates on one attribute. Bounds are inclusive even for strict
// operators — candidates are re-checked with the full filter, so widening
// is safe and keeps the stab test branch-free.
struct Bounds {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool bounded_below = false;
  bool bounded_above = false;
};

}  // namespace

std::size_t MatchingEngine::match_walks() { return t_match_walks; }
void MatchingEngine::reset_match_walks() { t_match_walks = 0; }
void MatchingEngine::add_match_walks(std::size_t n) { t_match_walks += n; }
void MatchingEngine::set_index_enabled(bool enabled) {
  g_index_enabled.store(enabled, std::memory_order_relaxed);
}
bool MatchingEngine::index_enabled() {
  return g_index_enabled.load(std::memory_order_relaxed);
}

const Predicate* MatchingEngine::pick_eq_predicate(const Filter& f) const {
  const Predicate* best = nullptr;
  std::size_t best_distinct = 0;
  for (const auto& p : f.predicates()) {
    if (p.op != Op::kEq) continue;
    std::size_t distinct = 0;
    const auto it = eq_keys_.find(Interner::global().find(p.attribute));
    if (it != eq_keys_.end()) distinct = it->second.size();
    // `>=` so later predicates win ties: subscription filters typically put
    // the broad class predicate first and the selective one after it.
    if (best == nullptr || distinct >= best_distinct) {
      best = &p;
      best_distinct = distinct;
    }
  }
  return best;
}

void MatchingEngine::insert(Handle handle, Filter filter) {
  remove(handle);  // replacing an entry must first drop its key count
  Entry e;
  e.filter = std::move(filter);
  if (const Predicate* p = pick_eq_predicate(e.filter)) {
    e.slot = Slot::kEq;
    e.index_attr = Interner::global().intern(p->attribute);
    e.eq_key = value_key(p->value);
    ++eq_keys_[e.index_attr][e.eq_key];
    entries_.insert_or_assign(handle, std::move(e));
    return;
  }

  // No equality predicate: look for a numeric interval to index under,
  // preferring the most constrained attribute (both bounds > one bound).
  std::unordered_map<InternId, Bounds> bounds;
  std::vector<InternId> order;  // deterministic preference order
  for (const auto& p : e.filter.predicates()) {
    if (!p.value.is_numeric()) continue;
    if (p.op != Op::kLt && p.op != Op::kLe && p.op != Op::kGt && p.op != Op::kGe) continue;
    const InternId attr = Interner::global().intern(p.attribute);
    auto [it, inserted] = bounds.try_emplace(attr);
    if (inserted) order.push_back(attr);
    Bounds& b = it->second;
    const double v = p.value.as_double();
    if (p.op == Op::kLt || p.op == Op::kLe) {
      b.hi = b.bounded_above ? std::min(b.hi, v) : v;
      b.bounded_above = true;
    } else {
      b.lo = b.bounded_below ? std::max(b.lo, v) : v;
      b.bounded_below = true;
    }
  }
  const InternId* best = nullptr;
  int best_score = -1;
  for (const InternId& attr : order) {
    const Bounds& b = bounds.at(attr);
    const int score = (b.bounded_below ? 1 : 0) + (b.bounded_above ? 1 : 0);
    if (score > best_score) {
      best = &attr;
      best_score = score;
    }
  }
  if (best != nullptr) {
    const Bounds& b = bounds.at(*best);
    e.slot = Slot::kInterval;
    e.index_attr = *best;
    e.lo = b.lo;
    e.hi = b.hi;
  }
  entries_.insert_or_assign(handle, std::move(e));
}

void MatchingEngine::remove(Handle handle) {
  const auto it = entries_.find(handle);
  if (it == entries_.end()) return;
  const Entry& e = it->second;
  if (e.slot == Slot::kEq) {
    auto& keys = eq_keys_.at(e.index_attr);
    if (const auto kit = keys.find(e.eq_key); --kit->second == 0) keys.erase(kit);
  }
  entries_.erase(it);
}

const Filter* MatchingEngine::find(Handle handle) const {
  const auto it = entries_.find(handle);
  return it == entries_.end() ? nullptr : &it->second.filter;
}

MatchingEngine::Index MatchingEngine::compile() const {
  Index ix;
  std::vector<Handle> order;
  order.reserve(entries_.size());
  for (const auto& [h, e] : entries_) {
    (void)e;
    order.push_back(h);
  }
  std::sort(order.begin(), order.end());
  ix.subs.reserve(order.size());
  for (const Handle h : order) {
    const Entry& e = entries_.at(h);
    const auto sub = static_cast<std::uint32_t>(ix.subs.size());
    ix.subs.push_back(Index::Sub{h, CompiledFilter(e.filter)});
    switch (e.slot) {
      case Slot::kScan:
        ix.scan_list.push_back(sub);
        break;
      case Slot::kEq:
        ix.attr_indexes[e.index_attr].eq[e.eq_key].push_back(sub);
        break;
      case Slot::kInterval:
        ix.attr_indexes[e.index_attr].intervals.push_back(Index::Interval{e.lo, e.hi, sub});
        break;
    }
  }
  // Dense indices ascend with handles, so (lo, hi, sub) orders ties by
  // handle.
  for (auto& [attr, ai] : ix.attr_indexes) {
    (void)attr;
    std::sort(ai.intervals.begin(), ai.intervals.end(),
              [](const Index::Interval& a, const Index::Interval& b) {
                return a.lo != b.lo ? a.lo < b.lo : (a.hi != b.hi ? a.hi < b.hi : a.sub < b.sub);
              });
  }
  return ix;
}

void MatchingEngine::Index::match_into(const Publication& pub,
                                       std::vector<std::uint32_t>& out) const {
  if (!MatchingEngine::index_enabled()) {
    for (std::uint32_t i = 0; i < subs.size(); ++i) {
      ++t_match_walks;
      if (subs[i].filter.matches(pub)) out.push_back(i);
    }
    return;
  }
  auto probe = [&](const std::vector<std::uint32_t>& cands) {
    for (const std::uint32_t i : cands) {
      ++t_match_walks;
      if (subs[i].filter.matches(pub)) out.push_back(i);
    }
  };
  for (const Publication::AttrKey& k : pub.attr_keys()) {
    const auto ait = attr_indexes.find(k.attr);
    if (ait == attr_indexes.end()) continue;
    const AttrIdx& index = ait->second;
    if (!index.eq.empty()) {
      const auto kit = index.eq.find(k.key);
      if (kit != index.eq.end()) probe(kit->second);
    }
    if (!index.intervals.empty() && k.key.tag == ValueKey::Tag::kNumber) {
      // Stab query: every interval with lo <= x is in the sorted prefix.
      const double x = std::bit_cast<double>(k.key.bits);
      const auto end = std::upper_bound(
          index.intervals.begin(), index.intervals.end(), x,
          [](double v, const Interval& iv) { return v < iv.lo; });
      for (auto iv = index.intervals.begin(); iv != end; ++iv) {
        if (iv->hi < x) continue;
        ++t_match_walks;
        if (subs[iv->sub].filter.matches(pub)) out.push_back(iv->sub);
      }
    }
  }
  probe(scan_list);
}

}  // namespace greenps
