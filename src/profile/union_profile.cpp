#include "profile/union_profile.hpp"

#include <algorithm>

namespace greenps {

namespace {

thread_local std::size_t t_probe_walks = 0;

// Exact replica of SubscriptionProfile::set_fraction with the set-bit count
// supplied by the caller (cached for the union side).
double fraction(std::size_t set, MessageSeq first_id, std::size_t capacity,
                const PublisherProfile& pub) {
  if (set == 0) return 0.0;
  MessageSeq observed = pub.last_seq >= first_id ? pub.last_seq - first_id + 1
                                                 : static_cast<MessageSeq>(set);
  observed = std::min<MessageSeq>(observed, static_cast<MessageSeq>(capacity));
  observed = std::max<MessageSeq>(observed, static_cast<MessageSeq>(set));
  return static_cast<double>(set) / static_cast<double>(observed);
}

// One common publisher's contribution to the intersection rate. The larger
// observed window of the two operands is the denominator; the intersection
// cannot out-fraction either operand.
MsgRate adv_rate(const UnionProfile::Entry& e, const WindowedBitVector& vb,
                 const PublisherProfile& pub) {
  const std::size_t common = WindowedBitVector::intersect_count(e.bits, vb);
  if (common == 0) return 0;
  const double fa = fraction(e.count, e.bits.first_id(), e.bits.capacity(), pub);
  const double fb = SubscriptionProfile::set_fraction(vb, pub);
  const double denom_a = fa > 0 ? static_cast<double>(e.count) / fa : 1.0;
  const double denom_b = fb > 0 ? static_cast<double>(vb.count()) / fb : 1.0;
  const double denom = std::max({denom_a, denom_b, static_cast<double>(common)});
  return pub.rate_msg_s * static_cast<double>(common) / denom;
}

const PublisherProfile* resolve(const PublisherTable& table, AdvId adv) {
  const auto it = table.find(adv);
  return it == table.end() ? nullptr : &it->second;
}

}  // namespace

std::size_t UnionProfile::probe_walks() { return t_probe_walks; }
void UnionProfile::reset_probe_walks() { t_probe_walks = 0; }

MsgRate UnionProfile::intersection_rate(const SubscriptionProfile& p) const {
  ++t_probe_walks;
  MsgRate total = 0;
  auto ie = entries_.begin();
  const auto& vecs = p.vectors();
  auto ip = vecs.begin();
  while (ie != entries_.end() && ip != vecs.end()) {
    if (ie->adv < ip->first) {
      ++ie;
    } else if (ip->first < ie->adv) {
      ++ip;
    } else {
      if (ie->pub != nullptr) total += adv_rate(*ie, ip->second, *ie->pub);
      ++ie;
      ++ip;
    }
  }
  return total;
}

void UnionProfile::merge(const SubscriptionProfile& p, const PublisherTable& table) {
  std::size_t i = 0;
  for (const auto& [adv, v] : p.vectors()) {
    while (i < entries_.size() && entries_[i].adv < adv) ++i;
    if (i < entries_.size() && entries_[i].adv == adv) {
      Entry& e = entries_[i];
      e.bits.merge(v);
      e.count = e.bits.count();
    } else {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      Entry{adv, v, v.count(), resolve(table, adv)});
    }
    ++i;
  }
}

MsgRate UnionProfile::merge_with_rate(const SubscriptionProfile& p,
                                      const PublisherTable& table) {
  ++t_probe_walks;
  MsgRate total = 0;
  std::size_t i = 0;
  for (const auto& [adv, v] : p.vectors()) {
    while (i < entries_.size() && entries_[i].adv < adv) ++i;
    if (i < entries_.size() && entries_[i].adv == adv) {
      Entry& e = entries_[i];
      if (e.pub != nullptr) total += adv_rate(e, v, *e.pub);
      e.bits.merge(v);
      e.count = e.bits.count();
    } else {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      Entry{adv, v, v.count(), resolve(table, adv)});
    }
    ++i;
  }
  return total;
}

SubscriptionProfile UnionProfile::to_subscription_profile() const {
  SubscriptionProfile out;
  for (const Entry& e : entries_) out.merge_vector(e.adv, e.bits);
  return out;
}

}  // namespace greenps
