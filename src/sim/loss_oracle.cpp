#include "sim/loss_oracle.hpp"

#include <map>
#include <utility>

namespace greenps {

LossAudit audit_losses(const Simulation& sim, StockQuoteGenerator quotes,
                       const LossAuditOptions& options) {
  LossAudit audit;
  const auto& ledger = sim.publish_ledger();
  if (ledger.empty()) return audit;

  struct Row {
    SimTime at = 0;
    bool dropped_at_source = false;
  };
  std::map<AdvId, std::map<MessageSeq, Row>> rows;
  for (const auto& r : ledger) rows[r.adv][r.seq] = {r.at, r.dropped_at_source};

  // Regenerate the publications behind every ledger row. Quote draw k for a
  // symbol is publication seq k; sequence counters survive redeploys, so
  // draws below the epoch's first ledger seq are consumed (they belong to
  // earlier epochs) but not audited.
  std::map<AdvId, std::map<MessageSeq, Publication>> pubs;
  std::map<AdvId, BrokerId> pub_home;
  for (const auto& p : sim.deployment().publishers) {
    const auto rit = rows.find(p.adv);
    if (rit == rows.end()) continue;
    pub_home[p.adv] = p.home;
    const MessageSeq last = rit->second.rbegin()->first;
    auto& dst = pubs[p.adv];
    for (MessageSeq s = 0; s <= last; ++s) {
      Publication pub = quotes.next(p.symbol);
      if (!rit->second.contains(s)) continue;
      pub.set_header(p.adv, s);
      dst.emplace(s, std::move(pub));
    }
  }

  const auto pending = sim.pending_retransmits();
  const auto deferred = sim.pending_admissions();
  const auto& shed = sim.shed_publications();
  const auto& stranded = sim.stranded_messages();
  const FaultState& faults = sim.fault_state();
  const SimTime horizon = sim.now_us();

  for (const auto& s : sim.deployment().subscribers) {
    const BrokerInfo info = sim.broker_info(s.home);
    const LocalSubscriptionInfo* local = nullptr;
    for (const auto& ls : info.subscriptions) {
      if (ls.id == s.sub) {
        local = &ls;
        break;
      }
    }
    for (const auto& [adv, seq_pubs] : pubs) {
      const WindowedBitVector* v =
          local != nullptr ? local->profile.vector_for(adv) : nullptr;
      for (const auto& [seq, pub] : seq_pubs) {
        if (v != nullptr && v->anchored() && seq < v->first_id()) {
          audit.out_of_window += 1;
          continue;
        }
        const bool matches = s.filter.matches(pub);
        const bool bit = v != nullptr && v->test_seq(seq);
        if (bit && !matches) {
          audit.false_positives += 1;
          continue;
        }
        if (!matches) continue;
        audit.expected += 1;
        if (bit) {
          audit.recorded += 1;
          continue;
        }
        const Row& row = rows[adv][seq];
        const bool excused =
            row.dropped_at_source ||
            faults.in_outage(s.home, row.at, options.outage_slack) ||
            faults.in_outage(pub_home[adv], row.at, options.outage_slack) ||
            pending.contains({adv, seq}) ||
            // Degraded-mode admission control: parked at the door (still
            // deliverable), or shed under backpressure (accounted loss).
            deferred.contains({adv, seq}) || shed.contains({adv, seq}) ||
            // Swept out of a buffer by a redeploy that decommissioned the
            // buffering broker: attributable to the fault, not the router.
            stranded.contains({adv, seq}) ||
            row.at + options.horizon_slack >= horizon;
        if (excused) {
          audit.excused += 1;
        } else {
          audit.real_losses.push_back({s.sub, adv, seq, row.at});
        }
      }
    }
  }
  return audit;
}

}  // namespace greenps
