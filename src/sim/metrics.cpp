#include "sim/metrics.hpp"

#include <algorithm>
#include <vector>

namespace greenps {

void DelayHistogram::record(SimTime delay) {
  // Sub-microsecond delays count as 1 us, preserving the historical floor.
  hist_.record(static_cast<double>(std::max<SimTime>(delay, 1)));
}

void MetricsCollector::on_delivery(BrokerId last_broker, int broker_hops, SimTime delay) {
  BrokerTraffic& t = traffic_[last_broker];
  t.local_deliveries += 1;
  t.hop_total += static_cast<std::uint64_t>(broker_hops);
  t.delay_total_s += to_seconds(delay);
  deliveries_ += 1;
  hop_total_ += static_cast<std::uint64_t>(broker_hops);
  delays_.record(delay);
}

double MetricsCollector::avg_hops() const {
  return deliveries_ == 0 ? 0.0
                          : static_cast<double>(hop_total_) / static_cast<double>(deliveries_);
}

double MetricsCollector::avg_delay_ms() const {
  if (deliveries_ == 0) return 0.0;
  // Reduce per-broker sums in ascending id order: the only deterministic
  // order for a floating-point total (see BrokerTraffic::delay_total_s).
  std::vector<const std::pair<const BrokerId, BrokerTraffic>*> entries;
  entries.reserve(traffic_.size());
  for (const auto& e : traffic_) entries.push_back(&e);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  double total_s = 0;
  for (const auto* e : entries) total_s += e->second.delay_total_s;
  return total_s * 1000.0 / static_cast<double>(deliveries_);
}

void MetricsCollector::reset() {
  traffic_.clear();
  publications_ = 0;
  deliveries_ = 0;
  hop_total_ = 0;
  delays_.reset();
}

}  // namespace greenps
