#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace greenps {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kBrokerCrash: return "crash";
    case FaultKind::kBrokerRestart: return "restart";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kLinkDrop: return "link_drop";
    case FaultKind::kLatencySpike: return "latency_spike";
  }
  return "?";
}

FaultSchedule& FaultSchedule::crash(SimTime at, BrokerId b) {
  events_.push_back(FaultEvent{at, FaultKind::kBrokerCrash, b, {}, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::restart(SimTime at, BrokerId b) {
  events_.push_back(FaultEvent{at, FaultKind::kBrokerRestart, b, {}, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::outage(SimTime at, SimTime outage_len, BrokerId b) {
  crash(at, b);
  restart(at + outage_len, b);
  return *this;
}

FaultSchedule& FaultSchedule::link_down(SimTime at, BrokerId a, BrokerId b) {
  events_.push_back(FaultEvent{at, FaultKind::kLinkDown, a, b, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::link_up(SimTime at, BrokerId a, BrokerId b) {
  events_.push_back(FaultEvent{at, FaultKind::kLinkUp, a, b, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::link_drop(SimTime at, BrokerId a, BrokerId b, double p) {
  events_.push_back(FaultEvent{at, FaultKind::kLinkDrop, a, b, p, 0});
  return *this;
}

FaultSchedule& FaultSchedule::latency_spike(SimTime at, SimTime extra) {
  events_.push_back(FaultEvent{at, FaultKind::kLatencySpike, {}, {}, 0, extra});
  return *this;
}

FaultSchedule FaultSchedule::chaos(const ChaosConfig& config,
                                   const std::vector<BrokerId>& brokers,
                                   const std::vector<std::pair<BrokerId, BrokerId>>& links,
                                   Rng& rng) {
  FaultSchedule s;
  const SimTime horizon = seconds(config.horizon_s);
  if (horizon <= 0) return s;

  // Crash/restart pairs; a broker is never crashed again before its restart.
  std::unordered_map<BrokerId, SimTime> busy_until;
  for (std::size_t i = 0; i < config.crashes && !brokers.empty(); ++i) {
    const BrokerId b = brokers[rng.index(brokers.size())];
    // Crash inside the first 70% of the horizon so the restart (and some
    // recovery traffic) fits before the end.
    const SimTime at = static_cast<SimTime>(
        rng.uniform_real(0.05, 0.70) * static_cast<double>(horizon));
    if (at < busy_until[b]) continue;  // deterministic skip, not a retry
    SimTime len = seconds(rng.uniform_real(0.3, 1.7) * config.mean_outage_s);
    len = std::clamp<SimTime>(len, seconds(0.05), horizon - at - horizon / 10);
    if (len <= 0) continue;
    s.outage(at, len, b);
    busy_until[b] = at + len;
  }

  for (std::size_t i = 0; i < config.link_flaps && !links.empty(); ++i) {
    const auto [a, b] = links[rng.index(links.size())];
    const SimTime at = static_cast<SimTime>(
        rng.uniform_real(0.05, 0.70) * static_cast<double>(horizon));
    SimTime len = seconds(rng.uniform_real(0.3, 1.7) * config.mean_link_outage_s);
    len = std::clamp<SimTime>(len, seconds(0.05), horizon - at - horizon / 10);
    if (len <= 0) continue;
    s.link_down(at, a, b);
    s.link_up(at + len, a, b);
  }

  for (std::size_t i = 0; i < config.drop_windows && !links.empty(); ++i) {
    const auto [a, b] = links[rng.index(links.size())];
    const SimTime at = static_cast<SimTime>(
        rng.uniform_real(0.05, 0.80) * static_cast<double>(horizon));
    const SimTime len = std::max<SimTime>(
        seconds(rng.uniform_real(0.3, 1.7) * config.mean_link_outage_s), seconds(0.05));
    s.link_drop(at, a, b, config.drop_prob);
    s.link_drop(std::min(at + len, horizon - 1), a, b, 0.0);
  }

  for (std::size_t i = 0; i < config.latency_spikes; ++i) {
    const SimTime at = static_cast<SimTime>(
        rng.uniform_real(0.05, 0.80) * static_cast<double>(horizon));
    const SimTime len = std::max<SimTime>(
        seconds(rng.uniform_real(0.3, 1.7) * config.mean_spike_s), seconds(0.05));
    s.latency_spike(at, seconds(config.spike_extra_s));
    s.latency_spike(std::min(at + len, horizon - 1), 0);
  }

  // Stable order: by time, ties by insertion (matches the event queue).
  std::stable_sort(s.events_.begin(), s.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return s;
}

void FaultState::apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kBrokerCrash:
      if (crashed_.insert(ev.broker).second) {
        stats_.crashes += 1;
        outages_.push_back(OutageWindow{ev.broker, ev.at, -1});
      }
      break;
    case FaultKind::kBrokerRestart:
      if (crashed_.erase(ev.broker) > 0) {
        stats_.restarts += 1;
        // Close the most recent open window for this broker.
        for (auto it = outages_.rbegin(); it != outages_.rend(); ++it) {
          if (it->broker == ev.broker && it->end < 0) {
            it->end = ev.at;
            break;
          }
        }
      }
      break;
    case FaultKind::kLinkDown:
      if (down_links_.insert(link_key(ev.broker, ev.peer)).second) {
        stats_.link_downs += 1;
      }
      break;
    case FaultKind::kLinkUp:
      if (down_links_.erase(link_key(ev.broker, ev.peer)) > 0) stats_.link_ups += 1;
      break;
    case FaultKind::kLinkDrop:
      if (ev.drop_prob > 0) {
        drop_probs_[link_key(ev.broker, ev.peer)] = ev.drop_prob;
      } else {
        drop_probs_.erase(link_key(ev.broker, ev.peer));
      }
      break;
    case FaultKind::kLatencySpike:
      extra_latency_ = ev.extra_latency;
      break;
  }
}

double FaultState::drop_prob(BrokerId a, BrokerId b) const {
  if (drop_probs_.empty()) return 0;
  const auto it = drop_probs_.find(link_key(a, b));
  return it != drop_probs_.end() ? it->second : 0;
}

bool FaultState::in_outage(BrokerId b, SimTime t, SimTime slack_before) const {
  for (const OutageWindow& w : outages_) {
    if (w.broker != b) continue;
    if (t >= w.begin - slack_before && (w.end < 0 || t <= w.end)) return true;
  }
  return false;
}

void FaultState::reset() {
  crashed_.clear();
  down_links_.clear();
  drop_probs_.clear();
  extra_latency_ = 0;
  outages_.clear();
  stats_ = FaultStats{};
}

}  // namespace greenps
