// Deterministic fault injection for the deployment simulator.
//
// A FaultSchedule is a seed-reproducible list of timed fault events —
// broker crashes/restarts, link outages, per-link message-drop windows and
// latency spikes — that the simulator arms onto its event queue. The
// runtime FaultState tracks which faults are currently active, records
// broker outage windows (consumed by the delivery-loss oracle), and counts
// everything that was dropped, detached or replayed so chaos runs are
// debuggable. With an empty schedule no fault event is armed and no random
// draw happens, so the event stream is bit-identical to a fault-free build.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace greenps {

enum class FaultKind {
  kBrokerCrash,    // broker drops queued publications and detaches clients
  kBrokerRestart,  // broker rejoins; buffered messages replay if enabled
  kLinkDown,       // broker-broker link stops carrying messages
  kLinkUp,         // link restored
  kLinkDrop,       // link drops each message with `drop_prob` (0 clears)
  kLatencySpike,   // every link hop gains `extra_latency` (0 clears)
};

[[nodiscard]] const char* fault_kind_name(FaultKind k);

struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kBrokerCrash;
  BrokerId broker{};          // crash/restart target; one endpoint of a link fault
  BrokerId peer{};            // other endpoint for link faults
  double drop_prob = 0;       // kLinkDrop only
  SimTime extra_latency = 0;  // kLatencySpike only
};

// An ordered, seed-reproducible fault script. Built either explicitly
// (tests) or by the chaos generator (benches). Events fire in (time,
// insertion-order) order, exactly like the simulator's event queue.
class FaultSchedule {
 public:
  FaultSchedule& crash(SimTime at, BrokerId b);
  FaultSchedule& restart(SimTime at, BrokerId b);
  // Crash at `at`, restart at `at + outage`.
  FaultSchedule& outage(SimTime at, SimTime outage_len, BrokerId b);
  FaultSchedule& link_down(SimTime at, BrokerId a, BrokerId b);
  FaultSchedule& link_up(SimTime at, BrokerId a, BrokerId b);
  // From `at`, drop each message crossing (a, b) with probability p; a
  // later call with p = 0 clears the fault.
  FaultSchedule& link_drop(SimTime at, BrokerId a, BrokerId b, double p);
  // From `at`, add `extra` to every broker-broker hop; extra = 0 clears.
  FaultSchedule& latency_spike(SimTime at, SimTime extra);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }

  // Randomized chaos script over [0, horizon). Every crash gets a matching
  // restart inside the horizon (open-ended outages are for explicit
  // schedules), and a broker is never crashed twice concurrently.
  struct ChaosConfig {
    double horizon_s = 60.0;
    std::size_t crashes = 2;
    double mean_outage_s = 5.0;
    std::size_t link_flaps = 0;       // down/up pairs on random links
    double mean_link_outage_s = 3.0;
    std::size_t drop_windows = 0;     // windows of probabilistic loss
    double drop_prob = 0.05;
    std::size_t latency_spikes = 0;
    double spike_extra_s = 0.02;
    double mean_spike_s = 2.0;
  };
  [[nodiscard]] static FaultSchedule chaos(
      const ChaosConfig& config, const std::vector<BrokerId>& brokers,
      const std::vector<std::pair<BrokerId, BrokerId>>& links, Rng& rng);

 private:
  std::vector<FaultEvent> events_;
};

// Everything dropped, detached or replayed while a schedule ran.
struct FaultStats {
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t link_downs = 0;
  std::uint64_t link_ups = 0;
  std::uint64_t pubs_dropped_at_source = 0;   // publisher's home was down
  std::uint64_t arrivals_dropped = 0;         // message reached a crashed broker
  std::uint64_t deliveries_dropped = 0;       // in-flight delivery, client detached
  std::uint64_t msgs_dropped_link_down = 0;
  std::uint64_t msgs_dropped_random = 0;      // probabilistic link drops
  std::uint64_t retransmits_replayed = 0;     // buffered messages re-injected
  std::uint64_t retransmit_overflow = 0;      // buffer cap hit; message lost
  // Degraded-mode admission control (FaultOptions::admission_control):
  std::uint64_t pubs_deferred_admission = 0;  // held at the door (backlog high)
  std::uint64_t pubs_readmitted = 0;          // deferred, later injected
  std::uint64_t pubs_shed_admission = 0;      // deferred-buffer cap hit; shed
};

// One broker outage as the loss oracle sees it. end < 0 = still down.
struct OutageWindow {
  BrokerId broker;
  SimTime begin = 0;
  SimTime end = -1;
};

// Live fault state, advanced by the simulator as scheduled FaultEvents
// fire. Lookups are O(1); link keys are order-independent.
class FaultState {
 public:
  // Advance the live state, counting the transition and recording outage
  // windows.
  void apply(const FaultEvent& ev);

  [[nodiscard]] bool is_crashed(BrokerId b) const { return crashed_.contains(b); }
  [[nodiscard]] bool link_is_down(BrokerId a, BrokerId b) const {
    return !down_links_.empty() && down_links_.contains(link_key(a, b));
  }
  // Per-message drop probability on (a, b); 0 when no drop fault is active.
  [[nodiscard]] double drop_prob(BrokerId a, BrokerId b) const;
  [[nodiscard]] SimTime extra_latency() const { return extra_latency_; }
  [[nodiscard]] std::size_t crashed_count() const { return crashed_.size(); }

  [[nodiscard]] FaultStats& stats() { return stats_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<OutageWindow>& outages() const { return outages_; }

  // True if `t` falls inside an outage of `b`, padding each window by
  // `slack_before` (covers messages already in flight when the crash hit).
  [[nodiscard]] bool in_outage(BrokerId b, SimTime t, SimTime slack_before = 0) const;

  void reset();  // new epoch: clears active faults, windows and counters

 private:
  // Order-independent exact link key (no truncation for 64-bit ids); the
  // ordered containers stay tiny (active faults only) and every lookup is
  // behind an empty() guard on the simulator's hot path.
  static std::pair<BrokerId, BrokerId> link_key(BrokerId a, BrokerId b) {
    return a.value() < b.value() ? std::pair{a, b} : std::pair{b, a};
  }

  std::unordered_set<BrokerId> crashed_;
  std::set<std::pair<BrokerId, BrokerId>> down_links_;
  std::map<std::pair<BrokerId, BrokerId>, double> drop_probs_;
  SimTime extra_latency_ = 0;
  std::vector<OutageWindow> outages_;
  FaultStats stats_;
};

// Knobs for how the simulator reacts to faults.
struct FaultOptions {
  // Buffer messages that arrive at a crashed broker and replay them when it
  // restarts (store-and-forward at the dead broker's neighbors). Without
  // it, everything a crashed broker would have carried is lost. Replayed
  // messages re-enter `reconnect_latency` after the restart.
  bool retransmit_on_reconnect = false;
  // Per-broker cap on buffered messages; overflow drops (counted in
  // FaultStats::retransmit_overflow and SimSummary::retransmit_overflow).
  // 0 (the default) derives each broker's cap from its profiled message
  // rate x the expected outage length x `retransmit_headroom`, clamped to
  // [1024, 1 << 20]; brokers with no profile data fall back to 65536.
  // Nonzero = one flat cap for every broker (the historical behavior).
  std::size_t max_retransmit_buffer = 0;
  // Outage length the derived caps are sized for. <= 0 = use the longest
  // crash-to-restart gap in the installed schedule (fallback: 5 s when the
  // schedule has no closed outage).
  double expected_outage_s = 0;
  // Safety factor on derived caps: profiles are averages, outages hit peaks.
  double retransmit_headroom = 2.0;

  // ---- degraded-mode admission control (self-healing control plane) ----
  // While a deployment is degraded (a broker died; survivors absorb its
  // traffic until the control plane re-homes clients), backlogs on the
  // surviving brokers grow without bound unless load is shed by priority.
  // Admission control sheds the lowest-priority class — NEW publisher
  // injections — at the door: when a publisher's home broker is backlogged
  // past `admission_backlog_s`, fresh publications are parked in a bounded
  // per-broker deferred buffer and re-injected once the backlog drains
  // below `admission_resume_s` (hysteresis). In-transit work (forwards,
  // deliveries, retransmit replays) is never shed. Every deferred message
  // is counted (FaultStats::pubs_deferred_admission) and, if the buffer
  // cap forces a shed, classified by the loss oracle as excused.
  bool admission_control = false;
  double admission_backlog_s = 1.5;   // defer when home backlog exceeds this
  double admission_resume_s = 0.5;    // re-admit below this (hysteresis)
  double admission_retry_s = 0.25;    // deferred-drain polling period
  std::size_t admission_max_deferred = 4096;  // per-broker buffer cap
  std::size_t admission_drain_batch = 32;     // re-admissions per drain tick
};

}  // namespace greenps
