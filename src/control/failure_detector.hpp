// FailureDetector — phi-accrual failure detection over sampler heartbeats.
//
// The simulator's per-broker sampler rows double as heartbeats: a live
// broker produces one row per sampling period, a crashed one goes silent
// (Simulation::take_sample skips crashed brokers). The detector accrues
// suspicion the longer a broker stays silent, following the phi-accrual
// model of Hayashibara et al.: the inter-heartbeat gap is modeled as a
// normal distribution learned online per broker, and
//
//   phi(now) = -log10( P(next heartbeat arrives later than now) )
//
// so phi ~ 1 means "this silence had a 10% chance under normal jitter",
// phi ~ 6 means one in a million. Two thresholds map phi onto a health
// state machine (alive -> suspect -> dead); a structural min-missed floor
// guarantees zero false positives on a fault-free run, where the sampler
// is strictly periodic and every evaluation sees at most one period of
// silence. All state is driven by the caller's (heartbeat, evaluate) call
// sequence — no wall clock, no randomness — so detection is deterministic.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "common/ids.hpp"

namespace greenps::control {

enum class BrokerHealth { kAlive, kSuspect, kDead };
[[nodiscard]] const char* health_name(BrokerHealth h);

struct FailureDetectorConfig {
  // Heartbeat cadence the tracks are seeded with (the sampler period).
  // Learned inter-arrival statistics take over after a few beats.
  double expected_interval_s = 1.0;
  // Phi thresholds for the two transitions.
  double phi_suspect = 2.0;
  double phi_dead = 6.0;
  // Structural floors: a broker is never suspected (declared dead) before
  // this many expected intervals of silence, whatever phi says. With a
  // strictly periodic heartbeat an evaluation can race one period of
  // silence at most, so any floor > 1 makes fault-free false positives
  // impossible by construction.
  double min_missed_suspect = 2.0;
  double min_missed_dead = 3.0;
  // Variance floor (seconds): a perfectly periodic source would otherwise
  // learn sigma = 0 and fire on the first microsecond of silence.
  double min_std_s = 0.25;
  // EWMA weight for the learned inter-arrival mean/variance.
  double alpha = 0.2;
};

class FailureDetector {
 public:
  explicit FailureDetector(FailureDetectorConfig config = {}) : config_(config) {}

  [[nodiscard]] const FailureDetectorConfig& config() const { return config_; }

  // Replace the monitored set (call on every redeploy): brokers joining
  // start with a grace heartbeat at `now_s`, brokers leaving are dropped
  // along with their state.
  void watch(const std::vector<BrokerId>& brokers, double now_s);

  // One heartbeat observed from `b` at `at_s` (monotone per broker).
  void heartbeat(BrokerId b, double at_s);

  // Re-evaluate every watched broker's health at `now_s`.
  void evaluate(double now_s);

  [[nodiscard]] double phi(BrokerId b, double now_s) const;
  [[nodiscard]] BrokerHealth health(BrokerId b) const;
  // Time (the caller's clock) at which the broker transitioned to dead;
  // negative when it is not dead.
  [[nodiscard]] double dead_since(BrokerId b) const;

  // Currently-watched brokers in each state, ascending id.
  [[nodiscard]] std::vector<BrokerId> suspects() const;
  [[nodiscard]] std::vector<BrokerId> dead() const;

  // Cumulative transition counts (false-positive audits: a fault-free run
  // must end with both still zero).
  [[nodiscard]] std::size_t suspect_transitions() const { return suspect_transitions_; }
  [[nodiscard]] std::size_t dead_transitions() const { return dead_transitions_; }

 private:
  struct Track {
    double last_s = 0;       // most recent heartbeat
    double mean_s = 0;       // learned inter-arrival mean
    double var_s2 = 0;       // learned inter-arrival variance
    std::size_t beats = 0;   // heartbeats observed
    BrokerHealth health = BrokerHealth::kAlive;
    double dead_since = -1;
  };

  [[nodiscard]] double phi_of(const Track& t, double now_s) const;

  FailureDetectorConfig config_;
  // Ordered map: suspects()/dead() enumerate in ascending id without a sort.
  std::map<BrokerId, Track> tracks_;
  std::size_t suspect_transitions_ = 0;
  std::size_t dead_transitions_ = 0;
};

}  // namespace greenps::control
