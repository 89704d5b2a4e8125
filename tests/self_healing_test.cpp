// The self-healing control plane's contract, from the phi-accrual detector
// up to the closed loop:
//
//   - Detection: suspicion accrues with silence, the structural min-missed
//     floors make fault-free false positives impossible, a heartbeat clears
//     any suspicion, and death is sticky until the topology moves on.
//   - Recovery: a confirmed death overrides the load controller — the loop
//     plans around the dead broker (quarantined from CROC's pool AND its
//     reserve), re-homes the orphaned clients with a bounded-migration
//     plan (survivors whose broker lives on do not move), and applies
//     transactionally.
//   - Resilience: a second broker dying inside the recovery apply rolls
//     back, backs off, and the re-plan converges with every casualty
//     evicted — and the per-epoch loss audits stay clean throughout.
//   - Degraded mode: while survivors absorb a dead peer's load, admission
//     control sheds new publisher injections (the lowest-priority class) at
//     the door instead of growing unbounded backlogs; everything deferred,
//     re-admitted or shed is accounted in FaultStats/SimSummary and the
//     loss oracle classifies it as excused.
//   - Determinism: the whole crash -> detect -> recover trajectory is
//     bit-identical across repeated runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "control/control_loop.hpp"
#include "control/failure_detector.hpp"
#include "croc/reconfig_plan.hpp"
#include "scenario/scenario.hpp"
#include "sim/faults.hpp"
#include "sim/loss_oracle.hpp"
#include "sim/simulation.hpp"

namespace greenps::control {
namespace {

// --- FailureDetector unit tests ----------------------------------------

TEST(FailureDetector, PhiAccruesWithSilenceAndThresholdsFire) {
  FailureDetector fd;  // expected interval 1 s, suspect >= 2 missed, dead >= 3
  const BrokerId b{7};
  fd.watch({b}, 0.0);
  for (int t = 1; t <= 20; ++t) fd.heartbeat(b, static_cast<double>(t));

  // Fresh silence: phi is tiny and monotone in the gap.
  EXPECT_LT(fd.phi(b, 20.5), 1.0);
  EXPECT_LT(fd.phi(b, 21.0), fd.phi(b, 22.0));
  EXPECT_LT(fd.phi(b, 22.0), fd.phi(b, 23.0));

  // Under the min-missed floor nothing fires, whatever phi says.
  fd.evaluate(21.5);
  EXPECT_EQ(fd.health(b), BrokerHealth::kAlive);

  fd.evaluate(22.2);  // > 2 expected intervals of silence
  EXPECT_EQ(fd.health(b), BrokerHealth::kSuspect);
  EXPECT_EQ(fd.suspects(), std::vector<BrokerId>{b});
  EXPECT_EQ(fd.suspect_transitions(), 1u);
  EXPECT_EQ(fd.dead_transitions(), 0u);

  fd.evaluate(23.5);  // > 3 expected intervals
  EXPECT_EQ(fd.health(b), BrokerHealth::kDead);
  EXPECT_EQ(fd.dead(), std::vector<BrokerId>{b});
  EXPECT_EQ(fd.dead_since(b), 23.5);
  EXPECT_EQ(fd.dead_transitions(), 1u);

  // Death is sticky across further evaluations.
  fd.evaluate(30.0);
  EXPECT_EQ(fd.health(b), BrokerHealth::kDead);
  EXPECT_EQ(fd.dead_since(b), 23.5);
  EXPECT_EQ(fd.dead_transitions(), 1u);

  // ...until the broker is heard from again.
  fd.heartbeat(b, 31.0);
  EXPECT_EQ(fd.health(b), BrokerHealth::kAlive);
  EXPECT_LT(fd.dead_since(b), 0.0);
}

TEST(FailureDetector, HeartbeatClearsSuspicionWithoutDeathTransition) {
  FailureDetector fd;
  const BrokerId b{3};
  fd.watch({b}, 0.0);
  for (int t = 1; t <= 10; ++t) fd.heartbeat(b, static_cast<double>(t));
  fd.evaluate(12.5);
  ASSERT_EQ(fd.health(b), BrokerHealth::kSuspect);

  // One delayed heartbeat: suspicion clears, and the learned window widens
  // instead of the detector flapping straight back to suspect.
  fd.heartbeat(b, 12.6);
  EXPECT_EQ(fd.health(b), BrokerHealth::kAlive);
  fd.evaluate(13.6);
  EXPECT_EQ(fd.health(b), BrokerHealth::kAlive);
  EXPECT_EQ(fd.dead_transitions(), 0u);
}

TEST(FailureDetector, WatchGrantsGraceAndDropsDepartedBrokers) {
  FailureDetector fd;
  const BrokerId a{0};
  const BrokerId b{1};
  const BrokerId c{2};
  fd.watch({a, b}, 0.0);
  for (int t = 1; t <= 5; ++t) {
    fd.heartbeat(a, static_cast<double>(t));
    fd.heartbeat(b, static_cast<double>(t));
  }

  // Redeploy: a leaves, c joins with a grace heartbeat at the watch time.
  fd.watch({b, c}, 5.0);
  fd.evaluate(6.5);  // c is 1.5 s past its grace mark: under every floor
  EXPECT_EQ(fd.health(c), BrokerHealth::kAlive);
  EXPECT_TRUE(fd.suspects().empty());
  // The departed broker is not tracked (and never counted) anymore.
  EXPECT_LT(fd.dead_since(a), 0.0);
  fd.evaluate(60.0);
  for (const BrokerId d : fd.dead()) EXPECT_NE(d, a);
}

// --- closed-loop scaffolding -------------------------------------------

// Same shape as the elastic-controller tests: small enough for seconds,
// large enough that a broker death leaves survivors with spare capacity.
ScenarioConfig heal_scenario(std::uint64_t seed = 42) {
  ScenarioConfig cfg;
  cfg.num_brokers = 10;
  cfg.num_publishers = 3;
  cfg.subs_per_publisher = 15;
  cfg.full_out_bw_kb_s = 30.0;
  cfg.seed = seed;
  return cfg;
}

ControlLoopConfig heal_loop(std::uint64_t seed) {
  ControlLoopConfig lc;
  lc.interval_s = 5;
  lc.croc.seed = seed;
  lc.controller.warmup_s = 10;
  lc.controller.commission_cooldown_s = 10;
  lc.controller.consolidate_cooldown_s = 20;
  lc.controller.failure_backoff_s = 10;
  return lc;
}

Simulation warmed_sim(const ScenarioConfig& scen, double multiplier) {
  Simulation sim = make_simulation(scen);
  const RateModulator mod(sim);
  mod.apply(sim, multiplier);
  sim.run(10.0);
  sim.reset_metrics();
  return sim;
}

TEST(SelfHealing, FaultFreeRunNeverSuspectsAnyBroker) {
  const ScenarioConfig scen = heal_scenario();
  Simulation sim = warmed_sim(scen, 0.5);
  ControlLoop loop(sim, heal_loop(scen.seed));
  const RateModulator mod(sim);
  // A mildly bumpy day with real consolidations/commissions in it: sampler
  // epochs restart on every redeploy, and none of it may look like death.
  for (int i = 0; i < 18; ++i) {
    mod.apply(sim, i < 6 ? 0.5 : i < 12 ? 4.0 : 0.5);
    loop.step();
  }
  EXPECT_GT(loop.totals().reconfigurations, 0u)
      << "schedule never exercised a redeploy";
  EXPECT_EQ(loop.detector().suspect_transitions(), 0u);
  EXPECT_EQ(loop.detector().dead_transitions(), 0u);
  EXPECT_EQ(loop.totals().detections, 0u);
  EXPECT_EQ(loop.totals().recoveries, 0u);
}

TEST(SelfHealing, CrashedBrokerIsDetectedEvictedAndClientsRehomed) {
  const ScenarioConfig scen = heal_scenario();
  Simulation sim = warmed_sim(scen, 0.8);
  ControlLoop loop(sim, heal_loop(scen.seed));
  loop.step();
  loop.step();

  // Kill the home of the first subscriber, permanently (no restart).
  const BrokerId victim = sim.deployment().subscribers.front().home;
  std::map<SubId, BrokerId> sub_home;
  std::map<ClientId, BrokerId> pub_home;
  std::size_t victims_clients = 0;
  for (const auto& s : sim.deployment().subscribers) {
    sub_home[s.sub] = s.home;
    if (s.home == victim) ++victims_clients;
  }
  for (const auto& p : sim.deployment().publishers) {
    pub_home[p.client] = p.home;
    if (p.home == victim) ++victims_clients;
  }
  ASSERT_GT(victims_clients, 0u);
  sim.inject_fault(FaultEvent{0, FaultKind::kBrokerCrash, victim});

  int ticks = 0;
  while (loop.totals().recoveries == 0 && ticks < 12) {
    loop.step();
    ++ticks;
  }
  ASSERT_EQ(loop.totals().recoveries, 1u) << "death never recovered";
  EXPECT_GE(loop.totals().detections, 1u);

  // The dead broker is out of the deployment and hosts nobody.
  EXPECT_FALSE(sim.deployment().topology.has_broker(victim));
  for (const auto& s : sim.deployment().subscribers) EXPECT_NE(s.home, victim);
  for (const auto& p : sim.deployment().publishers) EXPECT_NE(p.home, victim);

  // Bounded migration: a client whose old home survived the recovery plan
  // is pinned there — emergencies move the orphans, not the population.
  for (const auto& s : sim.deployment().subscribers) {
    const BrokerId before = sub_home.at(s.sub);
    if (before != victim && sim.deployment().topology.has_broker(before)) {
      EXPECT_EQ(s.home, before);
    }
  }
  for (const auto& p : sim.deployment().publishers) {
    const BrokerId before = pub_home.at(p.client);
    if (before != victim && sim.deployment().topology.has_broker(before)) {
      EXPECT_EQ(p.home, before);
    }
  }
  EXPECT_EQ(loop.totals().orphans_rehomed, victims_clients);

  // Recovery record: detection -> reattach bounded by two control ticks.
  ASSERT_EQ(loop.recoveries().size(), 1u);
  const RecoveryRecord& r = loop.recoveries().front();
  EXPECT_EQ(r.broker, victim);
  EXPECT_EQ(r.orphans, victims_clients);
  EXPECT_GE(r.recovered_s, r.detected_s);
  EXPECT_LE(r.recovered_s - r.detected_s, 2 * 5.0);

  // Quarantine holds: later plans never resurrect the corpse (its reserve
  // entry still covers the whole universe).
  const RateModulator mod(sim);
  for (int i = 0; i < 8; ++i) {
    mod.apply(sim, i < 4 ? 0.4 : 5.0);
    loop.step();
  }
  EXPECT_FALSE(sim.deployment().topology.has_broker(victim));
}

TEST(SelfHealing, RecoveryApplyFailureBacksOffThenConvergesCleanly) {
  const ScenarioConfig scen = heal_scenario();
  Simulation sim = warmed_sim(scen, 0.8);

  FaultOptions fo;
  fo.retransmit_on_reconnect = true;
  sim.install_faults(FaultSchedule{}, fo);

  ControlLoop loop(sim, heal_loop(scen.seed));
  std::vector<LossAudit> audits;
  loop.pre_redeploy_hook = [&](Simulation& s) {
    audits.push_back(audit_losses(s, make_quote_generator(scen)));
  };
  // A redeploy clears the simulator's fault machinery; re-arm the options
  // (retransmit buffering, ledger) for the fresh epoch.
  loop.post_redeploy_hook = [fo](Simulation& s) {
    s.install_faults(FaultSchedule{}, fo);
  };

  loop.step();
  loop.step();
  const BrokerId victim = sim.deployment().subscribers.front().home;

  // Second failure *inside* the recovery apply window: as soon as a
  // recovery plan exists, crash one surviving broker it targets. The
  // transactional apply must roll back, back off, and the re-plan (with
  // both corpses quarantined) must converge.
  BrokerId second{};
  bool armed = false;
  loop.pre_apply_hook = [&](const ReconfigurationPlan& plan) {
    if (!armed) return;
    for (const BrokerId b : plan.allocated_brokers) {
      if (b != victim && sim.deployment().topology.has_broker(b) &&
          sim.broker_alive(b)) {
        second = b;
        sim.inject_fault(FaultEvent{0, FaultKind::kBrokerCrash, b});
        armed = false;
        return;
      }
    }
  };

  sim.inject_fault(FaultEvent{0, FaultKind::kBrokerCrash, victim});
  armed = true;

  int ticks = 0;
  bool saw_backoff = false;
  while (loop.totals().recoveries == 0 && ticks < 30) {
    const TickRecord& rec = loop.step();
    saw_backoff = saw_backoff || rec.decision.hold == HoldReason::kBackoff;
    ++ticks;
  }
  ASSERT_FALSE(armed) << "no recovery plan was ever produced";
  ASSERT_GE(loop.totals().recoveries, 1u) << "recovery never converged";
  EXPECT_GE(loop.totals().apply_failures, 1u);
  EXPECT_TRUE(saw_backoff);
  EXPECT_EQ(loop.controller().consecutive_failures(), 0u);

  // Both casualties evicted; give the second one time if it outlived the
  // first recovery by a tick.
  for (int i = 0; i < 10 && sim.deployment().topology.has_broker(second); ++i) {
    loop.step();
  }
  EXPECT_FALSE(sim.deployment().topology.has_broker(victim));
  EXPECT_FALSE(sim.deployment().topology.has_broker(second));

  // Per-epoch loss audits (plus the final epoch) stay clean: every missed
  // delivery is attributable to the injected crashes, the retransmit
  // buffers, or the recovery that stranded them — never to the router.
  audits.push_back(audit_losses(sim, make_quote_generator(scen)));
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < audits.size(); ++i) {
    EXPECT_TRUE(audits[i].clean())
        << "epoch " << i << ": " << audits[i].real_losses.size() << " real losses, "
        << audits[i].false_positives << " false positives";
    expected += audits[i].expected;
  }
  EXPECT_GT(expected, 0u);
}

// S1 regression: messages buffered at neighbors for a crashed broker used
// to vanish without a trace when a reconfiguration decommissioned that
// broker mid-outage. They must be swept into the stranded set (visible in
// SimSummary) and the epoch audit must excuse, not silently lose, them.
TEST(SelfHealing, RetransmitsStrandedByRecoveryAreSweptAndExcused) {
  const ScenarioConfig scen = heal_scenario();
  Simulation sim = warmed_sim(scen, 1.0);

  FaultOptions fo;
  fo.retransmit_on_reconnect = true;
  sim.install_faults(FaultSchedule{}, fo);

  ControlLoop loop(sim, heal_loop(scen.seed));
  std::vector<LossAudit> audits;
  std::uint64_t buffered_at_audit = 0;
  loop.pre_redeploy_hook = [&](Simulation& s) {
    buffered_at_audit += s.pending_retransmits().size();
    audits.push_back(audit_losses(s, make_quote_generator(scen)));
  };
  loop.post_redeploy_hook = [fo](Simulation& s) {
    s.install_faults(FaultSchedule{}, fo);
  };

  loop.step();
  loop.step();
  const BrokerId victim = sim.deployment().subscribers.front().home;
  sim.inject_fault(FaultEvent{0, FaultKind::kBrokerCrash, victim});

  int ticks = 0;
  while (loop.totals().recoveries == 0 && ticks < 12) {
    loop.step();
    ++ticks;
  }
  ASSERT_GE(loop.totals().recoveries, 1u);

  // Traffic kept flowing toward the dead broker until the recovery, so its
  // neighbors were buffering — and the recovery stranded those buffers.
  EXPECT_GT(buffered_at_audit, 0u)
      << "outage produced no retransmit buffering; the regression is untested";
  EXPECT_GT(sim.stranded_messages().size(), 0u);
  EXPECT_GT(sim.summarize().msgs_stranded, 0u);

  audits.push_back(audit_losses(sim, make_quote_generator(scen)));
  for (std::size_t i = 0; i < audits.size(); ++i) {
    EXPECT_TRUE(audits[i].clean())
        << "epoch " << i << ": " << audits[i].real_losses.size() << " real losses";
  }
}

// --- degraded-mode admission control -----------------------------------

struct DegradedRun {
  FaultStats stats;
  SimSummary summary;
  LossAudit audit;
  double max_backlog_s = 0;
};

DegradedRun run_overloaded(bool admission, std::size_t cap) {
  ScenarioConfig scen = heal_scenario();
  scen.full_out_bw_kb_s = 8.0;  // thin pipes: overload shows up as backlog
  Simulation sim = make_simulation(scen);
  sim.set_sample_interval_ms(1000);
  FaultOptions fo;
  fo.admission_control = admission;
  fo.admission_backlog_s = 0.75;
  fo.admission_resume_s = 0.3;
  fo.admission_max_deferred = cap;
  sim.install_faults(FaultSchedule{}, fo);

  const RateModulator mod(sim);
  mod.apply(sim, 80.0);  // far past capacity: backlog growth is unbounded
  sim.run(12.0);
  mod.apply(sim, 0.05);  // quiet tail: queued work and deferred buffers drain
  sim.run(120.0);

  DegradedRun r;
  r.stats = sim.fault_state().stats();
  r.summary = sim.summarize();
  r.audit = audit_losses(sim, make_quote_generator(scen),
                         LossAuditOptions{.horizon_slack = seconds(2.0)});
  for (const auto& row : sim.samples().rows()) {
    r.max_backlog_s = std::max(r.max_backlog_s, row.values[2]);
  }
  return r;
}

TEST(SelfHealing, AdmissionControlShedsNewInjectionsAndStaysAccounted) {
  const DegradedRun off = run_overloaded(false, 64);
  const DegradedRun on = run_overloaded(true, 64);

  // Load was shed by priority: deferrals happened, the tiny buffer forced
  // sheds, and the quiet tail re-admitted the parked remainder.
  EXPECT_GT(on.stats.pubs_deferred_admission, 0u);
  EXPECT_GT(on.stats.pubs_shed_admission, 0u);
  EXPECT_GT(on.stats.pubs_readmitted, 0u);
  EXPECT_EQ(off.stats.pubs_deferred_admission, 0u);

  // Accounted end to end: SimSummary mirrors the fault counters.
  EXPECT_EQ(on.summary.pubs_deferred, on.stats.pubs_deferred_admission);
  EXPECT_EQ(on.summary.pubs_shed, on.stats.pubs_shed_admission);

  // The point of backpressure: the worst sampled backlog stays far below
  // the uncontrolled run's (which grows with the overload duration).
  EXPECT_LT(on.max_backlog_s, off.max_backlog_s);

  // Every missed delivery is classified: parked (still deliverable), shed
  // (accounted loss) or in flight — the oracle finds no real losses.
  EXPECT_GT(on.audit.expected, 0u);
  EXPECT_TRUE(on.audit.clean())
      << on.audit.real_losses.size() << " real losses, "
      << on.audit.false_positives << " false positives";
}

// --- determinism across runs -------------------------------------------

std::vector<std::string> chaos_trace() {
  const ScenarioConfig scen = heal_scenario();
  Simulation sim = warmed_sim(scen, 0.8);
  ControlLoop loop(sim, heal_loop(scen.seed));
  std::vector<std::string> trace;
  BrokerId victim{};
  for (int i = 0; i < 14; ++i) {
    if (i == 2) {
      victim = sim.deployment().subscribers.front().home;
      sim.inject_fault(FaultEvent{0, FaultKind::kBrokerCrash, victim});
    }
    const TickRecord& rec = loop.step();
    trace.push_back(std::string(action_name(rec.decision.action)) + "/" +
                    hold_reason_name(rec.decision.hold) + "/" +
                    std::to_string(rec.dead.size()) + "/" +
                    std::to_string(rec.orphans_rehomed) + "/" +
                    std::to_string(rec.brokers_after) + "/" +
                    std::to_string(rec.window.deliveries));
  }
  return trace;
}

TEST(SelfHealing, RecoveryTrajectoryBitIdenticalAcrossRuns) {
  const std::vector<std::string> first = chaos_trace();
  const std::vector<std::string> second = chaos_trace();
  EXPECT_EQ(first, second);
  // The trace must actually contain a recovery for this to mean anything.
  bool recovered = false;
  for (const std::string& t : first) recovered = recovered || t.find("recover") == 0;
  EXPECT_TRUE(recovered) << "trace never recovered";
}

}  // namespace
}  // namespace greenps::control
