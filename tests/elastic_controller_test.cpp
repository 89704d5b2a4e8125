// The elastic controller's contract, from unit policy to closed loop:
//
//   - Determinism: for a fixed scenario seed the whole sense -> decide ->
//     plan -> apply trajectory (every decision, every broker count, every
//     aggregate) is bit-identical across repeated runs — the sampler emits
//     rows in (time, broker) order and the controller is pure arithmetic
//     over them.
//   - Transparency: with the loop disabled it senses and accounts but must
//     not perturb a single event — totals and the merged delay histogram
//     equal an uncontrolled run of the same duration exactly.
//   - Anti-flap: hysteresis + dwell mean an in-band or band-straddling
//     signal never acts, and cooldowns bound the action rate after applies.
//   - Resilience: a broker dying between plan and apply rolls back (the sim
//     never sees a half-applied plan), backs off, and re-plans successfully
//     once the broker heals.
//   - Responsiveness: a flash crowd against a consolidated deployment
//     commissions parked brokers within a bounded number of intervals (the
//     backlog emergency skips the dwell).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "control/control_loop.hpp"
#include "croc/reconfig_plan.hpp"
#include "scenario/scenario.hpp"
#include "sim/faults.hpp"
#include "sim/simulation.hpp"

namespace greenps::control {
namespace {

// Small enough to run in seconds, large enough that consolidation has
// brokers to park and a flash crowd can outrun the packed capacity.
ScenarioConfig autoscale_scenario(std::uint64_t seed = 42) {
  ScenarioConfig cfg;
  cfg.num_brokers = 10;
  cfg.num_publishers = 3;
  cfg.subs_per_publisher = 15;
  cfg.full_out_bw_kb_s = 30.0;
  cfg.seed = seed;
  return cfg;
}

// Time constants shrunk so the full decide -> act -> cooldown -> act cycle
// fits inside a test; the policy structure is untouched.
ControlLoopConfig fast_loop(std::uint64_t seed) {
  ControlLoopConfig lc;
  lc.interval_s = 5;
  lc.croc.seed = seed;
  lc.controller.warmup_s = 10;
  lc.controller.commission_cooldown_s = 10;
  lc.controller.consolidate_cooldown_s = 20;
  lc.controller.failure_backoff_s = 10;
  return lc;
}

LoadEstimate est_with(double peak, double backlog = 0.0) {
  LoadEstimate e;
  e.brokers = 4;
  e.sample_ticks = 5;
  e.avg_util = peak * 0.8;
  e.peak_util = peak;
  e.max_backlog_s = backlog;
  e.ewma_avg_util = peak * 0.8;
  e.ewma_peak_util = peak;
  return e;
}

// --- determinism -------------------------------------------------------

struct LoopTrace {
  std::vector<std::string> ticks;
  ControlTotals totals;
  double p99_ms = 0;
};

// One scripted mini-day: quiet opening (consolidate), a crowd (commission),
// quiet close (claw back). Every phase exercises a different decision path.
LoopTrace run_trace(std::uint64_t seed) {
  const ScenarioConfig scen = autoscale_scenario(seed);
  Simulation sim = make_simulation(scen);
  const RateModulator mod(sim);
  mod.apply(sim, 0.3);
  sim.run(10.0);  // warm the CBC profiles at the opening rate
  sim.reset_metrics();

  ControlLoop loop(sim, fast_loop(seed));
  LoopTrace t;
  for (int i = 0; i < 18; ++i) {
    mod.apply(sim, i < 6 ? 0.3 : i < 12 ? 6.0 : 0.3);
    const TickRecord& rec = loop.step();
    t.ticks.push_back(std::string(action_name(rec.decision.action)) + "/" +
                      hold_reason_name(rec.decision.hold) + "/" +
                      (rec.applied ? "applied" : "held") + "/" +
                      std::to_string(rec.brokers_after));
  }
  t.totals = loop.totals();
  t.p99_ms = loop.delay_histogram().percentile_ms(0.99);
  return t;
}

TEST(ElasticController, TrajectoryBitIdenticalAcrossRuns) {
  for (const std::uint64_t seed : {7ull, 42ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const LoopTrace base = run_trace(seed);
    // The script must actually drive the controller through decisions.
    EXPECT_GT(base.totals.publications, 0u);
    EXPECT_GT(base.totals.reconfigurations, 0u);

    const LoopTrace again = run_trace(seed);
    EXPECT_EQ(again.ticks, base.ticks);
    EXPECT_EQ(again.totals.publications, base.totals.publications);
    EXPECT_EQ(again.totals.deliveries, base.totals.deliveries);
    EXPECT_EQ(again.totals.broker_seconds, base.totals.broker_seconds);
    EXPECT_EQ(again.totals.reconfigurations, base.totals.reconfigurations);
    EXPECT_EQ(again.totals.commissions, base.totals.commissions);
    EXPECT_EQ(again.totals.consolidations, base.totals.consolidations);
    EXPECT_EQ(again.totals.clients_migrated, base.totals.clients_migrated);
    EXPECT_EQ(again.p99_ms, base.p99_ms);
  }
}

// --- transparency when disabled ----------------------------------------

TEST(ElasticController, DisabledLoopMatchesUncontrolledRunExactly) {
  const ScenarioConfig scen = autoscale_scenario();
  const double duration_s = 60.0;

  Simulation plain = make_simulation(scen);
  plain.set_sample_interval_ms(1000);  // the loop ctor sets this on its sim
  plain.run(duration_s);
  const SimSummary want = plain.summarize();
  ASSERT_GT(want.deliveries, 0u);

  Simulation sensed = make_simulation(scen);
  ControlLoopConfig lc;
  lc.interval_s = 10;
  lc.enabled = false;
  ControlLoop loop(sensed, lc);
  loop.run_for(duration_s);

  // Sensing must be free: same events, same deployment, nothing planned.
  EXPECT_EQ(loop.totals().reconfigurations, 0u);
  EXPECT_EQ(sensed.deployment().topology.broker_count(), scen.num_brokers);
  EXPECT_EQ(loop.totals().publications, want.publications);
  EXPECT_EQ(loop.totals().deliveries, want.deliveries);
  EXPECT_EQ(loop.totals().broker_seconds,
            static_cast<double>(scen.num_brokers) * duration_s);
  // Merged per-window histograms carry the identical bucket counts as the
  // uncontrolled one-shot histogram: exact percentile equality.
  EXPECT_EQ(loop.delay_histogram().percentile_ms(0.50),
            plain.metrics().delay_histogram().percentile_ms(0.50));
  EXPECT_EQ(loop.delay_histogram().percentile_ms(0.99),
            plain.metrics().delay_histogram().percentile_ms(0.99));
  EXPECT_NEAR(loop.totals().delay_sum_ms / static_cast<double>(loop.totals().deliveries),
              want.avg_delivery_delay_ms, 1e-9);
}

// --- hysteresis / anti-flap --------------------------------------------

TEST(ElasticController, InBandOrStraddlingSignalsNeverAct) {
  const ControllerConfig cfg;
  ElasticController ctl(cfg);
  double now = 0;
  // Oscillation strictly inside the band: held as in-band every tick.
  for (int i = 0; i < 50; ++i) {
    now += 10;
    const double peak = i % 2 == 0 ? cfg.util_low + 0.01 : cfg.util_high - 0.01;
    const Decision d = ctl.decide(est_with(peak), now, /*since_deploy_s=*/1e9);
    EXPECT_EQ(d.action, ControlAction::kHold);
    EXPECT_EQ(d.hold, HoldReason::kInBand);
  }
  // Straddling the band edges: each crossing resets the opposite dwell, so
  // neither direction ever accumulates enough persistence to act.
  for (int i = 0; i < 50; ++i) {
    now += 10;
    const double peak = i % 2 == 0 ? cfg.util_high + 0.1 : cfg.util_low - 0.1;
    const Decision d = ctl.decide(est_with(peak), now, 1e9);
    EXPECT_EQ(d.action, ControlAction::kHold);
    EXPECT_EQ(d.hold, HoldReason::kDwell);
  }
}

TEST(ElasticController, CooldownsBoundTheActionRateAfterAnApply) {
  const ControllerConfig cfg;
  ElasticController ctl(cfg);
  double now = 0;

  // Persistent overload commissions after exactly the dwell.
  now += 10;
  EXPECT_EQ(ctl.decide(est_with(0.9), now, 1e9).hold, HoldReason::kDwell);
  now += 10;
  const Decision up = ctl.decide(est_with(0.9), now, 1e9);
  ASSERT_EQ(up.action, ControlAction::kCommission);
  EXPECT_FALSE(up.emergency);
  ctl.on_applied(ControlAction::kCommission, now);
  const double applied_at = now;

  // Immediately-quiet load (the classic commission overshoot): the reverse
  // consolidation still waits out the short guard plus its full dwell.
  std::vector<double> act_times;
  for (int i = 0; i < 8; ++i) {
    now += 10;
    const Decision d = ctl.decide(est_with(0.2), now, 1e9);
    if (d.action == ControlAction::kConsolidate) {
      act_times.push_back(now);
      ctl.on_applied(ControlAction::kConsolidate, now);
    } else {
      EXPECT_TRUE(d.hold == HoldReason::kCooldown || d.hold == HoldReason::kDwell)
          << "tick at " << now << ": " << hold_reason_name(d.hold);
    }
  }
  ASSERT_EQ(act_times.size(), 1u);
  EXPECT_GE(act_times[0], applied_at + cfg.commission_cooldown_s);
  // After a consolidation the full (long) consolidate cooldown applies.
  now += 10;
  EXPECT_EQ(ctl.decide(est_with(0.2), now, 1e9).hold, HoldReason::kCooldown);
}

TEST(ElasticController, BacklogEmergencySkipsDwellAndWarmupResetsIt) {
  const ControllerConfig cfg;
  ElasticController ctl(cfg);
  // Emergency backlog at modest utilization: commission on the first tick.
  const Decision d = ctl.decide(est_with(0.2, /*backlog=*/1.0), 10, 1e9);
  EXPECT_EQ(d.action, ControlAction::kCommission);
  EXPECT_TRUE(d.emergency);

  // A non-emergency signal riding through warm-up accumulates no dwell:
  // the first post-warmup tick starts the count from scratch.
  ElasticController fresh(cfg);
  double now = 0;
  for (int i = 0; i < 5; ++i) {
    now += 10;
    EXPECT_EQ(fresh.decide(est_with(0.9), now, /*since_deploy_s=*/1.0).hold,
              HoldReason::kWarmup);
  }
  now += 10;
  EXPECT_EQ(fresh.decide(est_with(0.9), now, cfg.warmup_s + 1).hold,
            HoldReason::kDwell);
}

// --- rollback -> backoff -> re-plan ------------------------------------

TEST(ElasticController, FailedApplyRollsBackBacksOffThenReplans) {
  const ScenarioConfig scen = autoscale_scenario();
  Simulation sim = make_simulation(scen);
  const RateModulator mod(sim);
  mod.apply(sim, 0.3);
  sim.run(10.0);
  sim.reset_metrics();

  ControlLoop loop(sim, fast_loop(scen.seed));

  // Between planning and apply, kill one deployed broker the plan targets —
  // the race the transactional apply exists for.
  BrokerId crashed{};
  std::atomic<bool> armed{true};
  loop.pre_apply_hook = [&](const ReconfigurationPlan& plan) {
    if (!armed.load()) return;
    for (const BrokerId b : plan.allocated_brokers) {
      if (sim.deployment().topology.has_broker(b) && sim.broker_alive(b)) {
        crashed = b;
        sim.inject_fault(FaultEvent{0, FaultKind::kBrokerCrash, b});
        armed.store(false);
        return;
      }
    }
  };

  const std::size_t before = sim.deployment().topology.broker_count();
  int ticks = 0;
  while (armed.load() && ticks < 20) {
    loop.step();
    ++ticks;
  }
  ASSERT_FALSE(armed.load()) << "low load never produced a consolidation plan";
  const TickRecord& failed = loop.history().back();
  EXPECT_FALSE(failed.applied);
  EXPECT_EQ(failed.apply_failure, FailureReason::kBrokerUnreachable);
  // Rolled back: the simulator still runs the pre-plan deployment.
  EXPECT_EQ(sim.deployment().topology.broker_count(), before);
  EXPECT_EQ(loop.totals().apply_failures, 1u);
  EXPECT_EQ(loop.controller().consecutive_failures(), 1u);

  // Heal the broker; the controller waits out its backoff, then re-plans
  // the still-present signal and the consolidation lands.
  sim.inject_fault(FaultEvent{0, FaultKind::kBrokerRestart, crashed});
  bool saw_backoff = false;
  for (int i = 0; i < 30 && loop.totals().consolidations == 0; ++i) {
    const TickRecord& rec = loop.step();
    saw_backoff = saw_backoff || rec.decision.hold == HoldReason::kBackoff;
  }
  EXPECT_TRUE(saw_backoff);
  ASSERT_GE(loop.totals().consolidations, 1u);
  EXPECT_EQ(loop.controller().consecutive_failures(), 0u);
  EXPECT_LT(sim.deployment().topology.broker_count(), before);
}

// --- flash-crowd responsiveness ----------------------------------------

TEST(ElasticController, FlashCrowdCommissionsWithinBoundedIntervals) {
  const ScenarioConfig scen = autoscale_scenario();
  Simulation sim = make_simulation(scen);
  const RateModulator mod(sim);
  mod.apply(sim, 0.3);
  sim.run(10.0);
  sim.reset_metrics();

  ControlLoop loop(sim, fast_loop(scen.seed));
  int ticks = 0;
  while (loop.totals().consolidations == 0 && ticks < 20) {
    loop.step();
    ++ticks;
  }
  ASSERT_GE(loop.totals().consolidations, 1u)
      << "controller never reached the consolidated quiet state";
  const std::size_t parked_at = sim.deployment().topology.broker_count();
  ASSERT_LT(parked_at, scen.num_brokers);

  // The crowd: rates jump far past the packed capacity. Backlog trips the
  // emergency path (no dwell), so the commission may only wait out the
  // post-consolidation warm-up and the short commission guard.
  mod.apply(sim, 8.0);
  int latency = 0;
  while (loop.totals().commissions == 0 && latency < 12) {
    loop.step();
    ++latency;
  }
  ASSERT_GE(loop.totals().commissions, 1u) << "crowd never commissioned";
  EXPECT_GT(sim.deployment().topology.broker_count(), parked_at);
  EXPECT_LE(latency, 8) << "commission latency exceeded the bound";
}

}  // namespace
}  // namespace greenps::control
