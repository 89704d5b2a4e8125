// E15 — Self-healing control plane under chaos.
//
// The same MANUAL scenario walks the same diurnal day (workload/diurnal.hpp)
// while scripted broker crashes hit the deployment — one on the morning
// ramp (clients orphaned while load is rising) and one at the busy-hours
// peak (the worst moment to lose capacity). Both crashes are permanent:
// nothing restarts, so every delivery to an orphaned client depends on the
// control plane noticing the death and re-homing the client. Three legs:
//
//   no-healing   ControlLoop with healing disabled: the elastic controller
//                still autoscales, but dead brokers stay in the deployment,
//                their clients stay attached, and plans that touch the
//                corpse roll back at the liveness probe
//   healing      full self-healing loop: phi-accrual detection on sampler
//                heartbeats, emergency bounded-migration recovery, CROC
//                quarantine, degraded-mode admission control
//   fault-free   healing enabled, no crashes: the false-positive guard
//
// Enforced (non-zero exit):
//   - fault-free: zero suspect transitions, zero dead transitions, zero
//     recoveries — the detector's floors make false positives structural
//   - healing: every scripted crash is detected and recovered, the victim
//     leaves the deployment, and detection -> clients-reattached stays
//     within bounded control ticks
//   - healing: every per-epoch loss audit plus the final audit is clean —
//     zero real losses; every miss is excused by a crash window, a
//     retransmit/admission buffer, a shed, a stranding or the horizon
//   - at non-tiny scale: healing delivers strictly more than no-healing
//
// Knobs: GREENPS_TINY=1 / GREENPS_FULL=1 scale, GREENPS_BENCH_BUDGET_S,
// GREENPS_SELFHEAL_DAY_S, GREENPS_SELFHEAL_INTERVAL_S. Results land in
// BENCH_selfheal.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "control/control_loop.hpp"
#include "sim/loss_oracle.hpp"
#include "sweep_common.hpp"
#include "workload/diurnal.hpp"

using namespace greenps;
using namespace greenps::bench;

namespace {

using Clock = std::chrono::steady_clock;

enum class Mode { kNoHealing, kHealing, kFaultFree };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kNoHealing: return "no-healing";
    case Mode::kHealing: return "healing";
    case Mode::kFaultFree: return "fault-free";
  }
  return "?";
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtod(v, nullptr);
}

struct CrashRecord {
  double at_s = 0;  // loop time the fault was injected
  std::uint64_t broker = 0;
};

struct ModeResult {
  Mode mode = Mode::kHealing;
  bool ran = false;
  std::uint64_t publications = 0;
  std::uint64_t deliveries = 0;
  double broker_hours = 0;
  double p99_ms = 0;
  // Degraded-mode accounting, exact across epochs (fault counters reset at
  // every redeploy; snapshotted in the pre-redeploy hook).
  std::uint64_t pubs_deferred = 0;
  std::uint64_t pubs_readmitted = 0;
  std::uint64_t pubs_shed = 0;
  std::uint64_t msgs_stranded = 0;
  control::ControlTotals totals;
  std::vector<control::RecoveryRecord> recoveries;
  std::vector<CrashRecord> crashes;
  // Loss-oracle verdict (healing legs only).
  std::size_t audits = 0;
  std::uint64_t audited_expected = 0;
  std::uint64_t real_losses = 0;
  std::uint64_t false_positives = 0;
  std::size_t suspect_transitions = 0;
  std::size_t dead_transitions = 0;
  std::vector<std::string> tick_rows;
  double wall_s = 0;
};

// The broker currently hosting the most subscribers (ties: smallest id) —
// the most damaging deterministic victim.
std::pair<bool, BrokerId> pick_victim(const Simulation& sim) {
  std::map<BrokerId, std::size_t> load;
  for (const auto& s : sim.deployment().subscribers) {
    if (sim.broker_alive(s.home)) load[s.home] += 1;
  }
  bool found = false;
  BrokerId best{};
  std::size_t n = 0;
  for (const auto& [b, count] : load) {
    if (count > n) {
      best = b;
      n = count;
      found = true;
    }
  }
  return {found, best};
}

ModeResult run_mode(Mode mode, const HarnessConfig& cfg, const DiurnalSchedule& schedule,
                    double run_s, double interval_s, double profile_s) {
  const auto t0 = Clock::now();
  ModeResult r;
  r.mode = mode;

  Simulation sim = make_simulation(cfg.scenario);
  const control::RateModulator modulator(sim);
  modulator.apply(sim, schedule.multiplier(0));
  sim.run(profile_s);
  sim.reset_metrics();

  // Chaos-facing posture for every leg: store-and-forward buffering at a
  // dead broker's neighbors plus degraded-mode admission control. With no
  // fault events armed (empty schedule) the fault-free leg's event stream
  // is untouched — only the ledger for the loss oracle is enabled.
  FaultOptions fo;
  fo.retransmit_on_reconnect = true;
  fo.admission_control = true;
  sim.install_faults(FaultSchedule{}, fo);

  control::ControlLoopConfig lc;
  lc.interval_s = interval_s;
  lc.croc.seed = cfg.scenario.seed;
  lc.healing = mode != Mode::kNoHealing;
  control::ControlLoop loop(sim, lc);

  std::vector<LossAudit> audit_results;
  const bool audited = mode != Mode::kNoHealing;
  const LossAuditOptions audit_opts{seconds(0.5), seconds(2.0)};
  // Fault counters reset at every redeploy; snapshot the closing epoch's
  // stats (and audit it, while its ledger and outage windows are live).
  loop.pre_redeploy_hook = [&](Simulation& s) {
    const FaultStats& fs = s.fault_state().stats();
    r.pubs_deferred += fs.pubs_deferred_admission;
    r.pubs_readmitted += fs.pubs_readmitted;
    r.pubs_shed += fs.pubs_shed_admission;
    if (audited) {
      audit_results.push_back(
          audit_losses(s, make_quote_generator(cfg.scenario), audit_opts));
    }
  };
  loop.post_redeploy_hook = [fo](Simulation& s) {
    s.install_faults(FaultSchedule{}, fo);
  };

  const auto steps = static_cast<std::size_t>(std::ceil(run_s / interval_s));
  std::vector<std::size_t> crash_ticks;
  if (mode != Mode::kFaultFree) {
    // Morning ramp and busy-hours peak; permanent (no restarts).
    crash_ticks = {static_cast<std::size_t>(0.15 * static_cast<double>(steps)),
                   static_cast<std::size_t>(0.55 * static_cast<double>(steps))};
  }

  for (std::size_t i = 0; i < steps; ++i) {
    const double tick_start_s = static_cast<double>(i) * interval_s;
    if (std::find(crash_ticks.begin(), crash_ticks.end(), i) != crash_ticks.end()) {
      const auto [found, victim] = pick_victim(sim);
      if (found) {
        sim.inject_fault(FaultEvent{0, FaultKind::kBrokerCrash, victim});
        r.crashes.push_back({tick_start_s, victim.value()});
      }
    }
    modulator.apply(sim, schedule.multiplier(tick_start_s));
    const control::TickRecord& rec = loop.step();

    JsonObject row;
    row.set_string("kind", "tick")
        .set_string("mode", mode_name(mode))
        .set_number("time_s", rec.time_s)
        .set_string("action", control::action_name(rec.decision.action))
        .set_string("hold", control::hold_reason_name(rec.decision.hold))
        .set_bool("applied", rec.applied)
        .set_integer("brokers", rec.brokers_after)
        .set_integer("dead", rec.dead.size())
        .set_integer("suspects", rec.suspects.size())
        .set_integer("orphans_rehomed", rec.orphans_rehomed)
        .set_integer("window_deliveries", rec.window.deliveries)
        .set_number("max_backlog_s", rec.estimate.max_backlog_s);
    r.tick_rows.push_back(row.render());
  }

  // Quiet tail at the schedule's trough so deferred buffers drain and
  // in-flight work lands, then the closing epoch's stats and audit.
  modulator.apply(sim, schedule.trough());
  sim.run(std::max(10.0, 2.0 * interval_s));
  {
    const FaultStats& fs = sim.fault_state().stats();
    r.pubs_deferred += fs.pubs_deferred_admission;
    r.pubs_readmitted += fs.pubs_readmitted;
    r.pubs_shed += fs.pubs_shed_admission;
  }
  if (audited) {
    audit_results.push_back(
        audit_losses(sim, make_quote_generator(cfg.scenario), audit_opts));
  }

  r.totals = loop.totals();
  r.recoveries = loop.recoveries();
  r.publications = r.totals.publications;
  r.deliveries = r.totals.deliveries;
  r.broker_hours = r.totals.broker_seconds / 3600.0;
  r.p99_ms = loop.delay_histogram().percentile_ms(0.99);
  r.msgs_stranded = sim.summarize().msgs_stranded;  // cumulative by design
  r.suspect_transitions = loop.detector().suspect_transitions();
  r.dead_transitions = loop.detector().dead_transitions();
  r.audits = audit_results.size();
  for (const LossAudit& a : audit_results) {
    r.audited_expected += a.expected;
    r.real_losses += a.real_losses.size();
    r.false_positives += a.false_positives;
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.ran = true;
  return r;
}

}  // namespace

int main() {
  const BenchBudget budget;
  HarnessConfig cfg = homogeneous_base();
  cfg.scenario.subs_per_publisher = full_scale() ? 100 : tiny_scale() ? 15 : 50;

  const double day_s = env_double("GREENPS_SELFHEAL_DAY_S",
                                  full_scale() ? 1800 : tiny_scale() ? 300 : 900);
  const double interval_s =
      env_double("GREENPS_SELFHEAL_INTERVAL_S", tiny_scale() ? 5 : 10);
  const double profile_s = tiny_scale() ? 10 : 45;
  const double recovery_bound_s = 4.0 * interval_s;  // crash -> clients reattached

  const DiurnalSchedule schedule(default_diurnal(day_s));
  std::printf("E15: self-healing under chaos, %.0f s day, %.0f s control interval, "
              "2 permanent crashes %s\n\n",
              day_s, interval_s,
              full_scale()   ? "[FULL SCALE]"
              : tiny_scale() ? "[tiny/smoke scale]"
                             : "[reduced scale]");

  // Legs: the healing headline first, then the baseline and the
  // false-positive guard.
  std::vector<ModeResult> results;
  for (const Mode mode : {Mode::kHealing, Mode::kNoHealing, Mode::kFaultFree}) {
    if (budget.skip("remaining self-heal legs")) break;
    results.push_back(run_mode(mode, cfg, schedule, day_s, interval_s, profile_s));
  }

  const std::vector<int> widths = {12, 8, 10, 9, 9, 9, 9, 8, 7};
  print_row({"mode", "crashes", "recovered", "orphans", "deliver", "deferred", "stranded",
             "losses", "wall"},
            widths);
  for (const ModeResult& r : results) {
    print_row({mode_name(r.mode), std::to_string(r.crashes.size()),
               std::to_string(r.totals.recoveries),
               std::to_string(r.totals.orphans_rehomed), std::to_string(r.deliveries),
               std::to_string(r.pubs_deferred), std::to_string(r.msgs_stranded),
               std::to_string(r.real_losses), fmt(r.wall_s, 1)},
              widths);
  }

  const ModeResult* heal = nullptr;
  const ModeResult* base = nullptr;
  const ModeResult* clean = nullptr;
  for (const ModeResult& r : results) {
    if (r.mode == Mode::kHealing) heal = &r;
    if (r.mode == Mode::kNoHealing) base = &r;
    if (r.mode == Mode::kFaultFree) clean = &r;
  }

  bool failed = false;

  // Zero fault-free false positives: structural, enforced at every scale.
  if (clean != nullptr) {
    if (clean->suspect_transitions != 0 || clean->dead_transitions != 0 ||
        clean->totals.recoveries != 0) {
      std::fprintf(stderr,
                   "[e15] fault-free leg raised alarms: %zu suspect, %zu dead "
                   "transitions, %zu recoveries\n",
                   clean->suspect_transitions, clean->dead_transitions,
                   clean->totals.recoveries);
      failed = true;
    }
  }

  if (heal != nullptr) {
    // Every scripted crash detected and recovered, within the time bound.
    if (heal->crashes.size() != 2 ||
        heal->totals.recoveries != heal->crashes.size()) {
      std::fprintf(stderr, "[e15] healing: %zu crashes but %zu recoveries\n",
                   heal->crashes.size(), heal->totals.recoveries);
      failed = true;
    }
    // A broker can crash, be recovered, leave quarantine, be re-commissioned
    // and crash again — pair each crash with the earliest unconsumed
    // recovery of that broker at or after the injection.
    std::vector<bool> used(heal->recoveries.size(), false);
    for (const CrashRecord& crash : heal->crashes) {
      const control::RecoveryRecord* match = nullptr;
      for (std::size_t i = 0; i < heal->recoveries.size(); ++i) {
        const control::RecoveryRecord& rec = heal->recoveries[i];
        if (used[i] || rec.broker.value() != crash.broker ||
            rec.recovered_s < crash.at_s) {
          continue;
        }
        if (match == nullptr || rec.recovered_s < match->recovered_s) {
          match = &rec;
        }
      }
      if (match != nullptr) used[static_cast<std::size_t>(match - heal->recoveries.data())] = true;
      if (match == nullptr) {
        std::fprintf(stderr, "[e15] healing: broker %llu crashed but never recovered\n",
                     static_cast<unsigned long long>(crash.broker));
        failed = true;
        continue;
      }
      const double crash_to_reattach = match->recovered_s - crash.at_s;
      if (crash_to_reattach > recovery_bound_s || match->orphans == 0) {
        std::fprintf(stderr,
                     "[e15] healing: broker %llu crash->reattach %.1f s "
                     "(bound %.1f s), %zu orphans\n",
                     static_cast<unsigned long long>(crash.broker), crash_to_reattach,
                     recovery_bound_s, match->orphans);
        failed = true;
      }
    }
    // Zero real losses across every epoch audit plus the final audit.
    if (heal->real_losses != 0 || heal->false_positives != 0 ||
        heal->audited_expected == 0) {
      std::fprintf(stderr,
                   "[e15] healing: %llu real losses, %llu false positives over "
                   "%zu audits (%llu expected deliveries)\n",
                   static_cast<unsigned long long>(heal->real_losses),
                   static_cast<unsigned long long>(heal->false_positives),
                   heal->audits,
                   static_cast<unsigned long long>(heal->audited_expected));
      failed = true;
    }
    std::printf("\nhealing: %zu recoveries, %zu orphans re-homed, %llu deferred "
                "(%llu readmitted, %llu shed), %llu stranded; %zu audits, "
                "%llu real losses\n",
                heal->totals.recoveries, heal->totals.orphans_rehomed,
                static_cast<unsigned long long>(heal->pubs_deferred),
                static_cast<unsigned long long>(heal->pubs_readmitted),
                static_cast<unsigned long long>(heal->pubs_shed),
                static_cast<unsigned long long>(heal->msgs_stranded),
                heal->audits,
                static_cast<unsigned long long>(heal->real_losses));
  }

  if (heal != nullptr && base != nullptr) {
    std::printf("healing vs no-healing: %llu vs %llu deliveries (+%.1f%%)\n",
                static_cast<unsigned long long>(heal->deliveries),
                static_cast<unsigned long long>(base->deliveries),
                base->deliveries > 0
                    ? 100.0 * (static_cast<double>(heal->deliveries) -
                               static_cast<double>(base->deliveries)) /
                          static_cast<double>(base->deliveries)
                    : 0.0);
    if (!tiny_scale() && heal->deliveries <= base->deliveries) {
      std::fprintf(stderr, "[e15] healing delivered no more than the "
                           "no-healing baseline\n");
      failed = true;
    }
  }

  std::vector<std::string> rows;
  for (const ModeResult& r : results) {
    rows.push_back(JsonObject()
                       .set_string("kind", "mode")
                       .set_string("mode", mode_name(r.mode))
                       .set_integer("publications", r.publications)
                       .set_integer("deliveries", r.deliveries)
                       .set_number("broker_hours", r.broker_hours)
                       .set_number("p99_delivery_delay_ms", r.p99_ms)
                       .set_integer("crashes", r.crashes.size())
                       .set_integer("detections", r.totals.detections)
                       .set_integer("recoveries", r.totals.recoveries)
                       .set_integer("orphans_rehomed", r.totals.orphans_rehomed)
                       .set_integer("reconfigurations", r.totals.reconfigurations)
                       .set_integer("apply_failures", r.totals.apply_failures)
                       .set_integer("pubs_deferred", r.pubs_deferred)
                       .set_integer("pubs_readmitted", r.pubs_readmitted)
                       .set_integer("pubs_shed", r.pubs_shed)
                       .set_integer("msgs_stranded", r.msgs_stranded)
                       .set_integer("suspect_transitions", r.suspect_transitions)
                       .set_integer("dead_transitions", r.dead_transitions)
                       .set_integer("audits", r.audits)
                       .set_integer("audited_expected", r.audited_expected)
                       .set_integer("real_losses", r.real_losses)
                       .set_integer("false_positives", r.false_positives)
                       .set_number("wall_s", r.wall_s)
                       .render());
    for (const CrashRecord& crash : r.crashes) {
      rows.push_back(JsonObject()
                         .set_string("kind", "crash")
                         .set_string("mode", mode_name(r.mode))
                         .set_integer("broker", crash.broker)
                         .set_number("at_s", crash.at_s)
                         .render());
    }
    for (const control::RecoveryRecord& rec : r.recoveries) {
      rows.push_back(JsonObject()
                         .set_string("kind", "recovery")
                         .set_string("mode", mode_name(r.mode))
                         .set_integer("broker", rec.broker.value())
                         .set_number("detected_s", rec.detected_s)
                         .set_number("recovered_s", rec.recovered_s)
                         .set_integer("orphans", rec.orphans)
                         .render());
    }
    // One leg's tick series is enough for plots; keep the headline leg's.
    if (r.mode == Mode::kHealing) {
      for (const std::string& tick : r.tick_rows) rows.push_back(tick);
    }
  }

  RunReport report = make_sim_report("e15");
  report.header()
      .set_integer("num_brokers", cfg.scenario.num_brokers)
      .set_integer("num_publishers", cfg.scenario.num_publishers)
      .set_integer("subs_per_publisher", cfg.scenario.subs_per_publisher)
      .set_number("day_length_s", day_s)
      .set_number("control_interval_s", interval_s)
      .set_number("recovery_bound_s", recovery_bound_s)
      .set_number("schedule_peak", schedule.peak())
      .set_number("schedule_trough", schedule.trough());
  for (const std::string& row : rows) report.add_row(row);
  report.write("BENCH_selfheal.json", "rows");

  if (failed) {
    std::fprintf(stderr, "[e15] FAILURES above\n");
    return 1;
  }
  return 0;
}
