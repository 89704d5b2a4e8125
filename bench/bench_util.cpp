#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "croc/reconfig_plan.hpp"
#include "matching/matching_engine.hpp"

namespace greenps::bench {

const char* approach_name(Approach a) {
  switch (a) {
    case Approach::kManual: return "MANUAL";
    case Approach::kAutomatic: return "AUTOMATIC";
    case Approach::kPairwiseK: return "PAIRWISE-K";
    case Approach::kPairwiseN: return "PAIRWISE-N";
    case Approach::kFbf: return "FBF";
    case Approach::kBinPacking: return "BINPACKING";
    case Approach::kCramIntersect: return "CRAM-INT";
    case Approach::kCramXor: return "CRAM-XOR";
    case Approach::kCramIos: return "CRAM-IOS";
    case Approach::kCramIou: return "CRAM-IOU";
  }
  return "?";
}

std::vector<Approach> all_approaches() {
  return {Approach::kManual,     Approach::kAutomatic,     Approach::kPairwiseK,
          Approach::kPairwiseN,  Approach::kFbf,           Approach::kBinPacking,
          Approach::kCramIntersect, Approach::kCramXor,    Approach::kCramIos,
          Approach::kCramIou};
}

std::vector<Approach> proposed_approaches() {
  return {Approach::kFbf, Approach::kBinPacking, Approach::kCramIntersect,
          Approach::kCramXor, Approach::kCramIos, Approach::kCramIou};
}

bool full_scale() {
  const char* v = std::getenv("GREENPS_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0' && !tiny_scale();
}

bool tiny_scale() {
  const char* v = std::getenv("GREENPS_TINY");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

CrocConfig croc_config_for(Approach a, std::uint64_t seed) {
  CrocConfig cfg;
  cfg.seed = seed;
  switch (a) {
    case Approach::kPairwiseK:
      cfg.algorithm = Phase2Algorithm::kPairwiseK;
      break;
    case Approach::kPairwiseN:
      cfg.algorithm = Phase2Algorithm::kPairwiseN;
      break;
    case Approach::kFbf:
      cfg.algorithm = Phase2Algorithm::kFbf;
      break;
    case Approach::kBinPacking:
      cfg.algorithm = Phase2Algorithm::kBinPacking;
      break;
    case Approach::kCramIntersect:
      cfg.algorithm = Phase2Algorithm::kCram;
      cfg.cram.metric = ClosenessMetric::kIntersect;
      break;
    case Approach::kCramXor:
      cfg.algorithm = Phase2Algorithm::kCram;
      cfg.cram.metric = ClosenessMetric::kXor;
      break;
    case Approach::kCramIos:
      cfg.algorithm = Phase2Algorithm::kCram;
      cfg.cram.metric = ClosenessMetric::kIos;
      break;
    case Approach::kCramIou:
      cfg.algorithm = Phase2Algorithm::kCram;
      cfg.cram.metric = ClosenessMetric::kIou;
      break;
    case Approach::kManual:
    case Approach::kAutomatic:
      break;  // no reconfiguration
  }
  return cfg;
}

RunResult run_approach(Approach a, const HarnessConfig& cfg) {
  RunResult result;
  result.approach = a;

  const auto t0 = std::chrono::steady_clock::now();
  MatchingEngine::reset_match_walks();
  // redeploy() restarts the simulator's event count; the events of the
  // profile window it ended are added back so every row counts the whole
  // run that wall_s times.
  std::size_t events_before_redeploy = 0;
  const auto finish = [&](Simulation& sim) {
    result.summary = sim.summarize();
    result.events = events_before_redeploy + sim.events_executed();
    result.match_walks = MatchingEngine::match_walks();
    result.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  ScenarioConfig sc = cfg.scenario;
  // MANUAL forms the initial overlay for every approach; AUTOMATIC is the
  // other deploy-only baseline.
  sc.placement =
      a == Approach::kAutomatic ? InitialPlacement::kAutomatic : InitialPlacement::kManual;
  Simulation sim = make_simulation(sc);

  if (a == Approach::kManual || a == Approach::kAutomatic) {
    sim.run(cfg.profile_seconds);  // warm-up for parity with the others
    sim.reset_metrics();
    sim.run(cfg.measure_seconds);
    finish(sim);
    return result;
  }

  sim.run(cfg.profile_seconds);
  Croc croc(croc_config_for(a, sc.seed));
  result.report = croc.reconfigure(sim, BrokerId{0});
  if (!result.report.success) {
    std::fprintf(stderr, "[bench] %s reconfiguration failed\n", approach_name(a));
    finish(sim);
    return result;
  }
  events_before_redeploy = sim.events_executed();
  sim.redeploy(apply_plan(sim.deployment(), result.report.plan));
  result.reconfigured = true;
  sim.run(cfg.measure_seconds);
  finish(sim);
  return result;
}

void print_row(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  std::ostringstream os;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    os << (i == 0 ? "" : "  ");
    const std::string& c = cells[i];
    if (static_cast<int>(c.size()) < w) {
      os << std::string(static_cast<std::size_t>(w) - c.size(), ' ');
    }
    os << c;
  }
  std::printf("%s\n", os.str().c_str());
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string pct_change(double baseline, double value) {
  if (baseline <= 0) return "n/a";
  // Rendered as change relative to the baseline: "-92%" = 92% lower.
  const double reduction = (baseline - value) / baseline * 100.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%.0f%%", reduction >= 0 ? "-" : "+",
                reduction >= 0 ? reduction : -reduction);
  return buf;
}

BenchBudget::BenchBudget() : t0_(std::chrono::steady_clock::now()) {
  if (const char* v = std::getenv("GREENPS_BENCH_BUDGET_S"); v != nullptr && *v != '\0') {
    budget_s_ = std::strtod(v, nullptr);
  }
}

double BenchBudget::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

bool BenchBudget::skip(const char* what) const {
  if (!exceeded()) return false;
  std::printf("[budget exceeded] %.0f s elapsed of GREENPS_BENCH_BUDGET_S=%.0f — skipping %s\n",
              elapsed(), budget_s_, what);
  return true;
}

JsonObject run_result_json(const RunResult& r) {
  JsonObject row;
  row.set_string("approach", approach_name(r.approach))
      .set_bool("reconfigured", r.reconfigured)
      .set_bool("reconfigure_success", r.report.success)
      .set_string("failure_reason", failure_reason_name(r.report.failure))
      .set_number("wall_s", r.wall_s)
      .set_integer("events", r.events)
      .set_number("events_per_s", r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0)
      .set_integer("match_walks", r.match_walks)
      .set_integer("retransmit_overflow", r.summary.retransmit_overflow)
      .set_integer("publications", r.summary.publications)
      .set_integer("deliveries", r.summary.deliveries)
      .set_integer("allocated_brokers", r.summary.allocated_brokers)
      .set_number("avg_hop_count", r.summary.avg_hop_count)
      .set_number("system_msg_rate", r.summary.system_msg_rate)
      .set_number("avg_broker_msg_rate", r.summary.avg_broker_msg_rate);
  if (r.reconfigured) set_gather_stats(row, r.report.gather);
  return row;
}

JsonObject& set_gather_stats(JsonObject& row, const GatherStats& g) {
  return row.set_integer("gather_bir_messages", g.bir_messages)
      .set_integer("gather_bia_messages", g.bia_messages)
      .set_integer("gather_brokers_answered", g.brokers_answered)
      .set_integer("gather_unreachable_brokers", g.unreachable_brokers)
      .set_integer("gather_retries", g.retries)
      .set_number("gather_backoff_s", g.backoff_s)
      .set_integer("gather_epoch_probes", g.epoch_probes)
      .set_integer("gather_brokers_reused", g.brokers_reused);
}

RunReport make_sim_report(const std::string& bench) {
  RunReport report(bench);
  report.header().set_bool("full_scale", full_scale()).set_bool("tiny_scale", tiny_scale());
  return report;
}

bool write_sim_bench_json(const std::string& bench, const std::vector<std::string>& rows) {
  RunReport report = make_sim_report(bench);
  for (const std::string& row : rows) report.add_row(row);
  return report.write("BENCH_sim.json", "rows");
}

}  // namespace greenps::bench
