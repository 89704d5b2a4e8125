// E5 — Large-scale deployments (the paper's SciNet runs: 400 and 1,000
// brokers with 72 and 100 publishers at 225 subscriptions each, sized so
// the MANUAL baseline initially saturates the system; plus a 4,000-broker /
// ~101k-subscription stretch configuration).
//
// Reduced default: 100/160 brokers. Expected shape: consolidation ratios
// grow with network size — most of a sparse deployment is pure forwarding.
// One BENCH_sim.json row per (scale, approach); see EXPERIMENTS.md for the
// row schema.
#include <cstdio>

#include "bench_util.hpp"

using namespace greenps;
using namespace greenps::bench;

namespace {

struct Scale {
  std::size_t brokers;
  std::size_t publishers;
  std::size_t subs_per_publisher;
};

std::vector<Scale> scales() {
  if (tiny_scale()) return {{12, 3, 5}};
  if (full_scale()) return {{400, 72, 225}, {1000, 100, 225}, {4000, 450, 225}};
  return {{100, 18, 40}, {160, 25, 40}};
}

HarnessConfig config_for(const Scale& s) {
  HarnessConfig cfg;
  cfg.scenario.num_brokers = s.brokers;
  cfg.scenario.num_publishers = s.publishers;
  cfg.scenario.subs_per_publisher = s.subs_per_publisher;
  cfg.scenario.full_out_bw_kb_s = full_scale() ? 300.0 : 40.0;
  cfg.scenario.seed = 42;
  cfg.profile_seconds = tiny_scale() ? 5.0 : 90.0;
  cfg.measure_seconds = tiny_scale() ? 10.0 : (full_scale() ? 60.0 : 120.0);
  return cfg;
}

}  // namespace

int main() {
  const BenchBudget budget;  // GREENPS_BENCH_BUDGET_S caps the scale grid
  std::printf("E5: large-scale deployments %s\n\n",
              tiny_scale()   ? "[TINY: smoke-test scale]"
              : full_scale() ? "[FULL SCALE: SciNet shape]"
                             : "[reduced scale; GREENPS_FULL=1 for 400/1000/4000 brokers]");
  std::vector<std::string> json_rows;

  const std::vector<int> widths = {8, 6, 12, 10, 12, 12, 8};
  print_row({"brokers", "subs", "approach", "alloc", "msg rate", "sys rate", "hops"}, widths);
  for (const Scale& s : scales()) {
    if (budget.skip("remaining deployment scales")) break;
    const HarnessConfig cfg = config_for(s);
    const std::size_t total = s.publishers * s.subs_per_publisher;
    for (const Approach a :
         {Approach::kManual, Approach::kAutomatic, Approach::kBinPacking, Approach::kCramIos}) {
      if (budget.skip("remaining approaches at this scale")) break;
      const RunResult r = run_approach(a, cfg);
      print_row({std::to_string(s.brokers), std::to_string(total), approach_name(a),
                 std::to_string(r.summary.allocated_brokers),
                 fmt(r.summary.avg_broker_msg_rate, 2), fmt(r.summary.system_msg_rate, 1),
                 fmt(r.summary.avg_hop_count, 2)},
                widths);
      JsonObject row = run_result_json(r);
      row.set_integer("brokers", s.brokers)
          .set_integer("subscriptions", total);
      json_rows.push_back(row.render());
    }
    std::printf("\n");
  }
  write_sim_bench_json("e5", json_rows);
  return 0;
}
