// The publication-routing fast path: compiled filters and
// advertisement-scoped candidate pruning must both be invisible to
// observable behavior. These tests pit each layer against a naive oracle on
// randomized inputs and assert the end-to-end simulation is bit-identical
// with pruning disabled.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "broker/routing_tables.hpp"
#include "common/rng.hpp"
#include "matching/compiled_filter.hpp"
#include "matching/matching_engine.hpp"
#include "scenario/scenario.hpp"

namespace greenps {
namespace {

// Restore the process-wide pruning toggle even if a test fails.
struct ToggleGuard {
  bool pruning = SubscriptionRoutingTable::adv_pruning_enabled();
  ~ToggleGuard() { SubscriptionRoutingTable::set_adv_pruning_enabled(pruning); }
};

const char* const kAttrs[] = {"class", "symbol", "low", "volume", "flag", "note"};
const char* const kStrings[] = {"STOCK", "YHOO", "GOOG", "IBM", "abc", ""};

Value random_value(Rng& rng) {
  switch (rng.index(6)) {
    case 0: return Value(rng.uniform_int(-3, 3));
    case 1: return Value(rng.uniform_real(-2.0, 2.0));
    case 2: return Value(rng.chance(0.5) ? 0.0 : -0.0);  // canonical-zero edge
    case 3: return Value(std::string(kStrings[rng.index(6)]));
    case 4: return Value(rng.chance(0.5));
    default: return Value(static_cast<double>(rng.uniform_int(-3, 3)));  // int/real alias
  }
}

Filter random_filter(Rng& rng) {
  static const Op kOps[] = {Op::kEq,     Op::kNeq,    Op::kLt,       Op::kLe,     Op::kGt,
                            Op::kGe,     Op::kPrefix, Op::kSuffix,   Op::kContains,
                            Op::kPresent};
  Filter f;
  const std::size_t n = 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    Predicate p;
    p.attribute = kAttrs[rng.index(6)];
    p.op = kOps[rng.index(10)];
    p.value = random_value(rng);
    f.add(std::move(p));
  }
  return f;
}

Publication random_publication(Rng& rng) {
  Publication pub;
  const std::size_t n = 1 + rng.index(6);
  for (std::size_t i = 0; i < n; ++i) {
    pub.set_attr(kAttrs[rng.index(6)], random_value(rng));
  }
  return pub;
}

// 1,500 randomized cases: the compiled form must agree with Filter::matches
// exactly, including mixed-kind comparisons, canonical zeros and the slow
// string/negation operators.
TEST(CompiledFilter, AgreesWithFilterMatchesOnRandomInputs) {
  Rng rng(7);
  for (int i = 0; i < 1500; ++i) {
    const Filter f = random_filter(rng);
    const CompiledFilter cf(f);
    const Publication pub = random_publication(rng);
    EXPECT_EQ(cf.matches(pub), f.matches(pub))
        << "case " << i << ": " << f.to_string() << " vs " << pub.to_string();
  }
}

Filter symbol_filter(const std::string& symbol) {
  Filter f;
  f.add(Predicate{"class", Op::kEq, Value(std::string("STOCK"))});
  f.add(Predicate{"symbol", Op::kEq, Value(symbol)});
  return f;
}

// Advertisement-scoped pruning must return exactly the unpruned decision for
// every publication — conforming, non-conforming, and unknown-advertisement.
TEST(SubscriptionRoutingTable, AdvScopedPruningMatchesUnprunedDecision) {
  ToggleGuard guard;
  Rng rng(11);
  const std::string symbols[] = {"YHOO", "GOOG", "IBM"};

  SubscriptionRoutingTable srt;
  // Advertisements registered first (as install_routing does), then
  // subscriptions stream in; freeze() computes the scopes.
  for (std::size_t i = 0; i < 3; ++i) {
    srt.register_advertisement(AdvId{i + 1}, symbol_filter(symbols[i]));
  }
  std::uint64_t next = 1;
  for (int i = 0; i < 150; ++i) {
    Filter f = symbol_filter(symbols[rng.index(3)]);
    if (rng.chance(0.5)) {
      f.add(Predicate{"low", rng.chance(0.5) ? Op::kGt : Op::kLe,
                      Value(rng.uniform_real(-2.0, 2.0))});
    }
    const Hop hop = rng.chance(0.5) ? Hop::to_client(ClientId{next})
                                    : Hop::to_broker(BrokerId{rng.index(5)});
    srt.insert(SubId{next}, f, hop);
    ++next;
  }
  // A few free-form subscriptions that intersect no advertisement cleanly.
  for (int i = 0; i < 20; ++i) {
    srt.insert(SubId{next}, random_filter(rng), Hop::to_client(ClientId{next}));
    ++next;
  }
  srt.freeze();

  for (int round = 0; round < 400; ++round) {
    Publication pub;
    const std::size_t sym = rng.index(3);
    if (rng.chance(0.8)) {
      pub.set_attr("class", Value(std::string("STOCK")));
      pub.set_attr("symbol", Value(std::string(symbols[sym])));
      pub.set_attr("low", Value(rng.uniform_real(-2.0, 2.0)));
    } else {
      pub = random_publication(rng);  // usually non-conforming
    }
    // Known advertisement, unknown advertisement, or no header at all.
    if (rng.chance(0.8)) {
      pub.set_header(AdvId{sym + 1}, 1);
    } else if (rng.chance(0.5)) {
      pub.set_header(AdvId{99}, 1);
    }
    const BrokerId excl{1};
    const BrokerId* exclude = rng.chance(0.5) ? &excl : nullptr;

    SubscriptionRoutingTable::set_adv_pruning_enabled(true);
    const auto pruned = srt.match(pub, exclude);
    SubscriptionRoutingTable::set_adv_pruning_enabled(false);
    const auto full = srt.match(pub, exclude);
    EXPECT_EQ(pruned.forward_to, full.forward_to) << "round " << round;
    EXPECT_EQ(pruned.deliver, full.deliver) << "round " << round;
  }
}

// The pruned fast path must evaluate strictly fewer candidates than a
// brute-force scan, and the walk counter must account for both.
TEST(SubscriptionRoutingTable, PruningReducesMatchWalks) {
  ToggleGuard guard;
  SubscriptionRoutingTable srt;
  srt.register_advertisement(AdvId{1}, symbol_filter("YHOO"));
  const std::string symbols[] = {"YHOO", "GOOG", "IBM", "MSFT"};
  for (std::uint64_t i = 0; i < 200; ++i) {
    srt.insert(SubId{i + 1}, symbol_filter(symbols[i % 4]), Hop::to_client(ClientId{i + 1}));
  }
  srt.freeze();
  Publication pub;
  pub.set_attr("class", Value(std::string("STOCK")));
  pub.set_attr("symbol", Value(std::string("YHOO")));
  pub.set_header(AdvId{1}, 1);

  SubscriptionRoutingTable::set_adv_pruning_enabled(true);
  MatchingEngine::reset_match_walks();
  const auto pruned = srt.match(pub);
  const std::size_t pruned_walks = MatchingEngine::match_walks();

  SubscriptionRoutingTable::set_adv_pruning_enabled(false);
  MatchingEngine::reset_match_walks();
  const auto brute = srt.match(pub);
  const std::size_t brute_walks = MatchingEngine::match_walks();

  EXPECT_EQ(pruned.deliver, brute.deliver);
  EXPECT_EQ(pruned.deliver.size(), 50u);
  EXPECT_EQ(pruned_walks, 50u);   // exactly the YHOO scope
  EXPECT_EQ(brute_walks, 200u);   // every compiled filter
}

// End-to-end determinism: a full simulation must produce a bit-identical
// summary with advertisement-scoped pruning on and off.
TEST(SimulationDeterminism, FastPathTogglesPreserveSummaryBitForBit) {
  ToggleGuard guard;
  ScenarioConfig cfg;
  cfg.num_brokers = 12;
  cfg.num_publishers = 4;
  cfg.subs_per_publisher = 8;
  cfg.full_out_bw_kb_s = 30.0;
  cfg.seed = 42;

  const auto run = [&cfg](bool fast) {
    SubscriptionRoutingTable::set_adv_pruning_enabled(fast);
    Simulation sim = make_simulation(cfg);
    sim.run(5.0);
    sim.reset_metrics();
    sim.run(10.0);
    return sim.summarize();
  };
  const SimSummary fast = run(true);
  const SimSummary slow = run(false);

  EXPECT_EQ(fast.publications, slow.publications);
  EXPECT_EQ(fast.deliveries, slow.deliveries);
  EXPECT_EQ(fast.broker_msgs_total, slow.broker_msgs_total);
  EXPECT_EQ(fast.brokers_with_traffic, slow.brokers_with_traffic);
  EXPECT_EQ(fast.pure_forwarding_brokers, slow.pure_forwarding_brokers);
  // Doubles compared exactly: the fast path must not perturb a single event.
  EXPECT_EQ(fast.avg_hop_count, slow.avg_hop_count);
  EXPECT_EQ(fast.avg_delivery_delay_ms, slow.avg_delivery_delay_ms);
  EXPECT_EQ(fast.p50_delivery_delay_ms, slow.p50_delivery_delay_ms);
  EXPECT_EQ(fast.p99_delivery_delay_ms, slow.p99_delivery_delay_ms);
  EXPECT_EQ(fast.system_msg_rate, slow.system_msg_rate);
  EXPECT_EQ(fast.avg_broker_msg_rate, slow.avg_broker_msg_rate);
  EXPECT_EQ(fast.avg_output_utilization, slow.avg_output_utilization);
  EXPECT_GT(fast.deliveries, 0u);
}

}  // namespace
}  // namespace greenps
