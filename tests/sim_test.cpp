#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "language/parser.hpp"
#include "sim/event_queue.hpp"
#include "sim/loss_oracle.hpp"

namespace greenps {
namespace {

// Chain of `n` brokers: 0 - 1 - ... - n-1, one publisher of symbol SYM at
// broker `pub_home`, subscribers as given.
struct TestNet {
  Deployment dep;
  std::uint64_t next_client = 0;
  std::uint64_t next_sub = 0;

  explicit TestNet(std::size_t n, Bandwidth out_bw = 1.0e5) {
    for (std::uint64_t i = 0; i < n; ++i) {
      dep.topology.add_broker(BrokerId{i});
      if (i > 0) dep.topology.add_link(BrokerId{i - 1}, BrokerId{i});
      dep.capacities.emplace(BrokerId{i},
                             BrokerCapacity{out_bw, MatchingDelayFunction{10e-6, 0.5e-6}});
    }
  }

  void add_publisher(const std::string& symbol, std::uint64_t home, MsgRate rate = 10.0) {
    PublisherSpec p;
    p.client = ClientId{next_client++};
    p.adv = AdvId{dep.publishers.size()};
    p.symbol = symbol;
    p.rate_msg_s = rate;
    p.home = BrokerId{home};
    p.adv_filter = parse_filter("[class,=,'STOCK'],[symbol,=,'" + symbol + "']");
    dep.publishers.push_back(std::move(p));
  }

  SubId add_subscriber(const std::string& filter, std::uint64_t home) {
    SubscriberSpec s;
    s.client = ClientId{next_client++};
    s.sub = SubId{next_sub++};
    s.filter = parse_filter(filter);
    s.home = BrokerId{home};
    dep.subscribers.push_back(s);
    return s.sub;
  }

  Simulation make() {
    return Simulation(std::move(dep),
                      StockQuoteGenerator(StockQuoteGenerator::Config{}, Rng(99)));
  }
};

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  q.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(10, [&] { order.push_back(2); });
  q.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, [&] {
    ++fired;
    q.schedule(q.now() + 1, [&] { ++fired; });
  });
  q.run_until(10);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule(5, [&] { ++fired; });
  q.schedule(50, [&] { ++fired; });
  EXPECT_EQ(q.run_until(10), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.empty());
}

TEST(Simulation, DeliversAllMatchingPublications) {
  TestNet net(3);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[class,=,'STOCK'],[symbol,=,'YHOO']", 2);  // matches everything
  Simulation sim = net.make();
  sim.run(10.0);
  const auto& m = sim.metrics();
  EXPECT_NEAR(static_cast<double>(m.publications()), 100.0, 2.0);
  // Every publication reaches the subscriber (a few may be in flight at the
  // horizon).
  EXPECT_GE(m.deliveries() + 3, m.publications());
  EXPECT_LE(m.deliveries(), m.publications());
}

TEST(Simulation, NoFalsePositiveDeliveries) {
  TestNet net(3);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[class,=,'STOCK'],[symbol,=,'GOOG']", 2);  // matches nothing
  Simulation sim = net.make();
  sim.run(5.0);
  EXPECT_GT(sim.metrics().publications(), 0u);
  EXPECT_EQ(sim.metrics().deliveries(), 0u);
}

TEST(Simulation, SelectiveFilterDeliversFraction) {
  TestNet net(2);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[class,=,'STOCK'],[symbol,=,'YHOO'],[volume,>,1000000]", 1);
  Simulation sim = net.make();
  sim.run(30.0);
  const auto& m = sim.metrics();
  // volume is uniform on [1e3, 2e6]: roughly half the quotes match.
  const double frac = static_cast<double>(m.deliveries()) /
                      static_cast<double>(m.publications());
  EXPECT_GT(frac, 0.3);
  EXPECT_LT(frac, 0.7);
}

TEST(Simulation, HopCountMatchesTopologyDistance) {
  TestNet net(4);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 3);  // 4 brokers on the path
  Simulation sim = net.make();
  sim.run(5.0);
  EXPECT_GT(sim.metrics().deliveries(), 0u);
  EXPECT_DOUBLE_EQ(sim.metrics().avg_hops(), 4.0);
  EXPECT_GT(sim.metrics().avg_delay_ms(), 0.0);
}

TEST(Simulation, PureForwarderProcessesButDeliversNothing) {
  TestNet net(3);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 2);
  Simulation sim = net.make();
  sim.run(5.0);
  const auto& traffic = sim.metrics().traffic();
  const auto mid = traffic.find(BrokerId{1});
  ASSERT_NE(mid, traffic.end());
  EXPECT_GT(mid->second.msgs_in, 0u);
  EXPECT_GT(mid->second.msgs_out, 0u);
  EXPECT_EQ(mid->second.local_deliveries, 0u);
  const SimSummary s = sim.summarize();
  EXPECT_EQ(s.pure_forwarding_brokers, 1u);
}

TEST(Simulation, PublicationsStopAtUnmatchedBranches) {
  // Star: pub at center 0; subscriber for YHOO at 1; broker 2 must see no
  // traffic (filter-based routing, not flooding).
  TestNet net(1);
  net.dep.topology.add_link(BrokerId{0}, BrokerId{1});
  net.dep.topology.add_link(BrokerId{0}, BrokerId{2});
  for (std::uint64_t i = 1; i <= 2; ++i) {
    net.dep.capacities.emplace(BrokerId{i},
                               BrokerCapacity{1.0e5, MatchingDelayFunction{10e-6, 0.5e-6}});
  }
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation sim = net.make();
  sim.run(5.0);
  EXPECT_FALSE(sim.metrics().traffic().contains(BrokerId{2}));
}

TEST(Simulation, CbcProfilesFillDuringRun) {
  TestNet net(2);
  net.add_publisher("YHOO", 0);
  const SubId sub = net.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation sim = net.make();
  sim.run(10.0);
  const BrokerInfo info = sim.broker_info(BrokerId{1});
  ASSERT_EQ(info.subscriptions.size(), 1u);
  EXPECT_EQ(info.subscriptions[0].id, sub);
  EXPECT_GT(info.subscriptions[0].profile.cardinality(), 50u);
  const BrokerInfo pub_info = sim.broker_info(BrokerId{0});
  ASSERT_EQ(pub_info.publishers.size(), 1u);
  EXPECT_NEAR(pub_info.publishers[0].profile.rate_msg_s, 10.0, 1.5);
}

TEST(Simulation, RedeployKeepsSequenceNumbers) {
  TestNet net(2);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation sim = net.make();
  sim.run(5.0);
  const auto pubs_before = sim.metrics().publications();
  EXPECT_GT(pubs_before, 0u);

  // Rebuild the same deployment with swapped homes.
  Deployment next = sim.deployment();
  next.publishers[0].home = BrokerId{1};
  next.subscribers[0].home = BrokerId{0};
  sim.redeploy(std::move(next));
  EXPECT_EQ(sim.metrics().publications(), 0u);  // metrics reset
  sim.run(5.0);
  EXPECT_GT(sim.metrics().deliveries(), 0u);
  // Sequence numbers continued: the subscriber's new profile window anchors
  // past the pre-reconfiguration sequence range.
  const BrokerInfo info = sim.broker_info(BrokerId{0});
  ASSERT_EQ(info.subscriptions.size(), 1u);
  const auto* v = info.subscriptions[0].profile.vector_for(AdvId{0});
  ASSERT_NE(v, nullptr);
  EXPECT_GE(v->first_id(), static_cast<MessageSeq>(pubs_before) - 1);
}

TEST(Simulation, SummaryRatesAreConsistent) {
  TestNet net(3);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 2);
  Simulation sim = net.make();
  sim.run(10.0);
  const SimSummary s = sim.summarize();
  EXPECT_EQ(s.allocated_brokers, 3u);
  EXPECT_GT(s.system_msg_rate, 0.0);
  EXPECT_NEAR(s.avg_broker_msg_rate * 3.0, s.system_msg_rate, 1e-9);
  EXPECT_GT(s.avg_output_utilization, 0.0);
  EXPECT_LT(s.avg_output_utilization, 1.0);
}

TEST(EventQueue, KeyedTiesOrderByKey) {
  EventQueue q;
  std::vector<int> order;
  // Legacy insertion-keyed events carry the highest class, so they fire
  // after every content-keyed event at the same timestamp.
  q.schedule(10, [&] { order.push_back(9); });
  q.schedule_keyed(10, EventKey{(2ull << 56) | 3, 5}, [&] { order.push_back(3); });
  q.schedule_keyed(10, EventKey{(1ull << 56) | 7, 0}, [&] { order.push_back(1); });
  q.schedule_keyed(10, EventKey{(2ull << 56) | 3, 1}, [&] { order.push_back(2); });
  q.schedule_keyed(5, EventKey{(2ull << 56) | 9, 0}, [&] { order.push_back(0); });
  q.run_until(10);
  // Time first, then (hi, lo) — regardless of insertion order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 9}));
}

// --- derived retransmit caps --------------------------------------------

TEST(Simulation, RetransmitCapDerivedFromProfiledRate) {
  TestNet net(2);
  net.add_publisher("AAA", 0, 200.0);
  net.add_subscriber("[symbol,=,'AAA']", 1);
  Simulation sim = net.make();
  sim.run(10.0);
  const BrokerTraffic t1 = sim.metrics().traffic().at(BrokerId{1});
  const BrokerTraffic t0 = sim.metrics().traffic().at(BrokerId{0});
  const double measured = sim.measured_seconds();
  sim.reset_metrics();  // snapshots the profiled rates for the next epoch

  FaultOptions fo;
  fo.retransmit_on_reconnect = true;
  fo.expected_outage_s = 2.0;  // headroom defaults to 2.0
  sim.install_faults(FaultSchedule{}, fo);

  // Broker 1 (forwarding + delivering, ~400 msg/s): cap = ceil(rate * 2 s
  // * 2.0 headroom), above the 1024 floor.
  const double rate1 =
      static_cast<double>(t1.msgs_in + t1.local_deliveries) / measured;
  const auto expected1 = static_cast<std::size_t>(std::ceil(rate1 * 2.0 * 2.0));
  ASSERT_GT(expected1, 1024u);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{1}), expected1);

  // Broker 0 (~200 msg/s, no local deliveries): the derived cap falls below
  // the floor and clamps to 1024.
  const double rate0 =
      static_cast<double>(t0.msgs_in + t0.local_deliveries) / measured;
  ASSERT_LT(rate0 * 2.0 * 2.0, 1024.0);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{0}), 1024u);
}

TEST(Simulation, RetransmitCapFallsBackWithoutProfile) {
  TestNet net(2);
  net.add_publisher("AAA", 0);
  net.add_subscriber("[symbol,=,'AAA']", 1);
  Simulation sim = net.make();
  // No run yet: no profiled rates, so every broker gets the historical flat
  // default.
  sim.install_faults(FaultSchedule{}, FaultOptions{});
  EXPECT_EQ(sim.retransmit_cap(BrokerId{0}), 65536u);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{1}), 65536u);

  // An explicit nonzero cap bypasses derivation entirely.
  FaultOptions flat;
  flat.max_retransmit_buffer = 4096;
  sim.install_faults(FaultSchedule{}, flat);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{0}), 4096u);
  EXPECT_EQ(sim.retransmit_cap(BrokerId{1}), 4096u);
}

TEST(Simulation, RetransmitOverflowSurfacesInSummary) {
  TestNet net(3);
  net.add_publisher("AAA", 0, 100.0);
  net.add_subscriber("[symbol,=,'AAA']", 2);
  Simulation sim = net.make();
  FaultSchedule fs;
  fs.outage(seconds(1.0), seconds(3.0), BrokerId{2});
  FaultOptions fo;
  fo.retransmit_on_reconnect = true;
  fo.max_retransmit_buffer = 5;  // ~300 arrivals during the outage: overflows
  sim.install_faults(std::move(fs), fo);
  sim.run(6.0);
  const SimSummary s = sim.summarize();
  EXPECT_GT(s.retransmit_overflow, 0u);
  EXPECT_EQ(s.retransmit_overflow, sim.fault_state().stats().retransmit_overflow);
}

TEST(Simulation, BandwidthThrottlingIncreasesDelay) {
  TestNet fast(2, /*out_bw=*/1.0e5);
  fast.add_publisher("YHOO", 0, 50.0);
  for (int i = 0; i < 20; ++i) fast.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation fast_sim = fast.make();
  fast_sim.run(10.0);

  TestNet slow(2, /*out_bw=*/18.0);  // barely above offered load
  slow.add_publisher("YHOO", 0, 50.0);
  for (int i = 0; i < 20; ++i) slow.add_subscriber("[symbol,=,'YHOO']", 1);
  Simulation slow_sim = slow.make();
  slow_sim.run(10.0);

  EXPECT_GT(slow_sim.metrics().avg_delay_ms(), fast_sim.metrics().avg_delay_ms());
}

// --- pinned simulator output --------------------------------------------
//
// Exact results of fixed runs, recorded as constants (doubles as hex-float
// literals, so equality is bit-for-bit). Any change to event order, fault
// handling, metrics reduction or the sampler shows up here as a diff.

// Fanout-3 tree of `n` brokers with a seed-scrambled mix of publishers
// (distinct symbols, mixed rates) and subscribers (exact and range filters).
TestNet matrix_net(std::size_t n, std::uint64_t seed) {
  TestNet net(1);
  for (std::uint64_t i = 1; i < n; ++i) {
    net.dep.topology.add_link(BrokerId{(i - 1) / 3}, BrokerId{i});
    net.dep.capacities.emplace(BrokerId{i},
                               BrokerCapacity{1.0e5, MatchingDelayFunction{10e-6, 0.5e-6}});
  }
  Rng rng(seed);
  const char* symbols[] = {"AAA", "BBB", "CCC", "DDD"};
  const double rates[] = {40.0, 25.0, 15.0, 10.0};
  for (std::size_t i = 0; i < 4; ++i) {
    net.add_publisher(symbols[i], rng.index(n), rates[i]);
  }
  // Two guaranteed-match subscribers, then a scrambled tail.
  net.add_subscriber("[symbol,=,'AAA']", rng.index(n));
  net.add_subscriber("[symbol,=,'BBB']", rng.index(n));
  for (std::size_t k = 0; k < 10; ++k) {
    const std::string symbol = symbols[rng.index(4)];
    std::string filter = "[symbol,=,'" + symbol + "']";
    switch (rng.index(3)) {
      case 1: filter += ",[volume,>,1000000]"; break;
      case 2: filter += ",[volume,<,800000]"; break;
      default: break;
    }
    net.add_subscriber(filter, rng.index(n));
  }
  return net;
}

struct PinnedTraffic {
  std::uint64_t broker = 0;
  std::uint64_t msgs_in = 0;
  std::uint64_t msgs_out = 0;
  std::uint64_t local_deliveries = 0;
  std::uint64_t hop_total = 0;
  double delay_total_s = 0;
};

struct PinnedRun {
  SimSummary summary;
  FaultStats faults;
  std::vector<PinnedTraffic> traffic;  // ascending broker id
  std::size_t events = 0;
  std::size_t ledger_rows = 0;
  std::size_t sample_rows = 0;
  double sample_value_sum = 0;  // every sampler value, summed in row order
  std::uint64_t audit_expected = 0;
  std::uint64_t audit_excused = 0;
  std::size_t audit_real_losses = 0;
};

// The 13-broker matrix network, two 3 s run() segments (the second resumes
// with non-empty queues mid-stream), the ledger on so the loss oracle
// audits every case.
PinnedRun pinned_run(std::uint64_t seed, bool faulted, double sample_ms) {
  TestNet net = matrix_net(13, seed);
  Simulation sim = net.make();
  sim.set_publication_ledger(true);
  if (sample_ms > 0) sim.set_sample_interval_ms(sample_ms);
  if (faulted) {
    FaultSchedule fs;
    fs.link_drop(seconds(1.0), BrokerId{0}, BrokerId{1}, 0.2);
    fs.outage(seconds(2.0), seconds(1.5), BrokerId{4});
    fs.latency_spike(seconds(3.0), seconds(0.002));
    fs.latency_spike(seconds(4.5), 0);
    fs.link_drop(seconds(5.0), BrokerId{0}, BrokerId{1}, 0.0);
    FaultOptions fo;
    fo.retransmit_on_reconnect = true;
    sim.install_faults(std::move(fs), fo);
  }
  sim.run(3.0);
  sim.run(3.0);

  PinnedRun r;
  r.summary = sim.summarize();
  r.faults = sim.fault_state().stats();
  for (const auto& [id, t] : sim.metrics().traffic()) {
    r.traffic.push_back(
        {id.value(), t.msgs_in, t.msgs_out, t.local_deliveries, t.hop_total, t.delay_total_s});
  }
  std::sort(r.traffic.begin(), r.traffic.end(),
            [](const PinnedTraffic& a, const PinnedTraffic& b) { return a.broker < b.broker; });
  r.events = sim.events_executed();
  r.ledger_rows = sim.publish_ledger().size();
  r.sample_rows = sim.samples().row_count();
  for (const auto& row : sim.samples().rows()) {
    for (const double v : row.values) r.sample_value_sum += v;
  }
  const LossAudit audit =
      audit_losses(sim, StockQuoteGenerator(StockQuoteGenerator::Config{}, Rng(99)));
  r.audit_expected = audit.expected;
  r.audit_excused = audit.excused;
  r.audit_real_losses = audit.real_losses.size();
  return r;
}

struct PinnedCase {
  std::uint64_t seed = 0;
  bool faulted = false;
  double sample_ms = 0;
  PinnedRun expect;
};

// Seeds 7 and 21, fault-free and faulted, plus one faulted run sampled every
// 250 ms. Re-record only for an intended change in event order or
// accounting.
const std::vector<PinnedCase>& pinned_cases() {
  static const std::vector<PinnedCase> cases = {
    {7, false, 0,
     PinnedRun{
         .summary = {.duration_s = 0x1.8p+2,
                     .brokers_with_traffic = 11,
                     .allocated_brokers = 13,
                     .publications = 541,
                     .deliveries = 1315,
                     .broker_msgs_total = 5997,
                     .avg_broker_msg_rate = 0x1.3389d89d89d8ap+6,
                     .system_msg_rate = 0x1.f3cp+9,
                     .avg_hop_count = 0x1.d750031d656d3p+1,
                     .avg_delivery_delay_ms = 0x1.ccbdf2d09f346p+0,
                     .p50_delivery_delay_ms = 0x1.02fbed2c01932p+1,
                     .p99_delivery_delay_ms = 0x1.29d4ea5901cfap+1,
                     .avg_output_utilization = 0x1.42c55062663a3p-13,
                     .pure_forwarding_brokers = 0,
                     .retransmit_overflow = 0,
                     .pubs_deferred = 0,
                     .pubs_shed = 0,
                     .msgs_stranded = 0},
         .faults = {.crashes = 0,
                    .restarts = 0,
                    .link_downs = 0,
                    .link_ups = 0,
                    .pubs_dropped_at_source = 0,
                    .arrivals_dropped = 0,
                    .deliveries_dropped = 0,
                    .msgs_dropped_link_down = 0,
                    .msgs_dropped_random = 0,
                    .retransmits_replayed = 0,
                    .retransmit_overflow = 0,
                    .pubs_deferred_admission = 0,
                    .pubs_readmitted = 0,
                    .pubs_shed_admission = 0},
         .traffic = {
             {0, 540, 785, 300, 900, 0x1.bdfe32a0663c8p-2},
             {1, 330, 570, 240, 960, 0x1.e2ac322291fd4p-2},
             {2, 395, 395, 0, 0, 0x0p+0},
             {3, 300, 525, 114, 318, 0x1.397c3d68405b3p-3},
             {4, 240, 240, 240, 1200, 0x1.30014f8b588c8p-1},
             {7, 30, 30, 30, 120, 0x1.e1b089a02752cp-5},
             {8, 125, 125, 125, 625, 0x1.3d1f601797cc7p-2},
             {9, 240, 240, 0, 0, 0x0p+0},
             {10, 150, 150, 150, 450, 0x1.bcd35a858794fp-3},
             {11, 111, 111, 51, 204, 0x1.9a1016ce789fp-4},
             {12, 150, 215, 65, 65, 0x1.bd273d5bab226p-6},
         },
         .events = 4467,
         .ledger_rows = 541,
         .sample_rows = 0,
         .sample_value_sum = 0x0p+0,
         .audit_expected = 1317,
         .audit_excused = 2,
         .audit_real_losses = 0}},
    {7, true, 0,
     PinnedRun{
         .summary = {.duration_s = 0x1.8p+2,
                     .brokers_with_traffic = 11,
                     .allocated_brokers = 13,
                     .publications = 541,
                     .deliveries = 1212,
                     .broker_msgs_total = 5652,
                     .avg_broker_msg_rate = 0x1.21d89d89d89d9p+6,
                     .system_msg_rate = 0x1.d7p+9,
                     .avg_hop_count = 0x1.d1be1958b67ecp+1,
                     .avg_delivery_delay_ms = 0x1.e3c9a30235d15p+4,
                     .p50_delivery_delay_ms = 0x1.02fbed2c01932p+1,
                     .p99_delivery_delay_ms = 0x1.1086557457954p+10,
                     .avg_output_utilization = 0x1.2644c00feb569p-13,
                     .pure_forwarding_brokers = 0,
                     .retransmit_overflow = 0,
                     .pubs_deferred = 0,
                     .pubs_shed = 0,
                     .msgs_stranded = 0},
         .faults = {.crashes = 1,
                    .restarts = 1,
                    .link_downs = 0,
                    .link_ups = 0,
                    .pubs_dropped_at_source = 0,
                    .arrivals_dropped = 42,
                    .deliveries_dropped = 0,
                    .msgs_dropped_link_down = 0,
                    .msgs_dropped_random = 52,
                    .retransmits_replayed = 42,
                    .retransmit_overflow = 0,
                    .pubs_deferred_admission = 0,
                    .pubs_readmitted = 0,
                    .pubs_shed_admission = 0},
         .traffic = {
             {0, 524, 731, 300, 900, 0x1.7aa4fca42aee1p-1},
             {1, 294, 482, 204, 816, 0x1.544dca8e2e2a9p-1},
             {2, 393, 393, 0, 0, 0x0p+0},
             {3, 284, 496, 98, 270, 0x1.a9a8049667b65p-3},
             {4, 204, 204, 204, 1020, 0x1.0eaab042528b3p+5},
             {7, 28, 28, 28, 112, 0x1.8cd20afa2f05cp-4},
             {8, 125, 125, 125, 625, 0x1.25bab218159ffp-1},
             {9, 240, 240, 0, 0, 0x0p+0},
             {10, 150, 150, 150, 450, 0x1.7a0f9096bb996p-2},
             {11, 98, 98, 38, 152, 0x1.13a604e1e7103p-3},
             {12, 150, 215, 65, 65, 0x1.bd273d5bab226p-6},
         },
         .events = 4291,
         .ledger_rows = 541,
         .sample_rows = 0,
         .sample_value_sum = 0x0p+0,
         .audit_expected = 1317,
         .audit_excused = 22,
         .audit_real_losses = 83}},
    {21, false, 0,
     PinnedRun{
         .summary = {.duration_s = 0x1.8p+2,
                     .brokers_with_traffic = 11,
                     .allocated_brokers = 13,
                     .publications = 541,
                     .deliveries = 1230,
                     .broker_msgs_total = 5802,
                     .avg_broker_msg_rate = 0x1.2989d89d89d8ap+6,
                     .system_msg_rate = 0x1.e38p+9,
                     .avg_hop_count = 0x1.bd30b3d30b3d3p+1,
                     .avg_delivery_delay_ms = 0x1.b27abd79975c8p+0,
                     .p50_delivery_delay_ms = 0x1.02fbed2c01932p+1,
                     .p99_delivery_delay_ms = 0x1.29d4ea5901cfap+1,
                     .avg_output_utilization = 0x1.356cdcdcbe3d4p-13,
                     .pure_forwarding_brokers = 0,
                     .retransmit_overflow = 0,
                     .pubs_deferred = 0,
                     .pubs_shed = 0,
                     .msgs_stranded = 0},
         .faults = {.crashes = 0,
                    .restarts = 0,
                    .link_downs = 0,
                    .link_ups = 0,
                    .pubs_dropped_at_source = 0,
                    .arrivals_dropped = 0,
                    .deliveries_dropped = 0,
                    .msgs_dropped_link_down = 0,
                    .msgs_dropped_random = 0,
                    .retransmits_replayed = 0,
                    .retransmit_overflow = 0,
                    .pubs_deferred_admission = 0,
                    .pubs_readmitted = 0,
                    .pubs_shed_admission = 0},
         .traffic = {
             {0, 474, 744, 270, 570, 0x1.13397dd00f768p-2},
             {1, 474, 720, 0, 0, 0x0p+0},
             {2, 180, 180, 30, 120, 0x1.e2eb1c432ca5cp-5},
             {3, 294, 534, 96, 96, 0x1.4a4d2b2bfdb45p-5},
             {4, 150, 150, 150, 750, 0x1.7c504816f005dp-2},
             {5, 396, 330, 246, 1134, 0x1.1f5946c332fp-1},
             {6, 240, 240, 240, 960, 0x1.e3369b9d7fd8cp-2},
             {8, 150, 150, 0, 0, 0x0p+0},
             {10, 54, 54, 54, 270, 0x1.128f190d173fap-3},
             {11, 30, 30, 30, 150, 0x1.315f88fc9364p-4},
             {12, 114, 114, 114, 228, 0x1.b3a8a3f8982dep-4},
         },
         .events = 4327,
         .ledger_rows = 541,
         .sample_rows = 0,
         .sample_value_sum = 0x0p+0,
         .audit_expected = 1233,
         .audit_excused = 3,
         .audit_real_losses = 0}},
    {21, true, 0,
     PinnedRun{
         .summary = {.duration_s = 0x1.8p+2,
                     .brokers_with_traffic = 11,
                     .allocated_brokers = 13,
                     .publications = 541,
                     .deliveries = 1110,
                     .broker_msgs_total = 5280,
                     .avg_broker_msg_rate = 0x1.0ec4ec4ec4ec5p+6,
                     .system_msg_rate = 0x1.b8p+9,
                     .avg_hop_count = 0x1.af0c743ce2f0cp+1,
                     .avg_delivery_delay_ms = 0x1.778df43e4db1dp+4,
                     .p50_delivery_delay_ms = 0x1.02fbed2c01932p+1,
                     .p99_delivery_delay_ms = 0x1.d9f4c12360aaap+9,
                     .avg_output_utilization = 0x1.128948745b2f4p-13,
                     .pure_forwarding_brokers = 0,
                     .retransmit_overflow = 0,
                     .pubs_deferred = 0,
                     .pubs_shed = 0,
                     .msgs_stranded = 0},
         .faults = {.crashes = 1,
                    .restarts = 1,
                    .link_downs = 0,
                    .link_ups = 0,
                    .pubs_dropped_at_source = 0,
                    .arrivals_dropped = 29,
                    .deliveries_dropped = 0,
                    .msgs_dropped_link_down = 0,
                    .msgs_dropped_random = 76,
                    .retransmits_replayed = 29,
                    .retransmit_overflow = 0,
                    .pubs_deferred_admission = 0,
                    .pubs_readmitted = 0,
                    .pubs_shed_admission = 0},
         .traffic = {
             {0, 461, 665, 267, 561, 0x1.a219220ff5401p-2},
             {1, 411, 606, 0, 0, 0x0p+0},
             {2, 175, 175, 25, 100, 0x1.a666666666664p-4},
             {3, 286, 523, 96, 96, 0x1.4a4d2b2bfdb45p-5},
             {4, 124, 124, 124, 620, 0x1.7972830a0b1ccp+4},
             {5, 358, 292, 208, 956, 0x1.87b890d5a5b87p-1},
             {6, 203, 203, 203, 812, 0x1.5cbf4cb189798p-1},
             {8, 150, 150, 0, 0, 0x0p+0},
             {10, 46, 46, 46, 230, 0x1.6cf63800218e4p-3},
             {11, 27, 27, 27, 135, 0x1.d77318fc5048p-4},
             {12, 114, 114, 114, 228, 0x1.60ff540895d07p-3},
         },
         .events = 4041,
         .ledger_rows = 541,
         .sample_rows = 0,
         .sample_value_sum = 0x0p+0,
         .audit_expected = 1233,
         .audit_excused = 14,
         .audit_real_losses = 109}},
    {21, true, 250,
     PinnedRun{
         .summary = {.duration_s = 0x1.8p+2,
                     .brokers_with_traffic = 11,
                     .allocated_brokers = 13,
                     .publications = 541,
                     .deliveries = 1110,
                     .broker_msgs_total = 5280,
                     .avg_broker_msg_rate = 0x1.0ec4ec4ec4ec5p+6,
                     .system_msg_rate = 0x1.b8p+9,
                     .avg_hop_count = 0x1.af0c743ce2f0cp+1,
                     .avg_delivery_delay_ms = 0x1.778df43e4db1dp+4,
                     .p50_delivery_delay_ms = 0x1.02fbed2c01932p+1,
                     .p99_delivery_delay_ms = 0x1.d9f4c12360aaap+9,
                     .avg_output_utilization = 0x1.128948745b2f4p-13,
                     .pure_forwarding_brokers = 0,
                     .retransmit_overflow = 0,
                     .pubs_deferred = 0,
                     .pubs_shed = 0,
                     .msgs_stranded = 0},
         .faults = {.crashes = 1,
                    .restarts = 1,
                    .link_downs = 0,
                    .link_ups = 0,
                    .pubs_dropped_at_source = 0,
                    .arrivals_dropped = 29,
                    .deliveries_dropped = 0,
                    .msgs_dropped_link_down = 0,
                    .msgs_dropped_random = 76,
                    .retransmits_replayed = 29,
                    .retransmit_overflow = 0,
                    .pubs_deferred_admission = 0,
                    .pubs_readmitted = 0,
                    .pubs_shed_admission = 0},
         .traffic = {
             {0, 461, 665, 267, 561, 0x1.a219220ff5401p-2},
             {1, 411, 606, 0, 0, 0x0p+0},
             {2, 175, 175, 25, 100, 0x1.a666666666664p-4},
             {3, 286, 523, 96, 96, 0x1.4a4d2b2bfdb45p-5},
             {4, 124, 124, 124, 620, 0x1.7972830a0b1ccp+4},
             {5, 358, 292, 208, 956, 0x1.87b890d5a5b87p-1},
             {6, 203, 203, 203, 812, 0x1.5cbf4cb189798p-1},
             {8, 150, 150, 0, 0, 0x0p+0},
             {10, 46, 46, 46, 230, 0x1.6cf63800218e4p-3},
             {11, 27, 27, 27, 135, 0x1.d77318fc5048p-4},
             {12, 114, 114, 114, 228, 0x1.60ff540895d07p-3},
         },
         .events = 4065,
         .ledger_rows = 541,
         .sample_rows = 306,
         .sample_value_sum = 0x1.4a0023e4abe6ap+14,
         .audit_expected = 1233,
         .audit_excused = 14,
         .audit_real_losses = 109}},
  };
  return cases;
}

void expect_pinned(const PinnedRun& want, const PinnedRun& got) {
  const SimSummary& a = want.summary;
  const SimSummary& b = got.summary;
  EXPECT_EQ(b.duration_s, a.duration_s);
  EXPECT_EQ(b.brokers_with_traffic, a.brokers_with_traffic);
  EXPECT_EQ(b.allocated_brokers, a.allocated_brokers);
  EXPECT_EQ(b.publications, a.publications);
  EXPECT_EQ(b.deliveries, a.deliveries);
  EXPECT_EQ(b.broker_msgs_total, a.broker_msgs_total);
  EXPECT_EQ(b.avg_broker_msg_rate, a.avg_broker_msg_rate);
  EXPECT_EQ(b.system_msg_rate, a.system_msg_rate);
  EXPECT_EQ(b.avg_hop_count, a.avg_hop_count);
  EXPECT_EQ(b.avg_delivery_delay_ms, a.avg_delivery_delay_ms);
  EXPECT_EQ(b.p50_delivery_delay_ms, a.p50_delivery_delay_ms);
  EXPECT_EQ(b.p99_delivery_delay_ms, a.p99_delivery_delay_ms);
  EXPECT_EQ(b.avg_output_utilization, a.avg_output_utilization);
  EXPECT_EQ(b.pure_forwarding_brokers, a.pure_forwarding_brokers);
  EXPECT_EQ(b.retransmit_overflow, a.retransmit_overflow);
  EXPECT_EQ(b.pubs_deferred, a.pubs_deferred);
  EXPECT_EQ(b.pubs_shed, a.pubs_shed);
  EXPECT_EQ(b.msgs_stranded, a.msgs_stranded);

  const FaultStats& fa = want.faults;
  const FaultStats& fb = got.faults;
  EXPECT_EQ(fb.crashes, fa.crashes);
  EXPECT_EQ(fb.restarts, fa.restarts);
  EXPECT_EQ(fb.link_downs, fa.link_downs);
  EXPECT_EQ(fb.link_ups, fa.link_ups);
  EXPECT_EQ(fb.pubs_dropped_at_source, fa.pubs_dropped_at_source);
  EXPECT_EQ(fb.arrivals_dropped, fa.arrivals_dropped);
  EXPECT_EQ(fb.deliveries_dropped, fa.deliveries_dropped);
  EXPECT_EQ(fb.msgs_dropped_link_down, fa.msgs_dropped_link_down);
  EXPECT_EQ(fb.msgs_dropped_random, fa.msgs_dropped_random);
  EXPECT_EQ(fb.retransmits_replayed, fa.retransmits_replayed);
  EXPECT_EQ(fb.retransmit_overflow, fa.retransmit_overflow);
  EXPECT_EQ(fb.pubs_deferred_admission, fa.pubs_deferred_admission);
  EXPECT_EQ(fb.pubs_readmitted, fa.pubs_readmitted);
  EXPECT_EQ(fb.pubs_shed_admission, fa.pubs_shed_admission);

  ASSERT_EQ(got.traffic.size(), want.traffic.size());
  for (std::size_t i = 0; i < want.traffic.size(); ++i) {
    const PinnedTraffic& ta = want.traffic[i];
    const PinnedTraffic& tb = got.traffic[i];
    SCOPED_TRACE(::testing::Message() << "broker " << ta.broker);
    EXPECT_EQ(tb.broker, ta.broker);
    EXPECT_EQ(tb.msgs_in, ta.msgs_in);
    EXPECT_EQ(tb.msgs_out, ta.msgs_out);
    EXPECT_EQ(tb.local_deliveries, ta.local_deliveries);
    EXPECT_EQ(tb.hop_total, ta.hop_total);
    EXPECT_EQ(tb.delay_total_s, ta.delay_total_s);
  }

  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.ledger_rows, want.ledger_rows);
  EXPECT_EQ(got.sample_rows, want.sample_rows);
  EXPECT_EQ(got.sample_value_sum, want.sample_value_sum);
  EXPECT_EQ(got.audit_expected, want.audit_expected);
  EXPECT_EQ(got.audit_excused, want.audit_excused);
  EXPECT_EQ(got.audit_real_losses, want.audit_real_losses);
}

TEST(SimDeterminism, MatchesPinnedOutput) {
  for (const PinnedCase& c : pinned_cases()) {
    SCOPED_TRACE(::testing::Message() << "seed=" << c.seed << " faulted=" << c.faulted
                                      << " sample_ms=" << c.sample_ms);
    const PinnedRun got = pinned_run(c.seed, c.faulted, c.sample_ms);
    ASSERT_GT(got.summary.deliveries, 0u);
    expect_pinned(c.expect, got);
  }
}

TEST(SimDeterminism, CrashOutageReplaysWithCleanAudit) {
  // One 1.5 s outage in the middle of a chain at 50 msg/s: crash,
  // store-and-forward buffering and restart replay all happen mid-run.
  TestNet net(8);
  net.add_publisher("AAA", 0, 50.0);
  net.add_subscriber("[symbol,=,'AAA']", 7);
  net.add_subscriber("[symbol,=,'AAA']", 4);
  Simulation sim = net.make();
  FaultSchedule fs;
  fs.outage(seconds(2.0), seconds(1.5), BrokerId{3});
  FaultOptions fo;
  fo.retransmit_on_reconnect = true;
  sim.install_faults(std::move(fs), fo);
  sim.run(8.0);
  EXPECT_GT(sim.fault_state().stats().retransmits_replayed, 0u);
  const LossAudit audit =
      audit_losses(sim, StockQuoteGenerator(StockQuoteGenerator::Config{}, Rng(99)));
  EXPECT_GT(audit.expected, 0u);
  EXPECT_TRUE(audit.clean()) << audit.real_losses.size() << " real losses";
}

TEST(Simulation, SamplingCanBeDisabledAndReenabledMidEpoch) {
  TestNet net(3);
  net.add_publisher("YHOO", 0);
  net.add_subscriber("[symbol,=,'YHOO']", 2);
  Simulation sim = net.make();
  sim.set_sample_interval_ms(100);
  sim.run(1.0);
  const std::size_t rows = sim.samples().row_count();
  EXPECT_EQ(rows, 30u);  // 10 samples x 3 brokers
  // Disabled while a sample event is pending: the next run() returns and
  // no row is added.
  sim.set_sample_interval_ms(0);
  sim.run(1.0);
  EXPECT_EQ(sim.samples().row_count(), rows);
  // Re-enabled: sampling resumes one interval into the next run(), and its
  // first rates cover that interval only, not the pause before it.
  sim.set_sample_interval_ms(100);
  sim.run(1.0);
  EXPECT_EQ(sim.samples().row_count(), rows + 30u);
  const auto& resumed = sim.samples().rows()[rows];
  EXPECT_DOUBLE_EQ(resumed.time_s, 2.1);
  EXPECT_EQ(resumed.key, 0u);
  EXPECT_LE(resumed.values[0], 20.0);  // 10 msg/s publisher on broker 0
}

}  // namespace
}  // namespace greenps
