#include "scenario/scenario.hpp"

#include <algorithm>
#include <cassert>

#include "overlay/topology_builder.hpp"

namespace greenps {

namespace {

// Capacity of broker index i in a heterogeneous pool of `n`: the paper's
// 80-broker mix is 15 full, 25 half, 40 quarter; generalized by proportion.
double capacity_share(std::size_t i, std::size_t n) {
  const double f = static_cast<double>(i) / static_cast<double>(n);
  if (f < 15.0 / 80.0) return 1.0;
  if (f < 40.0 / 80.0) return 0.5;
  return 0.25;
}

std::string symbol_name(std::size_t i) {
  // Three-letter ticker-like symbols: AAA, AAB, ...
  std::string s = "AAA";
  s[2] = static_cast<char>('A' + i % 26);
  s[1] = static_cast<char>('A' + (i / 26) % 26);
  s[0] = static_cast<char>('A' + (i / 676) % 26);
  return s;
}

}  // namespace

StockQuoteGenerator make_quote_generator(const ScenarioConfig& config) {
  return StockQuoteGenerator(StockQuoteGenerator::Config{}, Rng(config.seed * 7919 + 17));
}

Scenario build_scenario(const ScenarioConfig& config) {
  assert(config.num_brokers > 0 && config.num_publishers > 0);
  Rng rng(config.seed);
  Scenario sc;
  sc.config = config;
  sc.deployment.profile_window_bits = config.profile_window_bits;

  // --- brokers and capacities, most resourceful first ---
  std::vector<BrokerId> brokers;
  brokers.reserve(config.num_brokers);
  for (std::size_t i = 0; i < config.num_brokers; ++i) brokers.emplace_back(i);

  std::vector<double> shares(config.num_brokers, 1.0);
  if (config.heterogeneous) {
    for (std::size_t i = 0; i < config.num_brokers; ++i) {
      shares[i] = capacity_share(i, config.num_brokers);
    }
  }
  for (std::size_t i = 0; i < config.num_brokers; ++i) {
    BrokerCapacity cap;
    cap.out_bw_kb_s = config.full_out_bw_kb_s * shares[i];
    cap.delay = config.delay;
    sc.deployment.capacities.emplace(brokers[i], cap);
  }

  // --- overlay ---
  switch (config.placement) {
    case InitialPlacement::kManual:
      // brokers[] is already sorted by descending capacity (shares are
      // non-increasing in i), so the most resourceful land at the top.
      sc.deployment.topology = build_manual_tree(brokers, config.manual_fanout);
      break;
    case InitialPlacement::kAutomatic: {
      std::vector<BrokerId> shuffled = brokers;
      rng.shuffle(shuffled);
      sc.deployment.topology = build_random_tree(shuffled, rng);
      break;
    }
  }

  // --- weighted broker pick for client placement ---
  const double total_share = [&] {
    double t = 0;
    for (const double s : shares) t += s;
    return t;
  }();
  auto pick_broker = [&](bool weighted) -> BrokerId {
    if (!weighted) return brokers[rng.index(brokers.size())];
    double x = rng.uniform_real(0.0, total_share);
    for (std::size_t i = 0; i < brokers.size(); ++i) {
      x -= shares[i];
      if (x <= 0) return brokers[i];
    }
    return brokers.back();
  };

  // --- publishers ---
  StockQuoteGenerator threshold_quotes = make_quote_generator(config);
  SubscriptionGenerator subgen(SubscriptionGenerator::Config{}, rng.fork());
  std::uint64_t next_client = 0;
  std::uint64_t next_sub = 0;
  for (std::size_t i = 0; i < config.num_publishers; ++i) {
    const std::string symbol = symbol_name(i);
    sc.symbols.push_back(symbol);
    PublisherSpec p;
    p.client = ClientId{next_client++};
    p.adv = AdvId{i};
    p.symbol = symbol;
    p.rate_msg_s = config.publication_rate;
    p.home = pick_broker(false);  // publishers are randomly placed (MANUAL)
    Filter adv;
    adv.add({"class", Op::kEq, Value(std::string("STOCK"))});
    adv.add({"symbol", Op::kEq, Value(symbol)});
    p.adv_filter = std::move(adv);
    sc.deployment.publishers.push_back(std::move(p));

    // --- this publisher's subscribers ---
    std::size_t count = config.subs_per_publisher;
    if (config.heterogeneous) {
      count = std::max<std::size_t>(1, config.subs_per_publisher / (i + 1));
    }
    for (std::size_t k = 0; k < count; ++k) {
      SubscriberSpec s;
      s.client = ClientId{next_client++};
      s.sub = SubId{next_sub++};
      s.filter = subgen.next(symbol, threshold_quotes);
      // Heterogeneous MANUAL places subscribers proportionally to broker
      // resources; otherwise placement is uniform.
      s.home = pick_broker(config.heterogeneous &&
                           config.placement == InitialPlacement::kManual);
      sc.deployment.subscribers.push_back(std::move(s));
    }
  }

  // Combined publisher+subscriber clients: the subscriber half initially
  // attaches to the same broker (the same machine) but keeps its own
  // connection and can be relocated independently.
  if (config.combined_clients) {
    for (std::size_t i = 0; i < config.num_publishers; ++i) {
      const PublisherSpec& p = sc.deployment.publishers[i];
      SubscriberSpec s;
      s.client = ClientId{next_client++};
      s.sub = SubId{next_sub++};
      const std::string& other = sc.symbols[(i + 1) % sc.symbols.size()];
      s.filter = subgen.next(other, threshold_quotes);
      s.home = p.home;
      sc.combined_pairs.emplace_back(p.client, s.sub);
      sc.deployment.subscribers.push_back(std::move(s));
    }
  }
  return sc;
}

Simulation make_simulation(const ScenarioConfig& config) {
  Scenario sc = build_scenario(config);
  return Simulation(std::move(sc.deployment), make_quote_generator(config));
}

}  // namespace greenps
