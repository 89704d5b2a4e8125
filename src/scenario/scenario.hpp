// Experiment scenarios of Section VI-A.
//
// Builds the initial deployments the paper evaluates: MANUAL (fan-out-2
// tree; under heterogeneity the most resourceful brokers at the top and
// subscriber counts proportional to broker resources) and AUTOMATIC
// (random tree, random placement). Capacity mixes, publisher counts and
// subscription counts default to the paper's cluster-testbed settings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulation.hpp"
#include "workload/stock_quote.hpp"
#include "workload/subscription_gen.hpp"

namespace greenps {

enum class InitialPlacement { kManual, kAutomatic };

struct ScenarioConfig {
  std::size_t num_brokers = 80;
  std::size_t num_publishers = 40;
  // Homogeneous: every publisher gets this many subscriptions.
  // Heterogeneous: publisher i (1-based) gets max(1, Ns / i) per Section VI.
  std::size_t subs_per_publisher = 50;
  bool heterogeneous = false;
  InitialPlacement placement = InitialPlacement::kManual;
  std::size_t manual_fanout = 2;

  MsgRate publication_rate = 70.0 / 60.0;  // 70 msg/min
  // Output bandwidth of a 100%-capacity broker. The heterogeneous mix uses
  // 100% / 50% / 25% in the paper's 15:25:40 proportions.
  Bandwidth full_out_bw_kb_s = 300.0;
  MatchingDelayFunction delay{20e-6, 0.5e-6};

  std::size_t profile_window_bits = WindowedBitVector::kDefaultCapacity;
  // Section II-A adaptation: clients that both publish and subscribe, with
  // separated network connections for the two roles. When true, every
  // publisher client also issues one subscription to another symbol; the
  // two halves are placed (and later reconfigured) independently.
  bool combined_clients = false;
  std::uint64_t seed = 42;
};

struct Scenario {
  Deployment deployment;
  ScenarioConfig config;
  // Symbols, one per publisher (publisher i publishes symbols[i]).
  std::vector<std::string> symbols;
  // For combined clients: the subscription half belonging to each
  // publisher client (publisher ClientId -> its subscription).
  std::vector<std::pair<ClientId, SubId>> combined_pairs;
};

// Build the deployment; the caller pairs it with a StockQuoteGenerator
// seeded from the same config (see make_quote_generator).
[[nodiscard]] Scenario build_scenario(const ScenarioConfig& config);

[[nodiscard]] StockQuoteGenerator make_quote_generator(const ScenarioConfig& config);

// Convenience: scenario + simulation in one step.
[[nodiscard]] Simulation make_simulation(const ScenarioConfig& config);

}  // namespace greenps
