// Stock-quote workload (Section VI-A).
//
// The paper replays Yahoo! Finance daily quotes; we synthesize equivalent
// per-symbol OHLCV series with a geometric random walk (a substitution
// documented in DESIGN.md). The emitted publication schema is exactly the
// paper's, including the derived attributes:
//
//   [class,'STOCK'],[symbol,'YHOO'],[open,18.37],[high,18.6],[low,18.37],
//   [close,18.37],[volume,6200],[date,'5-Sep-96'],[openClose%Diff,0.0],
//   [highLow%Diff,0.014],[closeEqualsLow,'true'],[closeEqualsHigh,'false']
#pragma once

#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "language/publication.hpp"

namespace greenps {

class StockQuoteGenerator {
 public:
  struct Config {
    double min_initial_price = 5.0;
    double max_initial_price = 250.0;
    double daily_volatility = 0.02;   // stddev of daily log-return
    double intraday_spread = 0.015;   // high/low spread around open/close
    std::int64_t min_volume = 1'000;
    std::int64_t max_volume = 2'000'000;
  };

  // Each symbol gets its own random stream seeded from (seed, symbol), so a
  // symbol's quote sequence is identical no matter how calls for different
  // symbols interleave — which lets tests regenerate a simulation's exact
  // publications offline.
  StockQuoteGenerator(Config config, Rng rng);

  // Next daily quote for `symbol` (publication header left unset; the
  // publisher client stamps adv ID and sequence number).
  [[nodiscard]] Publication next(const std::string& symbol);
  // In-place variant for pooled publications: clears `out` and fills it with
  // the next quote, reusing its attribute storage.
  void next_into(const std::string& symbol, Publication& out);

  // Current walk price for a symbol (useful for generating subscription
  // thresholds that actually select a fraction of the stream).
  [[nodiscard]] double reference_price(const std::string& symbol);

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct SymbolState {
    Rng rng;
    double close = 0;
    int day = 0;
  };

  SymbolState& state_for(const std::string& symbol);
  [[nodiscard]] static std::string format_date(int day_index);

  Config config_;
  std::uint64_t seed_;
  std::unordered_map<std::string, SymbolState> symbols_;
};

}  // namespace greenps
