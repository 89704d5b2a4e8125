#include "matching/matching_engine.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "language/parser.hpp"
#include "workload/stock_quote.hpp"
#include "workload/subscription_gen.hpp"

namespace greenps {
namespace {

Publication yhoo_pub(double low = 18.37, std::int64_t volume = 6200) {
  Publication p(AdvId{1}, 1);
  p.set_attr("class", Value(std::string("STOCK")));
  p.set_attr("symbol", Value(std::string("YHOO")));
  p.set_attr("low", Value(low));
  p.set_attr("volume", Value(volume));
  return p;
}

// Handles of the compiled filters of `subs` matching `pub`, in compile
// order.
std::vector<MatchingEngine::Handle> match(const std::vector<MatchingEngine::Sub>& subs,
                                          const Publication& pub) {
  std::vector<MatchingEngine::Handle> out;
  for (const MatchingEngine::Sub& sub : subs) {
    if (sub.filter.matches(pub)) out.push_back(sub.handle);
  }
  return out;
}

std::vector<MatchingEngine::Handle> match(const MatchingEngine& eng, const Publication& pub) {
  return match(eng.compile(), pub);
}

TEST(MatchingEngine, MatchesInsertedFilters) {
  MatchingEngine eng;
  eng.insert(1, parse_filter("[class,=,'STOCK'],[symbol,=,'YHOO']"));
  eng.insert(2, parse_filter("[class,=,'STOCK'],[symbol,=,'GOOG']"));
  eng.insert(3, parse_filter("[class,=,'STOCK'],[symbol,=,'YHOO'],[volume,>,10000]"));
  EXPECT_EQ(match(eng, yhoo_pub()), (std::vector<MatchingEngine::Handle>{1}));
}

TEST(MatchingEngine, RemoveStopsMatching) {
  MatchingEngine eng;
  eng.insert(1, parse_filter("[symbol,=,'YHOO']"));
  EXPECT_EQ(match(eng, yhoo_pub()).size(), 1u);
  eng.remove(1);
  EXPECT_TRUE(match(eng, yhoo_pub()).empty());
  EXPECT_EQ(eng.size(), 0u);
  eng.remove(1);  // idempotent
}

TEST(MatchingEngine, NoDuplicateResults) {
  MatchingEngine eng;
  // A filter with two satisfied equality predicates matches exactly once.
  eng.insert(5, parse_filter("[class,=,'STOCK'],[symbol,=,'YHOO']"));
  EXPECT_EQ(match(eng, yhoo_pub()).size(), 1u);
}

TEST(MatchingEngine, FindReturnsStoredFilter) {
  MatchingEngine eng;
  const Filter f = parse_filter("[symbol,=,'YHOO']");
  eng.insert(9, f);
  ASSERT_NE(eng.find(9), nullptr);
  EXPECT_EQ(*eng.find(9), f);
  EXPECT_EQ(eng.find(10), nullptr);
}

// Property: on a realistic workload the compiled filters match exactly the
// handles, in ascending order, that brute-force evaluation of every filter
// does.
TEST(MatchingEngineProperty, AgreesWithBruteForce) {
  Rng rng(2024);
  StockQuoteGenerator quotes(StockQuoteGenerator::Config{}, rng.fork());
  SubscriptionGenerator subs(SubscriptionGenerator::Config{}, rng.fork());
  const std::string symbols[] = {"YHOO", "GOOG", "IBM", "MSFT"};

  MatchingEngine eng;
  std::vector<std::pair<MatchingEngine::Handle, Filter>> all;
  MatchingEngine::Handle next = 1;
  for (const auto& sym : symbols) {
    for (const Filter& f : subs.batch(sym, 50, quotes)) {
      all.emplace_back(next, f);
      eng.insert(next, f);
      ++next;
    }
  }
  ASSERT_EQ(eng.size(), 200u);
  const std::vector<MatchingEngine::Sub> compiled = eng.compile();

  for (int round = 0; round < 60; ++round) {
    const Publication pub = quotes.next(symbols[round % 4]);
    const std::vector<MatchingEngine::Handle> got = match(compiled, pub);
    std::vector<MatchingEngine::Handle> expected;
    for (const auto& [h, f] : all) {
      if (f.matches(pub)) expected.push_back(h);
    }
    EXPECT_EQ(got, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace greenps
