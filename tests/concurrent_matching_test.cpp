// Concurrency suite for the build-then-freeze broker core: several threads
// match one frozen routing table at once and must each see exactly the
// brute-force oracle's answer, the compiled table must give identical
// results with advertisement pruning on and off, and the interner —
// the one shared structure written while matching threads run — must stay
// consistent under racing first-sight interns. Every test asserts *exact*
// equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "broker/routing_tables.hpp"
#include "common/rng.hpp"
#include "language/interner.hpp"
#include "language/parser.hpp"

namespace greenps {
namespace {

using MatchResult = SubscriptionRoutingTable::MatchResult;

bool results_equal(const MatchResult& a, const MatchResult& b) {
  return a.forward_to == b.forward_to && a.deliver == b.deliver;
}

// --- concurrent match vs single-threaded oracle -------------------------

Filter symbol_filter(const std::string& symbol) {
  return parse_filter("[class,=,'STOCK'],[symbol,=,'" + symbol + "']");
}

std::vector<Publication> probe_publications() {
  const char* symbols[] = {"AAA", "BBB", "CCC", "DDD"};
  std::vector<Publication> pubs;
  for (const char* s : symbols) {
    Publication p;
    p.set_attr("class", Value(std::string("STOCK")));
    p.set_attr("symbol", Value(std::string(s)));
    p.set_attr("volume", Value(std::int64_t{500000}));
    pubs.push_back(std::move(p));
  }
  return pubs;
}

// Restore the process-wide pruning toggle even if a test fails.
struct ToggleGuard {
  bool pruning = SubscriptionRoutingTable::adv_pruning_enabled();
  ~ToggleGuard() { SubscriptionRoutingTable::set_adv_pruning_enabled(pruning); }
};

// Fill `table` through every mutator — inserts (some replacing), removes
// and advertisement registration, both before and after the subscriptions
// arrive — then freeze it.
void build_table(SubscriptionRoutingTable& table, std::uint64_t seed) {
  const char* symbols[] = {"AAA", "BBB", "CCC", "DDD"};
  table.register_advertisement(AdvId{0}, symbol_filter("AAA"));
  Rng rng(seed);
  std::vector<SubId> installed;
  for (std::uint64_t i = 0; i < 300; ++i) {
    if (!installed.empty() && rng.chance(0.2)) {
      const std::size_t k = rng.index(installed.size());
      table.remove(installed[k]);
      installed.erase(installed.begin() + static_cast<std::ptrdiff_t>(k));
      continue;
    }
    // Reuse an id now and then: insert must replace the entry.
    const SubId id = !installed.empty() && rng.chance(0.1)
                         ? installed[rng.index(installed.size())]
                         : SubId{i};
    std::string f = "[class,=,'STOCK'],[symbol,=,'" + std::string(symbols[rng.index(4)]) + "']";
    if (rng.chance(0.4)) f += ",[volume,>," + std::to_string(rng.index(900000)) + "]";
    const Hop hop = rng.chance(0.5) ? Hop::to_broker(BrokerId{rng.index(8)})
                                    : Hop::to_client(ClientId{id.value()});
    table.insert(id, parse_filter(f), hop);
    if (id == SubId{i}) installed.push_back(id);
  }
  table.register_advertisement(AdvId{1}, symbol_filter("BBB"));
  table.freeze();
}

std::vector<Publication> headed_publications() {
  std::vector<Publication> pubs = probe_publications();
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    // Advertisement headers 0 and 1 exist in the table (conforming or not),
    // 2 and 3 do not.
    pubs[i].set_header(AdvId{i}, 1);
  }
  // A known advertisement the publication does not conform to: scans every
  // compiled filter.
  Publication odd = pubs[2];
  odd.set_header(AdvId{0}, 2);
  pubs.push_back(std::move(odd));
  return pubs;
}

// Four threads match one frozen table at once. Each result must equal,
// exactly, the brute-force oracle's (advertisement pruning off) computed
// single-threaded before the readers start.
TEST(ConcurrentMatching, FrozenTableReadersAgreeWithOracle) {
  ToggleGuard restore;
  for (const std::uint64_t seed : {11u, 29u, 71u}) {
    SubscriptionRoutingTable table;
    build_table(table, seed);
    const std::vector<Publication> pubs = headed_publications();

    SubscriptionRoutingTable::set_adv_pruning_enabled(false);
    std::vector<MatchResult> oracle(pubs.size());
    for (std::size_t pi = 0; pi < pubs.size(); ++pi) {
      table.match_into(pubs[pi], nullptr, oracle[pi]);
    }
    SubscriptionRoutingTable::set_adv_pruning_enabled(true);

    constexpr int kReaders = 4;
    constexpr int kMatchesPerReader = 2000;
    std::vector<std::size_t> mismatches(kReaders, 0);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(r));
        MatchResult out;
        for (int k = 0; k < kMatchesPerReader; ++k) {
          const std::size_t pi = rng.index(pubs.size());
          table.match_into(pubs[pi], nullptr, out);
          if (!results_equal(out, oracle[pi])) ++mismatches[static_cast<std::size_t>(r)];
        }
      });
    }
    for (std::thread& t : readers) t.join();
    for (int r = 0; r < kReaders; ++r) {
      EXPECT_EQ(mismatches[static_cast<std::size_t>(r)], 0u)
          << "seed " << seed << " reader " << r;
    }
  }
}

// One frozen table gives identical results with advertisement pruning on
// and off.
TEST(ConcurrentMatching, FrozenTableAgreesAcrossToggles) {
  ToggleGuard restore;
  SubscriptionRoutingTable table;
  build_table(table, 42);
  const std::vector<Publication> pubs = headed_publications();

  SubscriptionRoutingTable::set_adv_pruning_enabled(false);
  std::vector<MatchResult> reference(pubs.size());
  for (std::size_t pi = 0; pi < pubs.size(); ++pi) {
    table.match_into(pubs[pi], nullptr, reference[pi]);
  }
  ASSERT_FALSE(reference[0].deliver.empty() && reference[0].forward_to.empty());

  for (const bool pruning_on : {true, false}) {
    SubscriptionRoutingTable::set_adv_pruning_enabled(pruning_on);
    for (std::size_t pi = 0; pi < pubs.size(); ++pi) {
      MatchResult got;
      table.match_into(pubs[pi], nullptr, got);
      EXPECT_TRUE(results_equal(got, reference[pi])) << "pruning=" << pruning_on << " pub " << pi;
    }
  }
}

// --- concurrent interner ------------------------------------------------

// Threads intern overlapping string sets concurrently; ids must be
// consistent (same spelling -> same id everywhere) and every id must
// round-trip through spelling().
TEST(InternerTorture, ConcurrentInterningIsConsistent) {
  Interner interner;
  const int kThreads = 4;
  const int kStrings = 200;
  std::vector<std::vector<InternId>> ids(kThreads, std::vector<InternId>(kStrings));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread walks the shared set in a different order, so first
      // sight races on most strings.
      for (int k = 0; k < kStrings; ++k) {
        const int s = (k * 7 + t * 31) % kStrings;
        ids[t][static_cast<std::size_t>(s)] = interner.intern("attr_" + std::to_string(s));
      }
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kStrings));
  for (int s = 0; s < kStrings; ++s) {
    const InternId id = ids[0][static_cast<std::size_t>(s)];
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][static_cast<std::size_t>(s)], id) << "string " << s;
    }
    EXPECT_EQ(interner.spelling(id), "attr_" + std::to_string(s));
    EXPECT_EQ(interner.find("attr_" + std::to_string(s)), id);
  }
  EXPECT_EQ(interner.find("never_interned"), kNoIntern);
}

}  // namespace
}  // namespace greenps
