// E10 — Microbenchmarks of the core data structures (google-benchmark):
// windowed bit vectors, closeness metrics, profile algebra, poset insertion
// and broker matching (a frozen subscription routing table with one
// advertisement per symbol, matched by publications stamped with their
// advertisement, as the simulator routes them) — plus an always-run
// concurrent-matching throughput section (1/2/4/8 reader threads against one
// frozen routing table) that verifies exact match-set equality against the
// brute-force oracle and emits BENCH_match.json. GREENPS_TINY=1 shrinks the
// table and iteration counts to smoke scale.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "alloc/cram_incremental.hpp"
#include "alloc/gif.hpp"
#include "bench_util.hpp"
#include "broker/routing_tables.hpp"
#include "common/rng.hpp"
#include "poset/poset.hpp"
#include "profile/closeness.hpp"
#include "sim/event_queue.hpp"
#include "workload/subscription_gen.hpp"

namespace greenps {
namespace {

SubscriptionProfile random_profile(Rng& rng, std::size_t bits, std::size_t advs = 4) {
  SubscriptionProfile p(1280);
  for (std::size_t i = 0; i < bits; ++i) {
    p.record(AdvId{static_cast<std::uint64_t>(rng.index(advs))}, rng.uniform_int(0, 1279));
  }
  return p;
}

void BM_WindowedBitVectorRecord(benchmark::State& state) {
  WindowedBitVector v;
  MessageSeq seq = 0;
  for (auto _ : state) {
    v.record(seq);
    seq += 3;  // periodic slide
  }
}
BENCHMARK(BM_WindowedBitVectorRecord);

void BM_WindowedBitVectorIntersect(benchmark::State& state) {
  WindowedBitVector a, b;
  for (MessageSeq s = 0; s < 1280; s += 2) a.record(s);
  for (MessageSeq s = 0; s < 1280; s += 3) b.record(s + 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WindowedBitVector::intersect_count(a, b));
  }
}
BENCHMARK(BM_WindowedBitVectorIntersect);

void BM_Closeness(benchmark::State& state) {
  Rng rng(1);
  const auto metric = static_cast<ClosenessMetric>(state.range(0));
  const auto a = random_profile(rng, 400);
  const auto b = random_profile(rng, 400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(closeness(metric, a, b));
  }
}
BENCHMARK(BM_Closeness)->DenseRange(0, 3)->ArgName("metric");

void BM_ProfileMerge(benchmark::State& state) {
  Rng rng(2);
  const auto a = random_profile(rng, 400);
  const auto b = random_profile(rng, 400);
  for (auto _ : state) {
    SubscriptionProfile m = a;
    m.merge(b);
    benchmark::DoNotOptimize(m.cardinality());
  }
}
BENCHMARK(BM_ProfileMerge);

void BM_ProfileRelation(benchmark::State& state) {
  Rng rng(3);
  const auto a = random_profile(rng, 400);
  const auto b = random_profile(rng, 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SubscriptionProfile::relation(a, b));
  }
}
BENCHMARK(BM_ProfileRelation);

void BM_PosetInsert(benchmark::State& state) {
  // The paper's claim: 3,200 GIF inserts in ~2 s.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(4);
    std::vector<SubscriptionProfile> profiles;
    profiles.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      SubscriptionProfile p(256);
      const auto from = rng.uniform_int(0, 4000);
      const auto len = 1 + rng.uniform_int(0, 150);
      for (MessageSeq s = from; s < from + len; ++s) {
        p.record(AdvId{static_cast<std::uint64_t>(rng.index(8))}, s);
      }
      profiles.push_back(std::move(p));
    }
    state.ResumeTiming();
    ProfilePoset poset;
    for (std::size_t i = 0; i < n; ++i) poset.insert(profiles[i], i);
    benchmark::DoNotOptimize(poset.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PosetInsert)->Arg(400)->Arg(1600)->Arg(3200)->Unit(benchmark::kMillisecond);

void BM_GifGrouping(benchmark::State& state) {
  Rng rng(5);
  PublisherTable table;
  table[AdvId{0}] = PublisherProfile{AdvId{0}, 100.0, 100.0, 100000};
  std::vector<SubUnit> units;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    SubscriptionProfile p(128);
    const auto group = rng.index(200);  // ~10 identical units per group
    for (MessageSeq s = 0; s < 40; ++s) {
      p.record(AdvId{0}, static_cast<MessageSeq>(group) * 50 + s);
    }
    units.push_back(make_subscription_unit(SubId{i}, std::move(p), table));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(group_identical_filters(units).size());
  }
}
BENCHMARK(BM_GifGrouping)->Unit(benchmark::kMillisecond);

// Balanced insert/remove delta batches against an already-populated poset —
// the splice cost the incremental reconfiguration path pays per churn step
// (no DAG rebuild). Arg = batch size on a 800-node poset.
void BM_PosetDelta(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLive = 800;
  Rng rng(6);
  ProfilePoset poset;
  const auto make = [&rng] {
    SubscriptionProfile p(256);
    const auto from = rng.uniform_int(0, 4000);
    const auto len = 1 + rng.uniform_int(0, 150);
    for (MessageSeq s = from; s < from + len; ++s) {
      p.record(AdvId{static_cast<std::uint64_t>(rng.index(8))}, s);
    }
    return p;
  };
  std::uint64_t payload = 0;
  for (std::size_t i = 0; i < kLive; ++i) poset.insert(make(), payload++);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<SubscriptionProfile> fresh;
    fresh.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) fresh.push_back(make());
    state.ResumeTiming();
    std::vector<ProfilePoset::NodeId> nodes;
    nodes.reserve(batch);
    for (SubscriptionProfile& p : fresh) {
      const auto ins = poset.insert(std::move(p), payload++);
      if (ins.inserted) nodes.push_back(ins.node);
    }
    for (const auto n : nodes) poset.remove(n);
    benchmark::DoNotOptimize(poset.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * batch));
}
BENCHMARK(BM_PosetDelta)->Arg(1)->Arg(8)->Arg(32)->ArgName("batch");

// One incremental churn step end-to-end: apply a balanced add/remove batch
// to a warm IncrementalCram session and reconverge the dirty neighborhoods.
// Compare against BM_PosetInsert-scale from-scratch runs to see the
// delta-proportional cost. Arg = batch size on a 400-subscription session.
void BM_IncrementalRecluster(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSubs = 400;
  Rng rng(7);
  PublisherTable table;
  for (std::uint64_t a = 0; a < 8; ++a) {
    table[AdvId{a}] = PublisherProfile{AdvId{a}, 100.0, 100.0, 100000};
  }
  const auto make_unit = [&rng, &table](std::uint64_t id) {
    SubscriptionProfile p(256);
    const auto group = rng.index(60);  // overlap so clustering has work
    for (MessageSeq s = 0; s < 40; ++s) {
      p.record(AdvId{static_cast<std::uint64_t>(rng.index(8))},
               static_cast<MessageSeq>(group) * 30 + s);
    }
    return make_subscription_unit(SubId{id}, std::move(p), table);
  };
  std::vector<SubUnit> units;
  std::vector<SubId> live;
  units.reserve(kSubs);
  for (std::uint64_t i = 0; i < kSubs; ++i) {
    units.push_back(make_unit(i));
    live.push_back(SubId{i});
  }
  std::vector<AllocBroker> pool(24);
  for (std::size_t b = 0; b < pool.size(); ++b) {
    pool[b] = AllocBroker{BrokerId{b}, 4000.0, MatchingDelayFunction{}};
  }
  IncrementalCram session(std::move(pool), std::move(units), table, CramOptions{});
  if (!session.initialize().allocation.success) {
    state.SkipWithError("initial convergence failed");
    return;
  }
  std::uint64_t next_id = kSubs;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<SubUnit> added;
    std::vector<SubId> removed;
    added.reserve(batch);
    removed.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      added.push_back(make_unit(next_id));
      live.push_back(SubId{next_id++});
      const std::size_t pick = rng.index(live.size());
      removed.push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    state.ResumeTiming();
    const CramResult r = session.apply(std::move(added), removed);
    benchmark::DoNotOptimize(r.allocation.brokers_used());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * batch));
}
BENCHMARK(BM_IncrementalRecluster)->Arg(1)->Arg(8)->Arg(32)->ArgName("batch")
    ->Unit(benchmark::kMillisecond);

// Symbols of the matching benches; each has its own advertisement.
constexpr std::size_t kSymbols = 40;

std::string symbol_name(std::size_t i) { return "SYM" + std::to_string(i); }

// Advertisement of `symbol`, as the scenario's publishers announce it.
Filter symbol_advertisement(const std::string& symbol) {
  Filter f;
  f.add(Predicate{"class", Op::kEq, Value(std::string("STOCK"))});
  f.add(Predicate{"symbol", Op::kEq, Value(symbol)});
  return f;
}

// Register one advertisement per symbol (AdvId{i} for symbol_name(i)).
void register_symbol_advertisements(SubscriptionRoutingTable& table) {
  for (std::size_t i = 0; i < kSymbols; ++i) {
    table.register_advertisement(AdvId{i}, symbol_advertisement(symbol_name(i)));
  }
}

void BM_MatchingEngine(benchmark::State& state) {
  Rng rng(6);
  StockQuoteGenerator quotes(StockQuoteGenerator::Config{}, rng.fork());
  SubscriptionGenerator subs(SubscriptionGenerator::Config{}, rng.fork());
  SubscriptionRoutingTable table;
  register_symbol_advertisements(table);
  std::uint64_t h = 0;
  for (std::size_t k = 0; k < kSymbols; ++k) {
    for (const Filter& f : subs.batch(symbol_name(k),
                                      static_cast<std::size_t>(state.range(0)) / kSymbols,
                                      quotes)) {
      table.insert(SubId{h}, f, Hop::to_client(ClientId{h}));
      ++h;
    }
  }
  table.freeze();
  SubscriptionRoutingTable::MatchResult out;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i % kSymbols;
    Publication pub = quotes.next(symbol_name(k));
    pub.set_header(AdvId{k}, i++);
    table.match_into(pub, nullptr, out);
    benchmark::DoNotOptimize(out.deliver.size());
  }
  state.SetLabel(std::to_string(table.filter_count()) + " filters");
}
BENCHMARK(BM_MatchingEngine)->Arg(2000)->Arg(8000);

// Equality-only filters: each publication's advertisement scope is the
// filters on its symbol.
void BM_MatchingEngineEqOnly(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  SubscriptionRoutingTable table;
  register_symbol_advertisements(table);
  for (std::size_t i = 0; i < n; ++i) {
    table.insert(SubId{i}, symbol_advertisement(symbol_name(i % kSymbols)),
                 Hop::to_client(ClientId{i}));
  }
  table.freeze();
  Publication pub;
  pub.set_attr("class", Value(std::string("STOCK")));
  pub.set_attr("symbol", Value(symbol_name(7)));
  pub.set_attr("low", Value(18.0));
  pub.set_header(AdvId{7}, 1);
  SubscriptionRoutingTable::MatchResult out;
  for (auto _ : state) {
    table.match_into(pub, nullptr, out);
    benchmark::DoNotOptimize(out.deliver.size());
  }
  state.SetLabel(std::to_string(table.filter_count()) + " filters");
}
BENCHMARK(BM_MatchingEngineEqOnly)->Arg(2000)->Arg(8000);

// Event-queue throughput: schedule a burst, drain it, repeat. The Action is
// an inline-storage callable, so this path never heap-allocates per event.
void BM_EventQueueScheduleRun(benchmark::State& state) {
  EventQueue q;
  Rng rng(9);
  std::uint64_t executed = 0;
  std::uint64_t seq = 0;
  constexpr int kBurst = 1024;
  for (auto _ : state) {
    const SimTime base = q.now();
    for (int i = 0; i < kBurst; ++i) {
      q.schedule_keyed(base + rng.uniform_int(1, 1000), EventKey{0, seq++},
                       [&executed] { ++executed; });
    }
    q.run_until(base + 1001);
  }
  benchmark::DoNotOptimize(executed);
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_EventQueueScheduleRun);

// --- concurrent frozen-table match throughput (always run; BENCH_match.json)
//
// Readers share one frozen SubscriptionRoutingTable and match it through
// const match_into(); each reader owns its MatchResult and verifies every
// result — exact forward_to/deliver equality — against the brute-force
// oracle (advertisement pruning off, a scan of every compiled filter)
// computed up front. Every publication carries its advertisement header, so
// the readers take the advertisement-scoped path the simulator takes.
// Throughput is aggregate match operations per second across all readers.
// On a multi-core host it is expected to scale near-linearly to the core
// count; a single-core container reports ~flat numbers (the JSON records
// whatever was measured).
struct MatchSuite {
  std::string name;
  SubscriptionRoutingTable table;
  std::vector<Publication> pubs;
};

void build_eq_suite(MatchSuite& s, std::size_t n) {
  s.name = "eq_only";
  register_symbol_advertisements(s.table);
  for (std::size_t i = 0; i < n; ++i) {
    s.table.insert(SubId{i}, symbol_advertisement(symbol_name(i % kSymbols)),
                   Hop::to_client(ClientId{i}));
  }
  s.table.freeze();
  for (std::size_t k = 0; k < 8; ++k) {
    Publication pub;
    pub.set_attr("class", Value(std::string("STOCK")));
    pub.set_attr("symbol", Value(symbol_name(k * 5)));
    pub.set_attr("low", Value(18.0));
    pub.set_header(AdvId{k * 5}, 1);
    s.pubs.push_back(std::move(pub));
  }
}

struct MatchRunStats {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t deliveries = 0;
  bool verified = true;
};

MatchRunStats run_match_suite(const MatchSuite& s, std::size_t threads,
                              std::size_t iters_per_thread) {
  using MatchResult = SubscriptionRoutingTable::MatchResult;
  // Brute-force oracle per publication, computed before the clock starts
  // (the toggle is process-wide, so it flips only while no reader runs).
  std::vector<MatchResult> oracle(s.pubs.size());
  SubscriptionRoutingTable::set_adv_pruning_enabled(false);
  for (std::size_t p = 0; p < s.pubs.size(); ++p) {
    s.table.match_into(s.pubs[p], nullptr, oracle[p]);
  }
  SubscriptionRoutingTable::set_adv_pruning_enabled(true);

  std::atomic<std::uint64_t> deliveries{0};
  std::atomic<std::uint64_t> mismatches{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      MatchResult out;
      std::uint64_t local_deliveries = 0;
      std::uint64_t local_mismatches = 0;
      for (std::size_t i = 0; i < iters_per_thread; ++i) {
        const std::size_t p = (i + t) % s.pubs.size();
        s.table.match_into(s.pubs[p], nullptr, out);
        local_deliveries += out.deliver.size();
        if (out.forward_to != oracle[p].forward_to || out.deliver != oracle[p].deliver) {
          ++local_mismatches;
        }
      }
      deliveries.fetch_add(local_deliveries, std::memory_order_relaxed);
      mismatches.fetch_add(local_mismatches, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();

  MatchRunStats r;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.ops = static_cast<std::uint64_t>(threads) * iters_per_thread;
  r.deliveries = deliveries.load();
  r.verified = mismatches.load() == 0;
  return r;
}

int run_match_report() {
  const bool tiny = bench::tiny_scale();
  const std::size_t filters = tiny ? 2000 : 8000;
  const std::size_t iters = tiny ? 2000 : 20000;
  // On a single-core host every "parallel" run timeshares one CPU, so
  // speedup_vs_1 measures scheduler overhead, not scaling. The flag rides
  // on each row so downstream dashboards can drop those points.
  const bool single_core_host = std::thread::hardware_concurrency() <= 1;
  std::printf("\nconcurrent frozen-table matching (%zu filters, %zu matches/thread)%s\n",
              filters, iters, tiny ? " [tiny/smoke scale]" : "");

  bench::RunReport report("micro_match");
  report.header()
      .set_integer("filters", filters)
      .set_integer("iters_per_thread", iters)
      .set_integer("hardware_threads", std::thread::hardware_concurrency())
      .set_bool("tiny", tiny);

  const std::vector<int> widths = {11, 8, 9, 12, 13, 11, 7};
  bench::print_row({"suite", "threads", "wall(s)", "ops/s", "deliveries", "speedup", "ok"},
                   widths);
  bool all_verified = true;
  MatchSuite suite;
  build_eq_suite(suite, filters);
  double base_ops_per_s = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const MatchRunStats r = run_match_suite(suite, threads, iters);
    const double ops_per_s = r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0;
    if (threads == 1) base_ops_per_s = ops_per_s;
    const double speedup = base_ops_per_s > 0 ? ops_per_s / base_ops_per_s : 0;
    all_verified = all_verified && r.verified;
    bench::print_row({suite.name, std::to_string(threads), bench::fmt(r.seconds, 3),
                      bench::fmt(ops_per_s, 0), std::to_string(r.deliveries),
                      bench::fmt(speedup, 2) + "x", r.verified ? "ok" : "FAIL"},
                     widths);
    report.add_row(bench::JsonObject()
                       .set_string("suite", suite.name)
                       .set_integer("threads", threads)
                       .set_integer("matches", r.ops)
                       .set_integer("deliveries", r.deliveries)
                       .set_number("seconds", r.seconds)
                       .set_number("matches_per_s", ops_per_s)
                       .set_number("speedup_vs_1", speedup)
                       .set_bool("single_core_host", single_core_host)
                       .set_bool("verified", r.verified));
  }
  report.write("BENCH_match.json", "rows");
  if (!all_verified) {
    std::fprintf(stderr, "[micro_match] concurrent match diverged from the oracle\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace greenps

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The concurrent-matching report always runs (even with a benchmark
  // filter matching nothing), so BENCH_match.json is produced by every
  // invocation, including the ctest smoke entry.
  return greenps::run_match_report();
}
