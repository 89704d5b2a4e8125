// perfbench — the repository's benchmark binary: one workload per process.
//
//   perfbench --workload consolidate|largescale|elastic [--seed N]
//             [--trace 0|1] [--scale full|small]
//             [--trace-out PATH]
//
// Drives the program through its public entry points only: build_scenario,
// the Simulation constructor, run, redeploy, summarize, Croc::reconfigure
// (and, in the traced run, the Phase 1-3 + GRAPE steps it is made of),
// apply_plan_transactional, control::ControlLoop::step, audit_losses (after
// a drain driven by set_publisher_rate) and
// obs::MetricsRegistry::global().snapshot(). Simulator parallelism comes
// from GREENPS_SIM_WORKERS, set by run.py, never from SimOptions fields.
//
// Each run covers a fixed set of scenario instances (seeds derived from
// --seed), each run once, and reports figures taken over them. The work is
// fixed by the workload, never by the clock. Timings are CPU time of the
// process, divided by the host slowdown the HostMeter measured over the
// instance (hostclock.hpp). Sim-time results are
// deterministic; run.py checks that they repeat across runs. The gate
// (plans succeed and home every subscription, applies succeed, the delivery
// audit is clean and non-empty) runs outside every timed region.
//
// --trace 1 runs instance 0 untraced, then once more with the benchmark's
// own spans around each public call, and reports per-layer numbers plus the
// tracing overhead. Workload rationale and the
// layer-to-end-to-end map are in README.md.
//
// The last line of stdout is one JSON object (see README.md); run.py turns
// it into the benchmark's result line.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "control/control_loop.hpp"
#include "croc/croc.hpp"
#include "matching/matching_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "scenario/scenario.hpp"
#include "sim/loss_oracle.hpp"
#include "hostclock.hpp"
#include "spans.hpp"
#include "workload/diurnal.hpp"

using namespace greenps;
using perfbench::HostMeter;
using perfbench::SpanLog;

namespace {

using Clock = perfbench::CpuClock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string full_digits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  bool trace = false;
  bool small = false;  // self-test scale: every workload in seconds
  // Self-test only: never enable the publication ledger, so the delivery
  // audit covers 0 pairs and the gate must refuse the run.
  bool empty_audit = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload consolidate|largescale|elastic "
               "[--seed N] [--trace 0|1] [--scale full|small] "
               "[--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a non-negative integer");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--scale") {
      if (val != "full" && val != "small") usage("--scale takes full or small");
      a.small = val == "small";
    } else if (key == "--self-test-empty-audit") {
      a.empty_audit = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload != "consolidate" && a.workload != "largescale" && a.workload != "elastic") {
    usage("--workload must be consolidate, largescale or elastic");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Results

class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back(Entry{name, value, unit});
  }
  // Values keep all their digits (JsonObject::set_number rounds to 6).
  [[nodiscard]] std::string render() const {
    obs::JsonObject o;
    for (const Entry& e : entries_) {
      o.set_raw(e.name, obs::JsonObject().set_raw("value", full_digits(e.value))
                            .set_string("unit", e.unit).render());
    }
    return o.render();
  }

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// The correctness gate: every check is one operation attempted; a failed
// check fails the run (non-zero exit).
class Gate {
 public:
  bool check(bool ok, const std::string& what) {
    attempted_ += 1;
    if (!ok) {
      failed_ += 1;
      failures_.push_back(what);
      std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

// Sim-time outcomes of one instance run. Deterministic for a given seed and
// scale; rendered and compared byte-for-byte across runs.
class Fingerprint {
 public:
  Fingerprint& add(const std::string& key, double v) {
    obj_.set_raw(key, full_digits(v));
    return *this;
  }
  [[nodiscard]] std::string render() const { return obj_.render(); }

 private:
  obs::JsonObject obj_;
};

// ---------------------------------------------------------------------------
// Program observations

// DelayHistogram::percentile_ms reports the midpoint of the log bucket that
// holds the rank, so p50/p99 would move in whole-bucket (15%) steps from
// one seed to the next, and a figure that sits in one bucket would read the
// same on every run. The benchmark recovers the bucket's rank range by
// bisection on the rank and its delay range by bisection on a probe
// histogram (so no copy of the bucket layout lives here), and interpolates
// linearly inside the bucket.

// The midpoint (ms) DelayHistogram reports for a lone sample of `us`.
double probe_mid_ms(SimTime us) {
  DelayHistogram h;
  h.record(us);
  return h.percentile_ms(0.5);
}

// The smallest delay (us) in [1, hi] whose probed midpoint reaches
// (`inclusive`) or exceeds `mid_ms`.
SimTime first_delay_past(double mid_ms, bool inclusive, SimTime hi) {
  SimTime lo = 1;
  while (lo < hi) {
    const SimTime m = lo + (hi - lo) / 2;
    const double v = probe_mid_ms(m);
    if (inclusive ? v >= mid_ms : v > mid_ms) {
      hi = m;
    } else {
      lo = m + 1;
    }
  }
  return lo;
}

double interpolated_percentile_ms(const DelayHistogram& h, double q) {
  const std::uint64_t n = h.samples();
  if (n == 0) return 0.0;
  const auto mid_at = [&](std::uint64_t rank) {
    return h.percentile_ms((static_cast<double>(rank) - 0.5) / static_cast<double>(n));
  };
  const std::uint64_t target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  const double mid = mid_at(target);
  std::uint64_t lo = 1;  // first rank whose bucket midpoint is `mid`
  std::uint64_t hi = target;
  while (lo < hi) {
    const std::uint64_t m = lo + (hi - lo) / 2;
    if (mid_at(m) < mid) {
      lo = m + 1;
    } else {
      hi = m;
    }
  }
  const std::uint64_t first = lo;
  lo = target;  // last rank whose bucket midpoint is `mid`
  hi = n;
  while (lo < hi) {
    const std::uint64_t m = lo + (hi - lo + 1) / 2;
    if (mid_at(m) > mid) {
      hi = m - 1;
    } else {
      lo = m;
    }
  }
  const std::uint64_t last = lo;
  // A bucket's upper edge is at most twice its midpoint.
  const auto search_hi = static_cast<SimTime>(std::ceil(mid * 2e3)) + 2;
  const double lo_edge = static_cast<double>(first_delay_past(mid, true, search_hi)) / 1e3;
  const double hi_edge = static_cast<double>(first_delay_past(mid, false, search_hi)) / 1e3;
  if (!(hi_edge > lo_edge)) return mid;  // beyond the last bucket
  const double pos = (static_cast<double>(target - first) + 0.5) /
                     static_cast<double>(last - first + 1);
  return lo_edge + (hi_edge - lo_edge) * pos;
}

double registry_value(const std::string& name) {
  for (const auto& e : obs::MetricsRegistry::global().snapshot()) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

// Shards in use after the last (re)deploy; 1 when the program publishes no
// such gauge (a single-threaded simulator).
double registry_shards() {
  const double v = registry_value("sim.shards");
  return v > 0 ? v : 1.0;
}

// Peak resident set per instance run: the kernel's high-water mark (VmHWM)
// is reset before each instance through /proc/self/clear_refs and read after
// it. One instance's transient peak would otherwise set the figure for the
// whole run. Where the reset is refused, the process's lifetime peak.
bool reset_peak_rss() {
  malloc_trim(0);  // hand the previous instance's freed heap back first
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double peak_rss_mb(bool since_reset) {
  if (since_reset) {
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
      char line[256];
      double kb = -1;
      while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
      }
      std::fclose(f);
      if (kb >= 0) return kb / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

// Every subscription and publisher of `d` has a home on the plan's overlay.
bool plan_homes_everyone(const Deployment& d, const ReconfigurationPlan& plan,
                         std::string* missing) {
  for (const SubscriberSpec& s : d.subscribers) {
    const auto it = plan.subscriber_home.find(s.sub);
    if (it == plan.subscriber_home.end() || !plan.overlay.has_broker(it->second)) {
      *missing = "subscription " + std::to_string(s.sub.value());
      return false;
    }
  }
  for (const PublisherSpec& p : d.publishers) {
    const auto it = plan.publisher_home.find(p.client);
    if (it == plan.publisher_home.end() || !plan.overlay.has_broker(it->second)) {
      *missing = "publisher " + std::to_string(p.client.value());
      return false;
    }
  }
  return true;
}

bool same_plan(const ReconfigurationPlan& a, const ReconfigurationPlan& b) {
  std::vector<BrokerId> ab = a.allocated_brokers;
  std::vector<BrokerId> bb = b.allocated_brokers;
  std::sort(ab.begin(), ab.end());
  std::sort(bb.begin(), bb.end());
  return a.root == b.root && ab == bb && a.subscriber_home == b.subscriber_home &&
         a.publisher_home == b.publisher_home && a.overlay.brokers() == b.overlay.brokers();
}

// ---------------------------------------------------------------------------
// Workload shapes

struct Shape {
  ScenarioConfig scenario;
  double profile_s = 0;   // first sim window (CBC profiling / warm-up)
  double measure_s = 0;   // measured sim window after the reconfiguration
  double slice_s = 5;     // sim windows advance in slices of this length
  double day_s = 0;       // elastic: one diurnal day
  double interval_s = 10; // elastic: control interval (one slice per tick)
  bool measure_rates = true;  // measure-window slices count toward the rates
  // Independent scenario instances per run (seeds derived from --seed; the
  // first is --seed itself). Every metric is taken over the instances, so
  // one run covers several inputs and its figures move less with the seed.
  std::size_t instances = 1;
};

// Scenario seed of instance `i`; instance 0 is the --seed scenario itself.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  return seed + 1000003ULL * i;
}

Shape shape_for(const Args& a) {
  Shape s;
  ScenarioConfig& sc = s.scenario;
  sc.seed = a.seed;
  sc.placement = InitialPlacement::kManual;
  if (a.workload == "consolidate") {
    // The paper's E1 at full scale (CRAM-IOS row: 6 brokers at 8,000 subs).
    sc.num_brokers = a.small ? 10 : 80;
    sc.num_publishers = a.small ? 3 : 40;
    sc.subs_per_publisher = a.small ? 5 : 200;
    sc.full_out_bw_kb_s = a.small ? 30.0 : 300.0;
    s.profile_s = a.small ? 5 : 90;
    s.measure_s = a.small ? 10 : 30;
    // The simulator rates and tick_p50_ms cover the 80-broker profile
    // window only: the 6-broker measure window's slices run three times
    // faster, and a median over both would sit near the boundary between
    // the two.
    s.measure_rates = false;
    // The measure window's delivery p99 depends on the allocation, and so on
    // the seed (per instance 280-530 ms, spread 0.14): four instances keep
    // the run's mean within its bound across seeds.
    s.instances = 4;
  } else if (a.workload == "largescale") {
    // The E5 SciNet shape, MANUAL deployment, no CROC planning.
    sc.num_brokers = a.small ? 12 : 400;
    sc.num_publishers = a.small ? 3 : 72;
    sc.subs_per_publisher = a.small ? 5 : 225;
    sc.full_out_bw_kb_s = a.small ? 40.0 : 300.0;
    s.profile_s = a.small ? 5 : 15;
    s.measure_s = a.small ? 10 : 20;
    // Set-up and the identity re-deploy (routing for 16,200 subscriptions)
    // dominate, and the sim-time figures barely move with the seed; two
    // instances, set up once each, keep the run inside its time budget.
    s.instances = 2;
  } else {
    // The E14 closed loop: one diurnal day with two flash crowds. 1,000
    // subscriptions rather than E14's 2,000: a 2,000-subscription day made
    // 7 to 15 plans at 0.7-0.85 s each, so five days per run still spread
    // 0.19 of the median across seeds; a 1,000-subscription day makes 11 to
    // 14 plans at half the cost, and six of them fit the run.
    sc.num_brokers = a.small ? 10 : 80;
    sc.num_publishers = a.small ? 3 : 40;
    sc.subs_per_publisher = a.small ? 15 : 25;
    sc.full_out_bw_kb_s = a.small ? 30.0 : 300.0;
    s.profile_s = a.small ? 10 : 45;
    s.day_s = a.small ? 300 : 900;
    s.interval_s = a.small ? 5 : 10;
    // The controller's trajectory, and with it the day's planning cost,
    // varies from seed to seed: six days per run average that out, and
    // give six set-ups.
    s.instances = 6;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Shared pipeline pieces

struct Setup {
  double build_s = 0;
  double construct_s = 0;
};

Simulation set_up(const ScenarioConfig& sc, SpanLog& spans, Setup& t) {
  const auto t0 = Clock::now();
  Scenario scenario = [&] {
    auto span = spans.span("scenario.build");
    return build_scenario(sc);
  }();
  const auto t1 = Clock::now();
  auto span = spans.span("sim.construct");
  Simulation sim(std::move(scenario.deployment), make_quote_generator(sc));
  t.build_s = secs(t0, t1);
  t.construct_s = secs(t1, Clock::now());
  return sim;
}

// Counters summed over the simulator windows of one instance run. Event and
// delivery counts restart at every redeploy, so each epoch is closed (read)
// before the redeploy that ends it. Slices are 5 s of sim time (one control
// tick on elastic); the rates pool the slices that count toward them.
struct SimCounters {
  double run_cpu_s = 0;
  std::uint64_t events = 0;
  std::uint64_t publications = 0;
  std::uint64_t walks = 0;
  std::vector<double> slice_cpu_s;
  double rate_cpu_s = 0;
  double rate_events = 0;
  double rate_deliveries = 0;

  void add_slice(double cpu_s, double events, double deliveries, bool for_rates) {
    slice_cpu_s.push_back(cpu_s);
    if (for_rates) {
      rate_cpu_s += cpu_s;
      rate_events += events;
      rate_deliveries += deliveries;
    }
  }

  void close_epoch(const Simulation& sim) {
    events += sim.events_executed();
    publications += sim.metrics().publications();
  }
};

// Advance `seconds` of sim time in slices of `slice_s`, timing each call;
// the host meter may sample between slices. MatchingEngine's walk counter is
// per thread; the sharded loop folds its workers' counts into the calling
// thread after each run().
void run_window(Simulation& sim, double seconds, double slice_s, SimCounters& c,
                SpanLog& spans, HostMeter& meter, bool record_slices) {
  double done = 0;
  while (done < seconds - 1e-9) {
    const double d = std::min(slice_s, seconds - done);
    const auto events0 = static_cast<double>(sim.events_executed());
    const auto deliveries0 = static_cast<double>(sim.metrics().deliveries());
    MatchingEngine::reset_match_walks();
    const auto t0 = Clock::now();
    {
      auto span = spans.span("sim.run");
      sim.run(d);
    }
    const double w = secs(t0, Clock::now());
    c.walks += MatchingEngine::match_walks();
    c.run_cpu_s += w;
    if (record_slices) {
      c.add_slice(w, static_cast<double>(sim.events_executed()) - events0,
                  static_cast<double>(sim.metrics().deliveries()) - deliveries0, true);
    }
    meter.tick();
    done += d;
  }
}

// Accumulates the timed segments of one instance run.
class Stopwatch {
 public:
  void start() { t0_ = Clock::now(); }
  double stop() {
    const double s = secs(t0_, Clock::now());
    total_ += s;
    return s;
  }
  [[nodiscard]] double total() const { return total_; }

 private:
  Clock::time_point t0_;
  double total_ = 0;
};

// Audit the current epoch's publication ledger (untimed). Publications
// still queued at the end of a window are not losses, so the audit first
// drains the network: every publisher drops to one emission per 30,000 s
// (its already scheduled emission still fires; no later one falls inside
// the drain) and the simulator runs 30 s, until the backlog has cleared.
constexpr double kDrainSeconds = 30;

struct AuditOutcome {
  double seconds = 0;
  std::uint64_t expected = 0;
  std::uint64_t bad = 0;  // real losses + false positives
};

AuditOutcome audit(Simulation& sim, const ScenarioConfig& sc, Gate& gate,
                   const std::string& where) {
  const auto t0 = Clock::now();
  for (const PublisherSpec& p : sim.deployment().publishers) {
    sim.set_publisher_rate(p.client, 1.0 / (1e3 * kDrainSeconds));
  }
  sim.run(kDrainSeconds);
  const LossAudit a = audit_losses(sim, make_quote_generator(sc));
  AuditOutcome out;
  out.seconds = secs(t0, Clock::now());
  out.expected = a.expected;
  out.bad = a.real_losses.size() + a.false_positives;
  gate.check(a.expected > 0, where + ": the delivery audit covered 0 (subscription, "
                                     "publication) pairs (publication ledger off?)");
  gate.check(a.clean(), where + ": delivery audit found " +
                            std::to_string(a.real_losses.size()) + " real losses and " +
                            std::to_string(a.false_positives) + " false positives");
  return out;
}

// ---------------------------------------------------------------------------
// One instance run's measurements (CPU time) and outcomes (sim time)

struct Rep {
  Setup setup;
  // How much slower than nominal the host ran during this instance run
  // (HostMeter); every timing of the run is divided by it when reported.
  double slowdown = 1;
  double peak_rss_mb = 0;
  double run_s = 0;
  SimCounters sim;
  std::vector<double> reconfig_s;  // one entry per reconfiguration
  double redeploy_s = 0;
  double summarize_s = 0;
  // Elastic only.
  std::vector<double> hold_tick_s;
  std::vector<double> plan_tick_s;
  std::uint64_t hold_tick_events = 0;
  std::size_t plans = 0;
  std::size_t applied = 0;
  std::size_t plan_failures = 0;
  // Sim-time outcomes.
  double brokers = 0;
  double msg_rate = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double broker_hours = 0;
  double shards = 1;
  std::string fingerprint;
  // Traced consolidate run only: CROC / alloc layer counters.
  GatherStats gather;
  CramStats cram;
  double cram_s_registry = 0;  // elastic: summed Phase 2 seconds per plan
  double resets_per_plan = 0;
  double bia_reuse = 0;
  std::optional<AuditOutcome> audit;  // audited runs only
};

struct Context {
  const Args& args;
  const Shape& shape;
  Gate& gate;
  HostMeter& meter;
  std::size_t cram_threads = 0;  // resolved by the first CRAM run

  // redeploy() clears and disables the publication ledger, so every epoch
  // that is audited turns it back on.
  void enable_ledger(Simulation& sim) const {
    if (!args.empty_audit) sim.set_publication_ledger(true);
  }
};

// Phases 1-3 + GRAPE step by step, each inside its own span. Mirrors
// Croc::plan_from_info for the default CrocConfig (CRAM-IOS, headroom 1.0,
// no reserve or quarantine); the caller checks the result against
// Croc::reconfigure.
ReconfigurationPlan reconfigure_stepwise(const Simulation& sim, SpanLog& spans, Rep& rep,
                                         Gate& gate) {
  const CrocConfig cfg;
  GatheredInfo info;
  {
    auto span = spans.span("croc.gather");
    info = gather_information(sim.deployment().topology, BrokerId{0}, [&sim](BrokerId b) {
      return sim.broker_info_if_reachable(b);
    });
  }
  rep.gather = info.stats;
  ReconfigurationPlan plan;
  auto plan_span = spans.span("croc.plan");
  std::vector<SubUnit> units = Croc::units_from(info);
  std::vector<AllocBroker> pool = Croc::pool_from(info);
  for (AllocBroker& b : pool) b.out_bw *= cfg.capacity_headroom;
  CramResult phase2;
  {
    auto span = spans.span("alloc.cram");
    phase2 = cram_allocate(pool, std::move(units), info.publisher_table, cfg.cram);
  }
  rep.cram = phase2.stats;
  if (!gate.check(phase2.allocation.success && !phase2.allocation.brokers.empty(),
                  "stepwise Phase 2 allocation failed or is empty")) {
    return plan;
  }
  BuiltOverlay built;
  {
    auto span = spans.span("overlay_build");
    const AllocatorFn allocator = [&cfg](const std::vector<AllocBroker>& p,
                                         const std::vector<SubUnit>& u,
                                         const PublisherTable& t) {
      return cram_allocate(p, u, t, cfg.cram).allocation;
    };
    built = build_overlay(phase2.allocation, pool, info.publisher_table, allocator, cfg.overlay);
  }
  plan.overlay = std::move(built.tree);
  plan.root = built.root;
  std::unordered_map<BrokerId, SubscriptionProfile> local_profiles;
  for (const auto& [broker, hosted] : built.hosted_units) {
    SubscriptionProfile agg;
    for (const SubUnit& u : hosted) {
      for (const SubId s : u.members) plan.subscriber_home[s] = broker;
      agg.merge(u.profile);
    }
    if (!hosted.empty()) local_profiles.emplace(broker, std::move(agg));
  }
  plan.allocated_brokers = plan.overlay.brokers();
  plan.cluster_count = phase2.allocation.unit_count();
  {
    auto span = spans.span("grape");
    std::vector<GrapePublisher> pubs;
    for (const PublisherRecord& p : info.publishers) {
      pubs.push_back(GrapePublisher{p.client, p.profile.adv});
    }
    plan.publisher_home = grape_place_publishers(plan.overlay, pubs, local_profiles,
                                                 info.publisher_table, cfg.grape_mode)
                              .broker_for;
  }
  return plan;
}

// Apply `plan` and redeploy; returns the time of both, or nullopt when
// the apply rolled back.
std::optional<double> apply_and_redeploy(Simulation& sim, const ReconfigurationPlan& plan,
                                         SpanLog& spans, Rep& rep, Gate& gate,
                                         const std::string& what) {
  const auto t0 = Clock::now();
  ApplyResult applied = [&] {
    auto span = spans.span("croc.apply");
    return apply_plan_transactional(sim.deployment(), plan,
                                    [&sim](BrokerId b) { return sim.broker_alive(b); });
  }();
  if (!gate.check(applied.success, what + ": apply rolled back (" + applied.detail + ")")) {
    return std::nullopt;
  }
  const auto t1 = Clock::now();
  {
    auto span = spans.span("sim.redeploy");
    sim.redeploy(std::move(applied.deployment));
  }
  const auto t2 = Clock::now();
  rep.redeploy_s += secs(t1, t2);
  return secs(t0, t2);
}

void finish_measure_window(Simulation& sim, Rep& rep, SpanLog& spans) {
  const auto t0 = Clock::now();
  SimSummary summary;
  {
    auto span = spans.span("sim.summarize");
    summary = sim.summarize();
  }
  rep.summarize_s = secs(t0, Clock::now());
  rep.brokers = static_cast<double>(summary.allocated_brokers);
  rep.msg_rate = summary.system_msg_rate;
  rep.p50_ms = interpolated_percentile_ms(sim.metrics().delay_histogram(), 0.50);
  rep.p99_ms = interpolated_percentile_ms(sim.metrics().delay_histogram(), 0.99);
  rep.broker_hours = rep.brokers * summary.duration_s / 3600.0;
  Fingerprint fp;
  fp.add("brokers", rep.brokers)
      .add("publications", static_cast<double>(summary.publications))
      .add("deliveries", static_cast<double>(summary.deliveries))
      .add("system_msg_rate", summary.system_msg_rate)
      .add("avg_delay_ms", summary.avg_delivery_delay_ms)
      .add("p50_ms", rep.p50_ms)
      .add("p99_ms", rep.p99_ms)
      .add("avg_hops", summary.avg_hop_count);
  rep.fingerprint = fp.render();
}

// ---------------------------------------------------------------------------
// Workloads

// consolidate: profile window -> one from-scratch CROC reconfiguration
// (CRAM-IOS) -> apply + redeploy -> measure window.
void consolidate_rep(Context& ctx, Simulation& sim, SpanLog& spans, Rep& rep) {
  const Shape& sh = ctx.shape;
  Gate& gate = ctx.gate;
  Stopwatch run;
  ReconfigurationPlan plan;
  {
    run.start();
    auto root = spans.span("run");
    run_window(sim, sh.profile_s, sh.slice_s, rep.sim, spans, ctx.meter, true);
    rep.sim.close_epoch(sim);
    const auto t0 = Clock::now();
    if (spans.enabled()) {
      plan = reconfigure_stepwise(sim, spans, rep, gate);
    } else {
      Croc croc{CrocConfig{}};
      ReconfigurationReport report = croc.reconfigure(sim, BrokerId{0});
      gate.check(report.success, std::string("Croc::reconfigure failed: ") +
                                     failure_reason_name(report.failure));
      ctx.cram_threads = report.cram.threads_used;
      plan = std::move(report.plan);
    }
    rep.reconfig_s.push_back(secs(t0, Clock::now()));
    run.stop();
  }
  ctx.meter.tick();

  // Untimed: the plan must home everyone and, in the traced run, equal what
  // Croc::reconfigure produces from the same profiled state.
  std::string missing;
  gate.check(plan_homes_everyone(sim.deployment(), plan, &missing),
             "the consolidation plan does not home " + missing);
  if (spans.enabled()) {
    Croc croc{CrocConfig{}};
    const ReconfigurationReport ref = croc.reconfigure(sim, BrokerId{0});
    ctx.cram_threads = ref.cram.threads_used;
    gate.check(ref.success && same_plan(ref.plan, plan),
               "the stepwise gather/CRAM/overlay/GRAPE plan differs from Croc::reconfigure");
  }

  {
    run.start();
    auto root = spans.span("run");
    if (!apply_and_redeploy(sim, plan, spans, rep, gate, "consolidate")) {
      run.stop();
      return;
    }
    ctx.enable_ledger(sim);
    rep.shards = registry_shards();
    run_window(sim, sh.measure_s, sh.slice_s, rep.sim, spans, ctx.meter, sh.measure_rates);
    finish_measure_window(sim, rep, spans);
    run.stop();
  }
  rep.sim.close_epoch(sim);
  rep.run_s = run.total();
}

// largescale: warm-up window -> identity re-deploy (the MANUAL placement
// kept; rebuilds every routing table) -> measure window. No CROC planning.
void largescale_rep(Context& ctx, Simulation& sim, SpanLog& spans, Rep& rep) {
  const Shape& sh = ctx.shape;
  Stopwatch run;
  run.start();
  {
    auto root = spans.span("run");
    rep.shards = registry_shards();
    run_window(sim, sh.profile_s, sh.slice_s, rep.sim, spans, ctx.meter, true);
    rep.sim.close_epoch(sim);
    ReconfigurationPlan identity;
    const Deployment& d = sim.deployment();
    identity.overlay = d.topology;
    identity.allocated_brokers = d.topology.brokers();
    identity.root = *std::min_element(identity.allocated_brokers.begin(),
                                      identity.allocated_brokers.end());
    for (const SubscriberSpec& s : d.subscribers) identity.subscriber_home[s.sub] = s.home;
    for (const PublisherSpec& p : d.publishers) identity.publisher_home[p.client] = p.home;
    const std::optional<double> w =
        apply_and_redeploy(sim, identity, spans, rep, ctx.gate, "largescale identity plan");
    if (!w) return;
    rep.reconfig_s.push_back(*w);
    ctx.enable_ledger(sim);
    run_window(sim, sh.measure_s, sh.slice_s, rep.sim, spans, ctx.meter, true);
    finish_measure_window(sim, rep, spans);
  }
  rep.run_s = run.stop();
  rep.sim.close_epoch(sim);
}

// elastic: warm-up at the day's opening rate -> ControlLoop over one
// diurnal day (controller on), traffic reshaped before every tick.
void elastic_rep(Context& ctx, const ScenarioConfig& sc, Simulation& sim, SpanLog& spans,
                 Rep& rep) {
  const Shape& sh = ctx.shape;
  Gate& gate = ctx.gate;
  const DiurnalSchedule schedule(default_diurnal(sh.day_s));
  obs::MetricsRegistry::global().reset();

  Stopwatch run;
  run.start();
  std::optional<SpanLog::Scope> root;
  root.emplace(spans.enabled() ? &spans : nullptr, "run");
  const control::RateModulator modulator(sim);
  modulator.apply(sim, schedule.multiplier(0));
  run_window(sim, sh.profile_s, sh.profile_s, rep.sim, spans, ctx.meter, false);
  rep.sim.walks = 0;  // walks per publication cover the loop only
  sim.reset_metrics();
  // The final epoch's ledger feeds the audit.
  ctx.enable_ledger(sim);

  control::ControlLoopConfig lc;
  lc.interval_s = sh.interval_s;
  lc.enabled = true;
  lc.croc.seed = sc.seed;
  control::ControlLoop loop(sim, lc);
  std::uint64_t closed_events = 0;  // events of epochs ended by a redeploy
  Clock::time_point redeploy_t0;
  loop.pre_redeploy_hook = [&](Simulation& s) {
    closed_events += s.events_executed();
    redeploy_t0 = Clock::now();
  };
  loop.post_redeploy_hook = [&](Simulation& s) {
    rep.redeploy_s += secs(redeploy_t0, Clock::now());
    ctx.enable_ledger(s);
  };
  std::size_t unhomed_plans = 0;
  loop.pre_apply_hook = [&](const ReconfigurationPlan& plan) {
    std::string missing;
    if (!plan_homes_everyone(sim.deployment(), plan, &missing)) unhomed_plans += 1;
  };

  const std::uint64_t events_at_start = sim.events_executed();
  std::uint64_t events_prev = events_at_start;
  const auto steps = static_cast<std::size_t>(std::ceil(sh.day_s / sh.interval_s));
  for (std::size_t i = 0; i < steps; ++i) {
    modulator.apply(sim, schedule.multiplier(static_cast<double>(i) * sh.interval_s));
    MatchingEngine::reset_match_walks();
    const auto t0 = Clock::now();
    const control::TickRecord* rec = nullptr;
    {
      auto span = spans.span("control.step");
      rec = &loop.step();
    }
    const double w = secs(t0, Clock::now());
    rep.sim.walks += MatchingEngine::match_walks();
    const std::uint64_t events_now = closed_events + sim.events_executed();
    // The rates cover the ticks that did not plan (sense + simulate only);
    // planning cost is in reconfig_s and replan_s.
    rep.sim.add_slice(w, static_cast<double>(events_now - events_prev),
                      static_cast<double>(rec->window.deliveries), !rec->planned);
    if (rec->planned) {
      rep.plan_tick_s.push_back(w);
      rep.plans += 1;
      if (rec->applied) rep.applied += 1;
      if (rec->plan_failure != FailureReason::kNone ||
          rec->apply_failure != FailureReason::kNone) {
        rep.plan_failures += 1;
      } else {
        rep.cram_s_registry += registry_value("croc.phase2_seconds");
      }
    } else {
      rep.hold_tick_s.push_back(w);
      rep.hold_tick_events += events_now - events_prev;
    }
    events_prev = events_now;
    ctx.meter.tick();
  }
  root.reset();
  rep.run_s = run.stop();

  const control::ControlTotals& tot = loop.totals();
  rep.sim.events = closed_events + sim.events_executed() - events_at_start;
  rep.sim.publications = tot.publications;
  rep.shards = registry_shards();
  double msgs = 0;
  double window_s = 0;
  for (const control::TickRecord& t : loop.history()) {
    msgs += static_cast<double>(t.window.broker_msgs_total);
    window_s += t.window.duration_s;
  }
  rep.msg_rate = ratio(msgs, window_s);
  rep.broker_hours = tot.broker_seconds / 3600.0;
  rep.brokers = ratio(tot.broker_seconds, window_s);  // time-weighted mean
  rep.p50_ms = interpolated_percentile_ms(loop.delay_histogram(), 0.50);
  rep.p99_ms = interpolated_percentile_ms(loop.delay_histogram(), 0.99);
  const double sessions = registry_value("croc.incremental.sessions");
  const double inc_plans = registry_value("croc.incremental.plans");
  rep.resets_per_plan =
      ratio(registry_value("croc.incremental.session_resets"), sessions + inc_plans);
  rep.bia_reuse = ratio(registry_value("croc.gather_brokers_reused"),
                        registry_value("croc.brokers_answered"));

  gate.check(rep.plans > 0, "elastic: the controller never planned");
  gate.check(tot.reconfigurations > 0, "elastic: no plan was applied");
  gate.check(rep.plan_failures == 0, "elastic: " + std::to_string(rep.plan_failures) +
                                         " plans failed to plan or apply");
  gate.check(unhomed_plans == 0, "elastic: " + std::to_string(unhomed_plans) +
                                     " applied plans left a client unhomed");
  gate.check(tot.deliveries > 0, "elastic: no deliveries");
  Fingerprint fp;
  fp.add("broker_seconds", tot.broker_seconds)
      .add("publications", static_cast<double>(tot.publications))
      .add("deliveries", static_cast<double>(tot.deliveries))
      .add("reconfigurations", static_cast<double>(tot.reconfigurations))
      .add("plans", static_cast<double>(rep.plans))
      .add("msg_rate", rep.msg_rate)
      .add("p50_ms", rep.p50_ms)
      .add("p99_ms", rep.p99_ms);
  rep.fingerprint = fp.render();
}

Rep run_rep(Context& ctx, const ScenarioConfig& sc, SpanLog& spans, bool audited) {
  Rep rep;
  const std::size_t mark = ctx.meter.mark();
  const bool rss_reset = reset_peak_rss();
  ctx.meter.sample();
  Simulation sim = set_up(sc, spans, rep.setup);
  if (ctx.args.workload == "consolidate") {
    consolidate_rep(ctx, sim, spans, rep);
  } else if (ctx.args.workload == "largescale") {
    largescale_rep(ctx, sim, spans, rep);
  } else {
    elastic_rep(ctx, sc, sim, spans, rep);
  }
  // The audit is the benchmark's check, not the program's work: neither its
  // time nor its memory (the drain, the oracle's replay) is measured.
  rep.peak_rss_mb = peak_rss_mb(rss_reset);
  if (audited && ctx.gate.failed() == 0) {
    rep.audit = audit(sim, sc, ctx.gate,
                      ctx.args.workload == "elastic" ? "elastic final epoch"
                                                     : ctx.args.workload + " measure window");
  }
  ctx.meter.sample();
  rep.slowdown = ctx.meter.slowdown_since(mark);
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting

// One Rep per instance, in instance order.
using Runs = std::vector<Rep>;

std::vector<double> per_instance(const Runs& runs, const std::function<double(const Rep&)>& f) {
  std::vector<double> v;
  for (const Rep& r : runs) v.push_back(f(r));
  return v;
}

// Per-instance figures are means over the instances: the instances' inputs
// differ, and a mean weighs every one. Every timing is divided by its
// instance's host slowdown first. Set-up, once per instance, is a median.
void add_end_to_end(MetricSet& m, const Runs& runs, bool elastic) {
  const auto mean = [&](const std::function<double(const Rep&)>& f) {
    return ratio(sum(per_instance(runs, f)), static_cast<double>(runs.size()));
  };
  const auto& outcome = mean;
  // Every value of `f` over the instances, each divided by its slowdown.
  const auto pooled = [&](const std::function<const std::vector<double>&(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep& r : runs) {
      for (const double x : f(r)) v.push_back(x / r.slowdown);
    }
    return v;
  };
  m.set("setup_s", median(per_instance(runs, [](const Rep& r) {
          return (r.setup.build_s + r.setup.construct_s) / r.slowdown;
        })),
        "s");
  m.set("run_s", mean([](const Rep& r) { return r.run_s / r.slowdown; }), "s");
  // Mean over every plan of the run: an elastic day mixes ~10 ms incremental
  // plans with ~1 s cold bootstraps, and a median over that mix jumps
  // between the two.
  const std::vector<double> plan_s = pooled([&](const Rep& r) -> const std::vector<double>& {
    return elastic ? r.plan_tick_s : r.reconfig_s;
  });
  m.set("reconfig_s", ratio(sum(plan_s), static_cast<double>(plan_s.size())), "s");
  // Rates pool every counted slice of every instance: work over time.
  const double rate_s = sum(per_instance(runs, [](const Rep& r) {
    return r.sim.rate_cpu_s / r.slowdown;
  }));
  m.set("sim_events_per_s",
        ratio(sum(per_instance(runs, [](const Rep& r) { return r.sim.rate_events; })), rate_s),
        "1/s");
  m.set("sim_deliveries_per_s",
        ratio(sum(per_instance(runs, [](const Rep& r) { return r.sim.rate_deliveries; })),
              rate_s),
        "1/s");
  m.set("tick_p50_ms",
        median(pooled([](const Rep& r) -> const std::vector<double>& {
          return r.sim.slice_cpu_s;
        })) * 1e3,
        "ms");
  m.set("replan_s", mean([&](const Rep& r) {
          return (elastic ? sum(r.plan_tick_s) : sum(r.reconfig_s)) / r.slowdown;
        }), "s");
  m.set("peak_rss_mb", mean([](const Rep& r) { return r.peak_rss_mb; }), "MB");
  m.set("brokers_allocated", outcome([](const Rep& r) { return r.brokers; }), "count");
  m.set("msg_rate", outcome([](const Rep& r) { return r.msg_rate; }), "msg/s");
  m.set("delivery_p50_ms", outcome([](const Rep& r) { return r.p50_ms; }), "ms");
  m.set("delivery_p99_ms", outcome([](const Rep& r) { return r.p99_ms; }), "ms");
  m.set("broker_hours", outcome([](const Rep& r) { return r.broker_hours; }), "broker-h");
  double expected = 0;
  double bad = 0;
  double plans = 0;
  double plan_failures = 0;
  for (const Rep& r : runs) {
    if (r.audit) {
      expected += static_cast<double>(r.audit->expected);
      bad += static_cast<double>(r.audit->bad);
    }
    // Outside elastic the one reconfiguration per run is the plan.
    plans += elastic ? static_cast<double>(r.plans) : 1.0;
    plan_failures += static_cast<double>(r.plan_failures);
  }
  m.set("audit_clean_frac", 1.0 - ratio(bad, expected), "fraction");
  m.set("replan_ok_frac", 1.0 - ratio(plan_failures, plans), "fraction");
}

// Timings are divided by the instance's host slowdown, as end to end.
void add_layers(MetricSet& m, const Rep& traced, const Rep& untraced, const SpanLog& spans,
                bool elastic) {
  const std::map<std::string, double> self = spans.self_seconds();
  const Rep& t = traced;
  const double k = 1.0 / t.slowdown;
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second * k;
  };
  m.set("host.slowdown", t.slowdown, "x");
  m.set("scenario.build_s", t.setup.build_s * k, "s");
  m.set("sim.construct_s", t.setup.construct_s * k, "s");
  m.set("sim.redeploy_s", t.redeploy_s * k, "s");
  m.set("sim.summarize_s", t.summarize_s * k, "s");
  const double sim_run_s = (elastic ? sum(t.hold_tick_s) : t.sim.run_cpu_s) * k;
  const double sim_events = static_cast<double>(elastic ? t.hold_tick_events : t.sim.events);
  m.set("sim.run_s", sim_run_s, "s");
  m.set("sim.events", static_cast<double>(t.sim.events), "count");
  m.set("sim.ns_per_event", ratio(sim_run_s * 1e9, sim_events), "ns");
  m.set("sim.shards", t.shards, "count");
  m.set("matching.walks_per_pub",
        ratio(static_cast<double>(t.sim.walks), static_cast<double>(t.sim.publications)),
        "count");
  m.set("croc.gather_s", self_s("croc.gather"), "s");
  m.set("croc.gather_msgs",
        static_cast<double>(t.gather.bir_messages + t.gather.bia_messages), "count");
  m.set("croc.plan_s", self_s("croc.plan"), "s");
  m.set("alloc.cram_s", elastic ? t.cram_s_registry * k : self_s("alloc.cram"), "s");
  m.set("alloc.closeness_comps", static_cast<double>(t.cram.closeness_computations), "count");
  m.set("alloc.allocation_runs", static_cast<double>(t.cram.allocation_runs), "count");
  m.set("alloc.probe_skip_ratio",
        ratio(static_cast<double>(t.cram.probe_units_skipped),
              static_cast<double>(t.cram.probe_units_skipped + t.cram.probe_units_packed)),
        "fraction");
  // CramStats reports 1 thread when CRAM did not run at all.
  m.set("alloc.threads_used",
        t.cram.closeness_computations > 0 ? static_cast<double>(t.cram.threads_used) : 0.0,
        "count");
  m.set("overlay_build.s", self_s("overlay_build"), "s");
  m.set("grape.s", self_s("grape"), "s");
  m.set("control.tick_hold_ms", median(t.hold_tick_s) * k * 1e3, "ms");
  m.set("control.tick_plan_ms", median(t.plan_tick_s) * k * 1e3, "ms");
  m.set("control.plan_yield",
        ratio(static_cast<double>(t.applied), static_cast<double>(t.plans)), "fraction");
  m.set("croc.session_resets_per_plan", t.resets_per_plan, "fraction");
  m.set("croc.bia_reuse", t.bia_reuse, "fraction");
  m.set("oracle.audit_s", untraced.audit ? untraced.audit->seconds / untraced.slowdown : 0.0,
        "s");
  m.set("trace.span_coverage", spans.coverage("run"), "fraction");
  m.set("trace.overhead_s", t.run_s * k - untraced.run_s / untraced.slowdown, "s");
  m.set("trace.run_s", t.run_s * k, "s");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Shape shape = shape_for(args);
  const bool elastic = args.workload == "elastic";
  Gate gate;
  HostMeter meter;
  Context ctx{args, shape, gate, meter, 0};

  const std::size_t nproc = affinity_cpus();
  std::printf("perfbench: workload=%s seed=%llu scale=%s trace=%d instances=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.small ? "small" : "full", args.trace ? 1 : 0,
              shape.instances);
  std::fflush(stdout);

  std::vector<ScenarioConfig> scenarios;
  for (std::size_t i = 0; i < shape.instances; ++i) {
    scenarios.push_back(shape.scenario);
    scenarios.back().seed = instance_seed(args.seed, i);
  }
  // Each instance once; the traced run needs only instance 0. The audit
  // covers instance 0 (the --seed scenario): it costs about as much as a run.
  Runs runs;
  SpanLog off(false);
  const std::size_t untraced = args.trace ? 1 : shape.instances;
  for (std::size_t i = 0; i < untraced && gate.failed() == 0; ++i) {
    runs.push_back(run_rep(ctx, scenarios[i], off, i == 0));
    const Rep& r = runs.back();
    // Timings as reported (CPU seconds over the host slowdown).
    std::printf("perfbench: instance %zu (seed %llu) slowdown=%.3f rss_mb=%.1f run_s=%.3f "
                "plans=%zu replan_s=%.3f brokers=%g p99_ms=%.1f tick_p50_ms=%.1f\n",
                i, static_cast<unsigned long long>(scenarios[i].seed), r.slowdown, r.peak_rss_mb,
                r.run_s / r.slowdown, elastic ? r.plans : r.reconfig_s.size(),
                (elastic ? sum(r.plan_tick_s) : sum(r.reconfig_s)) / r.slowdown, r.brokers,
                r.p99_ms, median(r.sim.slice_cpu_s) / r.slowdown * 1e3);
    std::fflush(stdout);
  }
  {
    std::vector<double> v = meter.samples();
    std::sort(v.begin(), v.end());
    if (!v.empty()) {
      std::printf("perfbench: host meter: %zu samples, min %.1f ms, median %.1f ms, "
                  "max %.1f ms (nominal %.1f ms)\n",
                  v.size(), v.front() * 1e3, median(v) * 1e3, v.back() * 1e3,
                  HostMeter::kNominalSeconds * 1e3);
    }
  }
  // Instance 0 once more with the benchmark's spans on.
  SpanLog spans(args.trace);
  std::optional<Rep> traced;
  if (args.trace && gate.failed() == 0) traced = run_rep(ctx, scenarios[0], spans, false);

  // Sim-time outcomes per instance seed; run.py checks they repeat across
  // runs, and the traced run must reproduce the untraced one.
  std::string fingerprints = "{";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    fingerprints += (i == 0 ? "\"" : ",\"") + std::to_string(scenarios[i].seed) + "\":" +
                    (runs[i].fingerprint.empty() ? std::string("{}") : runs[i].fingerprint);
  }
  fingerprints += "}";
  if (traced) {
    gate.check(traced->fingerprint == runs[0].fingerprint,
               "traced sim-time results differ from the untraced run");
  }
  // Environment hygiene: no run may use more threads than the CPUs it has.
  const std::size_t cram_threads = resolve_cram_options(CramOptions{}).threads;
  const double shards = runs.empty() ? 1.0 : runs[0].shards;
  if (nproc > 0) {
    gate.check(shards <= static_cast<double>(nproc),
               "simulator uses " + std::to_string(shards) + " shards on " +
                   std::to_string(nproc) + " CPUs");
    gate.check(cram_threads >= 1 && cram_threads <= nproc,
               "CRAM thread count " + std::to_string(cram_threads) +
                   " is unpinned or exceeds the " + std::to_string(nproc) + " CPUs");
  }

  MetricSet e2e;
  MetricSet layers;
  if (gate.failed() == 0) {
    add_end_to_end(e2e, runs, elastic);
    if (traced) {
      add_layers(layers, *traced, runs[0], spans, elastic);
      if (!args.trace_out.empty() && !spans.write_chrome_trace(args.trace_out)) {
        std::fprintf(stderr, "perfbench: could not write %s\n", args.trace_out.c_str());
      }
    }
  }

  obs::JsonObject env;
  env.set_integer("nproc", nproc)
      .set_integer("hardware_concurrency", std::thread::hardware_concurrency())
      .set_number("sim_shards", shards)
      .set_integer("cram_threads", cram_threads)
      .set_integer("cram_threads_used", ctx.cram_threads)
      .set_string("build_type", PERFBENCH_BUILD_TYPE)
      .set_string("compiler", PERFBENCH_COMPILER)
      .set_integer("instances", runs.size());
  std::string failures = "[";
  for (std::size_t i = 0; i < gate.failures().size(); ++i) {
    failures += (i == 0 ? "" : ",") + obs::json_quote(gate.failures()[i]);
  }
  failures += "]";

  obs::JsonObject out;
  out.set_string("workload", args.workload)
      .set_integer("seed", args.seed)
      .set_string("scale", args.small ? "small" : "full")
      .set_bool("trace", args.trace)
      .set_bool("correct", gate.failed() == 0)
      .set_integer("attempted", gate.attempted())
      .set_integer("failed", gate.failed())
      .set_raw("failures", failures)
      .set_raw("end_to_end", e2e.render())
      .set_raw("per_layer", layers.render())
      .set_raw("deterministic", fingerprints)
      .set_raw("env", env.render());
  std::printf("%s\n", out.render().c_str());
  return gate.failed() == 0 ? 0 : 1;
}
