// The deployment simulator.
//
// Stands in for the paper's cluster/SciNet testbeds: brokers are queueing
// stations (matching CPU + throttled output link) connected by fixed-latency
// links; publishers emit stock quotes on a fixed schedule; filter-based
// routing is installed exactly as PADRES would (advertisement flooding,
// subscriptions propagated toward intersecting advertisements). CBCs profile
// deliveries, so after a measurement run CROC can gather real BrokerInfo.
//
// One event queue drives each Simulation. Events carry content-derived
// keys (source ordinal + per-source sequence, sim/event_queue.hpp), so the
// execution order is a pure function of the simulated system.
//
// Concurrency model: routing state is build-then-freeze. redeploy() creates
// fresh brokers, install_routing() fills their tables and freezes each SRT
// into an immutable compiled table; run() only reads those tables (const
// match_into with the simulation's own scratch). One thread drives a
// Simulation at a time. Separate Simulations may run on separate threads:
// the one structure they share, the global Interner, locks internally.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "broker/broker.hpp"
#include "common/rng.hpp"
#include "obs/sampler.hpp"
#include "overlay/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/publication_pool.hpp"
#include "workload/stock_quote.hpp"

namespace greenps {

struct PublisherSpec {
  ClientId client;
  AdvId adv;
  std::string symbol;   // stock published by this publisher
  MsgRate rate_msg_s = 70.0 / 60.0;
  BrokerId home;
  Filter adv_filter;    // advertisement announced by this publisher
};

struct SubscriberSpec {
  ClientId client;
  SubId sub;
  Filter filter;
  BrokerId home;
};

struct Deployment {
  Topology topology;
  std::unordered_map<BrokerId, BrokerCapacity> capacities;
  std::vector<PublisherSpec> publishers;
  std::vector<SubscriberSpec> subscribers;
  // Capacity of every CBC profiling bit vector (Section III-B; default 1,280).
  std::size_t profile_window_bits = WindowedBitVector::kDefaultCapacity;
};

class Simulation {
 public:
  Simulation(Deployment deployment, StockQuoteGenerator quotes, NetworkConfig net = {});

  // Advance simulated time by `duration_s`, generating and routing
  // publications. May be called repeatedly; metrics accumulate until
  // reset_metrics().
  void run(double duration_s);

  // Replace the deployment (topology + client placement) with a new one —
  // the reconfiguration at the end of Phase 3. Queues, routing tables and
  // metrics restart; publisher sequence numbers and the stock price walks
  // continue, so profiles remain consistent across reconfigurations.
  void redeploy(Deployment deployment);

  [[nodiscard]] const Deployment& deployment() const { return deployment_; }
  [[nodiscard]] const MetricsCollector& metrics() const { return metrics_; }

  // Update one publisher's emission rate in place (every spec carrying the
  // client id, in the deployment and the live schedule). Takes effect at
  // the publisher's next scheduled publication. The rate must be positive:
  // a publisher's event chain cannot be paused mid-epoch. Rates live on the
  // deployment, so they survive redeploys (apply_plan copies the old
  // publisher specs). Traffic shapers (diurnal schedules, flash crowds)
  // drive this between run() slices.
  void set_publisher_rate(ClientId client, MsgRate rate_msg_s);

  // --- time-series sampling ---
  // Programmatic equivalent of GREENPS_OBS_SAMPLE_MS: enable, retune or
  // disable per-broker sampling without touching the environment and
  // without the CSV side channel (the CSV is still written when the env var
  // set the interval). <= 0 disables. While sampling runs, a change takes
  // effect at the next sample; otherwise sampling starts one interval into
  // the next run().
  void set_sample_interval_ms(double ms);
  // This epoch's sample rows in (time, broker) order. run() appends them;
  // redeploy() clears them (the event clock restarts at zero), so consumers
  // (the elastic controller) read incrementally from their last row index
  // and rewind to zero after a redeploy.
  [[nodiscard]] const obs::TimeSeriesSampler& samples() const { return sampler_; }

  [[nodiscard]] Broker& broker(BrokerId id);
  [[nodiscard]] const Broker& broker(BrokerId id) const;

  // BIA payload for one broker (what its CBC currently knows).
  [[nodiscard]] BrokerInfo broker_info(BrokerId id) const;

  // --- fault injection ---
  // Arm a fault script for the current epoch: its events fire on the sim
  // clock interleaved with regular traffic. Also enables the publication
  // ledger. An empty schedule arms nothing and draws nothing, so the event
  // stream stays bit-identical to a run without faults. redeploy() clears
  // any remaining scheduled faults along with the rest of the queue —
  // install a fresh schedule per epoch.
  void install_faults(FaultSchedule schedule, FaultOptions options = {});
  // Apply one fault right now (tests, mid-apply chaos probes).
  void inject_fault(FaultEvent ev);
  [[nodiscard]] const FaultState& fault_state() const { return faults_; }
  // In the deployment and not currently crashed.
  [[nodiscard]] bool broker_alive(BrokerId id) const;
  // BIA if the broker answers; nullopt while it is crashed (Phase 1's
  // per-broker timeout expires against a dead CBC).
  [[nodiscard]] std::optional<BrokerInfo> broker_info_if_reachable(BrokerId id) const;
  // Just the CBC's structural profile epoch — the cheap probe an
  // epoch-based incremental gather sends before asking for a full BIA.
  [[nodiscard]] std::optional<std::uint64_t> broker_epoch_if_reachable(BrokerId id) const;

  // Retransmit-buffer cap in force for one broker: the explicit
  // FaultOptions cap when nonzero, else the profile-derived cap (see
  // FaultOptions::max_retransmit_buffer).
  [[nodiscard]] std::size_t retransmit_cap(BrokerId b) const;

  // --- publication ledger (delivery-loss oracle) ---
  // One row per publication emitted this epoch, plus one per re-admission
  // from a degraded-mode admission buffer (stamped with the re-admission
  // time); enabled by install_faults() or explicitly. Recording is
  // observation-only: the event stream is untouched. Rows are appended in
  // execution order, so `at` never decreases, and a re-admitted
  // publication's row always comes after (and strictly later than) its
  // original row — a reader keeping the last row per (adv, seq) sees when
  // the message actually entered the system.
  struct PublishRecord {
    AdvId adv;
    MessageSeq seq = 0;
    SimTime at = 0;
    bool dropped_at_source = false;  // publisher's home broker was down
  };
  void set_publication_ledger(bool enabled) { ledger_enabled_ = enabled; }
  [[nodiscard]] const std::vector<PublishRecord>& publish_ledger() const {
    return publish_ledger_;
  }
  // (adv, seq) pairs sitting in retransmit buffers, awaiting a restart.
  [[nodiscard]] std::set<std::pair<AdvId, MessageSeq>> pending_retransmits() const;
  // (adv, seq) pairs parked in degraded-mode admission buffers, awaiting a
  // backlog drain (FaultOptions::admission_control).
  [[nodiscard]] std::set<std::pair<AdvId, MessageSeq>> pending_admissions() const;
  // Publications shed by admission control (deferred-buffer cap hit).
  [[nodiscard]] const std::set<std::pair<AdvId, MessageSeq>>& shed_publications() const {
    return shed_;
  }
  // Messages that were waiting in retransmit/deferred buffers when a
  // redeploy cleared them (the buffering broker was decommissioned
  // mid-outage). Cumulative across the sim's life; the loss oracle excuses
  // these instead of reporting silent losses.
  [[nodiscard]] const std::set<std::pair<AdvId, MessageSeq>>& stranded_messages() const {
    return stranded_;
  }
  // Current position of the sim clock (end of the last run horizon).
  [[nodiscard]] SimTime now_us() const { return queue_.now(); }

  [[nodiscard]] SimSummary summarize() const;
  void reset_metrics();

  // Total simulated seconds measured since the last metrics reset.
  [[nodiscard]] double measured_seconds() const { return measured_s_; }

  // Discrete events executed since the last redeploy (bench
  // instrumentation; redeploy() restarts the event queue and its count).
  [[nodiscard]] std::size_t events_executed() const { return queue_.executed(); }

 private:
  // One deployed broker plus what scheduling its events needs: a dense
  // ordinal feeding event keys, the per-source key sequence, and a private
  // RNG stream for probabilistic link drops (per broker, so one link's
  // draws never depend on traffic elsewhere).
  struct BrokerSlot {
    std::unique_ptr<Broker> broker;
    std::uint64_t ord = 0;
    std::uint64_t key_seq = 0;
    Rng drop_rng{0};
  };

  struct PublisherState {
    PublisherSpec spec;
    MessageSeq next_seq = 0;
    // Node in seq_ pre-inserted at redeploy (stable address), so publishing
    // never looks the advertisement up.
    MessageSeq* seq_slot = nullptr;
    BrokerSlot* home = nullptr;
    std::uint64_t ord = 0;
    std::uint64_t key_seq = 0;
  };

  // A message held at a crashed broker, awaiting restart (retransmit).
  struct BufferedArrival {
    std::shared_ptr<const Publication> pub;
    BrokerId from{};
    bool has_from = false;
    bool is_delivery = false;  // final hop: deliver to `sub` on replay
    SubId sub{};
    int broker_hops = 0;
    SimTime publish_time = 0;
  };

  // A publication parked at its home broker's door by degraded-mode
  // admission control, awaiting a backlog drain.
  struct DeferredPub {
    std::shared_ptr<Publication> pub;
    SimTime published_at = 0;  // original publish time (delay accounting)
  };

  struct DeferredQueue {
    std::deque<DeferredPub> entries;
    bool drain_scheduled = false;
  };

  // Previous-sample counters so each sample reports per-interval deltas.
  struct SampleBaseline {
    std::uint64_t msgs_in = 0;
    std::uint64_t msgs_out = 0;
    SimTime busy_us = 0;
  };

  void install_routing();
  // Capture per-broker message rates from the current metrics window
  // (feeds derived retransmit caps in the next epoch).
  void snapshot_profiled_rates();
  void derive_retransmit_caps(const FaultSchedule& schedule);
  // Periodic per-broker time-series sampling (GREENPS_OBS_SAMPLE_MS): one
  // self-rescheduling event, `interval` after the previous sample,
  // snapshots message rates, output-queue backlog and bandwidth
  // utilization over that interval. Inert (no events scheduled) when
  // disabled, so the event stream — and thus every allocation decision —
  // is unchanged by default.
  void schedule_sample(SimTime interval);
  void take_sample(SimTime interval);
  // A broker's current traffic counters and link busy time.
  [[nodiscard]] SampleBaseline sample_counters(BrokerId id) const;
  void schedule_publisher(std::size_t pub_index, SimTime first);
  void publish(std::size_t pub_index);
  // Fire one fault: flip the FaultState, sync the Broker object and emit
  // obs trace/metrics. On restart the broker replays buffered messages.
  void apply_fault(const FaultEvent& ev);
  void buffer_for_retransmit(BrokerId at, BufferedArrival&& entry);
  void replay_retransmits(BrokerSlot& slot);
  // Degraded-mode admission control: park a fresh publication at its home
  // broker's door, and the self-rescheduling per-broker drain that
  // re-injects parked publications once the backlog recedes.
  void defer_publication(BrokerSlot& home, std::shared_ptr<Publication> pub,
                         SimTime published_at);
  void schedule_admission_drain(BrokerSlot& slot);
  void drain_admissions(BrokerSlot& slot);
  // Sweep retransmit/deferred buffers into stranded_ (redeploy is about to
  // clear them).
  void sweep_stranded();
  // `slot` is resolved at schedule time (broker storage is stable between
  // redeploys and the queue is cleared on redeploy), saving an id lookup
  // per hop and per delivery on the hot path.
  void arrive_at_broker(BrokerSlot& slot, std::shared_ptr<const Publication> pub,
                        BrokerId from, bool has_from, int broker_hops,
                        SimTime publish_time);

  Deployment deployment_;
  StockQuoteGenerator quotes_;
  NetworkConfig net_;
  EventQueue queue_;
  MetricsCollector metrics_;
  std::unordered_map<BrokerId, BrokerSlot> brokers_;
  std::vector<BrokerId> broker_ids_;  // ascending; the sampler's row order
  std::vector<PublisherState> publishers_;
  // Sequence numbers survive redeploys (bit vector counters stay in sync).
  std::unordered_map<AdvId, MessageSeq> seq_;
  // Per-arrival scratch, reused across every publication.
  SubscriptionRoutingTable::MatchResult route_scratch_;
  MatchScratch match_scratch_;
  PublicationPool pub_pool_;
  // Brokers hosting at least one client, precomputed at redeploy() so the
  // pure-forwarder check in summarize() is O(1) per broker instead of
  // rescanning every publisher/subscriber spec.
  std::unordered_set<BrokerId> client_hosts_;
  double measured_s_ = 0;
  bool publishers_scheduled_ = false;

  // --- fault injection state ---
  // `faults_active_` gates every hook on the hot path: when false (no
  // schedule installed this epoch) the simulator takes exactly the same
  // branches and draws exactly the same random numbers as a build without
  // fault support, keeping fault-free runs bit-identical.
  bool faults_active_ = false;
  // Degraded-mode admission control armed (FaultOptions::admission_control
  // via install_faults). Gated separately from faults_active_ so overload
  // backpressure works without any fault event armed; false by default, so
  // the publish path is bit-identical to an admission-free build.
  bool admission_active_ = false;
  FaultOptions fault_options_;
  FaultState faults_;
  std::uint64_t fault_key_seq_ = 0;
  bool ledger_enabled_ = false;
  std::vector<PublishRecord> publish_ledger_;
  std::unordered_map<BrokerId, std::vector<BufferedArrival>> retransmit_;
  std::unordered_map<BrokerId, DeferredQueue> deferred_;
  std::set<std::pair<AdvId, MessageSeq>> shed_;  // admission-shed this epoch
  // Per-broker message rate (msgs/s) captured from the previous metrics
  // window; sizes derived retransmit caps for the next fault epoch.
  std::unordered_map<BrokerId, double> profiled_rate_;
  std::unordered_map<BrokerId, std::size_t> retransmit_caps_;
  // Buffered messages orphaned by redeploys (see stranded_messages()).
  std::set<std::pair<AdvId, MessageSeq>> stranded_;
  std::uint64_t stranded_total_ = 0;

  obs::TimeSeriesSampler sampler_{
      "broker", {"in_rate_msg_s", "out_rate_msg_s", "queue_backlog_s", "bw_utilization"}};
  std::unordered_map<BrokerId, SampleBaseline> sample_baselines_;
  SimTime sample_interval_us_ = obs::TimeSeriesSampler::interval_us_from_env();
  bool sampler_scheduled_ = false;
  std::uint64_t sampler_key_seq_ = 0;
  // CSV rendering is tied to the env-var path (offline plotting); callers
  // of set_sample_interval_ms get the in-memory rows only.
  bool sampler_csv_ = sample_interval_us_ > 0;
};

}  // namespace greenps
