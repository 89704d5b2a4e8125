#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/logging.hpp"
#include "matching/relations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace greenps {

namespace {

// Event-key classes (sim/event_queue.hpp): smaller class fires first at a
// tied timestamp. Fault events beat sampler ticks beat traffic.
constexpr std::uint64_t kFaultClass = 0;
constexpr std::uint64_t kSamplerClass = 1;
constexpr std::uint64_t kSourceClass = 2;

EventKey make_key(std::uint64_t klass, std::uint64_t ord, std::uint64_t seq) {
  return EventKey{(klass << 56) | ord, seq};
}

// Retransmit-cap fallback when a broker has no profile data (also the old
// flat default, so unprofiled runs keep the historical behavior).
constexpr std::size_t kDefaultRetransmitCap = 65536;
constexpr std::size_t kMinRetransmitCap = 1024;
constexpr std::size_t kMaxRetransmitCap = std::size_t{1} << 20;

// Per-broker drop-RNG seeding: splitmix-style mix of the broker id so
// adjacent ids get uncorrelated streams.
std::uint64_t drop_seed(BrokerId b) {
  std::uint64_t z = (static_cast<std::uint64_t>(b.value()) + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Simulation::Simulation(Deployment deployment, StockQuoteGenerator quotes, NetworkConfig net)
    : quotes_(std::move(quotes)), net_(net) {
  redeploy(std::move(deployment));
}

Broker& Simulation::broker(BrokerId id) {
  const auto it = brokers_.find(id);
  assert(it != brokers_.end());
  return *it->second.broker;
}

const Broker& Simulation::broker(BrokerId id) const {
  const auto it = brokers_.find(id);
  assert(it != brokers_.end());
  return *it->second.broker;
}

void Simulation::redeploy(Deployment deployment) {
  snapshot_profiled_rates();  // keep the last window's rates across epochs
  // Messages parked in retransmit/deferred buffers die with the epoch —
  // if the buffering broker is decommissioned mid-outage there is no
  // restart to replay them. Record them as stranded (cumulative) so the
  // loss oracle can excuse instead of silently losing them.
  sweep_stranded();
  deployment_ = std::move(deployment);
  queue_.clear();
  brokers_.clear();
  publishers_.clear();
  metrics_.reset();
  measured_s_ = 0;
  publishers_scheduled_ = false;
  sampler_scheduled_ = false;
  // The sampler's epoch ends with the deployment: the event clock restarts
  // at zero, so keeping old rows would interleave two timelines in one
  // series.
  sampler_.clear();
  sample_baselines_.clear();
  sampler_key_seq_ = 0;
  // Fault epoch ends with the deployment: pending fault events died with
  // the queue, active faults and buffers are meaningless for new brokers.
  faults_active_ = false;
  admission_active_ = false;
  faults_.reset();
  fault_key_seq_ = 0;
  retransmit_caps_.clear();
  publish_ledger_.clear();
  ledger_enabled_ = false;
  retransmit_.clear();
  deferred_.clear();
  shed_.clear();

  // Dense ordinals in ascending-id order feed the event keys, so the same
  // deployment always gets the same keys.
  broker_ids_ = deployment_.topology.brokers();
  std::sort(broker_ids_.begin(), broker_ids_.end());
  for (std::size_t i = 0; i < broker_ids_.size(); ++i) {
    const BrokerId b = broker_ids_[i];
    const auto cap_it = deployment_.capacities.find(b);
    const BrokerCapacity cap =
        cap_it != deployment_.capacities.end() ? cap_it->second : BrokerCapacity{};
    BrokerSlot slot;
    slot.broker = std::make_unique<Broker>(b, cap, deployment_.profile_window_bits);
    slot.ord = i;
    slot.drop_rng = Rng(drop_seed(b));
    brokers_.emplace(b, std::move(slot));
  }
  for (std::size_t i = 0; i < deployment_.publishers.size(); ++i) {
    const PublisherSpec& spec = deployment_.publishers[i];
    PublisherState st;
    st.spec = spec;
    auto [seq_it, inserted] = seq_.try_emplace(spec.adv, 0);
    (void)inserted;
    st.next_seq = seq_it->second;
    st.seq_slot = &seq_it->second;
    st.home = &brokers_.at(spec.home);
    st.ord = broker_ids_.size() + i;
    publishers_.push_back(std::move(st));
  }
  client_hosts_.clear();
  for (const auto& sub : deployment_.subscribers) client_hosts_.insert(sub.home);
  for (const auto& pub : deployment_.publishers) client_hosts_.insert(pub.home);
  install_routing();
}

void Simulation::install_routing() {
  // Advertisement flooding: every broker learns each advertisement and the
  // direction (last hop) toward its publisher.
  for (const auto& pub : deployment_.publishers) {
    assert(deployment_.topology.has_broker(pub.home));
    // BFS tree rooted at the publisher's home broker.
    std::unordered_map<BrokerId, BrokerId> toward;  // broker -> neighbor toward home
    std::vector<BrokerId> frontier{pub.home};
    toward[pub.home] = pub.home;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const BrokerId b = frontier[head];
      for (const BrokerId n : deployment_.topology.neighbors(b)) {
        if (!toward.contains(n)) {
          toward[n] = b;
          frontier.push_back(n);
        }
      }
    }
    const Advertisement adv(pub.adv, pub.adv_filter);
    for (const auto& [b, via] : toward) {
      const Hop hop = b == pub.home ? Hop::to_client(pub.client) : Hop::to_broker(via);
      broker(b).prt().insert(adv, hop);
      // Announce to the SRT as well: it scopes matching to the candidate
      // subscriptions intersecting this advertisement.
      broker(b).srt().register_advertisement(pub.adv, pub.adv_filter);
    }
    broker(pub.home).cbc().register_publisher(pub.client, pub.adv);
  }

  // Subscription propagation: each subscription is installed at every
  // broker on the path from its home broker toward each intersecting
  // advertisement's home broker, pointing back toward the subscriber.
  for (const auto& sub : deployment_.subscribers) {
    assert(deployment_.topology.has_broker(sub.home));
    broker(sub.home).srt().insert(sub.sub, sub.filter, Hop::to_client(sub.client));
    broker(sub.home).cbc().register_subscription(sub.sub, sub.client, sub.filter);
    for (const auto& pub : deployment_.publishers) {
      if (!intersects(pub.adv_filter, sub.filter)) continue;
      const auto path = deployment_.topology.path(sub.home, pub.home);
      assert(path.has_value());
      // path[0] = sub.home; install at path[1..] pointing to path[i-1].
      for (std::size_t i = 1; i < path->size(); ++i) {
        broker((*path)[i]).srt().insert(sub.sub, sub.filter,
                                        Hop::to_broker((*path)[i - 1]));
      }
    }
  }

  // Freeze: compile every SRT once. run() only ever reads the compiled
  // tables; nothing writes routing state again until the next redeploy.
  for (auto& [id, slot] : brokers_) {
    (void)id;
    slot.broker->srt().freeze();
  }
}

void Simulation::schedule_publisher(std::size_t pub_index, SimTime first) {
  PublisherState& st = publishers_[pub_index];
  if (st.spec.rate_msg_s <= 0) return;
  queue_.schedule_keyed(first, make_key(kSourceClass, st.ord, st.key_seq++),
                        [this, pub_index] { publish(pub_index); });
}

void Simulation::publish(std::size_t pub_index) {
  PublisherState& st = publishers_[pub_index];
  const SimTime now = queue_.now();

  std::shared_ptr<Publication> pub = pub_pool_.acquire();
  quotes_.next_into(st.spec.symbol, *pub);
  const MessageSeq seq = st.next_seq++;
  *st.seq_slot = st.next_seq;
  pub->set_header(st.spec.adv, seq);
  metrics_.on_publication();
  BrokerSlot& home = *st.home;
  // A crashed home broker rejects the publication at its door. The quote
  // draw and sequence increment above still happened, so the per-symbol
  // price walk and seq<->quote mapping stay aligned with a fault-free run
  // and the loss oracle can regenerate exactly what was lost.
  const bool home_down = faults_active_ && home.broker->crashed();
  if (ledger_enabled_) publish_ledger_.push_back({st.spec.adv, seq, now, home_down});
  if (home_down) {
    faults_.stats().pubs_dropped_at_source += 1;
  } else if (admission_active_ &&
             to_seconds(std::max<SimTime>(home.broker->out_link().busy_until() - now, 0)) >
                 fault_options_.admission_backlog_s) {
    // Degraded mode: the home broker is drowning (typically absorbing a
    // dead peer's traffic) — park the publication at the door instead of
    // feeding the backlog. New injections are the lowest-priority class;
    // in-transit forwards and deliveries are never shed.
    defer_publication(home, std::move(pub), now);
  } else {
    home.broker->cbc().record_publish(st.spec.adv, seq, pub->size_kb(), now);
    const SimTime arrival = now + net_.client_latency;
    queue_.schedule_keyed(arrival, make_key(kSourceClass, st.ord, st.key_seq++),
                          [this, pub = std::move(pub), slot = &home, now] {
                            arrive_at_broker(*slot, pub, BrokerId{}, /*has_from=*/false,
                                             /*broker_hops=*/0, now);
                          });
  }

  // Next publication, fixed inter-arrival spacing.
  const auto period = static_cast<SimTime>(
      std::llround(static_cast<double>(kMicrosPerSecond) / st.spec.rate_msg_s));
  queue_.schedule_keyed(now + std::max<SimTime>(period, 1),
                        make_key(kSourceClass, st.ord, st.key_seq++),
                        [this, pub_index] { publish(pub_index); });
}

void Simulation::arrive_at_broker(BrokerSlot& slot, std::shared_ptr<const Publication> pub,
                                  BrokerId from, bool has_from, int broker_hops,
                                  SimTime publish_time) {
  Broker& br = *slot.broker;
  const BrokerId b = br.id();
  if (faults_active_ && br.crashed()) {
    // Messages aimed at a dead broker never enter its queues. With
    // retransmit-on-reconnect the neighbor holds the message and replays
    // it after the restart (store-and-forward); otherwise it is lost.
    faults_.stats().arrivals_dropped += 1;
    if (fault_options_.retransmit_on_reconnect) {
      buffer_for_retransmit(
          b, BufferedArrival{std::move(pub), from, has_from, /*is_delivery=*/false,
                                 SubId{}, broker_hops, publish_time});
    }
    return;
  }
  BrokerTraffic& traffic = metrics_.traffic_for(b);
  traffic.msgs_in += 1;
  const int hops_here = broker_hops + 1;

  const SimTime service = br.matching_service_time();
  br.cbc().record_matching(br.srt().filter_count(), service);
  const SimTime matched_at = br.matcher().serve(queue_.now(), service);
  const BrokerId* exclude = has_from ? &from : nullptr;
  // Routing decision is computed against current tables; the simulator's
  // tables are static during a run, so evaluating now is equivalent to
  // evaluating at matched_at and avoids copying the tables into the closure.
  // The scratch result is consumed before this function returns (the
  // scheduled closures don't reference it), so reuse across arrivals is safe.
  br.route_into(*pub, exclude, route_scratch_);
  const auto& decision = route_scratch_;

  const MsgSize size = pub->size_kb();
  for (const BrokerId next : decision.forward_to) {
    if (faults_active_) {
      if (faults_.link_is_down(b, next)) {
        faults_.stats().msgs_dropped_link_down += 1;
        continue;
      }
      const double p = faults_.drop_prob(b, next);
      if (p > 0 && slot.drop_rng.chance(p)) {
        faults_.stats().msgs_dropped_random += 1;
        continue;
      }
    }
    const SimTime sent_at = br.out_link().transmit(matched_at, size);
    traffic.msgs_out += 1;
    const SimTime hop_latency =
        net_.link_latency + (faults_active_ ? faults_.extra_latency() : 0);
    BrokerSlot* next_slot = &brokers_.at(next);
    queue_.schedule_keyed(
        sent_at + hop_latency, make_key(kSourceClass, slot.ord, slot.key_seq++),
        [this, next_slot, pub, b, hops_here, publish_time] {
          arrive_at_broker(*next_slot, pub, b, /*has_from=*/true, hops_here, publish_time);
        });
  }
  for (const auto& [sub_id, client] : decision.deliver) {
    const SimTime sent_at = br.out_link().transmit(matched_at, size);
    traffic.msgs_out += 1;
    const SimTime delivered_at = sent_at + net_.client_latency;
    queue_.schedule_keyed(delivered_at, make_key(kSourceClass, slot.ord, slot.key_seq++),
                          [this, sp = &slot, sub_id = sub_id, pub, hops_here, publish_time,
                           delivered_at] {
                            if (faults_active_ && sp->broker->crashed()) {
                              // The home broker died while the message was on
                              // the client link: the subscriber is detached, so
                              // the delivery never lands. With retransmit
                              // enabled it is re-delivered after the restart.
                              faults_.stats().deliveries_dropped += 1;
                              if (fault_options_.retransmit_on_reconnect) {
                                buffer_for_retransmit(
                                    sp->broker->id(),
                                    BufferedArrival{pub, BrokerId{}, false,
                                                    /*is_delivery=*/true, sub_id, hops_here,
                                                    publish_time});
                              }
                              return;
                            }
                            metrics_.on_delivery(sp->broker->id(), hops_here,
                                                 delivered_at - publish_time);
                            sp->broker->cbc().record_delivery(sub_id, pub->adv_id(),
                                                              pub->seq());
                          });
  }
}

void Simulation::install_faults(FaultSchedule schedule, FaultOptions options) {
  fault_options_ = options;
  ledger_enabled_ = true;  // the loss oracle needs the ledger either way
  // Admission control arms with the options, schedule or not: a re-armed
  // epoch after a recovery redeploy has no scheduled events, but the
  // surviving brokers still need backpressure while load settles.
  admission_active_ = options.admission_control;
  derive_retransmit_caps(schedule);
  if (schedule.empty()) return;
  faults_active_ = true;
  const SimTime now = queue_.now();
  for (const FaultEvent& ev : schedule.events()) {
    queue_.schedule_keyed(std::max(ev.at, now), make_key(kFaultClass, 0, fault_key_seq_++),
                          [this, ev] { apply_fault(ev); });
  }
}

void Simulation::inject_fault(FaultEvent ev) {
  faults_active_ = true;
  ledger_enabled_ = true;
  apply_fault(ev);
}

void Simulation::apply_fault(const FaultEvent& scheduled) {
  // Stamp with the actual fire time: events armed in the past were clamped
  // to "now", and outage windows must reflect when the broker really died.
  FaultEvent ev = scheduled;
  ev.at = queue_.now();
  auto& reg = obs::MetricsRegistry::global();
  switch (ev.kind) {
    case FaultKind::kBrokerCrash: {
      const auto it = brokers_.find(ev.broker);
      if (it == brokers_.end() || faults_.is_crashed(ev.broker)) return;
      faults_.apply(ev);
      it->second.broker->on_crash();
      obs::trace_instant("fault.broker_crash", static_cast<std::uint64_t>(ev.broker.value()));
      reg.counter("fault.broker_crashes").add(1);
      break;
    }
    case FaultKind::kBrokerRestart: {
      const auto it = brokers_.find(ev.broker);
      if (it == brokers_.end() || !faults_.is_crashed(ev.broker)) return;
      faults_.apply(ev);
      it->second.broker->on_restart();
      if (fault_options_.retransmit_on_reconnect) replay_retransmits(it->second);
      obs::trace_instant("fault.broker_restart",
                         static_cast<std::uint64_t>(ev.broker.value()));
      reg.counter("fault.broker_restarts").add(1);
      break;
    }
    case FaultKind::kLinkDown:
      faults_.apply(ev);
      obs::trace_instant("fault.link_down", static_cast<std::uint64_t>(ev.broker.value()));
      reg.counter("fault.link_downs").add(1);
      break;
    case FaultKind::kLinkUp:
      faults_.apply(ev);
      obs::trace_instant("fault.link_up", static_cast<std::uint64_t>(ev.broker.value()));
      reg.counter("fault.link_ups").add(1);
      break;
    case FaultKind::kLinkDrop:
      faults_.apply(ev);
      obs::trace_instant("fault.link_drop");
      reg.counter("fault.link_drop_windows").add(1);
      break;
    case FaultKind::kLatencySpike:
      faults_.apply(ev);
      obs::trace_instant("fault.latency_spike");
      reg.counter("fault.latency_spikes").add(1);
      break;
  }
  GREENPS_COUNTER("fault.crashed_brokers", faults_.crashed_count());
}

std::size_t Simulation::retransmit_cap(BrokerId b) const {
  if (fault_options_.max_retransmit_buffer != 0) return fault_options_.max_retransmit_buffer;
  const auto it = retransmit_caps_.find(b);
  return it != retransmit_caps_.end() ? it->second : kDefaultRetransmitCap;
}

void Simulation::derive_retransmit_caps(const FaultSchedule& schedule) {
  retransmit_caps_.clear();
  if (fault_options_.max_retransmit_buffer != 0) return;  // explicit flat cap
  double outage_s = fault_options_.expected_outage_s;
  if (outage_s <= 0) {
    // Size for the longest crash-to-restart gap the schedule will inflict.
    std::unordered_map<BrokerId, SimTime> crash_at;
    SimTime longest = 0;
    for (const FaultEvent& ev : schedule.events()) {
      if (ev.kind == FaultKind::kBrokerCrash) {
        crash_at[ev.broker] = ev.at;
      } else if (ev.kind == FaultKind::kBrokerRestart) {
        if (const auto it = crash_at.find(ev.broker); it != crash_at.end()) {
          longest = std::max(longest, ev.at - it->second);
          crash_at.erase(it);
        }
      }
    }
    outage_s = longest > 0 ? to_seconds(longest) : 5.0;
  }
  for (const auto& [b, rate] : profiled_rate_) {
    const double raw = rate * outage_s * fault_options_.retransmit_headroom;
    const auto cap = static_cast<std::size_t>(std::ceil(std::max(raw, 0.0)));
    retransmit_caps_[b] = std::clamp(cap, kMinRetransmitCap, kMaxRetransmitCap);
  }
}

void Simulation::buffer_for_retransmit(BrokerId at, BufferedArrival&& entry) {
  auto& buf = retransmit_[at];
  if (buf.size() >= retransmit_cap(at)) {
    faults_.stats().retransmit_overflow += 1;
    return;
  }
  buf.push_back(std::move(entry));
}

void Simulation::replay_retransmits(BrokerSlot& slot) {
  const auto it = retransmit_.find(slot.broker->id());
  if (it == retransmit_.end() || it->second.empty()) return;
  std::vector<BufferedArrival> entries = std::move(it->second);
  retransmit_.erase(it);
  const SimTime at = queue_.now() + net_.reconnect_latency;
  obs::trace_instant("fault.retransmit_replay", entries.size());
  for (BufferedArrival& e : entries) {
    faults_.stats().retransmits_replayed += 1;
    if (e.is_delivery) {
      // Final hop was lost: re-deliver straight to the local subscriber.
      queue_.schedule_keyed(at, make_key(kSourceClass, slot.ord, slot.key_seq++),
                            [this, sp = &slot, e = std::move(e)] {
                              if (sp->broker->crashed()) {  // crashed again before the replay
                                faults_.stats().deliveries_dropped += 1;
                                if (fault_options_.retransmit_on_reconnect) {
                                  buffer_for_retransmit(sp->broker->id(), BufferedArrival{e});
                                }
                                return;
                              }
                              metrics_.traffic_for(sp->broker->id()).msgs_out += 1;
                              metrics_.on_delivery(sp->broker->id(), e.broker_hops,
                                                   queue_.now() - e.publish_time);
                              sp->broker->cbc().record_delivery(e.sub, e.pub->adv_id(),
                                                                e.pub->seq());
                            });
    } else {
      // Re-run the arrival; arrive_at_broker re-buffers if down again.
      queue_.schedule_keyed(at, make_key(kSourceClass, slot.ord, slot.key_seq++),
                            [this, sp = &slot, e = std::move(e)] {
                              arrive_at_broker(*sp, e.pub, e.from, e.has_from, e.broker_hops,
                                               e.publish_time);
                            });
    }
  }
}

void Simulation::defer_publication(BrokerSlot& home, std::shared_ptr<Publication> pub,
                                   SimTime published_at) {
  DeferredQueue& dq = deferred_[home.broker->id()];
  if (dq.entries.size() >= fault_options_.admission_max_deferred) {
    // Back-pressure at the door: the freshest message is the one shed.
    faults_.stats().pubs_shed_admission += 1;
    shed_.emplace(pub->adv_id(), pub->seq());
    return;
  }
  faults_.stats().pubs_deferred_admission += 1;
  dq.entries.push_back(DeferredPub{std::move(pub), published_at});
  if (!dq.drain_scheduled) {
    dq.drain_scheduled = true;
    schedule_admission_drain(home);
  }
}

void Simulation::schedule_admission_drain(BrokerSlot& slot) {
  const SimTime retry = std::max<SimTime>(seconds(fault_options_.admission_retry_s), 1);
  queue_.schedule_keyed(queue_.now() + retry, make_key(kSourceClass, slot.ord, slot.key_seq++),
                        [this, sp = &slot] { drain_admissions(*sp); });
}

void Simulation::drain_admissions(BrokerSlot& slot) {
  const auto it = deferred_.find(slot.broker->id());
  if (it == deferred_.end()) return;
  DeferredQueue& dq = it->second;
  if (dq.entries.empty()) {
    dq.drain_scheduled = false;
    return;
  }
  const SimTime now = queue_.now();
  const double backlog_s =
      to_seconds(std::max<SimTime>(slot.broker->out_link().busy_until() - now, 0));
  // A crashed home holds its parked messages (re-admitting them would only
  // migrate them into the retransmit buffer); hysteresis on the backlog
  // keeps the drain from re-flooding a link that barely recovered.
  if (!slot.broker->crashed() && backlog_s <= fault_options_.admission_resume_s) {
    const std::size_t n =
        std::min(dq.entries.size(), fault_options_.admission_drain_batch);
    for (std::size_t i = 0; i < n; ++i) {
      DeferredPub e = std::move(dq.entries.front());
      dq.entries.pop_front();
      faults_.stats().pubs_readmitted += 1;
      slot.broker->cbc().record_publish(e.pub->adv_id(), e.pub->seq(), e.pub->size_kb(),
                                        now);
      // Re-stamp the ledger at re-admission: the oracle's horizon-slack
      // excuse must measure from when the message actually entered the
      // system, not from when it was parked (later rows win in its map).
      if (ledger_enabled_) {
        publish_ledger_.push_back({e.pub->adv_id(), e.pub->seq(), now, false});
      }
      queue_.schedule_keyed(now + net_.client_latency,
                            make_key(kSourceClass, slot.ord, slot.key_seq++),
                            [this, sp = &slot, pub = std::move(e.pub),
                             at = e.published_at]() mutable {
                              arrive_at_broker(*sp, std::move(pub), BrokerId{},
                                               /*has_from=*/false, /*broker_hops=*/0, at);
                            });
    }
  }
  if (dq.entries.empty()) {
    dq.drain_scheduled = false;
    return;
  }
  schedule_admission_drain(slot);
}

void Simulation::sweep_stranded() {
  for (const auto& [b, buf] : retransmit_) {
    (void)b;
    for (const BufferedArrival& e : buf) {
      if (stranded_.emplace(e.pub->adv_id(), e.pub->seq()).second) stranded_total_ += 1;
    }
  }
  for (const auto& [b, dq] : deferred_) {
    (void)b;
    for (const DeferredPub& e : dq.entries) {
      if (stranded_.emplace(e.pub->adv_id(), e.pub->seq()).second) stranded_total_ += 1;
    }
  }
}

bool Simulation::broker_alive(BrokerId id) const {
  const auto it = brokers_.find(id);
  return it != brokers_.end() && !it->second.broker->crashed();
}

std::optional<BrokerInfo> Simulation::broker_info_if_reachable(BrokerId id) const {
  if (!broker_alive(id)) return std::nullopt;
  return broker_info(id);
}

std::optional<std::uint64_t> Simulation::broker_epoch_if_reachable(BrokerId id) const {
  if (!broker_alive(id)) return std::nullopt;
  return broker(id).cbc().epoch();
}

std::set<std::pair<AdvId, MessageSeq>> Simulation::pending_retransmits() const {
  std::set<std::pair<AdvId, MessageSeq>> out;
  for (const auto& [b, buf] : retransmit_) {
    (void)b;
    for (const BufferedArrival& e : buf) out.emplace(e.pub->adv_id(), e.pub->seq());
  }
  return out;
}

std::set<std::pair<AdvId, MessageSeq>> Simulation::pending_admissions() const {
  std::set<std::pair<AdvId, MessageSeq>> out;
  for (const auto& [b, dq] : deferred_) {
    (void)b;
    for (const DeferredPub& e : dq.entries) out.emplace(e.pub->adv_id(), e.pub->seq());
  }
  return out;
}

void Simulation::run(double duration_s) {
  const SimTime start = queue_.now();
  const SimTime end = start + seconds(duration_s);
  if (!publishers_scheduled_) {
    // Start publishers, staggering initial publications across one period
    // to avoid a synchronized burst.
    for (std::size_t i = 0; i < publishers_.size(); ++i) {
      const auto& spec = publishers_[i].spec;
      if (spec.rate_msg_s <= 0) continue;
      const auto period = static_cast<SimTime>(
          std::llround(static_cast<double>(kMicrosPerSecond) / spec.rate_msg_s));
      const SimTime first = start + (period * static_cast<SimTime>(i)) /
                                        static_cast<SimTime>(publishers_.size() + 1);
      schedule_publisher(i, first);
    }
    publishers_scheduled_ = true;
  }
  if (sample_interval_us_ > 0 && !sampler_scheduled_) {
    // Sampling resumed mid-epoch: measure the first interval from now, not
    // from the last sample before the pause.
    for (auto& [id, base] : sample_baselines_) base = sample_counters(id);
    schedule_sample(sample_interval_us_);
    sampler_scheduled_ = true;
  }
  {
    GREENPS_SPAN("sim.run");
    queue_.run_until(end);
  }
  // Events past `end` (in-flight deliveries, future publications) stay
  // queued; a subsequent run() continues seamlessly.
  measured_s_ += duration_s;
  if (sampler_csv_ && sample_interval_us_ > 0 && sampler_.row_count() > 0) {
    sampler_.write_csv(obs::TimeSeriesSampler::path_from_env());
  }
}

void Simulation::set_publisher_rate(ClientId client, MsgRate rate_msg_s) {
  assert(rate_msg_s > 0);
  for (auto& spec : deployment_.publishers) {
    if (spec.client == client) spec.rate_msg_s = rate_msg_s;
  }
  for (auto& st : publishers_) {
    if (st.spec.client == client) st.spec.rate_msg_s = rate_msg_s;
  }
}

void Simulation::set_sample_interval_ms(double ms) {
  sample_interval_us_ = ms > 0 ? static_cast<SimTime>(std::llround(ms * 1000.0)) : 0;
}

void Simulation::snapshot_profiled_rates() {
  if (measured_s_ <= 0) return;
  profiled_rate_.clear();
  for (const auto& [b, t] : metrics_.traffic()) {
    profiled_rate_[b] =
        static_cast<double>(t.msgs_in + t.local_deliveries) / measured_s_;
  }
}

void Simulation::schedule_sample(SimTime interval) {
  queue_.schedule_keyed(queue_.now() + interval, make_key(kSamplerClass, 0, sampler_key_seq_++),
                        [this, interval] {
                          // Disabled since this sample was scheduled: end the
                          // chain; the next run() restarts it if re-enabled.
                          if (sample_interval_us_ <= 0) {
                            sampler_scheduled_ = false;
                            return;
                          }
                          take_sample(interval);
                          schedule_sample(sample_interval_us_);
                        });
}

void Simulation::take_sample(SimTime interval) {
  const SimTime now = queue_.now();
  const double interval_s = to_seconds(interval);
  for (const BrokerId id : broker_ids_) {
    const Broker& br = *brokers_.at(id).broker;
    // A crashed broker emits no row: sampler rows double as heartbeats for
    // the control plane's failure detector, and silence is the signal. The
    // faults_active_ guard keeps fault-free series bit-identical. Baselines
    // are left untouched, so the first post-restart row reports the rates
    // accumulated since the last emitted row.
    if (faults_active_ && br.crashed()) continue;
    SampleBaseline& base = sample_baselines_[id];
    const SampleBaseline cur = sample_counters(id);
    const double in_rate = static_cast<double>(cur.msgs_in - base.msgs_in) / interval_s;
    const double out_rate = static_cast<double>(cur.msgs_out - base.msgs_out) / interval_s;
    const double backlog_s = to_seconds(std::max<SimTime>(br.out_link().busy_until() - now, 0));
    // A crash resets the output link's busy counter, so the delta can go
    // negative mid-outage; clamp (no-op in fault-free runs, where busy
    // time is monotone).
    const double util = std::max(
        0.0,
        static_cast<double>(cur.busy_us - base.busy_us) / static_cast<double>(interval));
    sampler_.append(to_seconds(now), id.value(), {in_rate, out_rate, backlog_s, util});
    base = cur;
  }
}

Simulation::SampleBaseline Simulation::sample_counters(BrokerId id) const {
  SampleBaseline c;
  if (const auto it = metrics_.traffic().find(id); it != metrics_.traffic().end()) {
    c.msgs_in = it->second.msgs_in;
    c.msgs_out = it->second.msgs_out;
  }
  c.busy_us = brokers_.at(id).broker->out_link().busy_time();
  return c;
}

void Simulation::reset_metrics() {
  snapshot_profiled_rates();
  metrics_.reset();
  measured_s_ = 0;
  // Traffic counters restart at zero; link busy time does not, so only the
  // message baselines reset.
  for (auto& [id, base] : sample_baselines_) {
    (void)id;
    base.msgs_in = 0;
    base.msgs_out = 0;
  }
}

BrokerInfo Simulation::broker_info(BrokerId id) const {
  const Broker& br = broker(id);
  return br.cbc().snapshot(id, br.capacity().delay, br.capacity().out_bw_kb_s);
}

SimSummary Simulation::summarize() const {
  SimSummary s;
  s.duration_s = measured_s_;
  s.allocated_brokers = brokers_.size();
  s.publications = metrics_.publications();
  s.deliveries = metrics_.deliveries();
  s.avg_hop_count = metrics_.avg_hops();
  s.avg_delivery_delay_ms = metrics_.avg_delay_ms();
  s.p50_delivery_delay_ms = metrics_.delay_histogram().percentile_ms(0.50);
  s.p99_delivery_delay_ms = metrics_.delay_histogram().percentile_ms(0.99);
  s.retransmit_overflow = faults_.stats().retransmit_overflow;
  s.pubs_deferred = faults_.stats().pubs_deferred_admission;
  s.pubs_shed = faults_.stats().pubs_shed_admission;
  s.msgs_stranded = stranded_total_;

  double util_total = 0;
  for (const auto& [b, traffic] : metrics_.traffic()) {
    (void)b;
    if (traffic.msgs_in + traffic.msgs_out > 0) s.brokers_with_traffic += 1;
    s.broker_msgs_total += traffic.msgs_in + traffic.msgs_out;
  }
  std::size_t with_subs_or_traffic = 0;
  for (const auto& [id, slot] : brokers_) {
    const auto it = metrics_.traffic().find(id);
    const bool processed = it != metrics_.traffic().end() && it->second.msgs_in > 0;
    if (processed) {
      with_subs_or_traffic += 1;
      // busy_time is an integer microsecond count far below 2^53, so this
      // sum is exact and iteration order cannot perturb it.
      util_total += static_cast<double>(slot.broker->out_link().busy_time());
      const bool no_local = it->second.local_deliveries == 0;
      // A pure forwarder processes traffic but hosts no clients and fans
      // out to at most one direction (Section V-A, Figure 4a).
      if (no_local && deployment_.topology.neighbors(id).size() <= 2 &&
          !client_hosts_.contains(id)) {
        s.pure_forwarding_brokers += 1;
      }
    }
  }
  if (s.duration_s > 0) {
    s.system_msg_rate = static_cast<double>(s.broker_msgs_total) / s.duration_s;
    if (s.allocated_brokers > 0) {
      s.avg_broker_msg_rate = s.system_msg_rate / static_cast<double>(s.allocated_brokers);
    }
    if (with_subs_or_traffic > 0) {
      s.avg_output_utilization = util_total / static_cast<double>(kMicrosPerSecond) /
                                 s.duration_s / static_cast<double>(with_subs_or_traffic);
    }
  }
  return s;
}

}  // namespace greenps
