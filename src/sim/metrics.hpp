// Measurement of the quantities the paper's evaluation reports: per-broker
// message rates, publication hop counts, end-to-end delivery delays, and
// broker utilization.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace greenps {

// Delivery-latency histogram: a sim-flavored view over the observability
// subsystem's log-bucketed histogram (obs::LogHistogram), keeping the
// historical shape — 120 buckets spanning 100 us * 1.15^i, i.e. 100 us to
// ~2 min — and the ms-denominated percentile API.
class DelayHistogram {
 public:
  DelayHistogram() : hist_(kFirstBucketUs, kGrowth, kBuckets) {}

  void record(SimTime delay);
  // Estimated delay (in ms) below which `fraction` of samples fall.
  [[nodiscard]] double percentile_ms(double fraction) const {
    return hist_.samples() == 0 ? 0.0 : hist_.percentile(fraction) / 1000.0;
  }
  [[nodiscard]] std::uint64_t samples() const { return hist_.samples(); }
  // Add another histogram's samples (integer bucket counts, so merging is
  // order-free — the control loop folds per-window histograms this way).
  void merge(const DelayHistogram& other) { hist_.merge(other.hist_); }
  void reset() { hist_.reset(); }

 private:
  static constexpr std::size_t kBuckets = 120;
  static constexpr double kFirstBucketUs = 100.0;
  static constexpr double kGrowth = 1.15;

  obs::LogHistogram hist_;
};

struct BrokerTraffic {
  std::uint64_t msgs_in = 0;        // publications processed (matched)
  std::uint64_t msgs_out = 0;       // copies sent (to brokers and clients)
  std::uint64_t local_deliveries = 0;
  std::uint64_t hop_total = 0;      // broker hops summed over local deliveries
  // Delivery delay summed per broker. Floating-point addition is
  // order-sensitive, so the global total is always reduced from these
  // per-broker sums in ascending broker-id order, never in hash-map order.
  double delay_total_s = 0;
};

// Aggregate summary over one measurement window.
struct SimSummary {
  double duration_s = 0;
  std::size_t brokers_with_traffic = 0;
  std::size_t allocated_brokers = 0;  // brokers present in the deployment
  std::uint64_t publications = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t broker_msgs_total = 0;  // sum over brokers of in+out
  double avg_broker_msg_rate = 0;       // broker_msgs_total / duration / allocated
  double system_msg_rate = 0;           // broker_msgs_total / duration
  double avg_hop_count = 0;             // brokers traversed per delivery
  double avg_delivery_delay_ms = 0;
  double p50_delivery_delay_ms = 0;
  double p99_delivery_delay_ms = 0;
  double avg_output_utilization = 0;    // mean busy fraction of output links
  std::size_t pure_forwarding_brokers = 0;
  std::uint64_t retransmit_overflow = 0;  // retransmit-buffer drops (faulted runs)
  // Degraded-mode admission control (faulted runs; zero otherwise):
  std::uint64_t pubs_deferred = 0;   // publications parked at the door
  std::uint64_t pubs_shed = 0;       // deferred-buffer cap hit; shed
  // Messages swept out of retransmit/deferred buffers by a redeploy that
  // decommissioned the buffering broker (cumulative over the sim's life;
  // reclassified as excused by the loss oracle rather than silently lost).
  std::uint64_t msgs_stranded = 0;
};

class MetricsCollector {
 public:
  void on_broker_process(BrokerId b) { traffic_[b].msgs_in += 1; }
  void on_broker_send(BrokerId b) { traffic_[b].msgs_out += 1; }
  // One lookup for a burst of updates: the simulator fetches a broker's
  // counters once per publication arrival instead of hashing the id for
  // every copy sent.
  [[nodiscard]] BrokerTraffic& traffic_for(BrokerId b) { return traffic_[b]; }
  void on_publication() { publications_ += 1; }
  void on_delivery(BrokerId last_broker, int broker_hops, SimTime delay);

  [[nodiscard]] const std::unordered_map<BrokerId, BrokerTraffic>& traffic() const {
    return traffic_;
  }
  [[nodiscard]] std::uint64_t publications() const { return publications_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] double avg_hops() const;
  [[nodiscard]] double avg_delay_ms() const;
  [[nodiscard]] const DelayHistogram& delay_histogram() const { return delays_; }

  void reset();

 private:
  std::unordered_map<BrokerId, BrokerTraffic> traffic_;
  std::uint64_t publications_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t hop_total_ = 0;
  DelayHistogram delays_;
};

}  // namespace greenps
