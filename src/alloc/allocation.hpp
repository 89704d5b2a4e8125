// Allocation result type and the shared first-fit core used by FBF,
// BIN PACKING and (as its inner allocation test) CRAM, plus the
// checkpointed incremental packer behind CRAM's allocation probes.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "alloc/broker_pool.hpp"

namespace greenps {

struct Allocation {
  bool success = false;
  // One entry per broker that received at least one unit.
  std::vector<BrokerLoad> brokers;

  [[nodiscard]] std::size_t brokers_used() const { return brokers.size(); }
  [[nodiscard]] std::size_t unit_count() const;
  [[nodiscard]] std::size_t endpoint_count() const;
  // Sum over brokers of their union-profile input rate — proportional to
  // the total publication traffic entering the broker tier.
  [[nodiscard]] MsgRate total_in_rate() const;
};

// Place `units` (in the given order) onto `pool` (tried in the given order,
// which callers pre-sort by descending capacity): each unit goes to the
// first broker that passes the allocation test. Fails if any unit fits
// nowhere — "the algorithm ends ... if at least one subscription cannot be
// allocated to any broker".
[[nodiscard]] Allocation first_fit(const std::vector<AllocBroker>& pool,
                                   const std::vector<SubUnit>& units,
                                   const PublisherTable& table);

// Copy-free feasibility probe of the same packing (CRAM runs it after every
// clustering attempt, so it must not copy the pool of units).
struct PackProbe {
  bool success = false;
  std::size_t brokers_used = 0;
  // Units this probe actually walked through the allocation test, and units
  // whose packing was skipped by resuming from a checkpoint. For any one
  // overlay, packed + skipped equals the overlay length regardless of the
  // checkpoint interval.
  std::size_t units_packed = 0;
  std::size_t units_skipped = 0;
};

[[nodiscard]] PackProbe first_fit_probe(const std::vector<AllocBroker>& pool,
                                        const std::vector<const SubUnit*>& units,
                                        const PublisherTable& table);

// Units in [first, last) are excluded from an overlay probe. The ranges are
// contiguous in memory (prefixes of GIF unit vectors), not in pack order.
struct UnitRange {
  const SubUnit* first = nullptr;
  const SubUnit* last = nullptr;
};

// Incremental, resumable first-fit packing.
//
// Holds one base packing of a sorted unit sequence and snapshots the broker
// states every `stride` units. An overlay probe (base minus some unit
// ranges, plus at most one spliced-in unit) then resumes from the nearest
// checkpoint before the first position where the overlay diverges from the
// base, instead of repacking from scratch — first-fit state after k units
// depends only on those k units in order, so the resumed result is
// bit-identical to a from-scratch packing of the overlay. Rebuilding after
// a committed overlay resumes the same way via `resume_pos`.
//
// A probe leaves the base and its checkpoints untouched; it only reuses the
// packer's working loads, so probes run one at a time.
class CheckpointedFirstFit {
 public:
  // No checkpoints: every probe and rebuild packs from position 0.
  static constexpr std::size_t kNoCheckpoints = std::numeric_limits<std::size_t>::max();

  // `stride` = checkpoint interval in units; 0 resolves to ~n/64 (min 16) at
  // the first rebuild and stays fixed so checkpoint positions never shift.
  explicit CheckpointedFirstFit(std::vector<AllocBroker> pool, std::size_t stride = 0);

  // Pack `units` as the new base, snapshotting broker states. The caller
  // guarantees units[0, resume_pos) is identical (by pointee value and
  // order) to the previous base prefix, so checkpoints before resume_pos
  // are reused and only the tail is repacked. Pass 0 for a full rebuild.
  // `units` is borrowed by pointer values; pointees must stay alive and
  // unchanged until the next rebuild.
  const PackProbe& rebuild(std::vector<const SubUnit*> units, const PublisherTable& table,
                           std::size_t resume_pos = 0);

  // Install `units` as the new base WITHOUT packing: `result` must be the
  // probe result of exactly this sequence (a committed overlay's winning
  // probe). Checkpoints at positions <= resume_pos stay valid by content;
  // later ones are dropped, not refreshed — a zero-cost commit trades
  // checkpoint coverage for skipping the entire re-pack.
  void adopt(std::vector<const SubUnit*> units, std::size_t resume_pos,
             const PackProbe& result);

  [[nodiscard]] const PackProbe& base() const { return base_; }
  [[nodiscard]] const std::vector<const SubUnit*>& units() const { return units_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] std::size_t checkpoint_count() const { return valid_ckpts_; }
  // Broker loads left by the last rebuild or probe_replacement.
  [[nodiscard]] const std::vector<BrokerLoad>& loads() const { return work_; }

  // Feasibility of the base sequence minus `removed` plus `added` (nullable),
  // resumed from the nearest checkpoint before the first divergence. Every
  // removed range must reference units of the current base.
  [[nodiscard]] PackProbe probe_replacement(const std::vector<UnitRange>& removed,
                                            const SubUnit* added,
                                            const PublisherTable& table);

  // First pack-order position where the overlay diverges from the base —
  // the checkpoint-resume point, exposed so a commit can hand it to the
  // next rebuild as `resume_pos`.
  [[nodiscard]] std::size_t divergence_position(const std::vector<UnitRange>& removed,
                                                const SubUnit* added) const;

 private:
  void reset_loads(std::vector<BrokerLoad>& loads) const;
  // Copy the checkpointed state covering positions [0, resume_pos) into
  // `loads`; returns the number of base units that state accounts for.
  std::size_t load_checkpoint(std::size_t resume_pos, std::vector<BrokerLoad>& loads) const;

  std::vector<AllocBroker> pool_;  // capacity-sorted
  std::size_t stride_req_;
  std::size_t stride_ = kNoCheckpoints;
  std::vector<const SubUnit*> units_;
  // ckpts_[i] = broker states after packing (i+1)*stride_ base units.
  std::vector<std::vector<BrokerLoad>> ckpts_;
  std::size_t valid_ckpts_ = 0;
  std::vector<BrokerLoad> work_;  // rebuild and probe working state
  PackProbe base_;
};

}  // namespace greenps
