#include "alloc/allocation.hpp"

#include <algorithm>

#include "alloc/bin_packing.hpp"

namespace greenps {

std::size_t Allocation::unit_count() const {
  std::size_t n = 0;
  for (const auto& b : brokers) n += b.units().size();
  return n;
}

std::size_t Allocation::endpoint_count() const {
  std::size_t n = 0;
  for (const auto& b : brokers) {
    for (const auto& u : b.units()) n += u.endpoint_count();
  }
  return n;
}

MsgRate Allocation::total_in_rate() const {
  MsgRate r = 0;
  for (const auto& b : brokers) r += b.in_rate();
  return r;
}

PackProbe first_fit_probe(const std::vector<AllocBroker>& pool,
                          const std::vector<const SubUnit*>& units,
                          const PublisherTable& table) {
  PackProbe probe;
  std::vector<BrokerLoad> loads;
  loads.reserve(pool.size());
  for (const AllocBroker& b : pool) loads.emplace_back(b, /*keep_units=*/false);
  for (const SubUnit* u : units) {
    probe.units_packed += 1;
    bool placed = false;
    for (BrokerLoad& load : loads) {
      if (load.try_add(*u, table)) {
        placed = true;
        break;
      }
    }
    if (!placed) return probe;
  }
  for (const BrokerLoad& load : loads) {
    if (!load.empty()) probe.brokers_used += 1;
  }
  probe.success = true;
  return probe;
}

Allocation first_fit(const std::vector<AllocBroker>& pool, const std::vector<SubUnit>& units,
                     const PublisherTable& table) {
  Allocation result;
  std::vector<BrokerLoad> loads;
  loads.reserve(pool.size());
  for (const AllocBroker& b : pool) loads.emplace_back(b);

  for (const SubUnit& u : units) {
    bool placed = false;
    for (BrokerLoad& load : loads) {
      if (load.try_add(u, table)) {
        placed = true;
        break;
      }
    }
    if (!placed) return result;  // success stays false
  }
  for (BrokerLoad& load : loads) {
    if (!load.empty()) result.brokers.push_back(std::move(load));
  }
  result.success = true;
  return result;
}

// --- CheckpointedFirstFit ---

namespace {

bool unit_ptr_less(const SubUnit* a, const SubUnit* b) { return unit_order_less(*a, *b); }

bool in_ranges(const SubUnit* u, const std::vector<UnitRange>& ranges) {
  for (const UnitRange& r : ranges) {
    if (u >= r.first && u < r.last) return true;
  }
  return false;
}

}  // namespace

CheckpointedFirstFit::CheckpointedFirstFit(std::vector<AllocBroker> pool, std::size_t stride)
    : pool_(std::move(pool)), stride_req_(stride) {
  sort_by_capacity_desc(pool_);
}

void CheckpointedFirstFit::reset_loads(std::vector<BrokerLoad>& loads) const {
  loads.clear();
  loads.reserve(pool_.size());
  for (const AllocBroker& b : pool_) loads.emplace_back(b, /*keep_units=*/false);
}

std::size_t CheckpointedFirstFit::load_checkpoint(std::size_t resume_pos,
                                                  std::vector<BrokerLoad>& loads) const {
  if (stride_ != kNoCheckpoints && valid_ckpts_ > 0) {
    const std::size_t covered = std::min(resume_pos, valid_ckpts_ * stride_);
    const std::size_t idx = covered / stride_;  // whole checkpoints usable
    if (idx > 0) {
      loads = ckpts_[idx - 1];
      return idx * stride_;
    }
  }
  reset_loads(loads);
  return 0;
}

const PackProbe& CheckpointedFirstFit::rebuild(std::vector<const SubUnit*> units,
                                               const PublisherTable& table,
                                               std::size_t resume_pos) {
  std::sort(units.begin(), units.end(), unit_ptr_less);
  if (stride_ == kNoCheckpoints && stride_req_ != kNoCheckpoints) {
    // Resolve the auto stride once, against the first base size, and keep it
    // fixed so checkpoint positions never shift between rebuilds.
    stride_ = stride_req_ != 0 ? stride_req_ : std::max<std::size_t>(16, units.size() / 64);
  }

  const std::size_t start = load_checkpoint(std::min(resume_pos, units.size()), work_);
  valid_ckpts_ = stride_ != kNoCheckpoints ? start / stride_ : 0;
  units_ = std::move(units);

  base_ = PackProbe{};
  base_.units_skipped = start;
  for (std::size_t i = start; i < units_.size(); ++i) {
    base_.units_packed += 1;
    bool placed = false;
    for (BrokerLoad& load : work_) {
      if (load.try_add(*units_[i], table)) {
        placed = true;
        break;
      }
    }
    if (!placed) return base_;  // success stays false; prefix checkpoints stay valid
    if (stride_ != kNoCheckpoints && (i + 1) % stride_ == 0) {
      const std::size_t idx = (i + 1) / stride_ - 1;
      if (idx < ckpts_.size()) {
        ckpts_[idx] = work_;
      } else {
        ckpts_.push_back(work_);
      }
      valid_ckpts_ = idx + 1;
    }
  }
  for (const BrokerLoad& load : work_) {
    if (!load.empty()) base_.brokers_used += 1;
  }
  base_.success = true;
  return base_;
}

void CheckpointedFirstFit::adopt(std::vector<const SubUnit*> units, std::size_t resume_pos,
                                 const PackProbe& result) {
  std::sort(units.begin(), units.end(), unit_ptr_less);
  if (stride_ == kNoCheckpoints && stride_req_ != kNoCheckpoints) {
    stride_ = stride_req_ != 0 ? stride_req_ : std::max<std::size_t>(16, units.size() / 64);
  }
  if (stride_ != kNoCheckpoints) {
    // Checkpoints fully inside the unchanged prefix still describe this
    // sequence; the rest are stale and dropped (never lazily refreshed).
    valid_ckpts_ = std::min(valid_ckpts_, std::min(resume_pos, units.size()) / stride_);
  }
  units_ = std::move(units);
  base_ = result;
  // The packing work was already accounted when the adopted probe ran.
  base_.units_packed = 0;
  base_.units_skipped = 0;
}

std::size_t CheckpointedFirstFit::divergence_position(const std::vector<UnitRange>& removed,
                                                      const SubUnit* added) const {
  // With the total unit order (unique member-id tiebreak), lower_bound over
  // the sorted base yields the exact index of a base unit, and for `added`
  // the position it would be spliced into.
  std::size_t pos = units_.size();
  if (added != nullptr) {
    const auto it = std::lower_bound(units_.begin(), units_.end(), added, unit_ptr_less);
    pos = static_cast<std::size_t>(it - units_.begin());
  }
  for (const UnitRange& r : removed) {
    if (r.first == r.last) continue;
    const SubUnit* earliest = &*std::min_element(r.first, r.last, unit_order_less);
    const auto it = std::lower_bound(units_.begin(), units_.end(), earliest, unit_ptr_less);
    pos = std::min(pos, static_cast<std::size_t>(it - units_.begin()));
  }
  return pos;
}

PackProbe CheckpointedFirstFit::probe_replacement(const std::vector<UnitRange>& removed,
                                                  const SubUnit* added,
                                                  const PublisherTable& table) {
  PackProbe probe;
  const std::size_t diverge = divergence_position(removed, added);
  const std::size_t start = load_checkpoint(diverge, work_);
  // Base prefix [0, start) is identical in the overlay (every removed unit
  // and the insertion point lie at positions >= diverge >= start), so the
  // checkpointed state stands in for packing it.
  probe.units_skipped = start;

  bool pending_add = added != nullptr;
  std::size_t i = start;
  while (i < units_.size() || pending_add) {
    const SubUnit* next = nullptr;
    if (pending_add && (i == units_.size() || unit_order_less(*added, *units_[i]))) {
      next = added;
      pending_add = false;
    } else {
      next = units_[i++];
      if (in_ranges(next, removed)) continue;
    }
    probe.units_packed += 1;
    bool placed = false;
    for (BrokerLoad& load : work_) {
      if (load.try_add(*next, table)) {
        placed = true;
        break;
      }
    }
    if (!placed) return probe;
  }
  for (const BrokerLoad& load : work_) {
    if (!load.empty()) probe.brokers_used += 1;
  }
  probe.success = true;
  return probe;
}

}  // namespace greenps
