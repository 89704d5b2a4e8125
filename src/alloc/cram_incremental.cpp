#include "alloc/cram_incremental.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

#include "alloc/cram_run.hpp"
#include "obs/metrics.hpp"

namespace greenps {

IncrementalCram::IncrementalCram(std::vector<AllocBroker> pool,
                                 std::vector<SubUnit> units, PublisherTable table,
                                 const CramOptions& options)
    : table_(std::move(table)), pool_(std::move(pool)),
      opts_(resolve_cram_options(options)) {
  originals_.reserve(units.size());
  for (const SubUnit& u : units) {
    assert(u.members.size() == 1 && "incremental CRAM needs singleton units");
    originals_.emplace(u.members.front(), u);
  }
  run_ = std::make_unique<cram_detail::CramRun>(pool_, std::move(units), table_, opts_);
}

IncrementalCram::~IncrementalCram() = default;

CramResult IncrementalCram::initialize() {
  assert(!initialized_);
  initialized_ = true;
  return run_->run();
}

CramResult IncrementalCram::apply(std::vector<SubUnit> added,
                                  const std::vector<SubId>& removed) {
  assert(initialized_ && "initialize() must run before apply()");
  last_delta_ = CramDeltaStats{};
  last_delta_.removed_requested = removed.size();
  // An id added and removed in the same batch nets out before the engine
  // sees it: apply_delta resolves removals against *existing* units, so a
  // same-batch arrival would otherwise be committed after its own removal
  // and linger as a ghost no longer in the live set.
  const std::unordered_set<SubId> removed_set(removed.begin(), removed.end());
  std::erase_if(added, [&removed_set](const SubUnit& u) {
    return removed_set.contains(u.members.front());
  });
  for (const SubUnit& u : added) {
    assert(u.members.size() == 1 && "incremental CRAM needs singleton units");
    originals_.emplace(u.members.front(), u);
  }

  if (rebaseline_requested_) {
    return rebaseline(added.size(), removed);
  }

  const auto out = run_->apply_delta(std::move(added), removed, originals_);
  for (const SubId id : removed) originals_.erase(id);

  last_delta_.added_units = out.added_units;
  last_delta_.removed_found = out.removed_found;
  last_delta_.units_dissolved = out.units_dissolved;
  last_delta_.survivors_reinserted = out.survivors_reinserted;
  last_delta_.gifs_removed = out.gifs_removed;
  last_delta_.blacklist_cleared = out.blacklist_cleared;
  last_delta_.dirty_gifs = run_->dirty_count();
  last_delta_.gif_count = run_->gif_count();

  auto& reg = obs::MetricsRegistry::global();
  reg.counter("cram.incremental.deltas").add(1);
  reg.counter("cram.incremental.added_units").add(last_delta_.added_units);
  reg.counter("cram.incremental.removed_found").add(last_delta_.removed_found);
  reg.counter("cram.incremental.units_dissolved").add(last_delta_.units_dissolved);
  reg.counter("cram.incremental.survivors_reinserted")
      .add(last_delta_.survivors_reinserted);
  reg.counter("cram.incremental.gifs_removed").add(last_delta_.gifs_removed);
  reg.counter("cram.incremental.blacklist_cleared").add(last_delta_.blacklist_cleared);
  reg.gauge("cram.incremental.dirty_gifs").set(static_cast<double>(last_delta_.dirty_gifs));
  reg.gauge("cram.incremental.gif_count").set(static_cast<double>(last_delta_.gif_count));

  return run_->reconverge();
}

CramResult IncrementalCram::rebaseline(std::size_t added_units,
                                       const std::vector<SubId>& removed) {
  // Fold a from-scratch convergence over the live population into the
  // session: the delta's adds are already in originals_, the removes leave
  // now, and the engine restarts on exactly what cram_allocate would see.
  // Accumulated clustering drift (neighborhoods incremental reconvergence
  // never revisited) resets to zero.
  last_delta_.added_units = added_units;
  for (const SubId id : removed) {
    last_delta_.removed_found += originals_.erase(id);
  }
  run_ = std::make_unique<cram_detail::CramRun>(pool_, current_original_units(),
                                                table_, opts_);
  CramResult result = run_->run();
  last_delta_.gif_count = run_->gif_count();
  last_delta_.rebaselined = true;
  ++rebaselines_;
  rebaseline_requested_ = false;

  auto& reg = obs::MetricsRegistry::global();
  reg.counter("cram.incremental.deltas").add(1);
  reg.counter("cram.incremental.rebaselines").add(1);
  reg.counter("cram.incremental.added_units").add(last_delta_.added_units);
  reg.counter("cram.incremental.removed_found").add(last_delta_.removed_found);
  reg.gauge("cram.incremental.gif_count").set(static_cast<double>(last_delta_.gif_count));
  return result;
}

std::vector<SubUnit> IncrementalCram::current_original_units() const {
  std::vector<SubUnit> units;
  units.reserve(originals_.size());
  for (const auto& [id, u] : originals_) {
    (void)id;
    units.push_back(u);
  }
  std::sort(units.begin(), units.end(), [](const SubUnit& a, const SubUnit& b) {
    return a.members.front() < b.members.front();
  });
  return units;
}

const ProfilePoset& IncrementalCram::poset() const { return run_->poset(); }

}  // namespace greenps
