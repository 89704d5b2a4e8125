// CRAM — Clustering with Resource Awareness and Minimization (Section IV-C).
//
// Repeatedly clusters the closest pair of subscription groups (by one of
// the INTERSECT/XOR/IOS/IOU closeness metrics), re-running BIN PACKING as
// the allocation test after every clustering, and returns the last
// successful allocation. Three optimizations, each individually toggleable
// for the ablation experiments:
//
//   1. GIF grouping      — units with identical bit vectors form one group
//   2. poset pruning     — pair search walks a containment poset, pruning
//                          empty-relation subtrees (impossible under XOR)
//   3. one-to-many       — an intersect pair first tries clustering each
//                          side with its covered GIFs (greedy set cover)
#pragma once

#include <cstddef>
#include <cstdint>

#include "alloc/allocation.hpp"
#include "alloc/gif.hpp"
#include "profile/closeness.hpp"

namespace greenps {

struct CramOptions {
  ClosenessMetric metric = ClosenessMetric::kIos;
  bool gif_grouping = true;   // optimization 1
  bool poset_pruning = true;  // optimization 2
  bool one_to_many = true;    // optimization 3
  // Worker threads for the best-partner search (the caller counts as one):
  // 0 = hardware_concurrency. Allocation probes always run on the calling
  // thread. Results are bit-identical for every thread count — the search
  // reads a snapshot and merges deterministically. GREENPS_CRAM_THREADS,
  // when set to a valid count, overrides this.
  std::size_t threads = 0;
};

struct CramStats {
  std::size_t initial_units = 0;
  std::size_t gif_count = 0;                // after grouping
  std::size_t closeness_computations = 0;
  // Allocation probes (BIN PACKING feasibility tests). Identical for every
  // thread count.
  std::size_t allocation_runs = 0;
  std::size_t clusterings_applied = 0;
  std::size_t clusterings_rejected = 0;     // failed allocation test
  std::size_t one_to_many_applied = 0;
  std::size_t iterations = 0;
  std::size_t final_units = 0;              // clusters in the result
  std::size_t threads_used = 1;             // resolved pair-search thread count
  // Checkpoint-resume effectiveness, summed over base rebuilds and probes:
  // units walked through the allocation test vs. units whose packing a
  // checkpoint stood in for. packed + skipped is invariant across thread
  // counts; the packed:skipped ratio is the work the incremental probe
  // avoids.
  std::size_t probe_units_packed = 0;
  std::size_t probe_units_skipped = 0;
  // Re-packs of the committed unit set (each resumes from the divergence
  // position of the committed overlay, so it is mostly checkpoint replay).
  std::size_t base_rebuilds = 0;
  double poset_build_seconds = 0;
  double probe_seconds = 0;        // packing: rebuilds + probes (incl. merged-unit folds)
  double pair_search_seconds = 0;  // best-partner search (refresh_dirty)
  double total_seconds = 0;
};

// Unordered pair of GIF ids, used as the clustering-blacklist key. Ids are
// full 64-bit values and `next_id_` grows past the initial GIF count, so the
// key must keep both ids intact (a 64-bit `(a << 32) ^ b` fold silently
// discards high bits and lets distinct pairs collide).
struct GifPairKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  friend bool operator==(const GifPairKey&, const GifPairKey&) = default;
};

[[nodiscard]] GifPairKey make_gif_pair_key(std::uint64_t a, std::uint64_t b);

struct GifPairKeyHash {
  [[nodiscard]] std::size_t operator()(const GifPairKey& k) const;
};

struct CramResult {
  Allocation allocation;
  CramStats stats;
};

// Largest thread count GREENPS_CRAM_THREADS may request.
inline constexpr std::size_t kMaxCramThreads = 256;

// Normalize an options struct the way cram_allocate does before running:
// poset pruning is forced off without GIF grouping, and GREENPS_CRAM_THREADS
// overrides the thread count when it holds a whole number in
// [1, kMaxCramThreads] (any other value logs a warning and is ignored). IncrementalCram applies the same
// resolution so a delta session and a from-scratch run see identical knobs.
[[nodiscard]] CramOptions resolve_cram_options(const CramOptions& options);

[[nodiscard]] CramResult cram_allocate(std::vector<AllocBroker> pool,
                                       std::vector<SubUnit> units,
                                       const PublisherTable& table,
                                       const CramOptions& options = {});

}  // namespace greenps
