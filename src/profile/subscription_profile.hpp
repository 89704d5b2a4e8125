// Subscription profile (Section III-B): one windowed bit vector per
// publisher the subscription received publications from. All of Phases 2
// and 3 operate on these profiles — never on the subscription language —
// which is what makes the allocation framework language-independent.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "bitvec/windowed_bit_vector.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "profile/publisher_profile.hpp"

namespace greenps {

// Set-relationship between two profiles, decided purely from bit vectors
// (the online Appendix's relation classification).
enum class Relation { kEqual, kSuperset, kSubset, kIntersect, kEmpty };

[[nodiscard]] const char* relation_name(Relation r);

class SubscriptionProfile {
 public:
  explicit SubscriptionProfile(std::size_t window_bits = WindowedBitVector::kDefaultCapacity)
      : window_bits_(window_bits) {}

  // Record delivery of publication `seq` from publisher `adv`.
  void record(AdvId adv, MessageSeq seq);

  [[nodiscard]] const std::map<AdvId, WindowedBitVector>& vectors() const { return vectors_; }
  [[nodiscard]] std::size_t window_bits() const { return window_bits_; }

  // Total number of set bits across all publishers.
  [[nodiscard]] std::size_t cardinality() const;
  [[nodiscard]] bool empty() const { return cardinality() == 0; }

  // OR-merge another profile into this one (Figure 1 clustering).
  void merge(const SubscriptionProfile& other);

  // Insert-or-OR one publisher vector (used to materialize flat union
  // profiles back into a map-backed profile).
  void merge_vector(AdvId adv, const WindowedBitVector& v);

  // --- Pairwise set algebra, aligned by (publisher, message ID) ---
  [[nodiscard]] static std::size_t intersect_count(const SubscriptionProfile& a,
                                                   const SubscriptionProfile& b);
  [[nodiscard]] static std::size_t union_count(const SubscriptionProfile& a,
                                               const SubscriptionProfile& b);
  [[nodiscard]] static std::size_t xor_count(const SubscriptionProfile& a,
                                             const SubscriptionProfile& b);

  // Fused kernel: every pairwise cardinality in one aligned walk of the two
  // publisher maps (a single bit-vector word loop per *common* publisher —
  // disjoint pairs cost no popcounts at all). closeness() and relation() are
  // routed through this, so each performs exactly one profile walk.
  // Concurrency: reads (and may fill) the cardinality caches of both
  // profiles. Callers sharing profiles across threads must warm
  // cardinality() on them first — CramRun does before its parallel search.
  struct PairwiseCounts {
    std::size_t intersect = 0;
    std::size_t union_ = 0;
    std::size_t xor_ = 0;
    std::size_t card_a = 0;  // |a|
    std::size_t card_b = 0;  // |b|
  };
  [[nodiscard]] static PairwiseCounts pairwise_counts(const SubscriptionProfile& a,
                                                      const SubscriptionProfile& b);

  // Number of pairwise_counts() walks performed by the calling thread.
  // Test hook for the one-walk-per-closeness invariant; per-thread so the
  // parallel pair search stays contention-free.
  [[nodiscard]] static std::size_t pairwise_walks();
  static void reset_pairwise_walks();
  // Every publication recorded by `sub` was also recorded by `sup`.
  [[nodiscard]] static bool covers(const SubscriptionProfile& sup,
                                   const SubscriptionProfile& sub);
  [[nodiscard]] static Relation relation(const SubscriptionProfile& a,
                                         const SubscriptionProfile& b);

  // Identical set bits (the GIF grouping criterion).
  [[nodiscard]] static bool same_bits(const SubscriptionProfile& a,
                                      const SubscriptionProfile& b);
  // Hash over set bits, stable across windows with different anchors.
  [[nodiscard]] std::size_t bit_hash() const;

  // --- Load estimation (Section III-B) ---
  // A profile with k of n observed bits set for a publisher at r msg/s and
  // b kB/s induces r*k/n msg/s and b*k/n kB/s. Publishers absent from
  // `table` contribute nothing.
  [[nodiscard]] MsgRate induced_rate(const PublisherTable& table) const;
  [[nodiscard]] Bandwidth induced_bandwidth(const PublisherTable& table) const;

  // Bit vector for one publisher, or nullptr if none recorded.
  [[nodiscard]] const WindowedBitVector* vector_for(AdvId adv) const;
  // Fraction of `pub`'s observed stream this profile sinks (0 when absent).
  [[nodiscard]] double fraction_for(const PublisherProfile& pub) const;
  // Fraction of `pub`'s observed stream captured by one bit vector.
  [[nodiscard]] static double set_fraction(const WindowedBitVector& v,
                                           const PublisherProfile& pub);

  [[nodiscard]] std::string to_string() const;

 private:
  std::map<AdvId, WindowedBitVector> vectors_;
  std::size_t window_bits_;
  // Cardinality is consulted by every closeness computation; cache it and
  // invalidate on mutation (record/merge).
  mutable std::size_t card_cache_ = kNoCache;
  static constexpr std::size_t kNoCache = ~std::size_t{0};
};

}  // namespace greenps
