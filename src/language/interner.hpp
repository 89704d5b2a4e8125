// Process-wide string interner and compact value keys for the matching fast
// path.
//
// Attribute names and string attribute values recur constantly (every stock
// publication carries the same twelve attribute names; filters reuse the
// same symbols), so compiled filters compare small integer ids instead of
// strings. Numeric values are keyed on the bit pattern of their canonical
// double — previously the engine built
// `"n:" + std::to_string(double)` per attribute per match, which allocated
// and was locale-dependent (std::to_string obeys LC_NUMERIC); the bit key
// removes the formatting entirely.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "language/value.hpp"

namespace greenps {

// Id of an interned string. Ids are dense, process-local and stable for the
// process lifetime; they are never persisted.
using InternId = std::uint32_t;
inline constexpr InternId kNoIntern = ~InternId{0};

class Interner {
 public:
  // The process-wide instance used by publications and matching engines.
  [[nodiscard]] static Interner& global();

  // Id of `s`, interning it on first sight.
  [[nodiscard]] InternId intern(std::string_view s);
  // Id of `s` if already interned, kNoIntern otherwise (never inserts).
  [[nodiscard]] InternId find(std::string_view s) const;
  // Spelling of a previously returned id.
  [[nodiscard]] const std::string& spelling(InternId id) const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Thread-safe: one process-wide interner serves every thread that builds
  // publications or filters (simulations driven on separate threads, CRAM's
  // pool workers, concurrent matching readers). find/spelling/size and the
  // already-known intern() case take the shared lock; first-sight interning
  // takes the exclusive lock and inserts in place. The vocabulary is tiny and converges fast, so the
  // exclusive path is off the steady state entirely.
  mutable std::shared_mutex mu_;
  std::deque<std::string> storage_;  // grow-only; stable references on growth
  // Views point into storage_'s deque-stable strings.
  std::unordered_map<std::string_view, InternId, Hash, std::equal_to<>> ids_;
  std::vector<const std::string*> spellings_;
};

// Canonical constant-size key of a Value: equal values (under
// Value::equals) produce equal keys, including int 5 vs real 5.0, which
// share the canonical double 5.0.
struct ValueKey {
  enum class Tag : std::uint8_t { kNone, kNumber, kString, kBool };

  Tag tag = Tag::kNone;
  std::uint64_t bits = 0;

  friend bool operator==(const ValueKey&, const ValueKey&) = default;
};

// Key of `v`, interning string values in the global interner.
[[nodiscard]] ValueKey value_key(const Value& v);

// Key of `v` without interning: string values never seen by the process get
// Tag::kNone, which compares unequal to every interned key.
[[nodiscard]] ValueKey value_key_readonly(const Value& v);

// Canonical double for numeric keys: -0.0 folds into +0.0 so the two equal
// zeros share a key.
[[nodiscard]] inline std::uint64_t numeric_key_bits(double d) {
  if (d == 0.0) d = 0.0;
  return std::bit_cast<std::uint64_t>(d);
}

}  // namespace greenps
