#include "language/interner.hpp"

#include <mutex>

namespace greenps {

Interner& Interner::global() {
  static Interner instance;
  return instance;
}

InternId Interner::intern(std::string_view s) {
  if (const InternId id = find(s); id != kNoIntern) return id;
  std::unique_lock lock(mu_);
  // Re-check under the exclusive lock: another thread may have interned the
  // string between our miss and acquiring it.
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  const std::string& stored = storage_.emplace_back(s);
  const auto id = static_cast<InternId>(spellings_.size());
  spellings_.push_back(&stored);
  ids_.emplace(std::string_view(stored), id);
  return id;
}

InternId Interner::find(std::string_view s) const {
  std::shared_lock lock(mu_);
  const auto it = ids_.find(s);
  return it == ids_.end() ? kNoIntern : it->second;
}

const std::string& Interner::spelling(InternId id) const {
  std::shared_lock lock(mu_);
  // The returned reference outlives the lock safely: spellings live in the
  // grow-only storage deque.
  return *spellings_.at(id);
}

std::size_t Interner::size() const {
  std::shared_lock lock(mu_);
  return spellings_.size();
}

ValueKey value_key(const Value& v) {
  if (v.is_numeric()) return {ValueKey::Tag::kNumber, numeric_key_bits(v.as_double())};
  if (v.is_string()) return {ValueKey::Tag::kString, Interner::global().intern(v.as_string())};
  return {ValueKey::Tag::kBool, v.as_bool() ? 1u : 0u};
}

ValueKey value_key_readonly(const Value& v) {
  if (v.is_numeric()) return {ValueKey::Tag::kNumber, numeric_key_bits(v.as_double())};
  if (v.is_string()) {
    const InternId id = Interner::global().find(v.as_string());
    if (id == kNoIntern) return {};  // unseen string: matches no interned key
    return {ValueKey::Tag::kString, id};
  }
  return {ValueKey::Tag::kBool, v.as_bool() ? 1u : 0u};
}

}  // namespace greenps
