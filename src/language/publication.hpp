// A publication message: an attribute→value map plus the routing header the
// profiling framework relies on (advertisement ID identifying the publisher
// and the per-publisher message sequence number, Section III-B).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "language/interner.hpp"
#include "language/value.hpp"

namespace greenps {

class Publication {
 public:
  // Interned view of one attribute, precomputed at set_attr() time so every
  // broker a publication visits can evaluate compiled filters without
  // touching the attribute strings again.
  struct AttrKey {
    InternId attr = kNoIntern;
    ValueKey key;
  };

  Publication() = default;
  Publication(AdvId adv, MessageSeq seq) : adv_(adv), seq_(seq) {}

  void set_attr(std::string name, Value v);
  [[nodiscard]] const Value* find(const std::string& name) const;

  // Drop all attributes and the header, keeping allocated capacity — used by
  // the simulator's publication pool to recycle objects.
  void clear() {
    attrs_.clear();
    keys_.clear();
    size_kb_cache_ = -1;
    adv_ = AdvId{};
    seq_ = 0;
  }

  [[nodiscard]] AdvId adv_id() const { return adv_; }
  [[nodiscard]] MessageSeq seq() const { return seq_; }
  void set_header(AdvId adv, MessageSeq seq) {
    adv_ = adv;
    seq_ = seq;
  }

  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& attrs() const {
    return attrs_;
  }
  // Parallel to attrs(): keys_[i] is the interned key of attrs()[i].
  [[nodiscard]] const std::vector<AttrKey>& attr_keys() const { return keys_; }

  // Approximate wire size in kB (used by the bandwidth model). Rendering
  // the attributes is costly relative to a routing step, so the result is
  // memoized until the attribute set changes.
  [[nodiscard]] MsgSize size_kb() const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::pair<std::string, Value>> attrs_;  // sorted by name
  std::vector<AttrKey> keys_;                         // parallel to attrs_
  mutable MsgSize size_kb_cache_ = -1;                // <0: not yet computed
  AdvId adv_;
  MessageSeq seq_ = 0;
};

}  // namespace greenps
