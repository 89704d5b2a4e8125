#include "matching/matching_engine.hpp"

#include <algorithm>

namespace greenps {

namespace {
thread_local std::size_t t_match_walks = 0;
}  // namespace

std::size_t MatchingEngine::match_walks() { return t_match_walks; }
void MatchingEngine::reset_match_walks() { t_match_walks = 0; }
void MatchingEngine::add_match_walks(std::size_t n) { t_match_walks += n; }

void MatchingEngine::insert(Handle handle, Filter filter) {
  filters_.insert_or_assign(handle, std::move(filter));
}

void MatchingEngine::remove(Handle handle) { filters_.erase(handle); }

const Filter* MatchingEngine::find(Handle handle) const {
  const auto it = filters_.find(handle);
  return it == filters_.end() ? nullptr : &it->second;
}

std::vector<MatchingEngine::Sub> MatchingEngine::compile() const {
  std::vector<Handle> order;
  order.reserve(filters_.size());
  for (const auto& [h, f] : filters_) {
    (void)f;
    order.push_back(h);
  }
  std::sort(order.begin(), order.end());
  std::vector<Sub> subs;
  subs.reserve(order.size());
  for (const Handle h : order) subs.push_back(Sub{h, CompiledFilter(filters_.at(h))});
  return subs;
}

}  // namespace greenps
