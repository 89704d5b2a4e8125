// Recycling pool for the simulator's shared publications.
//
// Every publication is passed around as shared_ptr<const Publication>; with
// make_shared each one costs a combined control-block+object allocation that
// malloc must serve and tear down per message. The pool hands those fixed-
// size blocks back out instead: once the simulation reaches steady state
// (free list warm), acquiring a publication performs no allocation at all.
// Blocks are returned when the last reference drops, wherever that happens;
// the shared State keeps the free list alive until the final publication
// dies, so pooled publications may safely outlive the pool and the
// simulation that created them. The free list is mutex-protected: the last
// reference to a publication can drop on any thread that holds one, not
// just the one that acquired it.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "language/publication.hpp"

namespace greenps {

class PublicationPool {
 public:
  // A recycled (or fresh) empty publication with unique ownership.
  [[nodiscard]] std::shared_ptr<Publication> acquire() {
    return std::allocate_shared<Publication>(Alloc<Publication>{state_});
  }

  [[nodiscard]] std::size_t free_blocks() const {
    const std::lock_guard<std::mutex> lk(state_->mu);
    return state_->free.size();
  }

 private:
  struct State {
    std::mutex mu;                // guards free + block_size
    std::vector<void*> free;      // blocks of block_size bytes each
    std::size_t block_size = 0;   // set by the first allocation
    ~State() {
      for (void* p : free) ::operator delete(p);
    }
  };

  // Minimal allocator: allocate_shared rebinds it to the library's internal
  // "object + control block" type, so every n==1 allocation it ever makes
  // has one fixed size — exactly what the free list recycles.
  template <typename T>
  struct Alloc {
    using value_type = T;

    std::shared_ptr<State> state;

    explicit Alloc(std::shared_ptr<State> s) : state(std::move(s)) {}
    template <typename U>
    Alloc(const Alloc<U>& other) : state(other.state) {}  // NOLINT

    T* allocate(std::size_t n) {
      if (n == 1) {
        const std::lock_guard<std::mutex> lk(state->mu);
        if (state->block_size == sizeof(T) && !state->free.empty()) {
          void* p = state->free.back();
          state->free.pop_back();
          return static_cast<T*>(p);
        }
        state->block_size = sizeof(T);
      }
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }

    void deallocate(T* p, std::size_t n) {
      if (n == 1) {
        const std::lock_guard<std::mutex> lk(state->mu);
        if (state->block_size == sizeof(T)) {
          state->free.push_back(p);
          return;
        }
      }
      ::operator delete(p);
    }

    template <typename U>
    friend bool operator==(const Alloc& a, const Alloc<U>& b) {
      return a.state == b.state;
    }
  };

  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace greenps
