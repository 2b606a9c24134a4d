// Recycled per-query hit buffers for the serving hot path. Superset
// serving used to allocate one std::vector<Hit> per node scan and copy it
// into every wire closure (direct results, coalesced batch results, repair
// re-ships); under sustained load the allocator and the copies dominated
// the profile. The pool hands out shared_ptr batches instead: a scan that
// matches moves its hits into one batch, every closure shares it by
// pointer, and when the last reference drops the buffer returns to the
// free list with its capacity intact. Steady-state serving then allocates
// only a batch's shared_ptr control block, once per scan that matched.
//
// The recycling deleter holds the free list via shared_ptr, so in-flight
// messages may safely outlive the pool's owner — teardown destroys the
// index before the event queue drains its remaining closures.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "index/index_table.hpp"

namespace hkws::index {

class HitBatchPool {
 public:
  using Batch = std::shared_ptr<std::vector<Hit>>;

  /// An empty buffer, recycled when one is available. Treat the contents as
  /// immutable once the batch has been shared with a wire closure: every
  /// holder reads the same vector.
  Batch acquire() {
    std::vector<Hit>* raw = nullptr;
    if (core_->free.empty()) {
      raw = new std::vector<Hit>();
    } else {
      raw = core_->free.back().release();
      core_->free.pop_back();
    }
    return Batch(raw, Recycle{core_});
  }

  /// Buffers currently parked in the free list (introspection for tests).
  std::size_t idle() const noexcept { return core_->free.size(); }

 private:
  struct Core {
    std::vector<std::unique_ptr<std::vector<Hit>>> free;
  };

  /// Bound on parked buffers: beyond it a released buffer is freed outright
  /// so one burst cannot pin its peak memory forever.
  static constexpr std::size_t kMaxIdle = 256;

  struct Recycle {
    std::shared_ptr<Core> core;
    void operator()(std::vector<Hit>* p) const {
      if (core->free.size() < kMaxIdle) {
        p->clear();  // keeps capacity: the next scan reuses the allocation
        core->free.emplace_back(p);
      } else {
        delete p;
      }
    }
  };

  std::shared_ptr<Core> core_ = std::make_shared<Core>();
};

}  // namespace hkws::index
