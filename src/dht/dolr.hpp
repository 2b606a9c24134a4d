// The DOLR (distributed object location and routing) reference service of
// the paper's generalized DHT model (§2.1): the mapping L from object IDs
// to ring keys, and the Insert / Delete / Read operations that place, drop,
// and fetch references (sigma, u) at the owner node of L(sigma).
//
// Insert reports whether the reference was the *first* copy of the object,
// and Delete whether it removed the *last* one — the keyword-index layer
// creates/destroys its index entry exactly on those transitions (§3.3).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/keyword.hpp"
#include "dht/overlay.hpp"
#include "dht/overlay_node.hpp"

namespace hkws::dht {

class Dolr {
 public:
  struct Config {
    /// Number of nodes holding each reference: the owner plus
    /// (replication_factor - 1) of its successors. 1 = no replication.
    int replication_factor = 1;
  };

  Dolr(Overlay& overlay, Config cfg);
  explicit Dolr(Overlay& overlay);  ///< default config (no replication)

  /// The mapping L: deterministic, uniform object -> ring key.
  RingId object_key(ObjectId object) const;

  struct InsertResult {
    bool first_copy = false;  ///< no reference to the object existed before
    RingId owner = 0;
    int hops = 0;
  };
  using InsertCallback = std::function<void(const InsertResult&)>;

  /// Publishes a copy of `object` held by `publisher`: routes the reference
  /// to the owner of L(object) and replicates it to successors.
  void insert(sim::EndpointId publisher, ObjectId object,
              InsertCallback done = nullptr);

  struct DeleteResult {
    bool last_copy = false;  ///< the reference store no longer knows the object
    RingId owner = 0;
    int hops = 0;
  };
  using DeleteCallback = std::function<void(const DeleteResult&)>;

  /// Withdraws the copy of `object` held by `publisher`.
  void remove(sim::EndpointId publisher, ObjectId object,
              DeleteCallback done = nullptr);

  struct ReadResult {
    std::vector<sim::EndpointId> holders;  ///< replica holders (may be empty)
    RingId owner = 0;
    int hops = 0;
  };
  using ReadCallback = std::function<void(const ReadResult&)>;

  /// Resolves `object` to its replica holders by routing to the owner of
  /// L(object); the reply travels directly back to the reader (1 message).
  void read(sim::EndpointId reader, ObjectId object, ReadCallback done);

  /// Re-replicates every reference owned by live nodes to the current
  /// successor sets; call after membership changes to restore the
  /// replication invariant. Returns references copied.
  std::uint64_t repair_replicas();

  /// Incremental variant for the maintenance plane: pushes at most
  /// `max_copies` replica copies, and only to targets that are actually
  /// missing the reference (so repeated calls converge instead of
  /// re-flooding). Returns copies sent; 0 means the replication invariant
  /// holds for every live owner. Idempotent: add_ref on an existing copy is
  /// a no-op.
  std::uint64_t repair_replicas(std::size_t max_copies);

  /// Replica copies currently missing across all live owners — the repair
  /// backlog the plane reports as a gauge and drains with the call above.
  std::size_t replication_backlog() const;

  int replication_factor() const noexcept { return cfg_.replication_factor; }

  Overlay& overlay() noexcept { return overlay_; }
  const Overlay& overlay() const noexcept { return overlay_; }

 private:
  void replicate(RingId owner, const StoredRef& ref);
  /// One replica copy: direct message owner -> target endpoint.
  void replicate_to(RingId owner, sim::EndpointId target,
                    const StoredRef& ref);
  /// Invokes fn(owner_id, target_ep, ref) for every replica copy a live
  /// owner should hold at a target that does not have it yet.
  template <typename Fn>
  void for_each_missing_copy(Fn&& fn) const;

  Overlay& overlay_;
  Config cfg_;
};

}  // namespace hkws::dht
