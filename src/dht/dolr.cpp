#include "dht/dolr.hpp"

#include <stdexcept>

#include "common/hash.hpp"

namespace hkws::dht {

Dolr::Dolr(Overlay& overlay, Config cfg) : overlay_(overlay), cfg_(cfg) {
  if (cfg.replication_factor < 1)
    throw std::invalid_argument("Dolr: replication_factor must be >= 1");
}

Dolr::Dolr(Overlay& overlay) : Dolr(overlay, Config{}) {}

RingId Dolr::object_key(ObjectId object) const {
  return overlay_.space().clamp(mix64(object ^ seeds::kObjectToDht));
}

void Dolr::replicate_to(RingId owner, sim::EndpointId target,
                        const StoredRef& ref) {
  const OverlayNode& n = overlay_.state_of(owner);
  overlay_.transport().send(n.endpoint(), target, "dolr.replicate",
                      sizeof(StoredRef), [this, target, ref] {
                        // The replica target may have left in flight.
                        if (auto id = overlay_.ring_id_of(target))
                          overlay_.state_of(*id).add_ref(ref);
                      });
}

void Dolr::replicate(RingId owner, const StoredRef& ref) {
  // Copy the reference to the overlay's replica set for this owner (Chord:
  // successors; Pastry: leaf-set neighbors). One direct message per copy.
  for (RingId s :
       overlay_.replica_targets(owner, cfg_.replication_factor - 1))
    replicate_to(owner, overlay_.endpoint_of(s), ref);
}

void Dolr::insert(sim::EndpointId publisher, ObjectId object,
                  InsertCallback done) {
  const RingId key = object_key(object);
  const StoredRef ref{key, object, publisher};
  overlay_.route(publisher, key, "dolr.insert", sizeof(StoredRef),
                 [this, ref, done = std::move(done)](
                     const Overlay::RouteResult& r) {
                   const bool first = overlay_.state_of(r.owner).add_ref(ref);
                   replicate(r.owner, ref);
                   if (done) done(InsertResult{first, r.owner, r.hops});
                 });
}

void Dolr::remove(sim::EndpointId publisher, ObjectId object,
                  DeleteCallback done) {
  const RingId key = object_key(object);
  overlay_.route(publisher, key, "dolr.delete", sizeof(StoredRef),
                 [this, object, publisher, done = std::move(done)](
                     const Overlay::RouteResult& r) {
                   OverlayNode& owner = overlay_.state_of(r.owner);
                   const bool last = owner.remove_ref(object, publisher);
                   // Propagate the removal to the replica set.
                   for (RingId s : overlay_.replica_targets(
                            r.owner, cfg_.replication_factor - 1)) {
                     const auto ep = overlay_.endpoint_of(s);
                     overlay_.transport().send(
                         owner.endpoint(), ep, "dolr.unreplicate",
                         sizeof(ObjectId), [this, ep, object, publisher] {
                           if (auto id = overlay_.ring_id_of(ep))
                             overlay_.state_of(*id).remove_ref(object, publisher);
                         });
                   }
                   if (done) done(DeleteResult{last, r.owner, r.hops});
                 });
}

void Dolr::read(sim::EndpointId reader, ObjectId object, ReadCallback done) {
  const RingId key = object_key(object);
  overlay_.route(reader, key, "dolr.read", sizeof(ObjectId),
                 [this, object, reader, done = std::move(done)](
                     const Overlay::RouteResult& r) {
                   ReadResult result;
                   result.owner = r.owner;
                   result.hops = r.hops;
                   result.holders = overlay_.state_of(r.owner).refs_of(object);
                   // Direct reply to the reader (one message).
                   overlay_.transport().send(
                       overlay_.state_of(r.owner).endpoint(), reader, "dolr.reply",
                       result.holders.size() * sizeof(sim::EndpointId),
                       [done, result] { if (done) done(result); });
                 });
}

std::uint64_t Dolr::repair_replicas() {
  std::uint64_t copied = 0;
  for (RingId id : overlay_.live_ids()) {
    // Only the current owner of a key re-pushes it, so repeated repair
    // passes converge instead of spreading stale copies.
    OverlayNode& n = overlay_.state_of(id);
    for (const auto& ref : n.all_refs()) {
      if (overlay_.owner_of(ref.key) != id) continue;
      replicate(id, ref);
      ++copied;
    }
  }
  return copied;
}

template <typename Fn>
void Dolr::for_each_missing_copy(Fn&& fn) const {
  for (RingId id : overlay_.live_ids()) {
    const OverlayNode& n = overlay_.state_of(id);
    for (const auto& ref : n.all_refs()) {
      if (overlay_.owner_of(ref.key) != id) continue;
      for (RingId s :
           overlay_.replica_targets(id, cfg_.replication_factor - 1)) {
        if (!overlay_.state_of(s).has_ref(ref.object, ref.holder))
          fn(id, overlay_.endpoint_of(s), ref);
      }
    }
  }
}

std::uint64_t Dolr::repair_replicas(std::size_t max_copies) {
  std::uint64_t copied = 0;
  for_each_missing_copy([&](RingId owner, sim::EndpointId target,
                            const StoredRef& ref) {
    if (copied >= max_copies) return;
    replicate_to(owner, target, ref);
    ++copied;
  });
  return copied;
}

std::size_t Dolr::replication_backlog() const {
  std::size_t missing = 0;
  for_each_missing_copy(
      [&](RingId, sim::EndpointId, const StoredRef&) { ++missing; });
  return missing;
}

}  // namespace hkws::dht
