#include "multilisp/nodes.hpp"

namespace small::multilisp {

bool CombiningQueue::add(const WeightUpdate& update) {
  ++enqueued_;
  const std::uint64_t k = key(update.node, update.object);
  const auto it = pending_.find(k);
  if (it != pending_.end()) {
    it->second.weight += update.weight;
    ++combined_;
    return true;
  }
  pending_.emplace(k, update);
  return false;
}

NodeSystem::NodeSystem(Params params, support::Rng& rng)
    : params_(params), rng_(rng) {
  tables_.resize(params_.nodeCount);
  queues_.reserve(params_.nodeCount);
  for (std::uint32_t i = 0; i < params_.nodeCount; ++i) {
    queues_.emplace_back(params_.queueCapacity);
  }
  held_.resize(params_.nodeCount);

  // Seed: each node creates objects and hands the first reference to a
  // random peer (the typical "result shipped to caller" pattern).
  for (std::uint32_t node = 0; node < params_.nodeCount; ++node) {
    for (std::uint32_t i = 0; i < params_.objectsPerNode; ++i) {
      const WeightedRef ref = tables_[node].create();
      const auto holder =
          static_cast<std::uint32_t>(rng_.below(params_.nodeCount));
      held_[holder].push_back(HeldRef{node, ref});
    }
  }
}

TrafficReport NodeSystem::run(std::uint64_t events) {
  TrafficReport report;

  auto flushQueue = [&](std::uint32_t node) {
    queues_[node].flush([&](const WeightUpdate& update) {
      ++report.combinedMessages;
      (void)update;
    });
  };

  for (std::uint64_t e = 0; e < events; ++e) {
    const auto node =
        static_cast<std::uint32_t>(rng_.below(params_.nodeCount));
    std::vector<HeldRef>& mine = held_[node];
    if (mine.empty()) continue;
    const std::size_t index = rng_.below(mine.size());
    ++report.referenceEvents;

    const bool doCopy =
        rng_.chance(params_.copyFraction) || mine.size() < 4;
    if (doCopy) {
      // `owner` is copied out: the push below may reallocate `mine`.
      HeldRef& source = mine[index];
      const std::uint32_t owner = source.ownerNode;
      const WeightedRef clone = tables_[owner].copy(source.ref);
      const auto receiver =
          static_cast<std::uint32_t>(rng_.below(params_.nodeCount));
      held_[receiver].push_back(HeldRef{owner, clone});
      // Plain counting: a copy of a remote pointer costs an increment
      // message to the owner. Weighting: free.
      if (owner != node) ++report.plainMessages;
    } else {
      const HeldRef victim = mine[index];
      mine[index] = mine.back();
      mine.pop_back();
      tables_[victim.ownerNode].destroy(victim.ref);
      if (victim.ownerNode != node) {
        // Both schemes send a decrement; the combining queue may merge it
        // with an earlier one to the same object.
        ++report.plainMessages;
        ++report.weightedMessages;
        queues_[node].add(
            WeightUpdate{victim.ownerNode, victim.ref.object,
                         victim.ref.weight});
        if (queues_[node].full()) flushQueue(node);
      }
    }
  }
  for (std::uint32_t node = 0; node < params_.nodeCount; ++node) {
    flushQueue(node);
  }
  return report;
}

}  // namespace small::multilisp
