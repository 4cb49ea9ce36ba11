// Submission-queue arbitration for the multi-queue host front end.
//
// The session keeps one submission queue per tenant and, whenever the
// device is ready for the next request, asks an Arbiter which queue's
// head to serve. The arbiter sees only the *ready* heads — queues whose
// next request has already arrived by the arbitration clock — as a list
// sorted by tenant id, and returns an index into that list. Three
// NVMe-style disciplines are provided:
//
//   round-robin (RR)           each ready queue in cyclic tenant order,
//                              one request per visit;
//   weighted round-robin (WRR) like RR, but a visited queue is served up
//                              to `weight` consecutive requests while it
//                              stays ready (credits are forfeited the
//                              moment the queue goes non-ready);
//   deficit round-robin (DRR)  byte-fair (here: page-fair) service — the
//                              cyclic pointer grants `quantum` pages of
//                              deficit per visit and a queue is served
//                              while its banked deficit covers the head
//                              request's page cost. Queues that are not
//                              ready bank nothing (their deficit resets),
//                              the classic anti-hoarding rule.
//
// Determinism contract: pick() is a pure function of the arbiter's own
// serialized state and the ready list; ties always break toward the
// lowest tenant id next in cyclic order. No RNG, no wall clock, and the
// dynamic state (cursor, credits, deficits) checkpoints byte-stably, so
// a restored arbiter continues the exact service pattern.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

enum class ArbiterKind : std::uint8_t {
  kRoundRobin = 0,
  kWeighted = 1,
  kDeficit = 2,
};

constexpr const char* to_string(ArbiterKind k) {
  switch (k) {
    case ArbiterKind::kRoundRobin: return "rr";
    case ArbiterKind::kWeighted: return "wrr";
    case ArbiterKind::kDeficit: return "drr";
  }
  return "?";
}

/// Parses "rr"/"wrr"/"drr" (also "round-robin"/"weighted"/"deficit");
/// nullopt for any other spelling.
std::optional<ArbiterKind> arbiter_kind_from_name(std::string_view text);

/// One ready submission-queue head as the arbiter sees it.
struct ReadyHead {
  std::uint32_t tenant = 0;      // queue index; the list is sorted by this
  std::uint32_t cost_pages = 1;  // page cost of the head request (DRR)
};

class Arbiter {
 public:
  virtual ~Arbiter() = default;

  virtual ArbiterKind kind() const = 0;

  /// Chooses the queue to serve. `ready` is non-empty, strictly ascending
  /// by tenant, and every cost is >= 1. Returns an index INTO `ready`.
  /// Mutates the arbiter's scheduling state (cursor/credits/deficits).
  virtual std::size_t pick(const std::vector<ReadyHead>& ready) = 0;

  /// Checkpoints the dynamic scheduling state only (the configuration —
  /// kind, weights, quantum — is rebuilt from options by the caller).
  virtual void serialize(SnapshotWriter& w) const = 0;
  virtual void deserialize(SnapshotReader& r) = 0;
};

/// Builds an arbiter over `tenant_count` queues. `weights` must have one
/// entry (>= 1) per tenant; RR ignores them, WRR serves `weight`
/// consecutive requests per visit, DRR grants `quantum_pages * weight`
/// pages of deficit per visit. `quantum_pages` must be >= 1.
std::unique_ptr<Arbiter> make_arbiter(ArbiterKind kind,
                                      const std::vector<std::uint32_t>& weights,
                                      std::uint32_t quantum_pages);

}  // namespace reqblock
