#pragma once

// Cross-pair encoding memoization (ROADMAP: "cross-pair encoding
// memoization").
//
// Every differencing task owns a private BddManager, which keeps arenas
// small and tasks trivially parallel — but it also means each pair
// re-encodes the same prefix lists, community lists, and ACL match clauses
// from scratch: two routers' pairs overwhelmingly reference one shared list
// library. An EncodingTemplate hoists that common work out of the fan-out:
//
//   build   — scan both configurations for structurally distinct prefix
//             lists, community lists, and ACL line matches (canonical key,
//             so identically-shaped objects on both sides collapse), and
//             encode each one exactly once into the template's managers;
//   freeze  — after construction the template is immutable and shared
//             read-only across all pair tasks (const access only; safe to
//             read from any number of threads concurrently);
//   seed    — each pair task seeds its private manager with a snapshot of
//             the template arena (BddManager::SeedFrom), which preserves
//             arena indices, so template refs denote the same functions in
//             the seeded manager;
//   mutate  — the pair then encodes whatever the template does not cover
//             (route-map guards, class predicates, as-path predicates,
//             localization sets) privately, on top of the seeded arena.
//
// The ITE computed cache is deliberately NOT part of the snapshot: it is a
// lossy, history-dependent performance structure, and sharing it would
// either need synchronization (defeating per-pair isolation) or leak one
// pair's call history into another's hit-rate accounting. Seeded managers
// start with a fresh cache sized to the copied arena.
//
// Correctness: a reduced ordered BDD is canonical for a given function and
// variable order, and nothing downstream depends on arena indices — so a
// pair diffed with a seeded manager renders byte-identically to one diffed
// from scratch (pinned by tests/encode/encoding_template_test.cc).

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.h"
#include "encode/packet.h"
#include "encode/route_adv.h"
#include "ir/config.h"
#include "ir/policy.h"

namespace campion::encode {

// Canonical structural keys: two objects with equal keys encode to the same
// Boolean function in any manager with the same layout. Keys deliberately
// ignore names and source spans (those affect reporting, not semantics) and
// the ACL line's action (the match predicate is action-independent).
std::string PrefixListKey(const ir::PrefixList& list);
std::string CommunityListKey(const ir::CommunityList& list);
std::string AclLineMatchKey(const ir::AclLine& line);

class EncodingTemplate {
 public:
  // Encodes each structurally distinct list / ACL line of both
  // configurations once. `route_side`/`packet_side` skip building the
  // respective manager when the corresponding checks are disabled.
  EncodingTemplate(const ir::RouterConfig& config1,
                   const ir::RouterConfig& config2, bool route_side = true,
                   bool packet_side = true);

  EncodingTemplate(const EncodingTemplate&) = delete;
  EncodingTemplate& operator=(const EncodingTemplate&) = delete;

  // The frozen managers and prototype layouts pair tasks seed from.
  const bdd::BddManager& route_manager() const { return route_mgr_; }
  const RouteAdvLayout& route_layout() const { return *route_layout_; }
  const bdd::BddManager& packet_manager() const { return packet_mgr_; }
  const PacketLayout& packet_layout() const { return *packet_layout_; }
  bool has_route_side() const { return route_layout_.has_value(); }
  bool has_packet_side() const { return packet_layout_.has_value(); }

  // Lookups. The returned ref was interned in the template manager and is
  // valid in any manager seeded from it. nullopt = not in the template
  // (the caller encodes privately).
  std::optional<bdd::BddRef> PrefixListPermits(
      const ir::PrefixList& list) const;
  std::optional<bdd::BddRef> CommunityListPermits(
      const ir::CommunityList& list) const;
  std::optional<bdd::BddRef> AclLineMatch(const ir::AclLine& line) const;

  // Build-size accounting for the template span / stats.
  std::size_t unique_prefix_lists() const { return prefix_lists_.size(); }
  std::size_t unique_community_lists() const {
    return community_lists_.size();
  }
  std::size_t unique_acl_lines() const { return acl_lines_.size(); }

 private:
  bdd::BddManager route_mgr_;
  bdd::BddManager packet_mgr_;
  std::optional<RouteAdvLayout> route_layout_;
  std::optional<PacketLayout> packet_layout_;
  std::unordered_map<std::string, bdd::BddRef> prefix_lists_;
  std::unordered_map<std::string, bdd::BddRef> community_lists_;
  std::unordered_map<std::string, bdd::BddRef> acl_lines_;
};

}  // namespace campion::encode
