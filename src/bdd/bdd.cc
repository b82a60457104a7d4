#include "bdd/bdd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace campion::bdd {
namespace {

// Initial capacities. Managers are created per differencing task, so the
// footprint at rest stays small; both tables grow with the workload.
constexpr std::size_t kInitialUniqueCapacity = 1u << 13;
constexpr std::size_t kInitialCacheCapacity = 1u << 12;
constexpr std::size_t kMaxCacheCapacity = 1u << 21;

// IteFrame::state value for a frame whose triple is already standardized
// and whose cache miss is already counted (the root of each Ite call);
// states 0..2 are the raw-enter / low-done / high-done progression.
constexpr std::uint8_t kStateExpand = 3;

// Sifting tuning. A direction aborts once the arena grows past
// kSiftMaxGrowth times its size at the start of the variable's sift
// (Rudell's bound); passes repeat while a pass shrinks the arena by more
// than ~2%, capped at kMaxSiftPasses. The auto-sift trigger never fires
// below kAutoSiftMinNodes live nodes — tiny managers reorder in microseconds
// but also gain nothing.
constexpr double kSiftMaxGrowth = 1.2;
constexpr std::size_t kMaxSiftPasses = 2;
constexpr std::size_t kAutoSiftMinNodes = 1u << 12;

// 64-bit avalanche mix (splitmix64 finalizer) over the node key. The
// unique table and the computed cache both need well-spread low bits
// because capacity is a power of two.
inline std::uint64_t MixHash(std::uint64_t a, std::uint64_t b,
                             std::uint64_t c) {
  std::uint64_t h = a * 0x9e3779b97f4a7c15ull;
  h ^= b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= c + 0x94d049bb133111ebull + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 29;
  return h;
}

}  // namespace

BddManager::BddManager(Var num_vars) : num_vars_(num_vars) {
  // A single terminal node at index 0: reference 0 (regular) is false,
  // reference 1 (complemented) is true.
  nodes_.push_back({kTerminalVar, kFalse, kFalse});
  peak_live_nodes_ = nodes_.size();
  var_true_.resize(num_vars_, kFalse);
  level_of_.resize(num_vars_);
  var_at_level_.resize(num_vars_);
  for (Var v = 0; v < num_vars_; ++v) {
    level_of_[v] = v;
    var_at_level_[v] = v;
  }
  unique_slots_.assign(kInitialUniqueCapacity, 0);
  unique_mask_ = kInitialUniqueCapacity - 1;
  ite_cache_.assign(kInitialCacheCapacity, CacheEntry{});
  cache_mask_ = kInitialCacheCapacity - 1;
}

void BddManager::SeedFrom(const BddManager& other) {
  // Only a freshly constructed manager may be seeded: anything already
  // interned here would collide with the copied arena's indices.
  assert(num_vars_ == 0 && nodes_.size() == 1 && unique_size_ == 0);
  num_vars_ = other.num_vars_;
  nodes_ = other.nodes_;
  var_true_ = other.var_true_;
  unique_slots_ = other.unique_slots_;
  unique_mask_ = other.unique_mask_;
  unique_size_ = other.unique_size_;
  // The variable order travels with the arena: if the template was sifted
  // before freezing, every seeded manager inherits the sifted order, so
  // copied refs and template lookups stay valid with no per-manager fixup.
  level_of_ = other.level_of_;
  var_at_level_ = other.var_at_level_;
  order_is_identity_ = other.order_is_identity_;
  identity_mismatches_ = other.identity_mismatches_;
  free_list_ = other.free_list_;
  var_blocks_ = other.var_blocks_;
  nodes_at_last_sift_ = other.unique_size_;
  // Fresh ITE cache, pre-sized to what MaybeGrowCache would have reached
  // for this arena, so the first post-seed workload does not thrash a
  // too-small cache (growth normally rides on unique-table rehashes, which
  // the copied, already-grown table makes rare).
  std::size_t cache_capacity = kInitialCacheCapacity;
  while (cache_capacity < kMaxCacheCapacity && cache_capacity <= nodes_.size()) {
    cache_capacity *= 2;
  }
  ite_cache_.assign(cache_capacity, CacheEntry{});
  cache_mask_ = cache_capacity - 1;
  // Counters restart: stats and memory accounting describe this manager's
  // own work, with the seeded arena as the baseline.
  peak_live_nodes_ = nodes_.size() - free_list_.size();
  stat_rehashes_ = 0;
  stat_unique_lookups_ = 0;
  stat_unique_probes_ = 0;
  stat_unique_hits_ = 0;
  stat_cache_misses_ = 0;
  stat_cache_hits_ = 0;
  visit_mark_.clear();
  visit_stamp_ = 0;
  assert(CheckInvariants());
}

bool BddManager::CheckInvariants() const {
  if (nodes_.empty() || nodes_[0].var != kTerminalVar) return false;
  // The level maps are mutually inverse permutations of 0..num_vars-1.
  if (level_of_.size() != num_vars_ || var_at_level_.size() != num_vars_) {
    return false;
  }
  for (Var v = 0; v < num_vars_; ++v) {
    if (level_of_[v] >= num_vars_) return false;
    if (var_at_level_[level_of_[v]] != v) return false;
  }
  std::size_t live = 0;
  std::size_t free_count = 0;
  for (BddRef index = 1; index < nodes_.size(); ++index) {
    const Node& n = nodes_[index];
    if (n.var == kFreeVar) {
      ++free_count;
      continue;
    }
    ++live;
    if (n.var >= num_vars_) return false;
    if ((n.high & kComplementBit) != 0) return false;  // Regular-then-edge.
    if (n.low == n.high) return false;                 // Reduced.
    // Children are live and sit strictly below the node in level order.
    const Node& nl = nodes_[n.low >> 1];
    const Node& nh = nodes_[n.high >> 1];
    if ((n.low >> 1) != 0 &&
        (nl.var == kFreeVar || LevelOfNode(nl) <= level_of_[n.var])) {
      return false;
    }
    if ((n.high >> 1) != 0 &&
        (nh.var == kFreeVar || LevelOfNode(nh) <= level_of_[n.var])) {
      return false;
    }
  }
  if (unique_size_ != live) return false;
  if (free_count != free_list_.size()) return false;
  if ((unique_mask_ + 1) != unique_slots_.size()) return false;
  // The table holds exactly the live nodes: no freed slots, no duplicates
  // (count matches), and every live node findable under its key (so seeded
  // managers intern new nodes without duplicating copied ones).
  std::size_t slots_used = 0;
  for (BddRef slot : unique_slots_) {
    if (slot == 0) continue;
    ++slots_used;
    if (slot >= nodes_.size() || nodes_[slot].var == kFreeVar) return false;
  }
  if (slots_used != unique_size_) return false;
  for (BddRef index = 1; index < nodes_.size(); ++index) {
    const Node& n = nodes_[index];
    if (n.var == kFreeVar) continue;
    std::size_t idx = MixHash(n.var, n.low, n.high) & unique_mask_;
    bool found = false;
    while (unique_slots_[idx] != 0) {
      if (unique_slots_[idx] == index) {
        found = true;
        break;
      }
      idx = (idx + 1) & unique_mask_;
    }
    if (!found) return false;
  }
  return true;
}

Var BddManager::AddVars(Var count) {
  Var first = num_vars_;
  num_vars_ += count;
  var_true_.resize(num_vars_, kFalse);
  level_of_.resize(num_vars_);
  var_at_level_.resize(num_vars_);
  // Existing variables occupy levels 0..first-1 (in whatever permutation
  // sifting left), so each new variable takes the level equal to its id.
  for (Var v = first; v < num_vars_; ++v) {
    level_of_[v] = v;
    var_at_level_[v] = v;
  }
  return first;
}

void BddManager::DeclareVarBlock(Var first, Var count) {
  if (count < 2) return;  // A one-variable block is just a variable.
  assert(first + count <= num_vars_);
  var_blocks_.emplace_back(first, count);
}

BddRef BddManager::VarTrue(Var v) {
  assert(v < num_vars_);
  if (var_true_[v] == kFalse) {
    var_true_[v] = MakeNode(v, kFalse, kTrue);
  }
  return var_true_[v];
}

BddRef BddManager::VarFalse(Var v) { return Not(VarTrue(v)); }

BddRef BddManager::MakeNode(Var var, BddRef low, BddRef high) {
  if (low == high) return low;
  // Canonical regular-then-edge invariant: never intern a node whose high
  // edge is complemented. Intern the complemented function instead
  // (¬(v ? h : l) == v ? ¬h : ¬l) and flip the returned reference.
  BddRef out_complement = high & kComplementBit;
  low ^= out_complement;
  high ^= out_complement;
  ++stat_unique_lookups_;
  std::size_t idx = MixHash(var, low, high) & unique_mask_;
  while (true) {
    ++stat_unique_probes_;
    BddRef slot = unique_slots_[idx];
    if (slot == 0) break;  // Empty: the node is new.
    const Node& n = nodes_[slot];
    if (n.var == var && n.low == low && n.high == high) {
      ++stat_unique_hits_;
      return (slot << 1) | out_complement;
    }
    idx = (idx + 1) & unique_mask_;
  }
  BddRef index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
    nodes_[index] = {var, low, high};
  } else {
    index = static_cast<BddRef>(nodes_.size());
    nodes_.push_back({var, low, high});
  }
  const std::size_t live = nodes_.size() - free_list_.size();
  if (live > peak_live_nodes_) peak_live_nodes_ = live;
  unique_slots_[idx] = index;
  // Rehash at 50% load: linear probing stays short and slots are 4 bytes.
  if (++unique_size_ * 2 >= unique_slots_.size()) {
    RehashUnique(unique_slots_.size() * 2);
    MaybeGrowCache();
  }
  return (index << 1) | out_complement;
}

void BddManager::RehashUnique(std::size_t new_capacity) {
  ++stat_rehashes_;
  // Rebuild from the old slot array, not from an arena scan: mid-swap the
  // arena can hold erased or not-yet-rekeyed nodes that must not be
  // reinserted, and after reclamation it holds free slots.
  std::vector<BddRef> old = std::move(unique_slots_);
  unique_slots_.assign(new_capacity, 0);
  unique_mask_ = new_capacity - 1;
  for (BddRef index : old) {
    if (index == 0) continue;
    const Node& n = nodes_[index];
    std::size_t idx = MixHash(n.var, n.low, n.high) & unique_mask_;
    while (unique_slots_[idx] != 0) idx = (idx + 1) & unique_mask_;
    unique_slots_[idx] = index;
  }
}

void BddManager::MaybeGrowCache() {
  // Track the arena: a cache much smaller than the working set thrashes.
  // Entries stay valid across growth (results are canonical refs), so
  // reinsert them; collisions overwrite, which is fine for a lossy cache.
  if (ite_cache_.size() >= kMaxCacheCapacity) return;
  if (nodes_.size() < ite_cache_.size()) return;
  std::vector<CacheEntry> old = std::move(ite_cache_);
  std::size_t new_capacity = old.size() * 2;
  ite_cache_.assign(new_capacity, CacheEntry{});
  cache_mask_ = new_capacity - 1;
  for (const CacheEntry& e : old) {
    if (e.f == 0) continue;
    ite_cache_[MixHash(e.f, e.g, e.h) & cache_mask_] = e;
  }
}

// --- Reordering ------------------------------------------------------------

void BddManager::UniqueInsert(BddRef index) {
  const Node& n = nodes_[index];
  std::size_t idx = MixHash(n.var, n.low, n.high) & unique_mask_;
  while (unique_slots_[idx] != 0) idx = (idx + 1) & unique_mask_;
  unique_slots_[idx] = index;
  if (++unique_size_ * 2 >= unique_slots_.size()) {
    RehashUnique(unique_slots_.size() * 2);
    MaybeGrowCache();
  }
}

void BddManager::UniqueErase(BddRef index) {
  const Node& n = nodes_[index];
  std::size_t hole = MixHash(n.var, n.low, n.high) & unique_mask_;
  while (unique_slots_[hole] != index) hole = (hole + 1) & unique_mask_;
  --unique_size_;
  // Backward-shift deletion: walk the probe chain after the hole and slide
  // back every entry whose home position lies at or before the hole, so
  // linear probing never sees a gap it should have crossed.
  std::size_t probe = hole;
  while (true) {
    unique_slots_[hole] = 0;
    while (true) {
      probe = (probe + 1) & unique_mask_;
      const BddRef slot = unique_slots_[probe];
      if (slot == 0) return;
      const Node& m = nodes_[slot];
      const std::size_t home = MixHash(m.var, m.low, m.high) & unique_mask_;
      if (((probe - home) & unique_mask_) >= ((probe - hole) & unique_mask_)) {
        unique_slots_[hole] = slot;
        hole = probe;
        break;
      }
    }
  }
}

void BddManager::IncRef(BddRef edge) {
  if (!sifting_) return;
  const BddRef idx = edge >> 1;
  if (idx == 0) return;
  ++sift_refs_[idx];
}

void BddManager::DecRef(BddRef edge) {
  if (!sifting_) return;
  const BddRef idx = edge >> 1;
  if (idx == 0) return;
  if (--sift_refs_[idx] != 0) return;
  // Dead: drop it from the table, reclaim the slot, release its children.
  // Recursion depth is bounded by the number of levels below the node.
  UniqueErase(idx);
  const Node dead = nodes_[idx];
  FreeNodeSlot(idx);
  DecRef(dead.low);
  DecRef(dead.high);
}

void BddManager::FreeNodeSlot(BddRef index) {
  nodes_[index] = {kFreeVar, 0, 0};
  free_list_.push_back(index);
}

BddRef BddManager::SwapMakeNode(Var var, BddRef low, BddRef high) {
  if (low == high) {
    IncRef(low);
    return low;
  }
  const BddRef out_complement = high & kComplementBit;
  low ^= out_complement;
  high ^= out_complement;
  std::size_t idx = MixHash(var, low, high) & unique_mask_;
  while (true) {
    const BddRef slot = unique_slots_[idx];
    if (slot == 0) break;
    const Node& n = nodes_[slot];
    if (n.var == var && n.low == low && n.high == high) {
      IncRef(slot << 1);
      return (slot << 1) | out_complement;
    }
    idx = (idx + 1) & unique_mask_;
  }
  BddRef index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
    nodes_[index] = {var, low, high};
  } else {
    index = static_cast<BddRef>(nodes_.size());
    nodes_.push_back({var, low, high});
    if (sifting_) sift_refs_.push_back(0);
  }
  const std::size_t live = nodes_.size() - free_list_.size();
  if (live > peak_live_nodes_) peak_live_nodes_ = live;
  if (sifting_) {
    sift_refs_[index] = 1;  // The caller's edge.
    IncRef(low);
    IncRef(high);
  }
  var_nodes_[var].push_back(index);
  unique_slots_[idx] = index;
  if (++unique_size_ * 2 >= unique_slots_.size()) {
    RehashUnique(unique_slots_.size() * 2);
    MaybeGrowCache();
  }
  return (index << 1) | out_complement;
}

void BddManager::BuildVarNodeLists() {
  var_nodes_.assign(num_vars_, {});
  for (BddRef idx = 1; idx < nodes_.size(); ++idx) {
    const Var v = nodes_[idx].var;
    if (v == kFreeVar) continue;
    var_nodes_[v].push_back(idx);
  }
}

void BddManager::SwapAdjacentLevels(Var level) {
  assert(level + 1 < num_vars_);
  const Var x = var_at_level_[level];
  const Var y = var_at_level_[level + 1];
  // Outside a sift there is no maintained bookkeeping: rebuild the lists
  // for this one swap (and skip refcounting — nothing gets reclaimed).
  if (!sifting_) BuildVarNodeLists();
  std::vector<BddRef> old_x;
  old_x.swap(var_nodes_[x]);
  for (const BddRef idx : old_x) {
    if (nodes_[idx].var != x) continue;  // Stale entry: died or was moved.
    const BddRef t = nodes_[idx].high;
    const BddRef e = nodes_[idx].low;
    const Node& tn = nodes_[t >> 1];
    const Node& en = nodes_[e >> 1];
    const bool t_dep = tn.var == y;
    const bool e_dep = en.var == y;
    if (!t_dep && !e_dep) {
      // Does not touch y: the node rides along to the lower level as-is.
      var_nodes_[x].push_back(idx);
      continue;
    }
    // y-cofactors of the two edges. The then edge t is regular, so its
    // cofactors read straight off its node; the else edge's complement
    // parity propagates onto its children.
    const BddRef t1 = t_dep ? tn.high : t;
    const BddRef t0 = t_dep ? tn.low : t;
    const BddRef ec = e & kComplementBit;
    const BddRef e1 = e_dep ? (en.high ^ ec) : e;
    const BddRef e0 = e_dep ? (en.low ^ ec) : e;
    UniqueErase(idx);
    // n denotes y ? (x ? t1 : e1) : (x ? t0 : e0). The new then child has
    // then-edge t1 — regular, because the y=1 cofactor of a regular edge
    // is regular — so rewriting in place preserves n's stored function
    // exactly: index, parity, and semantics of every outstanding ref to n
    // survive. (A complemented h1 would have forced a parity flip.)
    const BddRef h1 = SwapMakeNode(x, e1, t1);
    const BddRef h0 = SwapMakeNode(x, e0, t0);
    assert(!IsComplement(h1));
    assert(h0 != h1);  // n was reduced, so its swapped form is too.
    if (sifting_) {
      // New edges were counted by SwapMakeNode; release the old ones.
      DecRef(t);
      DecRef(e);
    }
    Node& n = nodes_[idx];  // Re-resolve: SwapMakeNode may reallocate.
    n.var = y;
    n.low = h0;
    n.high = h1;
    UniqueInsert(idx);
    var_nodes_[y].push_back(idx);
  }
  identity_mismatches_ -= (var_at_level_[level] != level) +
                          (var_at_level_[level + 1] != level + 1);
  var_at_level_[level] = y;
  var_at_level_[level + 1] = x;
  level_of_[x] = level + 1;
  level_of_[y] = level;
  identity_mismatches_ +=
      (y != level) + (x != static_cast<Var>(level + 1));
  order_is_identity_ = identity_mismatches_ == 0;
  ++stat_sift_swaps_;
}

std::size_t BddManager::ExchangeUnits(std::vector<std::vector<Var>>& units,
                                      std::size_t i) {
  std::size_t s = 0;  // Top level of unit i.
  for (std::size_t k = 0; k < i; ++k) s += units[k].size();
  const std::size_t a = units[i].size();
  const std::size_t b = units[i + 1].size();
  std::size_t swaps = 0;
  // Bubble each variable of the lower unit up past the upper unit; both
  // units keep their internal order, so blocks stay intact.
  for (std::size_t j = 0; j < b; ++j) {
    for (std::size_t l = s + a + j; l > s + j; --l) {
      SwapAdjacentLevels(static_cast<Var>(l - 1));
      ++swaps;
    }
  }
  std::swap(units[i], units[i + 1]);
  return swaps;
}

void BddManager::SiftUnitToBest(std::vector<std::vector<Var>>& units,
                                std::size_t pos, SiftResult& result) {
  const std::size_t initial = unique_size_;
  const std::size_t limit =
      static_cast<std::size_t>(kSiftMaxGrowth * static_cast<double>(initial)) +
      16;
  std::size_t best = initial;
  std::size_t best_pos = pos;
  std::size_t p = pos;
  // Down to the bottom, then up to the top, recording the live count at
  // every position; abort a direction when the arena balloons.
  while (p + 1 < units.size()) {
    result.swaps += ExchangeUnits(units, p);
    ++p;
    if (unique_size_ < best) {
      best = unique_size_;
      best_pos = p;
    }
    if (unique_size_ > limit) break;
  }
  while (p > 0) {
    result.swaps += ExchangeUnits(units, p - 1);
    --p;
    if (unique_size_ < best) {
      best = unique_size_;
      best_pos = p;
    }
    if (unique_size_ > limit) break;
  }
  // Settle at the best recorded position (ties keep the earliest, so a
  // variable with no strict improvement returns exactly where it started).
  while (p < best_pos) {
    result.swaps += ExchangeUnits(units, p);
    ++p;
  }
  while (p > best_pos) {
    result.swaps += ExchangeUnits(units, p - 1);
    --p;
  }
}

SiftResult BddManager::Sift(SiftMode mode, const std::vector<BddRef>* roots) {
  SiftResult result;
  result.nodes_before = unique_size_;
  result.nodes_after = unique_size_;
  if (num_vars_ < 2 || sifting_) return result;
  sifting_ = true;
  sift_refs_.assign(nodes_.size(), 0);
  if (roots != nullptr) {
    // Mark-and-count from the declared roots (plus the single-variable
    // cache, which VarTrue hands out): reachable nodes get their internal
    // in-degree plus one pin per root occurrence; everything else is dead
    // and reclaimed before any swapping starts.
    BeginVisit();
    visit_stack_.clear();
    auto pin = [&](BddRef r) {
      if (IsTerminal(r)) return;
      ++sift_refs_[r >> 1];  // External pin; never released.
      visit_stack_.push_back(r);
    };
    for (const BddRef r : *roots) pin(r);
    for (const BddRef r : var_true_) {
      if (r != kFalse) pin(r);
    }
    while (!visit_stack_.empty()) {
      const BddRef f = visit_stack_.back();
      visit_stack_.pop_back();
      const BddRef idx = f >> 1;
      if (Visited(idx)) continue;
      MarkVisited(idx);
      const Node& n = nodes_[idx];
      if ((n.low >> 1) != 0) {
        ++sift_refs_[n.low >> 1];
        visit_stack_.push_back(n.low);
      }
      if ((n.high >> 1) != 0) {
        ++sift_refs_[n.high >> 1];
        visit_stack_.push_back(n.high);
      }
    }
    for (BddRef idx = 1; idx < nodes_.size(); ++idx) {
      if (nodes_[idx].var == kFreeVar || Visited(idx)) continue;
      UniqueErase(idx);
      FreeNodeSlot(idx);
    }
  } else {
    // No root information: pin every existing node (an unknown caller may
    // hold a ref to it); only nodes created and orphaned by the sift
    // itself get reclaimed.
    for (BddRef idx = 1; idx < nodes_.size(); ++idx) {
      if (nodes_[idx].var == kFreeVar) continue;
      const Node& n = nodes_[idx];
      ++sift_refs_[idx];
      if ((n.low >> 1) != 0) ++sift_refs_[n.low >> 1];
      if ((n.high >> 1) != 0) ++sift_refs_[n.high >> 1];
    }
  }
  BuildVarNodeLists();

  // Sift units: declared blocks (when contiguous and in group mode) move
  // as indivisible wholes; every other variable moves alone.
  std::vector<int> block_of_var(num_vars_, -1);
  if (mode == SiftMode::kGroups) {
    for (std::size_t b = 0; b < var_blocks_.size(); ++b) {
      const Var first = var_blocks_[b].first;
      const Var count = var_blocks_[b].second;
      Var lo = level_of_[first];
      Var hi = level_of_[first];
      for (Var v = first; v < first + count; ++v) {
        lo = std::min(lo, level_of_[v]);
        hi = std::max(hi, level_of_[v]);
      }
      // A block scattered by an earlier per-variable sift cannot move as a
      // unit; its variables fall back to sifting alone.
      if (hi - lo + 1 != count) continue;
      for (Var v = first; v < first + count; ++v) {
        block_of_var[v] = static_cast<int>(b);
      }
    }
  }
  std::vector<std::vector<Var>> units;
  for (Var level = 0; level < num_vars_;) {
    const Var v = var_at_level_[level];
    const int b = block_of_var[v];
    if (b < 0) {
      units.push_back({v});
      ++level;
    } else {
      const Var count = var_blocks_[static_cast<std::size_t>(b)].second;
      std::vector<Var> unit;
      unit.reserve(count);
      for (Var l = level; l < level + count; ++l) {
        unit.push_back(var_at_level_[l]);
      }
      units.push_back(std::move(unit));
      level += count;
    }
  }

  while (result.passes < kMaxSiftPasses) {
    const std::size_t pass_start = unique_size_;
    // Rudell order: largest units first. Count live nodes per unit through
    // the (lazily filtered) per-var lists; the representative first
    // variable identifies a unit across position changes.
    std::vector<std::pair<std::size_t, Var>> by_size;
    by_size.reserve(units.size());
    for (const auto& unit : units) {
      std::size_t count = 0;
      for (const Var v : unit) {
        for (const BddRef idx : var_nodes_[v]) {
          if (nodes_[idx].var == v) ++count;
        }
      }
      by_size.emplace_back(count, unit.front());
    }
    std::stable_sort(by_size.begin(), by_size.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first != b.first) return a.first > b.first;
                       return a.second < b.second;
                     });
    for (const auto& [count, rep] : by_size) {
      std::size_t pos = 0;
      while (pos < units.size() && units[pos].front() != rep) ++pos;
      if (pos == units.size()) continue;  // Unreachable; defensive.
      SiftUnitToBest(units, pos, result);
    }
    ++result.passes;
    // Converged: the pass bought less than ~2%.
    if (unique_size_ * 50 >= pass_start * 49) break;
  }

  // Reclaimed indices may be reused by later MakeNode calls, so every
  // structure keyed by ref must drop: the computed cache and the
  // declaration-order view's transfer memo. Visit stamps self-invalidate
  // (each traversal bumps the stamp).
  std::fill(ite_cache_.begin(), ite_cache_.end(), CacheEntry{});
  decl_view_memo_.clear();
  decl_view_.reset();
  var_nodes_.clear();
  sift_refs_.clear();
  sifting_ = false;
  nodes_at_last_sift_ = unique_size_;
  result.nodes_after = unique_size_;
  stat_sift_passes_ += result.passes;
  stat_sift_swaps_ += result.swaps;
  stat_sift_nodes_before_ += result.nodes_before;
  stat_sift_nodes_after_ += result.nodes_after;
  assert(CheckInvariants());
  return result;
}

void BddManager::SetAutoSift(SiftMode mode, double trigger_ratio) {
  auto_sift_enabled_ = true;
  auto_sift_mode_ = mode;
  auto_sift_ratio_ = trigger_ratio < 1.1 ? 1.1 : trigger_ratio;
  nodes_at_last_sift_ = unique_size_;
}

void BddManager::MaybeAutoSift() {
  if (!auto_sift_enabled_ || sifting_) return;
  const std::size_t live = unique_size_;
  if (live < kAutoSiftMinNodes) return;
  const std::size_t base =
      std::max<std::size_t>(nodes_at_last_sift_, kAutoSiftMinNodes);
  if (static_cast<double>(live) <
      auto_sift_ratio_ * static_cast<double>(base)) {
    return;
  }
  Sift(auto_sift_mode_, nullptr);
}

BddManager::OrderedView BddManager::DeclarationOrderView(BddRef f) const {
  if (order_is_identity_) return {this, f};
  if (!decl_view_) {
    decl_view_ = std::make_unique<BddManager>(num_vars_);
  } else if (decl_view_->num_vars() < num_vars_) {
    decl_view_->AddVars(num_vars_ - decl_view_->num_vars());
  }
  return {decl_view_.get(), TransferToView(f)};
}

BddRef BddManager::TransferToView(BddRef f) const {
  if (IsTerminal(f)) return f;
  const BddRef parity = f & kComplementBit;
  const BddRef reg = Regular(f);
  if (auto it = decl_view_memo_.find(reg); it != decl_view_memo_.end()) {
    return it->second ^ parity;
  }
  // Rebuild bottom-up; the view's Ite re-canonicalizes under the identity
  // order, so the result is byte-for-byte the DAG an unreordered manager
  // would hold. Recursion depth is bounded by the number of levels.
  const Node& n = nodes_[reg >> 1];
  const BddRef low = TransferToView(n.low);
  const BddRef high = TransferToView(n.high);
  const BddRef r = decl_view_->Ite(decl_view_->VarTrue(n.var), high, low);
  decl_view_memo_.emplace(reg, r);
  return r ^ parity;
}

// --- Boolean operations ----------------------------------------------------

bool BddManager::RankBefore(BddRef a, BddRef b) const {
  // Any deterministic, complement-insensitive total order canonicalizes
  // the commutative triples; comparing arena indices does it without
  // touching node memory, which keeps normalization load-free on the
  // computed-cache hit path (ranking by top variable instead would cost
  // two dependent node loads per And/Or call).
  return (a >> 1) < (b >> 1);
}

bool BddManager::NormalizeIte(BddRef& f, BddRef& g, BddRef& h, bool& negate,
                              BddRef& result) const {
  negate = false;
  // Constant condition.
  if (f == kTrue) { result = g; return true; }
  if (f == kFalse) { result = h; return true; }
  // Operands equal (or complementary) to the condition collapse to
  // constants: Ite(f,f,h)=Ite(f,1,h), Ite(f,¬f,h)=Ite(f,0,h),
  // Ite(f,g,f)=Ite(f,g,0), Ite(f,g,¬f)=Ite(f,g,1).
  if (g == f) {
    g = kTrue;
  } else if (g == Not(f)) {
    g = kFalse;
  }
  if (h == f) {
    h = kFalse;
  } else if (h == Not(f)) {
    h = kTrue;
  }
  // Trivial results.
  if (g == h) { result = g; return true; }
  if (g == kTrue && h == kFalse) { result = f; return true; }
  if (g == kFalse && h == kTrue) { result = Not(f); return true; }
  // Commutative forms: order the two interchangeable operands by rank so
  // e.g. Or(f,h) and Or(h,f) share one cache key. Each rewrite below is an
  // identity on the denoted function; the swapped-in condition is never a
  // terminal (the trivial checks above removed those cases).
  if (g == kTrue) {  // Ite(f,1,h) == Ite(h,1,f)            (f ∨ h)
    if (RankBefore(h, f)) std::swap(f, h);
  } else if (h == kFalse) {  // Ite(f,g,0) == Ite(g,f,0)    (f ∧ g)
    if (RankBefore(g, f)) std::swap(f, g);
  } else if (g == kFalse) {  // Ite(f,0,h) == Ite(¬h,0,¬f)  (¬f ∧ h)
    if (RankBefore(h, f)) {
      BddRef t = f;
      f = Not(h);
      h = Not(t);
    }
  } else if (h == kTrue) {  // Ite(f,g,1) == Ite(¬g,¬f,1)   (¬f ∨ g)
    if (RankBefore(g, f)) {
      BddRef t = f;
      f = Not(g);
      g = Not(t);
    }
  } else if (g == Not(h)) {  // Ite(f,g,¬g) == Ite(g,f,¬f)  (f ⟺ g)
    if (RankBefore(g, f)) {
      BddRef t = f;
      f = g;
      g = t;
      h = Not(t);
    }
  }
  // Complement canonicalization: make the condition regular
  // (Ite(¬f,g,h) == Ite(f,h,g)), then the then-operand
  // (Ite(f,g,h) == ¬Ite(f,¬g,¬h)), recording the pending negation.
  if (IsComplement(f)) {
    f = Regular(f);
    std::swap(g, h);
  }
  if (IsComplement(g)) {
    g = Regular(g);
    h = Not(h);
    negate = true;
  }
  return false;
}

BddRef BddManager::Ite(BddRef f, BddRef g, BddRef h) {
  // The growth trigger runs only between top-level operations: a sift
  // mid-recursion would invalidate cofactors and branch variables held in
  // in-flight frames (Exists reenters through Or, hence the depth count).
  if (op_depth_ == 0) MaybeAutoSift();
  ++op_depth_;
  struct DepthGuard {
    std::uint32_t& depth;
    ~DepthGuard() { --depth; }
  } depth_guard{op_depth_};
  // Standardize up front: trivial calls (including every Not/constant
  // form) resolve here without touching the frame stack, and the
  // canonical triple gives warm calls a single cache probe.
  bool negate;
  BddRef resolved;
  if (NormalizeIte(f, g, h, negate, resolved)) return resolved;
  {
    const CacheEntry& e = ite_cache_[MixHash(f, g, h) & cache_mask_];
    if (e.f == f && e.g == g && e.h == h) {
      ++stat_cache_hits_;
      return negate ? Not(e.result) : e.result;
    }
  }
  ++stat_cache_misses_;

  ite_frames_.clear();
  ite_values_.clear();
  // The root triple is already standardized and its miss counted, so it
  // enters at the expansion state; its pending negation is applied on
  // return below rather than carried in the frame.
  ite_frames_.push_back({f, g, h, 0, 0, 0, 0, 0, kStateExpand, 0});

  while (!ite_frames_.empty()) {
    IteFrame& fr = ite_frames_.back();
    switch (fr.state) {
      case 0: {
        bool sub_negate;
        BddRef sub_resolved;
        if (NormalizeIte(fr.f, fr.g, fr.h, sub_negate, sub_resolved)) {
          ite_values_.push_back(sub_resolved);
          ite_frames_.pop_back();
          break;
        }
        fr.negate = sub_negate ? kComplementBit : 0;
        const CacheEntry& e =
            ite_cache_[MixHash(fr.f, fr.g, fr.h) & cache_mask_];
        if (e.f == fr.f && e.g == fr.g && e.h == fr.h) {
          ++stat_cache_hits_;
          ite_values_.push_back(e.result ^ fr.negate);
          ite_frames_.pop_back();
          break;
        }
        ++stat_cache_misses_;
        [[fallthrough]];
      }
      case kStateExpand: {
        // Cofactor at the variable topmost in the *current level order*
        // (under reordering, variable ids no longer rank levels). The
        // condition is regular after normalization; g and h may carry
        // complement bits, which propagate onto their child edges.
        const Node& nf = nodes_[fr.f >> 1];
        const Node& ng = nodes_[fr.g >> 1];
        const Node& nh = nodes_[fr.h >> 1];
        const Var lf = level_of_[nf.var];  // f is never terminal here.
        const Var lg = LevelOfNode(ng);
        const Var lh = LevelOfNode(nh);
        const Var top_level = std::min({lf, lg, lh});
        const Var top = var_at_level_[top_level];

        BddRef cg = fr.g & kComplementBit;
        BddRef ch = fr.h & kComplementBit;
        BddRef f0 = lf == top_level ? nf.low : fr.f;
        BddRef g0 = lg == top_level ? ng.low ^ cg : fr.g;
        BddRef h0 = lh == top_level ? nh.low ^ ch : fr.h;
        fr.f1 = lf == top_level ? nf.high : fr.f;
        fr.g1 = lg == top_level ? ng.high ^ cg : fr.g;
        fr.h1 = lh == top_level ? nh.high ^ ch : fr.h;
        fr.top = top;
        fr.state = 1;
        // push_back may invalidate `fr`; it is not used past this point.
        ite_frames_.push_back({f0, g0, h0, 0, 0, 0, 0, 0, 0, 0});
        break;
      }
      case 1: {
        fr.low = ite_values_.back();
        ite_values_.pop_back();
        fr.state = 2;
        ite_frames_.push_back({fr.f1, fr.g1, fr.h1, 0, 0, 0, 0, 0, 0, 0});
        break;
      }
      default: {  // state 2: both cofactors resolved.
        BddRef high = ite_values_.back();
        ite_values_.pop_back();
        BddRef result = MakeNode(fr.top, fr.low, high);
        ite_cache_[MixHash(fr.f, fr.g, fr.h) & cache_mask_] = {fr.f, fr.g,
                                                               fr.h, result};
        ite_values_.push_back(result ^ fr.negate);
        ite_frames_.pop_back();
        break;
      }
    }
  }
  assert(ite_values_.size() == 1);
  return negate ? Not(ite_values_.back()) : ite_values_.back();
}

BddStats BddManager::Stats() const {
  BddStats stats;
  stats.arena_size = nodes_.size() - free_list_.size();
  stats.arena_free = free_list_.size();
  stats.unique_capacity = unique_slots_.size();
  stats.unique_lookups = stat_unique_lookups_;
  stats.unique_probes = stat_unique_probes_;
  stats.unique_hits = stat_unique_hits_;
  stats.cache_capacity = ite_cache_.size();
  stats.cache_lookups = stat_cache_hits_ + stat_cache_misses_;
  stats.cache_hits = stat_cache_hits_;
  stats.sift_passes = stat_sift_passes_;
  stats.sift_swaps = stat_sift_swaps_;
  stats.sift_nodes_before = stat_sift_nodes_before_;
  stats.sift_nodes_after = stat_sift_nodes_after_;
  return stats;
}

BddMemoryStats BddManager::MemoryStats() const {
  BddMemoryStats mem;
  mem.node_arena_bytes = nodes_.capacity() * sizeof(Node);
  mem.unique_table_bytes = unique_slots_.capacity() * sizeof(BddRef);
  mem.unique_load_factor =
      unique_slots_.empty()
          ? 0.0
          : static_cast<double>(unique_size_) /
                static_cast<double>(unique_slots_.size());
  mem.ite_cache_bytes = ite_cache_.capacity() * sizeof(CacheEntry);
  mem.scratch_bytes = var_true_.capacity() * sizeof(BddRef) +
                      level_of_.capacity() * sizeof(Var) +
                      var_at_level_.capacity() * sizeof(Var) +
                      free_list_.capacity() * sizeof(BddRef) +
                      sift_refs_.capacity() * sizeof(std::uint32_t) +
                      ite_frames_.capacity() * sizeof(IteFrame) +
                      ite_values_.capacity() * sizeof(BddRef) +
                      visit_mark_.capacity() * sizeof(std::uint32_t) +
                      visit_stack_.capacity() * sizeof(BddRef);
  if (decl_view_) {
    mem.scratch_bytes += decl_view_->MemoryStats().total_bytes;
  }
  mem.total_bytes = mem.node_arena_bytes + mem.unique_table_bytes +
                    mem.ite_cache_bytes + mem.scratch_bytes;
  mem.peak_live_nodes = peak_live_nodes_;
  mem.rehash_count = stat_rehashes_;
  return mem;
}

double BddManager::SatCount(BddRef f) {
  std::unordered_map<BddRef, double> memo;
  return SatCountRec(f, memo);
}

// Counts assignments over all num_vars_ variables. The memo is keyed by
// node *index* and stores the count of the node's regular function; a
// complemented reference reads the same entry and returns the complement
// against 2^num_vars. Counts of a node's children are always even (each
// child is independent of the parent's variable), so the halving below is
// exact in double precision up to the documented 2^53 bound. The 0.5 ×
// (low + high) form needs no level arithmetic at all, which makes the
// count independent of the variable order.
double BddManager::SatCountRec(BddRef f,
                               std::unordered_map<BddRef, double>& memo) {
  if (f == kFalse) return 0.0;
  if (f == kTrue) return std::ldexp(1.0, static_cast<int>(num_vars_));
  const BddRef index = f >> 1;
  double regular;
  if (auto it = memo.find(index); it != memo.end()) {
    regular = it->second;
  } else {
    const Node& n = nodes_[index];
    regular = 0.5 * (SatCountRec(n.low, memo) + SatCountRec(n.high, memo));
    memo.emplace(index, regular);
  }
  return (f & kComplementBit) != 0
             ? std::ldexp(1.0, static_cast<int>(num_vars_)) - regular
             : regular;
}

void BddManager::BeginVisit() const {
  if (visit_mark_.size() < nodes_.size()) {
    visit_mark_.resize(nodes_.size(), 0);
  }
  if (++visit_stamp_ == 0) {  // Stamp wrapped: reset all marks once.
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0);
    visit_stamp_ = 1;
  }
}

std::size_t BddManager::NodeCount(BddRef f) const {
  BeginVisit();
  std::size_t count = 0;
  visit_stack_.clear();
  visit_stack_.push_back(f);
  while (!visit_stack_.empty()) {
    BddRef n = visit_stack_.back();
    visit_stack_.pop_back();
    if (IsTerminal(n) || Visited(n >> 1)) continue;
    MarkVisited(n >> 1);
    ++count;
    visit_stack_.push_back(nodes_[n >> 1].low);
    visit_stack_.push_back(nodes_[n >> 1].high);
  }
  return count;
}

std::vector<Var> BddManager::Support(BddRef f) const {
  BeginVisit();
  std::vector<Var> vars;
  visit_stack_.clear();
  visit_stack_.push_back(f);
  while (!visit_stack_.empty()) {
    BddRef n = visit_stack_.back();
    visit_stack_.pop_back();
    if (IsTerminal(n) || Visited(n >> 1)) continue;
    MarkVisited(n >> 1);
    vars.push_back(nodes_[n >> 1].var);
    visit_stack_.push_back(nodes_[n >> 1].low);
    visit_stack_.push_back(nodes_[n >> 1].high);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::optional<Cube> BddManager::AnySat(BddRef f) const {
  // Branch picking is level-order-sensitive: run on the declaration-order
  // view so the chosen cube matches an unreordered manager bit for bit.
  if (!order_is_identity_) {
    const OrderedView view = DeclarationOrderView(f);
    return view.mgr->AnySat(view.ref);
  }
  if (f == kFalse) return std::nullopt;
  Cube cube(num_vars_, -1);
  while (f != kTrue) {
    BddRef high = NodeHigh(f);
    if (high != kFalse) {
      cube[NodeVar(f)] = 1;
      f = high;
    } else {
      cube[NodeVar(f)] = 0;
      f = NodeLow(f);
    }
  }
  return cube;
}

std::optional<Cube> BddManager::MinSat(BddRef f) const {
  // The "prefer low, top variable first" walk is only lexicographic in the
  // declaration order; reordered managers answer through the view.
  if (!order_is_identity_) {
    const OrderedView view = DeclarationOrderView(f);
    return view.mgr->MinSat(view.ref);
  }
  if (f == kFalse) return std::nullopt;
  Cube cube(num_vars_, 0);  // Don't-cares resolve to 0 (lexicographic least).
  while (f != kTrue) {
    BddRef low = NodeLow(f);
    if (low != kFalse) {
      cube[NodeVar(f)] = 0;
      f = low;
    } else {
      cube[NodeVar(f)] = 1;
      f = NodeHigh(f);
    }
  }
  return cube;
}

void BddManager::ForEachSatPath(
    BddRef f, const std::function<void(const Cube&)>& fn) const {
  // Path enumeration order and the paths themselves (which variables
  // appear in each partial cube) depend on the level order; the view keeps
  // both identical to an unreordered run.
  if (!order_is_identity_) {
    const OrderedView view = DeclarationOrderView(f);
    view.mgr->ForEachSatPath(view.ref, fn);
    return;
  }
  if (f == kFalse) return;
  Cube cube(num_vars_, -1);
  std::function<void(BddRef)> rec = [&](BddRef g) {
    if (g == kFalse) return;
    if (g == kTrue) {
      fn(cube);
      return;
    }
    Var v = NodeVar(g);
    cube[v] = 0;
    rec(NodeLow(g));
    cube[v] = 1;
    rec(NodeHigh(g));
    cube[v] = -1;
  };
  rec(f);
}

BddRef BddManager::Exists(BddRef f, const std::vector<bool>& quantified) {
  // Same safepoint discipline as Ite: the recursion below assumes a frozen
  // order (its MakeNode(n.var, ...) rebuild relies on cofactor levels), so
  // the trigger runs only here, never inside the nested Or calls.
  if (op_depth_ == 0) MaybeAutoSift();
  ++op_depth_;
  struct DepthGuard {
    std::uint32_t& depth;
    ~DepthGuard() { --depth; }
  } depth_guard{op_depth_};
  std::unordered_map<BddRef, BddRef> memo;
  return ExistsRec(f, quantified, memo);
}

BddRef BddManager::ExistsRec(BddRef f, const std::vector<bool>& quantified,
                             std::unordered_map<BddRef, BddRef>& memo) {
  if (IsTerminal(f)) return f;
  // The memo is keyed by the full reference: quantification does not
  // commute with complement (∃v.¬f ≠ ¬∃v.f), so f and ¬f memoize
  // separately even though they share nodes.
  if (auto it = memo.find(f); it != memo.end()) return it->second;
  const BddRef c = f & kComplementBit;
  const Node n = nodes_[f >> 1];  // Copy: nodes_ may reallocate during recursion.
  BddRef low = ExistsRec(n.low ^ c, quantified, memo);
  BddRef high = ExistsRec(n.high ^ c, quantified, memo);
  BddRef result = (n.var < quantified.size() && quantified[n.var])
                      ? Or(low, high)
                      : MakeNode(n.var, low, high);
  memo.emplace(f, result);
  return result;
}

}  // namespace campion::bdd
