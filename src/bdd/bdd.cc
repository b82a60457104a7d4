#include "bdd/bdd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace campion::bdd {
namespace {

// The unique table starts small and doubles with the arena. The ITE cache
// keeps one size: letting it grow with the arena (to 2^21 entries) gained
// no hits on the example and benchmark pairs (EXPERIMENTS.md).
constexpr std::size_t kInitialUniqueCapacity = 1u << 13;
constexpr std::size_t kCacheCapacity = 1u << 12;

// IteFrame::state value for a frame whose triple is already standardized
// and whose cache miss is already counted (the root of each Ite call);
// states 0..2 are the raw-enter / low-done / high-done progression.
constexpr std::uint8_t kStateExpand = 3;

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
  var_true_.resize(num_vars_, kFalse);
  unique_slots_.assign(kInitialUniqueCapacity, 0);
  unique_mask_ = kInitialUniqueCapacity - 1;
  ite_cache_.assign(kCacheCapacity, CacheEntry{});
  cache_mask_ = kCacheCapacity - 1;
}

void BddManager::Reset() {
  // Undo the arena's inserts newest first. The table is the one that
  // inserting the arena in order builds (RehashUnique keeps it so), so a
  // node's probe path holds only older nodes, all still in place when it is
  // removed, and clearing its slot restores the table it was inserted into.
  for (BddRef index = static_cast<BddRef>(nodes_.size()) - 1; index > 0;
       --index) {
    const std::size_t slot = UniqueSlotOf(index);
    assert(unique_slots_[slot] == index);
    unique_slots_[slot] = 0;
  }
  nodes_.resize(1);
  unique_size_ = 0;
  std::fill(ite_cache_.begin(), ite_cache_.end(), CacheEntry{});
  num_vars_ = 0;
  var_true_.clear();
  stat_rehashes_ = 0;
  stat_unique_lookups_ = 0;
  stat_unique_probes_ = 0;
  stat_unique_hits_ = 0;
  stat_cache_misses_ = 0;
  stat_cache_hits_ = 0;
}

std::size_t BddManager::UniqueSlotOf(BddRef index) const {
  const Node& n = nodes_[index];
  std::size_t idx = MixHash(n.var, n.low, n.high) & unique_mask_;
  while (unique_slots_[idx] != 0 && unique_slots_[idx] != index) {
    idx = (idx + 1) & unique_mask_;
  }
  return idx;
}

bool BddManager::CheckInvariants() const {
  if (nodes_.empty() || nodes_[0].var != kTerminalVar) return false;
  for (BddRef index = 1; index < nodes_.size(); ++index) {
    const Node& n = nodes_[index];
    if (n.var >= num_vars_) return false;
    if ((n.high & kComplementBit) != 0) return false;  // Regular-then-edge.
    if (n.low == n.high) return false;                 // Reduced.
    // Children branch strictly below the node (the terminal's var ranks
    // last).
    if (nodes_[n.low >> 1].var <= n.var) return false;
    if (nodes_[n.high >> 1].var <= n.var) return false;
  }
  if (unique_size_ + 1 != nodes_.size()) return false;
  if ((unique_mask_ + 1) != unique_slots_.size()) return false;
  // The table holds exactly the arena: no duplicates (count matches), and
  // every node findable under its key (so new nodes are never interned
  // twice).
  std::size_t slots_used = 0;
  for (BddRef slot : unique_slots_) {
    if (slot == 0) continue;
    ++slots_used;
    if (slot >= nodes_.size()) return false;
  }
  if (slots_used != unique_size_) return false;
  for (BddRef index = 1; index < nodes_.size(); ++index) {
    if (unique_slots_[UniqueSlotOf(index)] != index) return false;
  }
  return true;
}

Var BddManager::AddVars(Var count) {
  Var first = num_vars_;
  num_vars_ += count;
  var_true_.resize(num_vars_, kFalse);
  return first;
}

BddRef BddManager::VarTrue(Var v) {
  assert(v < num_vars_);
  if (var_true_[v] == kFalse) {
    var_true_[v] = MakeNode(v, kFalse, kTrue);
  }
  return var_true_[v];
}

BddRef BddManager::VarFalse(Var v) { return Not(VarTrue(v)); }

BddRef BddManager::Branch(Var v, BddRef low, BddRef high) {
  // The terminal's var is kTerminalVar, above every variable id, so
  // constant children always pass.
  if (v >= num_vars_ || nodes_[low >> 1].var <= v ||
      nodes_[high >> 1].var <= v) {
    throw std::logic_error(
        "BddManager::Branch: variable not above both children in the order");
  }
  return MakeNode(v, low, high);
}

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
  const BddRef index = static_cast<BddRef>(nodes_.size());
  nodes_.push_back({var, low, high});
  unique_slots_[idx] = index;
  // Rehash at 50% load: linear probing stays short and slots are 4 bytes.
  if (++unique_size_ * 2 >= unique_slots_.size()) {
    RehashUnique(unique_slots_.size() * 2);
  }
  return (index << 1) | out_complement;
}

void BddManager::RehashUnique(std::size_t new_capacity) {
  ++stat_rehashes_;
  unique_slots_.assign(new_capacity, 0);
  unique_mask_ = new_capacity - 1;
  // In arena order, so the table stays the one that inserting the arena in
  // order builds (Reset relies on it).
  for (BddRef index = 1; index < nodes_.size(); ++index) {
    unique_slots_[UniqueSlotOf(index)] = index;
  }
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
        // Cofactor at the topmost (smallest) variable; the terminal's
        // kTerminalVar never wins. The condition is regular after
        // normalization; g and h may carry complement bits, which
        // propagate onto their child edges.
        const Node& nf = nodes_[fr.f >> 1];
        const Node& ng = nodes_[fr.g >> 1];
        const Node& nh = nodes_[fr.h >> 1];
        const Var top = std::min({nf.var, ng.var, nh.var});

        BddRef cg = fr.g & kComplementBit;
        BddRef ch = fr.h & kComplementBit;
        BddRef f0 = nf.var == top ? nf.low : fr.f;
        BddRef g0 = ng.var == top ? ng.low ^ cg : fr.g;
        BddRef h0 = nh.var == top ? nh.low ^ ch : fr.h;
        fr.f1 = nf.var == top ? nf.high : fr.f;
        fr.g1 = ng.var == top ? ng.high ^ cg : fr.g;
        fr.h1 = nh.var == top ? nh.high ^ ch : fr.h;
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
  stats.arena_size = nodes_.size();
  stats.unique_capacity = unique_slots_.size();
  stats.unique_lookups = stat_unique_lookups_;
  stats.unique_probes = stat_unique_probes_;
  stats.unique_hits = stat_unique_hits_;
  stats.cache_capacity = ite_cache_.size();
  stats.cache_lookups = stat_cache_hits_ + stat_cache_misses_;
  stats.cache_hits = stat_cache_hits_;
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
                      ite_frames_.capacity() * sizeof(IteFrame) +
                      ite_values_.capacity() * sizeof(BddRef) +
                      visit_mark_.capacity() * sizeof(std::uint32_t) +
                      visit_stack_.capacity() * sizeof(BddRef);
  mem.total_bytes = mem.node_arena_bytes + mem.unique_table_bytes +
                    mem.ite_cache_bytes + mem.scratch_bytes;
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
// (low + high) form needs no level arithmetic at all.
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
  // "Prefer low, top variable first" is lexicographic because the order
  // is the declaration order.
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
