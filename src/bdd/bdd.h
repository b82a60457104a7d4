#pragma once

// A from-scratch reduced ordered binary decision diagram (ROBDD) package
// with complement (attributed) edges.
//
// This is Campion's symbolic substrate, standing in for the JavaBDD library
// used by the paper. Sets of packets, route advertisements, and IP prefix
// ranges are all encoded as BDDs over a variable order (see src/encode).
// Managers are cheap and each differencing task owns one, so nodes live
// for the task and nothing needs collecting; the reordering pass below
// reclaims provably dead nodes through a free list.
//
// The kernel is laid out for speed, CUDD-style:
//   * references carry a complement bit: a BddRef packs a node-arena index
//     in its upper 31 bits and a complement flag in bit 0, so negation is a
//     single XOR — no traversal, no cache traffic — and a function and its
//     complement share one DAG (roughly halving live nodes on
//     negation-heavy workloads such as Campion's A ∧ ¬B difference checks);
//   * canonicity is kept by the regular-then-edge invariant: MakeNode never
//     interns a node whose high (then) edge is complemented — it interns
//     the complemented function instead and flips the returned reference;
//   * Ite normalizes every call to a CUDD-style standard triple (trivial
//     and constant-operand rewrites, commutative argument reordering by
//     top-variable rank, then complement canonicalization so the first and
//     second operands are regular) before consulting the computed cache,
//     so Ite(f,g,h), Ite(¬f,h,g), and complemented-result variants such as
//     Or(¬f,¬g) vs ¬And(f,g) all fold into one cache entry;
//   * the unique table is a single flat open-addressing array (power-of-two
//     capacity, linear probing, amortized doubling) whose slots are node
//     indices — keys live in the node arena itself, so a probe touches at
//     most two cache lines;
//   * the ITE computed table is a lossy direct-mapped cache (fixed-size
//     power-of-two array, overwrite on collision) so memoization costs O(1)
//     with zero allocation on the hot path;
//   * ITE itself runs on an explicit frame stack, so pathological inputs
//     cannot overflow the machine stack;
//   * traversals (NodeCount, Support) reuse a per-manager visited-stamp
//     vector instead of allocating set containers.
//
// Dynamic variable reordering (Rudell sifting). The variable order is no
// longer fixed at declaration time: the manager keeps a level↔index
// indirection (level_of_ / var_at_level_), nodes store variable *ids*, and
// all order-sensitive decisions (Ite's top-variable selection, invariant
// checks) compare levels. The reorder primitive is an in-place adjacent
// level swap: a node labeled x whose children branch on the variable y
// directly below is rewritten to branch on y first, keeping its arena
// index, its complement parity, and — critically — the exact Boolean
// function it denotes, so every outstanding BddRef (including refs held by
// managers seeded from this one) survives any sequence of swaps untouched.
// The rewrite preserves the regular-then-edge invariant by construction:
// the new then-child (x ? T|y=1 : E|y=1) has a regular then-edge because
// the original then-edge T is regular and the y=1 cofactor of a regular
// edge is regular. Sift() runs Rudell's algorithm over single variables or
// declared variable blocks (DeclareVarBlock), reclaiming dead nodes when
// the caller can name its live roots; an auto-sift trigger (SetAutoSift)
// reorders CUDD-style when the arena grows past a ratio since the last
// sift, checked only between top-level operations so no in-flight
// recursion ever observes the order changing.
//
// Ordering changes node counts, never semantics — but a few queries walk
// the DAG in level order and would otherwise *present* differently
// (AnySat/MinSat/ForEachSatPath pick branches top-down). Those are routed
// through DeclarationOrderView(), which lazily rebuilds the queried
// function inside a private identity-order manager; by canonicity the
// rebuilt DAG is exactly what an unreordered manager would hold, so
// reports stay byte-identical whether reordering ran or not.
//
// Node references (BddRef) are only meaningful with respect to the manager
// that produced them. There is a single terminal node at arena index 0;
// reference 0 (the terminal, regular) is false and reference 1 (the
// terminal, complemented) is true. Equal references denote equal Boolean
// functions (canonicity), so equivalence checks are O(1), and
// Not(f) == f ^ 1 for every f. Functions touching node structure directly
// (NodeLow/NodeHigh) resolve the complement parity for the caller: they
// return the cofactors of the *function* the reference denotes, so
// structural walks in src/encode and tests need no parity bookkeeping.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace campion::bdd {

using BddRef = std::uint32_t;
using Var = std::uint32_t;

// Bit 0 of a BddRef is the complement flag; the node index is ref >> 1.
inline constexpr BddRef kComplementBit = 1;

inline constexpr BddRef kFalse = 0;  // Terminal node 0, regular.
inline constexpr BddRef kTrue = 1;   // Terminal node 0, complemented.

// A (possibly partial) truth assignment: one entry per variable,
// -1 = don't care, 0 = false, 1 = true.
using Cube = std::vector<std::int8_t>;

// What Sift() moves: single variables, or the blocks declared with
// DeclareVarBlock as indivisible units (variables without a block still
// move alone). Group sifting keeps multi-bit encoded fields (addresses,
// ports) contiguous, which the interval-extraction walks in src/encode
// are fastest on.
enum class SiftMode {
  kVars,
  kGroups,
};

// One Sift() invocation's outcome. Node counts are live internal nodes
// (the terminal and free-listed slots excluded).
struct SiftResult {
  std::size_t passes = 0;        // Rudell passes executed.
  std::size_t swaps = 0;         // Adjacent-level swaps performed.
  std::size_t nodes_before = 0;  // Live nodes entering the sift.
  std::size_t nodes_after = 0;   // Live nodes after settling at the best order.
};

// Kernel instrumentation, exposed through BddManager::Stats(). Counters
// accumulate over the manager's lifetime; benchmarks snapshot them before
// and after a workload to report per-phase numbers.
struct BddStats {
  std::size_t arena_size = 0;       // Live nodes, including the terminal
                                    // (free-listed slots excluded).
  std::size_t arena_free = 0;       // Reclaimed slots awaiting reuse.
  std::size_t unique_capacity = 0;  // Open-addressing table slots.
  std::uint64_t unique_lookups = 0; // MakeNode calls that consulted the table.
  std::uint64_t unique_probes = 0;  // Total probe steps across all lookups.
  std::uint64_t unique_hits = 0;    // Lookups that found an existing node.
  std::size_t cache_capacity = 0;   // Computed-cache slots.
  std::uint64_t cache_lookups = 0;  // ITE cache probes.
  std::uint64_t cache_hits = 0;     // ITE cache hits.
  std::uint64_t sift_passes = 0;    // Rudell passes across all Sift() calls.
  std::uint64_t sift_swaps = 0;     // Adjacent-level swaps ever performed.
  std::uint64_t sift_nodes_before = 0;  // Sum of live nodes entering sifts.
  std::uint64_t sift_nodes_after = 0;   // Sum of live nodes after sifts.

  double CacheHitRate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
  double AvgProbeLength() const {
    return unique_lookups == 0
               ? 0.0
               : static_cast<double>(unique_probes) /
                     static_cast<double>(unique_lookups);
  }
};

// Memory accounting, exposed through BddManager::MemoryStats(). Bytes are
// computed from container capacities (what the manager actually reserved,
// not just what it filled), so the numbers add up to the manager's real
// heap footprint. All fields are deterministic for a deterministic
// workload — the same sequence of operations reports the same bytes at any
// thread count, which keeps traces comparable across runs.
struct BddMemoryStats {
  std::size_t node_arena_bytes = 0;    // nodes_ capacity, in bytes.
  std::size_t unique_table_bytes = 0;  // Open-addressing slot array.
  double unique_load_factor = 0.0;     // Interned nodes / slots (< 0.5).
  std::size_t ite_cache_bytes = 0;     // Direct-mapped computed cache.
  std::size_t scratch_bytes = 0;       // Stacks, stamps, per-var caches.
  std::size_t total_bytes = 0;         // Sum of the byte fields above.
  std::size_t peak_live_nodes = 0;     // High-water live node count.
  std::uint64_t rehash_count = 0;      // Unique-table growth events.
};

class BddManager {
 public:
  // `num_vars` fixes the declaration order up front (variables
  // 0..num_vars-1, variable 0 at the top). More variables may be added
  // later with AddVars; Sift() may rearrange levels afterwards.
  explicit BddManager(Var num_vars = 0);

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // Seeds this manager with a copy-on-write snapshot of `other`'s arena:
  // copies the node arena, unique table, free list, block declarations,
  // and variable order verbatim, so every BddRef produced by `other`
  // denotes the same function here — refs are index+parity stable because
  // nodes keep their arena indices. If `other` was sifted, the sifted
  // order is inherited (this is why the encoding template reorders once,
  // before seeding). The ITE computed cache is NOT copied (it is a lossy
  // performance structure whose contents depend on `other`'s call history;
  // a fresh cache sized to the seeded arena behaves identically and keeps
  // managers independent), and all instrumentation counters restart at
  // zero so per-task stats measure only post-seed work. This manager must
  // be freshly constructed (no variables, no nodes beyond the terminal);
  // `other` is typically a frozen encoding template shared read-only
  // across concurrent seeds.
  void SeedFrom(const BddManager& other);

  // Structural self-check: terminal at index 0, level_of_/var_at_level_
  // mutually inverse, every live node obeys the regular-then-edge
  // invariant and sits strictly above its children in the current level
  // order, free-listed slots are marked and unreferenced by the unique
  // table, and the unique table indexes exactly the live arena. Used by
  // tests and (in debug builds) by SeedFrom/Sift to prove refs stay
  // index+parity stable.
  bool CheckInvariants() const;

  Var num_vars() const { return num_vars_; }
  // Extends the order with `count` fresh variables at the bottom levels;
  // returns the index of the first new variable.
  Var AddVars(Var count);

  // --- Variable order ------------------------------------------------------
  // Declares variables [first, first+count) an indivisible block for
  // SiftMode::kGroups: group sifting moves the block as a unit and never
  // reorders within it. Blocks must not overlap. Declared once, at layout
  // construction time, while the order is still the declaration order.
  void DeclareVarBlock(Var first, Var count);

  // Current level of a variable / variable at a level. Levels permute
  // under Sift(); variable ids (and therefore refs) never change.
  Var LevelOf(Var v) const { return level_of_[v]; }
  Var VarAtLevel(Var level) const { return var_at_level_[level]; }
  bool HasIdentityOrder() const { return order_is_identity_; }

  // Swaps the variables at `level` and `level+1` by rewriting the upper
  // level's nodes in place. Every outstanding ref keeps its index, parity,
  // and denoted function; canonicity and the regular-then-edge invariant
  // are preserved. Exposed for tests; Sift() is the intended driver (when
  // called outside a sift no dead-node reclamation happens, so the swap
  // can only grow the arena).
  void SwapAdjacentLevels(Var level);

  // Rudell sifting: moves each variable (or declared block, in kGroups
  // mode) through every level, settling at the position minimizing live
  // nodes, processing the largest variables first and aborting a direction
  // when the arena grows past a ratio of its starting size. When `roots`
  // is given, only nodes reachable from `roots` (plus the single-variable
  // cache) are kept live and everything else is reclaimed to the free
  // list — callers that can name their roots (the encoding template) get
  // dead-node collection for free. Without roots every existing node is
  // pinned (an unknown caller may hold a ref to it), so only nodes created
  // and orphaned during the sift itself are reclaimed. The ITE computed
  // cache is invalidated (reclaimed indices may be reused by later
  // MakeNode calls, so stale entries could alias new nodes).
  SiftResult Sift(SiftMode mode, const std::vector<BddRef>* roots = nullptr);

  // Enables the CUDD-style growth trigger: before a top-level Ite/Exists,
  // if live nodes exceed `trigger_ratio` times the live count at the last
  // sift (and a small floor), Sift(mode) runs in pin-all mode. The check
  // never fires inside an in-flight operation (a reentrancy counter guards
  // it), so recursions never observe the order changing under them.
  void SetAutoSift(SiftMode mode, double trigger_ratio);
  void DisableAutoSift() { auto_sift_enabled_ = false; }

  // An order-insensitive handle on f: `mgr->...(ref)` queried on the
  // returned pair behaves exactly as `this` would with reordering off.
  // When the order is the declaration order this is {this, f}; otherwise
  // f is rebuilt (lazily, memoized) inside a private identity-order
  // manager — by canonicity the rebuilt DAG is byte-for-byte the one an
  // unreordered manager would hold, which keeps AnySat/MinSat/
  // ForEachSatPath/interval extraction output independent of reordering.
  struct OrderedView {
    const BddManager* mgr;
    BddRef ref;
  };
  OrderedView DeclarationOrderView(BddRef f) const;

  // --- Leaf constructors -------------------------------------------------
  BddRef False() const { return kFalse; }
  BddRef True() const { return kTrue; }
  BddRef VarTrue(Var v);   // The function "variable v is 1".
  BddRef VarFalse(Var v);  // The function "variable v is 0".

  // --- Boolean connectives ------------------------------------------------
  // With complement edges, negation is a bit flip and every binary
  // connective is exactly one Ite call — no intermediate Not traversals,
  // and the standard-triple normalization inside Ite folds the symmetric
  // and complemented variants into shared computed-cache entries.
  BddRef Ite(BddRef f, BddRef g, BddRef h);
  BddRef Not(BddRef f) const { return f ^ kComplementBit; }
  BddRef And(BddRef f, BddRef g) { return Ite(f, g, kFalse); }
  BddRef Or(BddRef f, BddRef g) { return Ite(f, kTrue, g); }
  BddRef Xor(BddRef f, BddRef g) { return Ite(f, Not(g), g); }
  BddRef Diff(BddRef f, BddRef g) { return Ite(g, kFalse, f); }
  BddRef Implies(BddRef f, BddRef g) { return Ite(f, g, kTrue); }
  BddRef Iff(BddRef f, BddRef g) { return Ite(f, g, Not(g)); }

  // --- Queries -------------------------------------------------------------
  bool IsFalse(BddRef f) const { return f == kFalse; }
  bool IsTrue(BddRef f) const { return f == kTrue; }
  // f => g, i.e. f ∧ ¬g is empty. One Ite; the negation is free.
  bool Subset(BddRef f, BddRef g) { return And(f, Not(g)) == kFalse; }
  // f ∧ g non-empty.
  bool Intersects(BddRef f, BddRef g) { return And(f, g) != kFalse; }

  // Number of satisfying total assignments over all num_vars() variables.
  // Exact for up to 2^53 assignments; beyond that, the usual double rounding.
  double SatCount(BddRef f);

  // Number of internal (non-terminal) nodes reachable from f. A function
  // and its complement share the same nodes, so this is the size of the
  // shared DAG, not of a complement-free expansion.
  std::size_t NodeCount(BddRef f) const;
  // Total node slots allocated in this manager (including the terminal and
  // any free-listed slots awaiting reuse); LiveNodeCount excludes the
  // reclaimed slots.
  std::size_t ArenaSize() const { return nodes_.size(); }
  std::size_t LiveNodeCount() const { return nodes_.size() - free_list_.size(); }

  // Kernel counters (live nodes, probe lengths, cache hit rate, sift work).
  BddStats Stats() const;

  // Memory accounting: reserved bytes per structure, unique-table load
  // factor, peak live node count, and rehash count.
  BddMemoryStats MemoryStats() const;

  // The set of variables f depends on (ascending variable id).
  std::vector<Var> Support(BddRef f) const;

  // --- Satisfying assignments ----------------------------------------------
  // These walk the DAG top-down, so their output depends on the variable
  // order; all three run on the declaration-order view, which makes them
  // byte-identical whether or not Sift() ever ran.
  // One satisfying path as a partial cube, or nullopt if f is false.
  std::optional<Cube> AnySat(BddRef f) const;
  // The lexicographically least *total* satisfying assignment (variable 0 is
  // the most significant position, false < true). Deterministic: this is the
  // baseline checker's stand-in for an SMT solver's model order.
  std::optional<Cube> MinSat(BddRef f) const;
  // Invokes `fn` for every satisfying path (partial cube). Paths are visited
  // in BDD order; the number of paths can be exponential in pathological
  // cases, so callers use this only on localized difference sets.
  void ForEachSatPath(BddRef f, const std::function<void(const Cube&)>& fn) const;

  // --- Quantification -------------------------------------------------------
  // Existentially quantifies every variable for which `quantified[v]` holds.
  // `quantified` may be shorter than num_vars(); missing entries are false.
  BddRef Exists(BddRef f, const std::vector<bool>& quantified);

  // Structure access (used by encode/ for prefix extraction). The accessors
  // resolve complement parity: NodeLow/NodeHigh return the cofactors of the
  // *function* f denotes (the stored child edges XOR f's complement bit),
  // so f == Ite(VarTrue(NodeVar(f)), NodeHigh(f), NodeLow(f)) always holds.
  Var NodeVar(BddRef f) const { return nodes_[f >> 1].var; }
  BddRef NodeLow(BddRef f) const {
    return nodes_[f >> 1].low ^ (f & kComplementBit);
  }
  BddRef NodeHigh(BddRef f) const {
    return nodes_[f >> 1].high ^ (f & kComplementBit);
  }
  bool IsTerminal(BddRef f) const { return f <= kTrue; }
  static bool IsComplement(BddRef f) { return (f & kComplementBit) != 0; }
  // The reference with the complement bit cleared (the stored node's own
  // function). Exposed so tests can check the regular-then-edge invariant.
  static BddRef Regular(BddRef f) { return f & ~kComplementBit; }

 private:
  struct Node {
    Var var;      // kTerminalVar for the terminal, kFreeVar for a
                  // free-listed slot.
    BddRef low;   // Else edge; may carry a complement bit.
    BddRef high;  // Then edge; always regular (canonical invariant).
  };
  static constexpr Var kTerminalVar = ~Var{0};
  static constexpr Var kFreeVar = ~Var{0} - 1;
  static constexpr Var kTerminalLevel = ~Var{0};

  // Lossy computed-cache entry for a *standardized* triple
  // Ite(f, g, h) = result: f is regular and non-terminal (so f >= 2 and
  // f == 0 marks an empty slot) and g is regular.
  struct CacheEntry {
    BddRef f = 0;
    BddRef g = 0;
    BddRef h = 0;
    BddRef result = 0;
  };

  // An ITE activation record for the explicit evaluation stack.
  struct IteFrame {
    BddRef f, g, h;      // Standardized triple (cache key) once state > 0.
    BddRef f1, g1, h1;   // High cofactors, saved for the second visit.
    BddRef low;          // Result of the low branch.
    Var top;             // Branching variable.
    std::uint8_t state;  // 0 = enter, 1 = low done, 2 = high done,
                         // 3 = expand (pre-standardized root).
    std::uint8_t negate; // Standardization complemented the result.
  };

  // Level of the node a (non-terminal-checked) edge points to.
  Var LevelOfNode(const Node& n) const {
    return n.var == kTerminalVar ? kTerminalLevel : level_of_[n.var];
  }

  BddRef MakeNode(Var var, BddRef low, BddRef high);
  void RehashUnique(std::size_t new_capacity);
  void MaybeGrowCache();
  // Applies the ITE standard-triple rules in place: constant-operand
  // substitution, trivial-result detection, commutative argument reordering
  // by rank, and complement canonicalization (f and g regular). Returns
  // true when the call resolves without recursion (result in *result);
  // otherwise leaves the canonical triple in f/g/h and sets *negate when
  // the recursion's result must be complemented on return.
  bool NormalizeIte(BddRef& f, BddRef& g, BddRef& h, bool& negate,
                    BddRef& result) const;
  // Deterministic operand order for commutative standard triples:
  // complement-insensitive arena-index comparison (no node loads).
  bool RankBefore(BddRef a, BddRef b) const;
  BddRef ExistsRec(BddRef f, const std::vector<bool>& quantified,
                   std::unordered_map<BddRef, BddRef>& memo);
  double SatCountRec(BddRef f, std::unordered_map<BddRef, double>& memo);
  // Starts a stamped traversal: bumps the visit stamp (resetting marks on
  // wraparound) and sizes the mark vector to the arena. Marks are per node
  // *index*, so a function and its complement share one mark.
  void BeginVisit() const;
  bool Visited(BddRef index) const {
    return visit_mark_[index] == visit_stamp_;
  }
  void MarkVisited(BddRef index) const { visit_mark_[index] = visit_stamp_; }

  // --- Reordering internals ------------------------------------------------
  // Unique-table insert/erase for a node whose fields are already in the
  // arena (used by the swap rewrite; erase is backward-shift deletion so
  // linear probe chains stay intact).
  void UniqueInsert(BddRef index);
  void UniqueErase(BddRef index);
  // MakeNode for the swap path: interns (var, low, high), reusing
  // free-listed slots, maintaining per-var node lists and — during a
  // sift — edge reference counts.
  BddRef SwapMakeNode(Var var, BddRef low, BddRef high);
  // Edge-refcount helpers, active only while sifting_ is set.
  void IncRef(BddRef edge);
  void DecRef(BddRef edge);
  void FreeNodeSlot(BddRef index);
  // Fills var_nodes_ from a full arena scan (bare SwapAdjacentLevels calls
  // outside a sift rebuild it per call; Sift builds it once).
  void BuildVarNodeLists();
  // Exchanges the adjacent sift units at positions i and i+1 of `units`,
  // returning the number of adjacent-level swaps performed.
  std::size_t ExchangeUnits(std::vector<std::vector<Var>>& units,
                            std::size_t i);
  // Moves the unit at `pos` to its best position (Rudell single sift).
  void SiftUnitToBest(std::vector<std::vector<Var>>& units, std::size_t pos,
                      SiftResult& result);
  void MaybeAutoSift();
  // Rebuilds f inside the identity-order view manager, memoized by regular
  // ref (depth is bounded by the number of levels).
  BddRef TransferToView(BddRef f) const;

  Var num_vars_;
  std::vector<Node> nodes_;
  std::vector<BddRef> var_true_;  // Cache of single-variable functions.

  // Level↔index indirection: mutually inverse permutations. The identity
  // until the first swap. order_is_identity_ is kept exact (a sequence of
  // swaps that lands back on the identity restores it) via an O(1)
  // fixpoint-mismatch counter updated per swap.
  std::vector<Var> level_of_;      // variable id -> level.
  std::vector<Var> var_at_level_;  // level -> variable id.
  bool order_is_identity_ = true;
  std::size_t identity_mismatches_ = 0;  // Levels with var_at_level_[l] != l.

  // Reclaimed arena slots (var == kFreeVar), reused by MakeNode before the
  // arena grows. Slots are never compacted, so live indices are stable.
  std::vector<BddRef> free_list_;

  // Indivisible variable blocks for group sifting: (first, count) pairs,
  // disjoint, sorted by first.
  std::vector<std::pair<Var, Var>> var_blocks_;

  // Open-addressing unique table: power-of-two capacity, linear probing,
  // slot value 0 (the terminal's index, never interned) means empty.
  std::vector<BddRef> unique_slots_;
  std::size_t unique_mask_ = 0;
  std::size_t unique_size_ = 0;  // Live interned nodes (== live internal).

  // Direct-mapped lossy ITE cache.
  std::vector<CacheEntry> ite_cache_;
  std::size_t cache_mask_ = 0;

  // Reusable scratch for Ite (cleared, not reallocated, between calls).
  std::vector<IteFrame> ite_frames_;
  std::vector<BddRef> ite_values_;

  // Reusable visited stamps for NodeCount/Support.
  mutable std::vector<std::uint32_t> visit_mark_;
  mutable std::uint32_t visit_stamp_ = 0;
  mutable std::vector<BddRef> visit_stack_;

  // Sift state: per-index edge reference counts (in-degree plus pins) and
  // per-variable node lists, alive only during a Sift() call (lists are
  // rebuilt per bare SwapAdjacentLevels call).
  std::vector<std::uint32_t> sift_refs_;
  std::vector<std::vector<BddRef>> var_nodes_;
  bool sifting_ = false;

  // Auto-sift trigger (SetAutoSift).
  bool auto_sift_enabled_ = false;
  SiftMode auto_sift_mode_ = SiftMode::kVars;
  double auto_sift_ratio_ = 2.0;
  std::size_t nodes_at_last_sift_ = 0;
  std::uint32_t op_depth_ = 0;  // Reentrancy counter for Ite/Exists.

  // Lazily built identity-order view (DeclarationOrderView). The memo maps
  // this manager's regular refs to view refs; cleared by Sift() because
  // reclaimed indices may be reused.
  mutable std::unique_ptr<BddManager> decl_view_;
  mutable std::unordered_map<BddRef, BddRef> decl_view_memo_;

  // Instrumentation.
  std::size_t peak_live_nodes_ = 0;
  std::uint64_t stat_rehashes_ = 0;
  mutable std::uint64_t stat_unique_lookups_ = 0;
  mutable std::uint64_t stat_unique_probes_ = 0;
  mutable std::uint64_t stat_unique_hits_ = 0;
  // Hits and misses are counted separately (lookups = hits + misses) so
  // the warm-hit fast path in Ite costs a single increment.
  mutable std::uint64_t stat_cache_misses_ = 0;
  mutable std::uint64_t stat_cache_hits_ = 0;
  std::uint64_t stat_sift_passes_ = 0;
  std::uint64_t stat_sift_swaps_ = 0;
  std::uint64_t stat_sift_nodes_before_ = 0;
  std::uint64_t stat_sift_nodes_after_ = 0;
};

}  // namespace campion::bdd
