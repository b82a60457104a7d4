#pragma once

// A from-scratch reduced ordered binary decision diagram (ROBDD) package
// with complement (attributed) edges.
//
// This is Campion's symbolic substrate, standing in for the JavaBDD library
// used by the paper. Sets of packets, route advertisements, and IP prefix
// ranges are all encoded as BDDs over a variable order (see src/encode).
// Each differencing task owns one manager for as long as it runs, so
// nodes live for the task and nothing needs collecting. A thread that runs
// task after task keeps one manager and Reset()s it in between: the arena,
// the tables and the scratch keep their capacity, so a warm manager neither
// reallocates nor rehashes for a task no larger than its largest so far.
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
//     most two cache lines. A rehash reinserts in arena order, so the
//     table is always the one that inserting the arena in order builds,
//     and Reset() empties it by undoing those inserts newest first;
//   * the ITE computed table is a lossy direct-mapped cache (a fixed-size
//     power-of-two array that never grows, overwrite on collision) so
//     memoization costs O(1) with zero allocation on the hot path;
//   * ITE itself runs on an explicit frame stack, so pathological inputs
//     cannot overflow the machine stack;
//   * traversals (NodeCount, Support) reuse a per-manager visited-stamp
//     vector instead of allocating set containers.
//
// The variable order is the declaration order: variable 0 sits at the top
// and every node branches on a smaller variable id than its children. The
// paper's algorithms need nothing more, and a fixed order makes the
// top-down walks (AnySat/MinSat/ForEachSatPath, interval extraction in
// src/encode) deterministic by construction.
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
#include <optional>
#include <unordered_map>
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

// Kernel instrumentation, exposed through BddManager::Stats(). Counters
// accumulate from construction or the last Reset(); benchmarks snapshot
// them before and after a workload to report per-phase numbers.
struct BddStats {
  std::size_t arena_size = 0;       // Nodes, including the terminal.
  std::size_t unique_capacity = 0;  // Open-addressing table slots.
  std::uint64_t unique_lookups = 0; // MakeNode calls that consulted the table.
  std::uint64_t unique_probes = 0;  // Total probe steps across all lookups.
  std::uint64_t unique_hits = 0;    // Lookups that found an existing node.
  std::size_t cache_capacity = 0;   // Computed-cache slots.
  std::uint64_t cache_lookups = 0;  // ITE cache probes.
  std::uint64_t cache_hits = 0;     // ITE cache hits.

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
// heap footprint. Reset() keeps every buffer, so on a reused manager the
// byte fields describe the largest task it has run, not the last one; the
// rehash count restarts at Reset().
struct BddMemoryStats {
  std::size_t node_arena_bytes = 0;    // nodes_ capacity, in bytes.
  std::size_t unique_table_bytes = 0;  // Open-addressing slot array.
  double unique_load_factor = 0.0;     // Interned nodes / slots (< 0.5).
  std::size_t ite_cache_bytes = 0;     // Direct-mapped computed cache.
  std::size_t scratch_bytes = 0;       // Stacks, stamps, per-var caches.
  std::size_t total_bytes = 0;         // Sum of the byte fields above.
  std::uint64_t rehash_count = 0;      // Unique-table growth events.
};

class BddManager {
 public:
  // `num_vars` fixes the declaration order up front (variables
  // 0..num_vars-1, variable 0 at the top). More variables may be added
  // later with AddVars.
  explicit BddManager(Var num_vars = 0);

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // Returns the manager to its just-constructed state with no variables:
  // the arena holds only the terminal, the unique table and the ITE cache
  // are empty, and the counters read zero. Every buffer keeps its
  // capacity. References from before the call are invalid after it.
  void Reset();

  // Structural self-check: terminal at index 0, every node obeys the
  // regular-then-edge invariant and branches on a smaller variable than
  // its children, and the unique table indexes exactly the arena. Used by
  // tests.
  bool CheckInvariants() const;

  Var num_vars() const { return num_vars_; }
  // Extends the order with `count` fresh variables at the bottom; returns
  // the index of the first new variable.
  Var AddVars(Var count);

  // --- Leaf constructors -------------------------------------------------
  BddRef False() const { return kFalse; }
  BddRef True() const { return kTrue; }
  BddRef VarTrue(Var v);   // The function "variable v is 1".
  BddRef VarFalse(Var v);  // The function "variable v is 0".
  // The function "v ? high : low" as one node, with no Ite call; encoders
  // build field predicates bottom-up with it (src/encode/symbolic_field.cc).
  // Precondition: v < num_vars() and v sits strictly above the top variable
  // of both children. A misordered node would still be interned and break
  // canonicity silently, so the precondition is checked in every build and
  // a violation throws std::logic_error. The result is canonical: a
  // complemented `high` is handled as in MakeNode, and low == high returns
  // low.
  BddRef Branch(Var v, BddRef low, BddRef high);

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
  // Total nodes allocated in this manager, including the terminal.
  std::size_t ArenaSize() const { return nodes_.size(); }

  // Kernel counters (arena size, probe lengths, cache hit rate).
  BddStats Stats() const;

  // Memory accounting: reserved bytes per structure, unique-table load
  // factor, and rehash count.
  BddMemoryStats MemoryStats() const;

  // The set of variables f depends on (ascending variable id).
  std::vector<Var> Support(BddRef f) const;

  // --- Satisfying assignments ----------------------------------------------
  // These walk the DAG top-down, i.e. in declaration order.
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
    Var var;      // kTerminalVar for the terminal.
    BddRef low;   // Else edge; may carry a complement bit.
    BddRef high;  // Then edge; always regular (canonical invariant).
  };
  // Larger than every variable id, so the terminal ranks below every node
  // in the order.
  static constexpr Var kTerminalVar = ~Var{0};

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

  BddRef MakeNode(Var var, BddRef low, BddRef high);
  void RehashUnique(std::size_t new_capacity);
  // The unique-table slot holding arena node `index`, or the empty slot
  // where its probe ends when the table does not hold it.
  std::size_t UniqueSlotOf(BddRef index) const;
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

  Var num_vars_;
  std::vector<Node> nodes_;
  std::vector<BddRef> var_true_;  // Cache of single-variable functions.

  // Open-addressing unique table: power-of-two capacity, linear probing,
  // slot value 0 (the terminal's index, never interned) means empty.
  std::vector<BddRef> unique_slots_;
  std::size_t unique_mask_ = 0;
  std::size_t unique_size_ = 0;  // Interned nodes (== internal nodes).

  // Direct-mapped lossy ITE cache of a fixed size.
  std::vector<CacheEntry> ite_cache_;
  std::size_t cache_mask_ = 0;

  // Reusable scratch for Ite (cleared, not reallocated, between calls).
  std::vector<IteFrame> ite_frames_;
  std::vector<BddRef> ite_values_;

  // Reusable visited stamps for NodeCount/Support.
  mutable std::vector<std::uint32_t> visit_mark_;
  mutable std::uint32_t visit_stamp_ = 0;
  mutable std::vector<BddRef> visit_stack_;

  // Instrumentation.
  std::uint64_t stat_rehashes_ = 0;
  mutable std::uint64_t stat_unique_lookups_ = 0;
  mutable std::uint64_t stat_unique_probes_ = 0;
  mutable std::uint64_t stat_unique_hits_ = 0;
  // Hits and misses are counted separately (lookups = hits + misses) so
  // the warm-hit fast path in Ite costs a single increment.
  mutable std::uint64_t stat_cache_misses_ = 0;
  mutable std::uint64_t stat_cache_hits_ = 0;
};

}  // namespace campion::bdd
