// Edge-case and stress coverage for the complement-edge BDD kernel: the
// open-addressing unique table (growth/rehash canonicity), the lossy
// computed cache, AddVars interleaved with node construction, short
// quantifier vectors, terminal-function satisfying assignments, O(1)
// negation, ITE standard-triple symmetries, the regular-then-edge
// canonicality invariant, and randomized oracles comparing the kernel
// against brute-force truth-table evaluation (including complemented
// roots).

#include "bdd/bdd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace campion::bdd {
namespace {

TEST(BddKernelTest, AddVarsAfterNodesExist) {
  BddManager mgr(3);
  BddRef old_fn = mgr.And(mgr.VarTrue(0), mgr.VarTrue(2));
  Var first = mgr.AddVars(2);
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(mgr.num_vars(), 5u);
  // Functions built before the extension are unchanged and still canonical.
  EXPECT_EQ(old_fn, mgr.And(mgr.VarTrue(0), mgr.VarTrue(2)));
  // New variables compose with old ones; the new var sits below in the order.
  BddRef mixed = mgr.And(old_fn, mgr.VarTrue(4));
  EXPECT_EQ(mgr.Support(mixed), (std::vector<Var>{0, 2, 4}));
  // SatCount respects the extended variable count: 3 fixed bits of 5.
  EXPECT_EQ(mgr.SatCount(mixed), 4.0);
  // A second extension after further construction still works.
  mgr.AddVars(1);
  EXPECT_EQ(mgr.SatCount(mixed), 8.0);
}

TEST(BddKernelTest, ExistsWithShortQuantifierVector) {
  BddManager mgr(6);
  BddRef f = mgr.And(mgr.And(mgr.VarTrue(1), mgr.VarTrue(3)),
                     mgr.VarTrue(5));
  // Quantifier vector shorter than num_vars(): missing entries are false.
  std::vector<bool> quantified(2, false);
  quantified[1] = true;
  BddRef g = mgr.Exists(f, quantified);
  EXPECT_EQ(g, mgr.And(mgr.VarTrue(3), mgr.VarTrue(5)));
  // Empty vector quantifies nothing.
  EXPECT_EQ(mgr.Exists(f, {}), f);
  // A short vector never touches variables beyond its length.
  std::vector<bool> all_true(3, true);
  BddRef h = mgr.Exists(f, all_true);
  EXPECT_EQ(h, mgr.And(mgr.VarTrue(3), mgr.VarTrue(5)));
}

TEST(BddKernelTest, SatAssignmentsOnTerminals) {
  BddManager mgr(4);
  // False has no satisfying assignment.
  EXPECT_FALSE(mgr.AnySat(kFalse).has_value());
  EXPECT_FALSE(mgr.MinSat(kFalse).has_value());
  // True: AnySat is all-don't-care, MinSat is the all-zero assignment.
  auto any = mgr.AnySat(kTrue);
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(*any, (Cube{-1, -1, -1, -1}));
  auto min = mgr.MinSat(kTrue);
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(*min, (Cube{0, 0, 0, 0}));
  // Zero-variable manager: cubes are empty but present.
  BddManager empty(0);
  EXPECT_EQ(empty.AnySat(kTrue), Cube{});
  EXPECT_EQ(empty.MinSat(kTrue), Cube{});
  EXPECT_EQ(empty.SatCount(kTrue), 1.0);
}

TEST(BddKernelTest, UniqueTableRehashPreservesCanonicity) {
  // Force several rehashes of the open-addressing table (initial capacity
  // 8192, growth at 50% load) and check functions interned early still
  // dedupe against rebuilds afterwards.
  BddManager mgr(24);
  BddRef early = mgr.And(mgr.VarTrue(0), mgr.VarTrue(23));
  std::mt19937_64 rng(5);
  BddRef junk = kFalse;
  for (int i = 0; i < 400; ++i) {
    BddRef cube = kTrue;
    for (Var v = 0; v < 24; ++v) {
      switch (rng() % 3) {
        case 0: cube = mgr.And(cube, mgr.VarTrue(v)); break;
        case 1: cube = mgr.And(cube, mgr.VarFalse(v)); break;
        default: break;
      }
    }
    junk = mgr.Or(junk, cube);
  }
  ASSERT_GT(mgr.ArenaSize(), 8192u);  // The table must have grown.
  EXPECT_EQ(early, mgr.And(mgr.VarTrue(0), mgr.VarTrue(23)));
  EXPECT_EQ(mgr.Not(mgr.Not(junk)), junk);
}

TEST(BddKernelTest, StatsCountersAreCoherent) {
  BddManager mgr(32);
  BddStats before = mgr.Stats();
  EXPECT_GE(before.arena_size, 1u);  // The shared terminal.
  BddRef f = kFalse;
  for (Var v = 0; v < 32; ++v) f = mgr.Xor(f, mgr.VarTrue(v));
  BddStats after = mgr.Stats();
  EXPECT_GT(after.arena_size, before.arena_size);
  EXPECT_GT(after.unique_lookups, before.unique_lookups);
  EXPECT_GE(after.unique_probes, after.unique_lookups);
  EXPECT_LE(after.unique_hits, after.unique_lookups);
  EXPECT_LE(after.cache_hits, after.cache_lookups);
  EXPECT_GE(after.CacheHitRate(), 0.0);
  EXPECT_LE(after.CacheHitRate(), 1.0);
  EXPECT_GE(after.AvgProbeLength(), 1.0);
  // Repeating an already-computed binary operation hits the lossy cache.
  BddRef g = mgr.And(f, mgr.VarTrue(0));
  BddStats first = mgr.Stats();
  EXPECT_EQ(mgr.And(f, mgr.VarTrue(0)), g);
  BddStats second = mgr.Stats();
  EXPECT_GT(second.cache_hits, first.cache_hits);
}

TEST(BddKernelTest, NotIsFreeOfKernelWork) {
  // With complement edges, negation is a reference bit flip: no node
  // allocation, no unique-table lookups, no cache traffic.
  BddManager mgr(16);
  BddRef f = kFalse;
  for (Var v = 0; v < 16; ++v) f = mgr.Xor(f, mgr.VarTrue(v));
  BddStats before = mgr.Stats();
  BddRef g = mgr.Not(f);
  BddStats after = mgr.Stats();
  EXPECT_NE(g, f);
  EXPECT_EQ(mgr.Not(g), f);  // Involution.
  EXPECT_EQ(after.arena_size, before.arena_size);
  EXPECT_EQ(after.unique_lookups, before.unique_lookups);
  EXPECT_EQ(after.cache_lookups, before.cache_lookups);
  // A function and its complement share one DAG.
  EXPECT_EQ(mgr.NodeCount(g), mgr.NodeCount(f));
}

// Walks every node reachable from `f` and checks the canonical
// complement-edge invariant: no interned node has a complemented then
// (high) edge. Public accessors resolve parity, so the invariant is
// visible through the *regular* reference of each node.
void ExpectRegularThenEdges(const BddManager& mgr, BddRef f,
                            std::vector<BddRef>& seen) {
  if (mgr.IsTerminal(f)) return;
  BddRef regular = BddManager::Regular(f);
  if (std::find(seen.begin(), seen.end(), regular) != seen.end()) return;
  seen.push_back(regular);
  EXPECT_FALSE(BddManager::IsComplement(mgr.NodeHigh(regular)))
      << "complemented then-edge on node ref " << regular;
  ExpectRegularThenEdges(mgr, mgr.NodeLow(regular), seen);
  ExpectRegularThenEdges(mgr, mgr.NodeHigh(regular), seen);
}

TEST(BddKernelTest, IteStandardTripleSymmetries) {
  BddManager mgr(6);
  std::mt19937_64 rng(1234);
  auto random_fn = [&] {
    BddRef f = kFalse;
    for (int i = 0; i < 4; ++i) {
      BddRef cube = kTrue;
      for (Var v = 0; v < 6; ++v) {
        switch (rng() % 3) {
          case 0: cube = mgr.And(cube, mgr.VarTrue(v)); break;
          case 1: cube = mgr.And(cube, mgr.VarFalse(v)); break;
          default: break;
        }
      }
      f = mgr.Or(f, cube);
    }
    return f;
  };
  for (int trial = 0; trial < 50; ++trial) {
    BddRef f = random_fn();
    BddRef g = random_fn();
    BddRef h = random_fn();
    // The standard-triple identities the normalization folds together.
    EXPECT_EQ(mgr.Ite(f, g, h), mgr.Ite(mgr.Not(f), h, g));
    EXPECT_EQ(mgr.Ite(f, g, h), mgr.Not(mgr.Ite(f, mgr.Not(g), mgr.Not(h))));
    EXPECT_EQ(mgr.And(f, g), mgr.And(g, f));
    EXPECT_EQ(mgr.Or(f, g), mgr.Or(g, f));
    EXPECT_EQ(mgr.Not(mgr.And(f, g)), mgr.Or(mgr.Not(f), mgr.Not(g)));
    EXPECT_EQ(mgr.Xor(f, g), mgr.Xor(g, f));
    EXPECT_EQ(mgr.Iff(f, g), mgr.Not(mgr.Xor(f, g)));
    EXPECT_EQ(mgr.Diff(f, g), mgr.And(f, mgr.Not(g)));
    EXPECT_EQ(mgr.Implies(f, g), mgr.Or(mgr.Not(f), g));
    // Degenerate operands.
    EXPECT_EQ(mgr.Ite(f, f, h), mgr.Or(f, h));
    EXPECT_EQ(mgr.Ite(f, mgr.Not(f), h), mgr.And(mgr.Not(f), h));
    EXPECT_EQ(mgr.Ite(f, g, f), mgr.And(f, g));
    EXPECT_EQ(mgr.Ite(f, g, mgr.Not(f)), mgr.Implies(f, g));
    std::vector<BddRef> seen;
    ExpectRegularThenEdges(mgr, mgr.Ite(f, g, h), seen);
  }
}

TEST(BddKernelTest, StandardTriplesShareCacheAcrossComplements) {
  // Or(¬f,¬g) normalizes to the same computed-cache entry as And(f,g)
  // (with a complemented result), so the second call must hit the warm
  // cache and allocate nothing.
  BddManager mgr(12);
  std::mt19937_64 rng(77);
  BddRef f = kFalse;
  BddRef g = kFalse;
  for (int i = 0; i < 5; ++i) {
    BddRef cube_f = kTrue;
    BddRef cube_g = kTrue;
    for (Var v = 0; v < 12; ++v) {
      if (rng() % 2) cube_f = mgr.And(cube_f, mgr.VarTrue(v));
      if (rng() % 2) cube_g = mgr.And(cube_g, mgr.VarFalse(v));
    }
    f = mgr.Or(f, cube_f);
    g = mgr.Or(g, cube_g);
  }
  BddRef conj = mgr.And(f, g);
  BddStats before = mgr.Stats();
  BddRef disj = mgr.Or(mgr.Not(f), mgr.Not(g));
  BddStats after = mgr.Stats();
  EXPECT_EQ(disj, mgr.Not(conj));
  EXPECT_EQ(after.arena_size, before.arena_size);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  EXPECT_EQ(after.cache_lookups, before.cache_lookups + 1);
}

TEST(BddKernelTest, BranchCanonicalizesComplementedHighEdge) {
  BddManager mgr(4);
  BddRef low = mgr.And(mgr.VarTrue(2), mgr.VarFalse(3));
  // The literal's node is stored as "1 ? false : true", so VarTrue(1) is a
  // complemented reference.
  BddRef high = mgr.VarTrue(1);
  ASSERT_TRUE(BddManager::IsComplement(high));
  BddRef node = mgr.Branch(0, low, high);
  // The same function Ite builds, stored with a regular then-edge: the
  // returned reference carries the complement instead.
  EXPECT_EQ(node, mgr.Ite(mgr.VarTrue(0), high, low));
  EXPECT_TRUE(BddManager::IsComplement(node));
  EXPECT_FALSE(
      BddManager::IsComplement(mgr.NodeHigh(BddManager::Regular(node))));
  EXPECT_EQ(mgr.NodeVar(node), 0u);
  EXPECT_EQ(mgr.NodeLow(node), low);
  EXPECT_EQ(mgr.NodeHigh(node), high);
  // Building it again interns nothing.
  std::size_t arena = mgr.ArenaSize();
  EXPECT_EQ(mgr.Branch(0, low, high), node);
  EXPECT_EQ(mgr.Branch(0, mgr.Not(low), mgr.Not(high)), mgr.Not(node));
  EXPECT_EQ(mgr.ArenaSize(), arena);
  // Constant children give the literals.
  EXPECT_EQ(mgr.Branch(3, kFalse, kTrue), mgr.VarTrue(3));
  EXPECT_EQ(mgr.Branch(3, kTrue, kFalse), mgr.VarFalse(3));
  EXPECT_TRUE(mgr.CheckInvariants());
}

TEST(BddKernelTest, BranchReturnsLowWhenChildrenAreEqual) {
  BddManager mgr(3);
  BddRef f = mgr.Or(mgr.VarTrue(1), mgr.VarFalse(2));
  std::size_t arena = mgr.ArenaSize();
  EXPECT_EQ(mgr.Branch(0, f, f), f);
  EXPECT_EQ(mgr.Branch(0, mgr.Not(f), mgr.Not(f)), mgr.Not(f));
  EXPECT_EQ(mgr.Branch(2, kTrue, kTrue), kTrue);
  EXPECT_EQ(mgr.Branch(2, kFalse, kFalse), kFalse);
  EXPECT_EQ(mgr.ArenaSize(), arena);
}

TEST(BddKernelTest, BranchRejectsOrderViolations) {
  BddManager mgr(4);
  BddRef at1 = mgr.VarTrue(1);
  BddRef at2 = mgr.And(mgr.VarTrue(2), mgr.VarTrue(3));
  std::size_t arena = mgr.ArenaSize();
  // The branching variable must sit strictly above both children's tops.
  EXPECT_THROW(mgr.Branch(1, at1, kFalse), std::logic_error);
  EXPECT_THROW(mgr.Branch(1, kTrue, at1), std::logic_error);
  EXPECT_THROW(mgr.Branch(2, at1, kTrue), std::logic_error);
  EXPECT_THROW(mgr.Branch(3, kFalse, mgr.Not(at2)), std::logic_error);
  // ... and exist.
  EXPECT_THROW(mgr.Branch(4, kFalse, kTrue), std::logic_error);
  // A rejected call interns nothing and leaves the manager consistent.
  EXPECT_EQ(mgr.ArenaSize(), arena);
  EXPECT_TRUE(mgr.CheckInvariants());
  EXPECT_NO_THROW(mgr.Branch(0, at1, at2));
}

// Randomized oracle for the complement-edge kernel: random expression
// DAGs (with negation, so roots and intermediates carry complement bits)
// are compared against brute-force truth-table evaluation over all 2^n
// assignments for n <= 8, and every reachable node is checked for the
// regular-then-edge canonicality invariant.
class BddComplementOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(BddComplementOracleTest, MatchesBruteForceTruthTables) {
  constexpr Var kVars = 8;
  constexpr std::size_t kRows = std::size_t{1} << kVars;
  BddManager mgr(kVars);
  std::mt19937_64 rng(GetParam() * 104729 + 13);

  struct Expr {
    BddRef bdd;
    std::vector<bool> table;
  };
  std::vector<Expr> pool;
  pool.push_back({kTrue, std::vector<bool>(kRows, true)});
  pool.push_back({kFalse, std::vector<bool>(kRows, false)});
  for (Var v = 0; v < kVars; ++v) {
    Expr e;
    e.bdd = mgr.VarTrue(v);
    e.table.resize(kRows);
    for (std::size_t a = 0; a < kRows; ++a) {
      e.table[a] = (a >> (kVars - 1 - v)) & 1u;
    }
    pool.push_back(std::move(e));
  }

  for (int step = 0; step < 60; ++step) {
    const Expr& a = pool[rng() % pool.size()];
    const Expr& b = pool[rng() % pool.size()];
    const Expr& c = pool[rng() % pool.size()];
    Expr e;
    e.table.resize(kRows);
    switch (rng() % 7) {
      case 0:
        e.bdd = mgr.And(a.bdd, b.bdd);
        for (std::size_t i = 0; i < kRows; ++i)
          e.table[i] = a.table[i] && b.table[i];
        break;
      case 1:
        e.bdd = mgr.Or(a.bdd, b.bdd);
        for (std::size_t i = 0; i < kRows; ++i)
          e.table[i] = a.table[i] || b.table[i];
        break;
      case 2:
        e.bdd = mgr.Xor(a.bdd, b.bdd);
        for (std::size_t i = 0; i < kRows; ++i)
          e.table[i] = a.table[i] != b.table[i];
        break;
      case 3:
        e.bdd = mgr.Not(a.bdd);
        for (std::size_t i = 0; i < kRows; ++i) e.table[i] = !a.table[i];
        break;
      case 4:
        e.bdd = mgr.Diff(a.bdd, b.bdd);
        for (std::size_t i = 0; i < kRows; ++i)
          e.table[i] = a.table[i] && !b.table[i];
        break;
      case 5:
        e.bdd = mgr.Iff(a.bdd, b.bdd);
        for (std::size_t i = 0; i < kRows; ++i)
          e.table[i] = a.table[i] == b.table[i];
        break;
      default:
        e.bdd = mgr.Ite(a.bdd, b.bdd, c.bdd);
        for (std::size_t i = 0; i < kRows; ++i)
          e.table[i] = a.table[i] ? b.table[i] : c.table[i];
        break;
    }

    // Brute force: evaluate the BDD on every assignment by walking with
    // the parity-resolving structure accessors.
    for (std::size_t a_idx = 0; a_idx < kRows; ++a_idx) {
      BddRef node = e.bdd;
      while (!mgr.IsTerminal(node)) {
        Var v = mgr.NodeVar(node);
        bool bit = (a_idx >> (kVars - 1 - v)) & 1u;
        node = bit ? mgr.NodeHigh(node) : mgr.NodeLow(node);
      }
      ASSERT_EQ(node == kTrue, static_cast<bool>(e.table[a_idx]))
          << "step " << step << " assignment " << a_idx;
    }
    // SatCount agrees with the table's popcount (complement parity is
    // threaded through the count).
    std::size_t ones = 0;
    for (bool bit : e.table) ones += bit;
    ASSERT_EQ(mgr.SatCount(e.bdd), static_cast<double>(ones)) << "step "
                                                              << step;
    // Canonicality: equal tables <=> equal references, including across
    // complemented construction paths.
    for (const Expr& other : pool) {
      if (other.table == e.table) {
        ASSERT_EQ(other.bdd, e.bdd) << "canonicity violated at step " << step;
      }
    }
    std::vector<BddRef> seen;
    ExpectRegularThenEdges(mgr, e.bdd, seen);
    pool.push_back(std::move(e));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddComplementOracleTest,
                         ::testing::Range(1, 7));

// Randomized oracle: three-argument Ite over random operands must agree
// with explicit truth-table evaluation for every assignment.
class BddIteOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(BddIteOracleTest, IteMatchesTruthTable) {
  constexpr Var kVars = 13;  // <= 16 per the kernel contract being tested.
  constexpr std::size_t kRows = std::size_t{1} << kVars;
  BddManager mgr(kVars);
  std::mt19937_64 rng(GetParam() * 7919 + 1);

  struct Expr {
    BddRef bdd;
    std::vector<bool> table;
  };
  std::vector<Expr> pool;
  // Seed the pool with literals and both terminals.
  {
    Expr t{kTrue, std::vector<bool>(kRows, true)};
    Expr f{kFalse, std::vector<bool>(kRows, false)};
    pool.push_back(std::move(t));
    pool.push_back(std::move(f));
  }
  for (Var v = 0; v < kVars; ++v) {
    Expr e;
    e.bdd = mgr.VarTrue(v);
    e.table.resize(kRows);
    for (std::size_t a = 0; a < kRows; ++a) {
      e.table[a] = (a >> (kVars - 1 - v)) & 1u;
    }
    pool.push_back(std::move(e));
  }

  for (int step = 0; step < 40; ++step) {
    const Expr& f = pool[rng() % pool.size()];
    const Expr& g = pool[rng() % pool.size()];
    const Expr& h = pool[rng() % pool.size()];
    Expr e;
    e.bdd = mgr.Ite(f.bdd, g.bdd, h.bdd);
    e.table.resize(kRows);
    for (std::size_t a = 0; a < kRows; ++a) {
      e.table[a] = f.table[a] ? g.table[a] : h.table[a];
    }
    // Spot-check satcount every step (cheap) ...
    std::size_t ones = 0;
    for (bool b : e.table) ones += b;
    ASSERT_EQ(mgr.SatCount(e.bdd), static_cast<double>(ones))
        << "step " << step;
    pool.push_back(std::move(e));
  }

  // ... and fully verify the last expression against its table via
  // evaluation of every assignment.
  const Expr& final_expr = pool.back();
  for (std::size_t a = 0; a < kRows; ++a) {
    BddRef node = final_expr.bdd;
    while (!mgr.IsTerminal(node)) {
      Var v = mgr.NodeVar(node);
      bool bit = (a >> (kVars - 1 - v)) & 1u;
      node = bit ? mgr.NodeHigh(node) : mgr.NodeLow(node);
    }
    ASSERT_EQ(node == kTrue, static_cast<bool>(final_expr.table[a]))
        << "assignment " << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddIteOracleTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace campion::bdd
