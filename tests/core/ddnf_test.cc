#include "core/ddnf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

namespace campion::core {
namespace {

using util::AddressFamily;
using util::IpPrefix;
using util::Ipv4Address;
using util::PrefixRange;
using util::U128;

PrefixRange Range(const char* prefix, int low, int high) {
  return PrefixRange(*IpPrefix::Parse(prefix), low, high);
}

TEST(PrefixRangeDagTest, EmptyInputHasOnlyRoot) {
  PrefixRangeDag dag({});
  EXPECT_EQ(dag.size(), 1u);
  EXPECT_EQ(dag.label(dag.root()), PrefixRange::Universe());
  EXPECT_TRUE(dag.IsLeaf(dag.root()));
}

TEST(PrefixRangeDagTest, RootReachesAllNodes) {
  PrefixRangeDag dag({Range("10.9.0.0/16", 16, 32),
                      Range("10.100.0.0/16", 16, 32),
                      Range("10.9.0.0/16", 16, 16)});
  // BFS from root must reach every node (invariant 1).
  std::set<std::size_t> reached{dag.root()};
  std::vector<std::size_t> frontier{dag.root()};
  while (!frontier.empty()) {
    std::size_t node = frontier.back();
    frontier.pop_back();
    for (std::size_t child : dag.children(node)) {
      if (reached.insert(child).second) frontier.push_back(child);
    }
  }
  EXPECT_EQ(reached.size(), dag.size());
}

TEST(PrefixRangeDagTest, LabelsAreUnique) {
  PrefixRangeDag dag({Range("10.9.0.0/16", 16, 32),
                      Range("10.9.0.0/16", 16, 32),  // Duplicate.
                      Range("10.9.0.0/16", 0, 32)});  // Same after clamping.
  std::set<PrefixRange> labels(dag.labels().begin(), dag.labels().end());
  EXPECT_EQ(labels.size(), dag.size());
}

TEST(PrefixRangeDagTest, EdgesAreStrictImmediateContainment) {
  PrefixRangeDag dag({Range("10.0.0.0/8", 8, 32), Range("10.9.0.0/16", 16, 32),
                      Range("10.9.0.0/16", 16, 16)});
  for (std::size_t m = 0; m < dag.size(); ++m) {
    for (std::size_t n : dag.children(m)) {
      // Strict containment (invariant 4).
      EXPECT_TRUE(dag.label(m).ContainsRange(dag.label(n)));
      EXPECT_NE(dag.label(m), dag.label(n));
      // No intermediate node between m and n.
      for (std::size_t k = 0; k < dag.size(); ++k) {
        if (k == m || k == n) continue;
        bool between = dag.label(m).ContainsRange(dag.label(k)) &&
                       dag.label(m) != dag.label(k) &&
                       dag.label(k).ContainsRange(dag.label(n)) &&
                       dag.label(k) != dag.label(n);
        EXPECT_FALSE(between)
            << dag.label(k).ToString() << " sits between "
            << dag.label(m).ToString() << " and " << dag.label(n).ToString();
      }
    }
  }
}

TEST(PrefixRangeDagTest, ClosedUnderIntersection) {
  PrefixRangeDag dag({Range("10.0.0.0/8", 8, 20), Range("10.9.0.0/16", 16, 32),
                      Range("0.0.0.0/0", 24, 24)});
  std::set<PrefixRange> labels(dag.labels().begin(), dag.labels().end());
  for (const auto& a : labels) {
    for (const auto& b : labels) {
      auto meet = a.Intersect(b);
      if (meet) {
        EXPECT_TRUE(labels.contains(*meet))
            << a.ToString() << " ^ " << b.ToString() << " = "
            << meet->ToString() << " missing";
      }
    }
  }
}

TEST(PrefixRangeDagTest, MultipleParents) {
  // E = (10.16/12, 24-32) is contained in both B = (10.16/12, 12-32) and
  // C = (10/8, 24-32), which are incomparable — a true DAG, not a tree.
  PrefixRangeDag dag({Range("10.16.0.0/12", 12, 32), Range("10.0.0.0/8", 24, 32),
                      Range("10.16.0.0/12", 24, 32)});
  PrefixRange e = Range("10.16.0.0/12", 24, 32);
  int parent_count = 0;
  for (std::size_t m = 0; m < dag.size(); ++m) {
    for (std::size_t n : dag.children(m)) {
      if (dag.label(n) == e) ++parent_count;
    }
  }
  EXPECT_EQ(parent_count, 2);
}

TEST(PrefixRangeDagTest, EmptyRangesDropped) {
  PrefixRangeDag dag({Range("10.9.0.0/16", 4, 8)});  // Infeasible window.
  EXPECT_EQ(dag.size(), 1u);  // Root only.
}

TEST(PrefixRangeDagTest, CustomUniverseClipsRanges) {
  // An address universe of /32s (ACL localization): length windows clamp.
  PrefixRange universe = Range("0.0.0.0/0", 32, 32);
  PrefixRangeDag dag({Range("10.9.0.0/16", 16, 32)}, universe);
  ASSERT_EQ(dag.size(), 2u);
  EXPECT_EQ(dag.label(1), Range("10.9.0.0/16", 32, 32));
}

TEST(PrefixRangeDagTest, UniverseInInputIsNotDuplicated) {
  PrefixRangeDag dag({PrefixRange::Universe(), Range("10.0.0.0/8", 8, 32)});
  EXPECT_EQ(dag.size(), 2u);
}


TEST(PrefixRangeDagTest, InsertionOrderIndependent) {
  // The DAG is canonical: any permutation of the input ranges yields the
  // same label set and the same edge relation.
  std::vector<PrefixRange> ranges = {
      Range("10.0.0.0/8", 8, 32),   Range("10.9.0.0/16", 16, 32),
      Range("10.9.0.0/16", 16, 16), Range("0.0.0.0/0", 24, 24),
      Range("10.16.0.0/12", 12, 32), Range("10.16.0.0/12", 24, 32)};
  auto edge_set = [](const PrefixRangeDag& dag) {
    std::set<std::pair<PrefixRange, PrefixRange>> edges;
    for (std::size_t m = 0; m < dag.size(); ++m) {
      for (std::size_t n : dag.children(m)) {
        edges.insert({dag.label(m), dag.label(n)});
      }
    }
    return edges;
  };
  PrefixRangeDag reference(ranges);
  std::set<PrefixRange> reference_labels(reference.labels().begin(),
                                         reference.labels().end());
  auto reference_edges = edge_set(reference);
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(ranges.begin(), ranges.end(), rng);
    PrefixRangeDag shuffled(ranges);
    std::set<PrefixRange> labels(shuffled.labels().begin(),
                                 shuffled.labels().end());
    EXPECT_EQ(labels, reference_labels);
    EXPECT_EQ(edge_set(shuffled), reference_edges);
  }
}

// The straightforward quadratic builder: an all-pairs intersection closure
// and, per node, a search of every earlier node for immediate containers.
// PrefixRangeDag must reproduce its labels, node order and children lists
// exactly, since GetMatch's traversal order decides the report text.
struct ReferenceDag {
  std::vector<PrefixRange> labels;
  std::vector<std::vector<std::size_t>> children;
};

PrefixRange NormalizeForReference(const PrefixRange& r) {
  int low = std::max(r.low(), r.prefix().length());
  int high = std::min(r.high(), util::MaxPrefixLength(r.family()));
  return PrefixRange(r.prefix(), low, high);
}

ReferenceDag BuildReferenceDag(const std::vector<PrefixRange>& ranges,
                               PrefixRange universe) {
  universe = NormalizeForReference(universe);
  std::set<PrefixRange> pool;
  for (const auto& r : ranges) {
    auto clipped = NormalizeForReference(r).Intersect(universe);
    if (clipped) pool.insert(*clipped);
  }
  pool.erase(universe);
  std::vector<PrefixRange> worklist(pool.begin(), pool.end());
  while (!worklist.empty()) {
    PrefixRange r = worklist.back();
    worklist.pop_back();
    std::vector<PrefixRange> fresh;
    for (const auto& other : pool) {
      auto meet = r.Intersect(other);
      if (meet && !pool.contains(*meet) && *meet != universe) {
        fresh.push_back(*meet);
      }
    }
    for (auto& m : fresh) {
      pool.insert(m);
      worklist.push_back(m);
    }
  }
  std::vector<PrefixRange> ordered(pool.begin(), pool.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const PrefixRange& a, const PrefixRange& b) {
              if (a.prefix().length() != b.prefix().length()) {
                return a.prefix().length() < b.prefix().length();
              }
              int wa = a.high() - a.low();
              int wb = b.high() - b.low();
              if (wa != wb) return wa > wb;
              return a < b;
            });
  ReferenceDag dag;
  dag.labels.push_back(universe);
  dag.children.emplace_back();
  for (const auto& r : ordered) {
    std::size_t node = dag.labels.size();
    dag.labels.push_back(r);
    dag.children.emplace_back();
    std::vector<std::size_t> containers;
    for (std::size_t m = 0; m < node; ++m) {
      if (dag.labels[m] != r && dag.labels[m].ContainsRange(r)) {
        containers.push_back(m);
      }
    }
    for (std::size_t m : containers) {
      bool immediate = true;
      for (std::size_t k : containers) {
        if (k != m && dag.labels[m] != dag.labels[k] &&
            dag.labels[m].ContainsRange(dag.labels[k])) {
          immediate = false;
          break;
        }
      }
      if (immediate) dag.children[m].push_back(node);
    }
  }
  return dag;
}

// Random ranges over a few nested base prefixes: a short chain of random
// bases, each extended by a few random bits, so most pairs of bases are
// nested or siblings, with random (sometimes empty or oversized) windows.
std::vector<PrefixRange> RandomRanges(std::mt19937_64& rng,
                                      AddressFamily family) {
  const int width = util::AddressWidth(family);
  auto random_bits = [&] { return U128(rng(), rng()); };
  std::vector<IpPrefix> bases{IpPrefix(family, random_bits(), 0)};
  const int base_count = 1 + static_cast<int>(rng() % 12);
  for (int i = 0; i < base_count; ++i) {
    const IpPrefix& parent = bases[rng() % bases.size()];
    int length = std::min(width, parent.length() +
                                     static_cast<int>(rng() % (width / 4)));
    // Keep the parent's bits, randomize the new ones.
    U128 bits = parent.address().bits() |
                (random_bits() & ~util::MaskBits(parent.length(), width));
    bases.emplace_back(family, bits, length);
  }
  std::vector<PrefixRange> ranges;
  const int range_count = 1 + static_cast<int>(rng() % 24);
  for (int i = 0; i < range_count; ++i) {
    const IpPrefix& base = bases[rng() % bases.size()];
    int low = base.length() - 2 + static_cast<int>(rng() % (width / 2));
    int high = low + static_cast<int>(rng() % (width / 2)) - 2;
    // A third reach the host length ("orlonger"), as ACL prefixes do, so
    // the host-only universe keeps them.
    if (rng() % 3 == 0) high = width + static_cast<int>(rng() % 2);
    ranges.emplace_back(base, low, high);
  }
  return ranges;
}

class PrefixRangeDagOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(PrefixRangeDagOracleTest, MatchesQuadraticBuilder) {
  std::mt19937_64 rng(GetParam());
  for (AddressFamily family : {AddressFamily::kIpv4, AddressFamily::kIpv6}) {
    const int width = util::AddressWidth(family);
    const PrefixRange universes[] = {
        PrefixRange::UniverseOf(family),
        // The host-only universe of ACL address localization.
        PrefixRange(IpPrefix(family, U128(), 0), width, width)};
    std::vector<PrefixRange> ranges = RandomRanges(rng, family);
    for (const PrefixRange& universe : universes) {
      ReferenceDag reference = BuildReferenceDag(ranges, universe);
      PrefixRangeDag dag(ranges, universe);
      ASSERT_EQ(dag.labels(), reference.labels)
          << "seed " << GetParam() << " universe " << universe.ToString();
      for (std::size_t n = 0; n < dag.size(); ++n) {
        EXPECT_EQ(dag.children(n), reference.children[n])
            << "seed " << GetParam() << " node " << dag.label(n).ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixRangeDagOracleTest,
                         ::testing::Range(1, 401));

}  // namespace
}  // namespace campion::core
