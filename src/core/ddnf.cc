#include "core/ddnf.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace campion::core {
namespace {

// Clamps the length window to the feasible [base length, family max] band so
// that semantically equal ranges have equal representations.
util::PrefixRange Normalize(const util::PrefixRange& r) {
  int low = std::max(r.low(), r.prefix().length());
  int high = std::min(r.high(), util::MaxPrefixLength(r.family()));
  return util::PrefixRange(r.prefix(), low, high);
}

// A normalized length window [low, high] of the ranges sharing one base.
using Window = std::pair<int, int>;

bool Meet(const Window& a, const Window& b, Window& out) {
  out = {std::max(a.first, b.first), std::min(a.second, b.second)};
  return out.first <= out.second;
}

bool Covers(const Window& outer, const Window& inner) {
  return outer.first <= inner.first && inner.second <= outer.second;
}

// The labels sharing one base prefix, plus the bases that strictly contain
// it. Normalized ranges on one base are contained in one another exactly
// when their windows are, and a range on base b is contained in a range on
// base a only when a is a (non-strict) supernet of b.
struct Base {
  util::IpPrefix prefix;
  std::vector<std::size_t> ancestors;  // Indices into the base list.
  std::vector<Window> windows;         // Closed under intersection.
  std::vector<std::size_t> nodes;      // Node id of each window.
};

}  // namespace

PrefixRangeDag::PrefixRangeDag(std::vector<util::PrefixRange> ranges,
                               util::PrefixRange universe) {
  universe = Normalize(universe);

  // Normalize against the universe, drop empties/duplicates, and group the
  // windows by base prefix.
  std::map<util::IpPrefix, std::set<Window>> own;
  for (const auto& r : ranges) {
    auto clipped = Normalize(r).Intersect(universe);
    if (clipped && *clipped != universe) {
      own[clipped->prefix()].insert({clipped->low(), clipped->high()});
    }
  }

  // Close under intersection. Two ranges meet only when one base contains
  // the other, and the meet sits on the longer base, so the closed windows
  // of base b are the meets of b's own closed windows with the closed
  // windows of b's ancestor bases (or with nothing). The map iterates the
  // bases (all of one family) in address-then-length order, a preorder of
  // the prefix tree, so a stack of the open bases is b's ancestor chain and
  // every ancestor is closed before b.
  std::vector<Base> bases;
  bases.reserve(own.size());
  std::vector<std::size_t> chain;
  for (const auto& [prefix, windows] : own) {
    while (!chain.empty() && !bases[chain.back()].prefix.Contains(prefix)) {
      chain.pop_back();
    }
    std::vector<Window> local(windows.begin(), windows.end());
    std::set<Window> closed(windows.begin(), windows.end());
    for (std::size_t i = 0; i < local.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        Window meet;
        if (Meet(local[i], local[j], meet) && closed.insert(meet).second) {
          local.push_back(meet);
        }
      }
    }
    for (std::size_t a : chain) {
      for (const Window& up : bases[a].windows) {
        for (const Window& w : local) {
          Window meet;
          if (Meet(w, up, meet)) closed.insert(meet);
        }
      }
    }
    bases.push_back({prefix, chain, {closed.begin(), closed.end()}, {}});
    chain.push_back(bases.size() - 1);
  }

  // Insert in generality order — containers before containees — so every
  // strict container of a range already exists when the range is inserted.
  // Containment implies base length is <= and the window is wider, so
  // sorting by (base length asc, window width desc) is a topological order.
  struct Slot {
    util::PrefixRange label;
    std::size_t base;
    std::size_t window;
  };
  std::vector<Slot> ordered;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    for (std::size_t w = 0; w < bases[b].windows.size(); ++w) {
      const auto& [low, high] = bases[b].windows[w];
      ordered.push_back({util::PrefixRange(bases[b].prefix, low, high), b, w});
    }
    bases[b].nodes.resize(bases[b].windows.size());
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Slot& x, const Slot& y) {
              const util::PrefixRange& a = x.label;
              const util::PrefixRange& b = y.label;
              if (a.prefix().length() != b.prefix().length()) {
                return a.prefix().length() < b.prefix().length();
              }
              int wa = a.high() - a.low();
              int wb = b.high() - b.low();
              if (wa != wb) return wa > wb;
              return a < b;
            });

  labels_.reserve(ordered.size() + 1);
  labels_.push_back(universe);
  for (const Slot& slot : ordered) {
    bases[slot.base].nodes[slot.window] = labels_.size();
    labels_.push_back(slot.label);
  }
  children_.resize(labels_.size());

  // Immediate parents: strict containers with no other strict container of
  // the range strictly below them. Every strict container sits on the
  // range's own base (with a wider window) or on an ancestor base (with a
  // covering window); the universe contains everything, so it is a parent
  // exactly when nothing else is. Nodes are visited in id order, so every
  // children list comes out ascending.
  struct Container {
    std::size_t depth;  // Position in the range's base chain.
    Window window;
    std::size_t node;
  };
  std::vector<Container> containers;
  for (const Slot& slot : ordered) {
    const Base& base = bases[slot.base];
    const Window& window = base.windows[slot.window];
    std::size_t node = base.nodes[slot.window];
    containers.clear();
    for (std::size_t d = 0; d <= base.ancestors.size(); ++d) {
      const Base& up = d < base.ancestors.size() ? bases[base.ancestors[d]]
                                                 : base;
      for (std::size_t w = 0; w < up.windows.size(); ++w) {
        if (up.nodes[w] != node && Covers(up.windows[w], window)) {
          containers.push_back({d, up.windows[w], up.nodes[w]});
        }
      }
    }
    if (containers.empty()) {
      children_[root()].push_back(node);
      continue;
    }
    for (const Container& m : containers) {
      bool immediate = true;
      for (const Container& k : containers) {
        if (k.node != m.node && m.depth <= k.depth &&
            Covers(m.window, k.window)) {
          immediate = false;
          break;
        }
      }
      if (immediate) children_[m.node].push_back(node);
    }
  }
}

}  // namespace campion::core
