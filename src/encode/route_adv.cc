#include "encode/route_adv.h"

#include <algorithm>

namespace campion::encode {

namespace {
// Per-family address and length widths: 32/6 for IPv4 (lengths 0..32),
// 128/8 for IPv6 (lengths 0..128).
constexpr int AddrWidth(util::AddressFamily family) {
  return util::AddressWidth(family);
}
constexpr int LenWidth(util::AddressFamily family) {
  return family == util::AddressFamily::kIpv4 ? 6 : 8;
}
constexpr int kProtoWidth = 2;
constexpr int kTagWidth = 16;
constexpr int kMetricWidth = 16;

std::uint32_t ProtocolCode(ir::Protocol p) {
  switch (p) {
    case ir::Protocol::kConnected: return 0;
    case ir::Protocol::kStatic: return 1;
    case ir::Protocol::kOspf: return 2;
    case ir::Protocol::kBgp: return 3;
  }
  return 3;
}

ir::Protocol ProtocolFromCode(std::uint32_t code) {
  switch (code) {
    case 0: return ir::Protocol::kConnected;
    case 1: return ir::Protocol::kStatic;
    case 2: return ir::Protocol::kOspf;
    default: return ir::Protocol::kBgp;
  }
}
}  // namespace

RouteAdvLayout::RouteAdvLayout(bdd::BddManager& mgr,
                               std::vector<util::Community> communities,
                               util::AddressFamily family)
    : mgr_(mgr), family_(family), communities_(std::move(communities)) {
  std::sort(communities_.begin(), communities_.end());
  communities_.erase(std::unique(communities_.begin(), communities_.end()),
                     communities_.end());

  const int addr_width = AddrWidth(family);
  const int len_width = LenWidth(family);
  bdd::Var first = mgr_.AddVars(addr_width + len_width + kProtoWidth +
                                kTagWidth + kMetricWidth +
                                static_cast<bdd::Var>(communities_.size()));
  addr_ = SymbolicField(first, addr_width);
  length_ = SymbolicField(first + addr_width, len_width);
  protocol_ = SymbolicField(first + addr_width + len_width, kProtoWidth);
  tag_ = SymbolicField(first + addr_width + len_width + kProtoWidth,
                       kTagWidth);
  metric_ = SymbolicField(
      first + addr_width + len_width + kProtoWidth + kTagWidth, kMetricWidth);
  bdd::Var community_first = first + addr_width + len_width + kProtoWidth +
                             kTagWidth + kMetricWidth;
  for (std::size_t i = 0; i < communities_.size(); ++i) {
    community_vars_[communities_[i]] =
        community_first + static_cast<bdd::Var>(i);
  }
  valid_ = length_.Leq(mgr_, util::MaxPrefixLength(family));
}

bdd::BddRef RouteAdvLayout::MatchPrefixRange(
    const util::PrefixRange& range) const {
  if (range.family() != family_ || range.IsEmpty()) return mgr_.False();
  int base_len = range.prefix().length();
  int low = std::max(range.low(), base_len);
  int high = std::min(range.high(), util::MaxPrefixLength(family_));
  // The address field precedes the length field in both layouts, so the
  // address literals chain straight onto the length predicate.
  bdd::BddRef len_ok =
      length_.InRange(mgr_, static_cast<std::uint32_t>(low),
                      static_cast<std::uint32_t>(high));
  return addr_.MatchPrefixBits(mgr_, range.prefix().address().bits(),
                               base_len, len_ok);
}

bdd::BddRef RouteAdvLayout::MatchExactPrefix(const util::IpPrefix& p) const {
  return MatchPrefixRange(util::PrefixRange(p));
}

bdd::BddRef RouteAdvLayout::HasCommunity(util::Community c) const {
  auto it = community_vars_.find(c);
  // Communities outside the task universe cannot be carried by any route in
  // the encoding, so the match is false.
  if (it == community_vars_.end()) return mgr_.False();
  return mgr_.VarTrue(it->second);
}

bdd::BddRef RouteAdvLayout::NoCommunities() const {
  bdd::BddRef none = mgr_.True();
  for (const auto& [community, var] : community_vars_) {
    none = mgr_.And(none, mgr_.Not(mgr_.VarTrue(var)));
  }
  return none;
}

bdd::BddRef RouteAdvLayout::ProtocolIs(ir::Protocol p) const {
  return protocol_.EqualsConst(mgr_, ProtocolCode(p));
}

bdd::BddRef RouteAdvLayout::TagEquals(std::uint32_t tag) const {
  return tag_.EqualsConst(mgr_, tag & 0xffff);
}

bdd::BddRef RouteAdvLayout::MetricEquals(std::uint32_t metric) const {
  return metric_.EqualsConst(mgr_, metric & 0xffff);
}

bdd::BddRef RouteAdvLayout::UninterpretedPredicate(const std::string& label) {
  auto it = uninterpreted_.find(label);
  if (it != uninterpreted_.end()) return it->second;
  bdd::Var v = mgr_.AddVars(1);
  bdd::BddRef ref = mgr_.VarTrue(v);
  uninterpreted_.emplace(label, ref);
  return ref;
}

std::vector<bool> RouteAdvLayout::PrefixVarMask() const {
  std::vector<bool> mask(mgr_.num_vars(), false);
  for (int i = 0; i < addr_.width(); ++i) mask[addr_.VarAt(i)] = true;
  for (int i = 0; i < length_.width(); ++i) mask[length_.VarAt(i)] = true;
  return mask;
}

std::vector<bool> RouteAdvLayout::NonPrefixVarMask() const {
  std::vector<bool> mask = PrefixVarMask();
  mask.flip();
  return mask;
}

std::vector<bool> RouteAdvLayout::CommunityVarMask() const {
  std::vector<bool> mask(mgr_.num_vars(), false);
  for (const auto& [community, var] : community_vars_) mask[var] = true;
  return mask;
}

RouteAdvExample RouteAdvLayout::Decode(const bdd::Cube& cube) const {
  RouteAdvExample example;
  util::U128 addr = addr_.Decode(cube);
  int len = static_cast<int>(length_.Decode(cube).lo());
  if (len > util::MaxPrefixLength(family_)) {
    len = util::MaxPrefixLength(family_);
  }
  example.prefix = util::IpPrefix(family_, addr, len);
  example.protocol = ProtocolFromCode(
      static_cast<std::uint32_t>(protocol_.Decode(cube).lo()));
  example.tag = static_cast<std::uint32_t>(tag_.Decode(cube).lo());
  example.metric = static_cast<std::uint32_t>(metric_.Decode(cube).lo());
  for (const auto& [community, var] : community_vars_) {
    if (var < cube.size() && cube[var] == 1) {
      example.communities.push_back(community);
    }
  }
  return example;
}

std::string RouteAdvLayout::DescribeCommunityCube(const bdd::Cube& cube) const {
  std::string out;
  for (const auto& [community, var] : community_vars_) {
    if (var >= cube.size() || cube[var] == -1) continue;
    if (!out.empty()) out += ", ";
    if (cube[var] == 0) out += "not ";
    out += community.ToString();
  }
  return out.empty() ? "(any communities)" : out;
}

std::string RouteAdvExample::ToString() const {
  std::string out = "prefix: " + prefix.ToString();
  if (!communities.empty()) {
    out += ", communities: [";
    for (std::size_t i = 0; i < communities.size(); ++i) {
      if (i > 0) out += " ";
      out += communities[i].ToString();
    }
    out += "]";
  }
  if (protocol != ir::Protocol::kBgp) {
    out += ", protocol: " + ir::ToString(protocol);
  }
  if (tag != 0) out += ", tag: " + std::to_string(tag);
  if (metric != 0) out += ", metric: " + std::to_string(metric);
  return out;
}

}  // namespace campion::encode
