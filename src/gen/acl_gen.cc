#include "gen/acl_gen.h"
#include <algorithm>

#include <random>

namespace campion::gen {
namespace {

using util::Ipv4Address;
using util::IpWildcard;
using util::IpPrefix;

class AclGenerator {
 public:
  explicit AclGenerator(const AclGenOptions& options)
      : options_(options), rng_(options.seed) {
    // Like Capirca, rules draw their addresses from a fixed pool of
    // network definitions rather than arbitrary prefixes; this matches how
    // real policies are written (a bounded set of named networks) and
    // keeps the symbolic representation of large ACLs compact.
    if (options_.family == util::AddressFamily::kIpv4) {
      for (int i = 0; i < 48; ++i) {
        int length = 16 + static_cast<int>(Uniform(13));
        std::uint32_t bits =
            (10u << 24) | (Uniform(64) << 18) | (Uniform(1024) << 8);
        network_pool_.emplace_back(Ipv4Address(bits), length);
      }
    } else {
      // Documentation space (2001:db8::/32), lengths /48../60: the same
      // bounded-pool shape, shifted into the top 64 bits.
      for (int i = 0; i < 48; ++i) {
        int length = 48 + static_cast<int>(Uniform(13));
        std::uint64_t hi = (0x20010db8ULL << 32) |
                           (static_cast<std::uint64_t>(Uniform(64)) << 26) |
                           (static_cast<std::uint64_t>(Uniform(1024)) << 16);
        network_pool_.emplace_back(util::Ipv6Address(util::U128(hi, 0)),
                                   length);
      }
    }
  }

  GeneratedAclPair Run() {
    GeneratedAclPair pair;
    pair.acl1.name = options_.name;
    pair.acl1.family = options_.family;
    pair.acl2.family = options_.family;
    for (int i = 0; i < options_.rules; ++i) {
      pair.acl1.lines.push_back(RandomLine());
    }
    pair.acl2 = pair.acl1;
    pair.acl2.name = options_.name;
    InjectDifferences(pair);
    return pair;
  }

 private:
  std::uint32_t Uniform(std::uint32_t bound) {
    return std::uniform_int_distribution<std::uint32_t>(0, bound - 1)(rng_);
  }

  util::IpPrefix RandomPrefix() {
    return network_pool_[Uniform(
        static_cast<std::uint32_t>(network_pool_.size()))];
  }

  ir::AclLine RandomLine() {
    ir::AclLine line;
    line.action =
        Uniform(4) == 0 ? ir::LineAction::kDeny : ir::LineAction::kPermit;
    switch (Uniform(4)) {
      case 0: line.protocol = ir::kProtoTcp; break;
      case 1: line.protocol = ir::kProtoUdp; break;
      case 2:
        line.protocol = options_.family == util::AddressFamily::kIpv4
                            ? ir::kProtoIcmp
                            : ir::kProtoIcmpv6;
        break;
      default: line.protocol = std::nullopt; break;  // "ip" / "ipv6"
    }
    line.src = IpWildcard(RandomPrefix());
    line.dst = IpWildcard(RandomPrefix());
    if (line.protocol == ir::kProtoTcp || line.protocol == ir::kProtoUdp) {
      static constexpr std::uint16_t kPorts[] = {22,  25,  53,   80,  123,
                                                 179, 443, 3306, 8080};
      if (Uniform(2) == 0) {
        std::uint16_t port = kPorts[Uniform(std::size(kPorts))];
        line.dst_ports.push_back({port, port});
      } else if (Uniform(4) == 0) {
        line.dst_ports.push_back({1024, 65535});
      }
    }
    return line;
  }

  void InjectDifferences(GeneratedAclPair& pair) {
    int injected = 0;
    int guard = 0;
    while (injected < options_.differences &&
           guard++ < options_.differences * 50) {
      if (pair.acl2.lines.empty()) break;
      // Mutate near the front of the ACL: a line deep in a large policy is
      // usually shadowed by earlier lines drawn from the same network
      // pool, and a shadowed mutation is not a behavioral difference.
      std::uint32_t window = static_cast<std::uint32_t>(
          std::max<std::size_t>(1, pair.acl2.lines.size() / 10));
      std::size_t index = Uniform(window);
      ir::AclLine& line = pair.acl2.lines[index];
      std::string description =
          "line " + std::to_string(index) + ": ";
      switch (Uniform(5)) {
        case 0: {  // Flip action.
          line.action = line.action == ir::LineAction::kPermit
                            ? ir::LineAction::kDeny
                            : ir::LineAction::kPermit;
          description += "flipped action";
          break;
        }
        case 1: {  // Perturb destination port.
          if (line.dst_ports.empty()) continue;
          line.dst_ports[0].low ^= 1;
          line.dst_ports[0].high = line.dst_ports[0].low;
          description += "perturbed destination port";
          break;
        }
        case 2: {  // Widen the destination prefix (le 32 style bug).
          auto prefix = line.dst.AsIpPrefix();
          if (!prefix || prefix->length() < 2) continue;
          line.dst = IpWildcard(util::IpPrefix(
              prefix->family(), prefix->address().bits(),
              prefix->length() - 1));
          description += "widened destination prefix";
          break;
        }
        case 3: {  // Delete the line.
          pair.acl2.lines.erase(pair.acl2.lines.begin() +
                                static_cast<std::ptrdiff_t>(index));
          description += "deleted line";
          break;
        }
        default: {  // Insert a fresh line ahead of this one.
          pair.acl2.lines.insert(
              pair.acl2.lines.begin() + static_cast<std::ptrdiff_t>(index),
              RandomLine());
          description += "inserted line";
          break;
        }
      }
      pair.injected.push_back(description);
      ++injected;
    }
  }

  AclGenOptions options_;
  std::mt19937_64 rng_;
  std::vector<util::IpPrefix> network_pool_;
};

}  // namespace

GeneratedAclPair GenerateAclPair(const AclGenOptions& options) {
  return AclGenerator(options).Run();
}

ir::RouterConfig WrapAclInConfig(const ir::Acl& acl,
                                 const std::string& hostname,
                                 ir::Vendor vendor) {
  ir::RouterConfig config;
  config.hostname = hostname;
  config.vendor = vendor;
  config.acls[acl.name] = acl;
  ir::Interface iface;
  iface.name = vendor == ir::Vendor::kJuniper ? "ge-0/0/0.0" : "Ethernet1";
  iface.address = Ipv4Address(10, 0, 0, 1);
  iface.prefix_length = 24;
  iface.in_acl = acl.name;
  config.interfaces.push_back(std::move(iface));
  return config;
}

}  // namespace campion::gen
