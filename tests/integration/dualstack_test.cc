// End-to-end dual-stack coverage: the committed IPv6 example pair
// (examples/configs/dualstack_edge_{cisco,juniper}) diffs to exact v6
// localization, byte-identically at every thread count.
// The configs are embedded so the test runs from any working directory.

#include <gtest/gtest.h>

#include <string>

#include "cisco/cisco_parser.h"
#include "core/config_diff.h"
#include "juniper/juniper_parser.h"

namespace campion {
namespace {

constexpr const char* kCiscoConfig = R"(hostname cisco_edge
!
interface Ethernet1
 ip address 10.0.12.1 255.255.255.0
!
ipv6 prefix-list NETS6 seq 5 permit 2001:db8:9::/48 le 128
ipv6 prefix-list NETS6 seq 10 permit 2001:db8:100::/48
!
ipv6 access-list V6FILTER
 permit tcp 2001:db8:1::/48 any eq 179
 permit icmpv6 any any
 deny ipv6 2001:db8:bad::/48 any
 permit ipv6 2001:db8::/32 any
!
route-map POL6 permit 10
 match ipv6 address prefix-list NETS6
 set local-preference 120
route-map POL6 permit 20
!
router bgp 65000
 bgp router-id 10.0.12.1
 neighbor 10.0.12.9 remote-as 65001
 neighbor 10.0.12.9 route-map POL6 out
 neighbor 10.0.12.9 send-community
!
end
)";

constexpr const char* kJuniperConfig = R"(system {
    host-name juniper_edge;
}
interfaces {
    ge-0/0/0 {
        unit 0 {
            family inet {
                address 10.0.12.2/24;
            }
        }
    }
}
routing-options {
    router-id 10.0.12.2;
    autonomous-system 65000;
}
policy-options {
    prefix-list NETS6 {
        2001:db8:9::/48;
        2001:db8:100::/48;
    }
    policy-statement POL6 {
        term rule1 {
            from {
                prefix-list NETS6;
            }
            then {
                local-preference 120;
                accept;
            }
        }
    }
}
firewall {
    family inet6 {
        filter V6FILTER {
            term bgp {
                from {
                    source-address 2001:db8:1::/48;
                    protocol tcp;
                    destination-port 179;
                }
                then accept;
            }
            term icmp {
                from {
                    protocol icmp6;
                }
                then accept;
            }
            term site {
                from {
                    source-address 2001:db8::/32;
                }
                then accept;
            }
        }
    }
}
protocols {
    bgp {
        group ebgp-peers {
            type external;
            peer-as 65001;
            neighbor 10.0.12.9 {
                export POL6;
            }
        }
    }
}
)";

class DualStackDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cisco_ = new ir::RouterConfig(
        cisco::ParseCiscoConfig(kCiscoConfig, "c.cfg").config);
    juniper_ = new ir::RouterConfig(
        juniper::ParseJuniperConfig(kJuniperConfig, "j.conf").config);
  }
  static void TearDownTestSuite() {
    delete cisco_;
    delete juniper_;
    cisco_ = nullptr;
    juniper_ = nullptr;
  }
  static ir::RouterConfig* cisco_;
  static ir::RouterConfig* juniper_;
};

ir::RouterConfig* DualStackDiffTest::cisco_ = nullptr;
ir::RouterConfig* DualStackDiffTest::juniper_ = nullptr;

TEST_F(DualStackDiffTest, LocalizesV6RouteMapAndAclDifferences) {
  core::DiffReport report = core::ConfigDiff(*cisco_, *juniper_, {});
  EXPECT_FALSE(report.Equivalent());
  std::string text = report.Render();
  // Route-map difference: the Cisco "le 128" window includes the longer
  // prefixes the Juniper exact-match list excludes — and the excluded exact
  // set /48-/48 must also be reported (the paper's included/excluded split).
  EXPECT_NE(text.find("POL6"), std::string::npos);
  EXPECT_NE(text.find("2001:db8:9::/48 : 48-128"), std::string::npos);
  EXPECT_NE(text.find("2001:db8:9::/48 : 48-48"), std::string::npos);
  // ACL difference: only the Cisco side denies 2001:db8:bad::/48.
  EXPECT_NE(text.find("V6FILTER"), std::string::npos);
  EXPECT_NE(text.find("srcIP: 2001:db8:bad::/48"), std::string::npos);
  EXPECT_NE(text.find("deny ipv6 2001:db8:bad::/48 any"), std::string::npos);
  // icmpv6 (58) is carved out of the affected protocol set: both sides
  // accept it.
  EXPECT_NE(text.find("0-57, 59-255"), std::string::npos);
}

TEST_F(DualStackDiffTest, ReportByteIdenticalAcrossExecutionModes) {
  auto render = [&](unsigned threads) {
    core::DiffOptions options;
    options.num_threads = threads;
    return core::ConfigDiff(*cisco_, *juniper_, options).Render();
  };
  const std::string baseline = render(1);
  EXPECT_EQ(baseline, render(4));
}

TEST_F(DualStackDiffTest, EquivalentV6PairReportsNoDifferences) {
  // Self-comparison across vendors of the v6-only policy: remove the two
  // deliberate differences and the pair must be equivalent.
  ir::RouterConfig cisco = *cisco_;
  // Align the prefix-list window (drop "le 128" from seq 5)...
  cisco.prefix_lists["NETS6"].entries[0].range =
      util::PrefixRange(*util::IpPrefix::Parse("2001:db8:9::/48"), 48, 48);
  // ...and the ACL deny line.
  auto& lines = cisco.acls["V6FILTER"].lines;
  lines.erase(lines.begin() + 2);
  core::DiffReport report = core::ConfigDiff(cisco, *juniper_, {});
  EXPECT_TRUE(report.Equivalent()) << report.Render();
}

}  // namespace
}  // namespace campion
