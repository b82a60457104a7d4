#include "ir/policy.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cisco/cisco_parser.h"
#include "cisco/cisco_unparser.h"
#include "gen/acl_gen.h"
#include "juniper/juniper_parser.h"
#include "juniper/juniper_unparser.h"

namespace campion::ir {
namespace {

using util::IpPrefix;
using util::IpWildcard;

AclLine BaseLine() {
  AclLine line;
  line.action = LineAction::kPermit;
  line.protocol = kProtoTcp;
  line.src = IpWildcard(*IpPrefix::Parse("10.0.0.0/8"));
  line.dst = IpWildcard(*IpPrefix::Parse("192.168.1.0/24"));
  line.src_ports = {{1024, 65535}};
  line.dst_ports = {{22, 22}};
  line.span.file = "r1.cfg";
  line.span.first_line = 7;
  line.span.last_line = 7;
  line.span.text = "permit tcp 10.0.0.0 0.255.255.255 gt 1023 ...";
  return line;
}

// SameMatch compares every field but `span`: each row changes one field
// of the base line and says whether the two lines must still match alike.
// A field added to AclLine needs a row here and a comparison in SameMatch.
TEST(SameMatchTest, ComparesEveryFieldButSpan) {
  const struct {
    const char* field;
    std::function<void(AclLine&)> mutate;
    bool same;
  } rows[] = {
      {"action", [](AclLine& l) { l.action = LineAction::kDeny; }, false},
      {"protocol", [](AclLine& l) { l.protocol = kProtoUdp; }, false},
      {"protocol (any)", [](AclLine& l) { l.protocol.reset(); }, false},
      {"src",
       [](AclLine& l) { l.src = IpWildcard(*IpPrefix::Parse("10.0.0.0/9")); },
       false},
      {"dst",
       [](AclLine& l) {
         l.dst = IpWildcard(*IpPrefix::Parse("192.168.2.0/24"));
       },
       false},
      {"src_ports", [](AclLine& l) { l.src_ports.clear(); }, false},
      {"dst_ports", [](AclLine& l) { l.dst_ports = {{22, 23}}; }, false},
      {"dst_ports (added range)",
       [](AclLine& l) { l.dst_ports.push_back({443, 443}); }, false},
      {"icmp_type", [](AclLine& l) { l.icmp_type = 3; }, false},
      {"established", [](AclLine& l) { l.established = true; }, false},
      {"span.file", [](AclLine& l) { l.span.file = "r2.conf"; }, true},
      {"span.lines",
       [](AclLine& l) {
         l.span.first_line = 40;
         l.span.last_line = 44;
       },
       true},
      {"span.text", [](AclLine& l) { l.span.text = "term ssh { ... }"; },
       true},
      {"span (cleared)", [](AclLine& l) { l.span = {}; }, true},
  };
  const AclLine base = BaseLine();
  EXPECT_TRUE(SameMatch(base, base));
  for (const auto& row : rows) {
    AclLine changed = base;
    row.mutate(changed);
    EXPECT_NE(changed, base) << row.field;  // The row changes something.
    EXPECT_EQ(SameMatch(base, changed), row.same) << row.field;
    EXPECT_EQ(SameMatch(changed, base), row.same) << row.field;
  }
}

// The same ACL line, unparsed as Cisco and as JunOS and parsed back: the
// two parses differ in their spans only.
TEST(SameMatchTest, CiscoAndJunosParsesOfOneLineMatchAlike) {
  Acl acl;
  acl.name = "EDGE";
  acl.lines.push_back(BaseLine());
  acl.lines.back().span = {};
  AclLine udp;
  udp.action = LineAction::kDeny;
  udp.protocol = kProtoUdp;
  udp.dst = IpWildcard(*IpPrefix::Parse("172.16.0.0/12"));
  udp.dst_ports = {{53, 53}};
  acl.lines.push_back(udp);

  auto cisco = cisco::ParseCiscoConfig(
      cisco::UnparseCiscoConfig(
          gen::WrapAclInConfig(acl, "r1", Vendor::kCisco)),
      "r1.cfg");
  auto junos = juniper::ParseJuniperConfig(
      juniper::UnparseJuniperConfig(
          gen::WrapAclInConfig(acl, "r2", Vendor::kJuniper)),
      "r2.conf");
  EXPECT_TRUE(cisco.diagnostics.empty());
  EXPECT_TRUE(junos.diagnostics.empty());
  const Acl* from_cisco = cisco.config.FindAcl("EDGE");
  const Acl* from_junos = junos.config.FindAcl("EDGE");
  ASSERT_NE(from_cisco, nullptr);
  ASSERT_NE(from_junos, nullptr);
  ASSERT_EQ(from_cisco->lines.size(), acl.lines.size());
  ASSERT_EQ(from_junos->lines.size(), acl.lines.size());
  for (std::size_t i = 0; i < acl.lines.size(); ++i) {
    const AclLine& a = from_cisco->lines[i];
    const AclLine& b = from_junos->lines[i];
    EXPECT_NE(a.span, b.span) << "line " << i;
    EXPECT_NE(a, b) << "line " << i;
    EXPECT_TRUE(SameMatch(a, b)) << "line " << i;
    EXPECT_TRUE(SameMatch(a, acl.lines[i])) << "line " << i;
  }
}

}  // namespace
}  // namespace campion::ir
