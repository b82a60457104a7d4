// ConfigCanonicalKey / ConfigFingerprint: the result-cache key must cover
// everything the rendered report can depend on — in particular the fields
// the structural keys deliberately omit (ACL actions, object names,
// source spans, hostnames). Two configs whose structural keys collide must
// still fingerprint apart whenever their reports could differ by a byte.

#include "encode/fingerprint.h"

#include <gtest/gtest.h>

#include <string>

#include "frontend/loader.h"
#include "ir/config.h"

namespace campion::encode {
namespace {

ir::RouterConfig Load(const std::string& text) {
  return frontend::LoadConfig(text, "config1", ir::Vendor::kCisco).config;
}

constexpr const char* kBase =
    "hostname r1\n"
    "!\n"
    "ip access-list extended FILTER\n"
    " permit tcp 10.0.0.0 0.0.0.255 any eq 80\n"
    " deny ip any any\n"
    "!\n"
    "interface GigabitEthernet0/0\n"
    " ip address 192.168.1.1 255.255.255.0\n"
    " ip access-group FILTER in\n"
    "!\n";

TEST(ConfigFingerprintTest, IdenticalTextsProduceIdenticalKeys) {
  EXPECT_EQ(ConfigCanonicalKey(Load(kBase)), ConfigCanonicalKey(Load(kBase)));
  EXPECT_EQ(ConfigFingerprint(Load(kBase)), ConfigFingerprint(Load(kBase)));
}

// The adversarial structural-key collision: identical match fields,
// flipped action. AclLineMatchKey cannot see the flip (by design — it
// keys only the match predicate); the canonical key must.
TEST(ConfigFingerprintTest, AclActionFlipChangesKeyDespiteStructuralCollision) {
  ir::RouterConfig permit = Load(kBase);
  std::string flipped_text = kBase;
  flipped_text.replace(flipped_text.find(" permit tcp"), 11, " deny   tcp");
  ir::RouterConfig deny = Load(flipped_text);

  // Same structural key: matches are untouched.
  ASSERT_EQ(AclLineMatchKey(permit.acls.at("FILTER").lines[0]),
            AclLineMatchKey(deny.acls.at("FILTER").lines[0]));
  // Different canonical key: the report renders the action.
  EXPECT_NE(ConfigCanonicalKey(permit), ConfigCanonicalKey(deny));
  EXPECT_NE(ConfigFingerprint(permit), ConfigFingerprint(deny));
}

TEST(ConfigFingerprintTest, RenamedAclChangesKey) {
  std::string renamed = kBase;
  while (renamed.find("FILTER") != std::string::npos) {
    renamed.replace(renamed.find("FILTER"), 6, "GUARD2");
  }
  EXPECT_NE(ConfigCanonicalKey(Load(kBase)), ConfigCanonicalKey(Load(renamed)));
}

TEST(ConfigFingerprintTest, HostnameChangesKey) {
  std::string renamed = kBase;
  renamed.replace(renamed.find("hostname r1"), 11, "hostname r2");
  EXPECT_NE(ConfigCanonicalKey(Load(kBase)), ConfigCanonicalKey(Load(renamed)));
}

// Reports cite <file>:<line> locations, so a pure layout change (an extra
// comment line shifting every subsequent span) must miss the cache even
// though the semantics are untouched.
TEST(ConfigFingerprintTest, LineShiftChangesKey) {
  const std::string shifted = "! leading comment\n" + std::string(kBase);
  EXPECT_NE(ConfigCanonicalKey(Load(kBase)), ConfigCanonicalKey(Load(shifted)));
}

TEST(ConfigFingerprintTest, KeyIsInsensitiveToPerformanceIrrelevantCopies) {
  // A config copied through the IR (not reparsed) keys identically.
  ir::RouterConfig original = Load(kBase);
  ir::RouterConfig copy = original;
  EXPECT_EQ(ConfigCanonicalKey(original), ConfigCanonicalKey(copy));
}

}  // namespace
}  // namespace campion::encode
