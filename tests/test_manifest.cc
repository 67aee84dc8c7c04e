/**
 * @file
 * Run-manifest provenance: the config digest must be stable for equal
 * configurations, sensitive to anything that changes simulation
 * results, and blind to observer/execution knobs; the rendered forms
 * (JSON member, CSV comments, build-info line) must stay parseable
 * and strippable.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

#include "common/json.hh"
#include "system/manifest.hh"

using namespace fbdp;

namespace {

SystemConfig
base()
{
    SystemConfig c = SystemConfig::fbdAp();
    c.benchmarks = {"swim", "gap"};
    return c;
}

TEST(ManifestTest, DigestIsDeterministic)
{
    const RunManifest a = RunManifest::capture(base());
    const RunManifest b = RunManifest::capture(base());
    EXPECT_EQ(a.configDigest, b.configDigest);
    EXPECT_EQ(a.configDigest.size(), 16u);
    EXPECT_EQ(a.configDigest.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

TEST(ManifestTest, DigestSeesSimulationRelevantFields)
{
    const std::string ref =
        RunManifest::capture(base()).configDigest;

    SystemConfig c = base();
    c.regionLines = 8;
    EXPECT_NE(RunManifest::capture(c).configDigest, ref);

    c = base();
    c.measureInsts += 1;
    EXPECT_NE(RunManifest::capture(c).configDigest, ref);

    c = base();
    c.seed += 1;
    EXPECT_NE(RunManifest::capture(c).configDigest, ref);

    c = base();
    c.benchmarks = {"gap", "swim"};  // assignment order matters
    EXPECT_NE(RunManifest::capture(c).configDigest, ref);
}

TEST(ManifestTest, DigestIgnoresObserverAndExecutionKnobs)
{
    // Results are bit-identical across these knobs by the observer
    // invariant, so they must share one trend line in the ledger.
    const std::string ref =
        RunManifest::capture(base()).configDigest;

    SystemConfig c = base();
    c.attribution = true;
    EXPECT_EQ(RunManifest::capture(c).configDigest, ref);

    c = base();
    c.profileKernel = true;
    EXPECT_EQ(RunManifest::capture(c).configDigest, ref);

    c = base();
    c.threads = 4;
    EXPECT_EQ(RunManifest::capture(c).configDigest, ref);
}

TEST(ManifestTest, JsonFormIsOneParseableLine)
{
    const RunManifest m = RunManifest::capture(base());
    const std::string j = m.json();
    EXPECT_EQ(j.find('\n'), std::string::npos);

    const auto pr = json::parse(j);
    ASSERT_TRUE(pr.ok()) << pr.error;
    EXPECT_EQ(pr.value->get("tool")->asString(), "fbdp");
    EXPECT_EQ(pr.value->get("config_digest")->asString(),
              m.configDigest);
    EXPECT_EQ(pr.value->get("version")->asString(), m.toolVersion);
    EXPECT_EQ(pr.value->get("git_sha")->asString(), m.gitSha);
    EXPECT_EQ(pr.value->get("seed")->asUint64(), m.seed);
    ASSERT_NE(pr.value->get("started_utc"), nullptr);
    ASSERT_NE(pr.value->get("hostname"), nullptr);
    ASSERT_NE(pr.value->get("build_type"), nullptr);
    ASSERT_NE(pr.value->get("compiler"), nullptr);
    ASSERT_NE(pr.value->get("git_dirty"), nullptr);
    EXPECT_TRUE(pr.value->get("git_dirty")->isBool());
}

TEST(ManifestTest, CsvCommentsAreStrippable)
{
    const RunManifest m = RunManifest::capture(base());
    const std::string block = m.csvComment();
    ASSERT_FALSE(block.empty());
    // Every line starts with the '#' marker a CSV consumer strips.
    std::size_t start = 0;
    unsigned lines = 0;
    while (start < block.size()) {
        EXPECT_EQ(block.compare(start, 17, "# fbdp-manifest: "), 0)
            << block.substr(start, 20);
        const std::size_t nl = block.find('\n', start);
        ASSERT_NE(nl, std::string::npos) << "unterminated line";
        start = nl + 1;
        ++lines;
    }
    EXPECT_GE(lines, 2u);
    EXPECT_NE(block.find(m.configDigest), std::string::npos);
}

TEST(ManifestTest, BuildInfoNamesTheBuild)
{
    const std::string info = RunManifest::buildInfo();
    EXPECT_EQ(info.compare(0, 5, "fbdp "), 0);
    const RunManifest m = RunManifest::capture(base());
    EXPECT_NE(info.find(m.toolVersion), std::string::npos);
    EXPECT_NE(info.find(m.gitSha), std::string::npos);
    EXPECT_NE(info.find(m.buildType), std::string::npos);
}

TEST(ManifestTest, Fnv1a64KnownVectors)
{
    // Standard FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ManifestTest, CanonicalStringIsSelfConsistent)
{
    const std::string s = canonicalConfigString(base());
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s, canonicalConfigString(base()));
    // The digest is exactly the FNV of the canonical form.
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(s)));
    EXPECT_EQ(RunManifest::capture(base()).configDigest, buf);
}

} // namespace
