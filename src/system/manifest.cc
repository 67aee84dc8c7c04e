#include "system/manifest.hh"

#include <cstdio>
#include <ctime>
#include <sstream>
#include <type_traits>

#include <unistd.h>

#include "common/logging.hh"
#include "system/metrics.hh"

// Build facts arrive as compile definitions on this translation unit
// (see src/CMakeLists.txt); the fallbacks keep non-CMake builds and
// tooling that compiles the file standalone working.
#ifndef FBDP_VERSION
#define FBDP_VERSION "0.0.0"
#endif
#ifndef FBDP_GIT_SHA
#define FBDP_GIT_SHA "unknown"
#endif
#ifndef FBDP_GIT_DIRTY
#define FBDP_GIT_DIRTY 0
#endif
#ifndef FBDP_BUILD_TYPE
#define FBDP_BUILD_TYPE "unknown"
#endif

namespace fbdp {

namespace {

std::string
compilerString()
{
#if defined(__clang__)
    return csprintf("clang %d.%d.%d", __clang_major__,
                    __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
    return csprintf("gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                    __GNUC_PATCHLEVEL__);
#else
    return "unknown";
#endif
}

std::string
hostnameString()
{
    char buf[256];
    if (gethostname(buf, sizeof(buf)) != 0)
        return "unknown";
    buf[sizeof(buf) - 1] = '\0';
    return buf;
}

std::string
utcNowString()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

void
kv(std::ostringstream &os, const char *key, const std::string &v)
{
    os << key << '=' << v << ';';
}

template <typename T,
          typename = std::enable_if_t<std::is_integral_v<T>>>
void
kv(std::ostringstream &os, const char *key, T v)
{
    os << key << '=' << static_cast<std::uint64_t>(v) << ';';
}

void
kvD(std::ostringstream &os, const char *key, double v)
{
    os << key << '=' << csprintf("%.17g", v) << ';';
}

} // namespace

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
canonicalConfigString(const SystemConfig &cfg)
{
    std::ostringstream os;

    // Workload.  Benchmarks joined with ',' — names never contain
    // commas (mix tables and trace specs both forbid them as name
    // characters after canonicalisation).
    os << "benchmarks=";
    for (std::size_t i = 0; i < cfg.benchmarks.size(); ++i)
        os << (i ? "," : "") << cfg.benchmarks[i];
    os << ';';
    kv(os, "warmupInsts", cfg.warmupInsts);
    kv(os, "measureInsts", cfg.measureInsts);
    kv(os, "functionalWarmupOps", cfg.functionalWarmupOps);
    kv(os, "seed", cfg.seed);
    kv(os, "swPrefetch", cfg.swPrefetch);

    // Processor.
    kv(os, "rob", cfg.rob);
    kv(os, "lq", cfg.lq);
    kv(os, "sq", cfg.sq);

    // Caches.
    kv(os, "l1Bytes", cfg.hier.l1Bytes);
    kv(os, "l1Ways", cfg.hier.l1Ways);
    kv(os, "l2Bytes", cfg.hier.l2Bytes);
    kv(os, "l2Ways", cfg.hier.l2Ways);
    kv(os, "l2HitLatency",
       static_cast<std::uint64_t>(cfg.hier.l2HitLatency));
    kv(os, "l1Mshrs", cfg.hier.l1Mshrs);
    kv(os, "l2Mshrs", cfg.hier.l2Mshrs);
    kv(os, "hwPfEnable", cfg.hier.hwPrefetch.enable);
    kv(os, "hwPfEntries", cfg.hier.hwPrefetch.entriesPerCore);
    kv(os, "hwPfTrain", cfg.hier.hwPrefetch.trainThreshold);
    kv(os, "hwPfDegree", cfg.hier.hwPrefetch.degree);
    kv(os, "hwPfDistance", cfg.hier.hwPrefetch.distance);

    // Memory subsystem.
    kv(os, "fbd", cfg.fbd);
    kv(os, "logicChannels", cfg.logicChannels);
    kv(os, "dimmsPerChannel", cfg.dimmsPerChannel);
    kv(os, "banksPerDimm", cfg.banksPerDimm);
    kv(os, "dataRate", cfg.dataRate);
    kv(os, "scheme", std::string(interleaveName(cfg.scheme)));
    kv(os, "vrl", cfg.vrl);
    kv(os, "writeDrainHigh", cfg.writeDrainHigh);
    kv(os, "writeDrainLow", cfg.writeDrainLow);
    kv(os, "refreshEnable", cfg.refreshEnable);

    // Prefetching.
    const PrefetchConfig &pf = cfg.prefetch;
    os << "prefetch=" << pf.policy << ','
       << (pf.atMc() ? "mc" : "amb") << ',' << pf.degree << ','
       << pf.entries << ',' << pf.ways << ','
       << csprintf("%.17g", pf.throttle) << ';';
    kv(os, "regionLines", cfg.regionLines);
    kv(os, "apFullLatency", cfg.apFullLatency);

    kvD(os, "cpuCyclePs", static_cast<double>(cpuCyclePs));
    return os.str();
}

RunManifest
RunManifest::capture(const SystemConfig &cfg)
{
    RunManifest m;
    m.toolVersion = FBDP_VERSION;
    m.gitSha = FBDP_GIT_SHA;
    m.gitDirty = FBDP_GIT_DIRTY != 0;
    m.buildType = FBDP_BUILD_TYPE;
    m.compiler = compilerString();
    m.configDigest =
        csprintf("%016llx",
                 static_cast<unsigned long long>(
                     fnv1a64(canonicalConfigString(cfg))));
    m.seed = cfg.seed;
    m.hostname = hostnameString();
    m.startedUtc = utcNowString();
    return m;
}

std::string
RunManifest::buildInfo()
{
    return csprintf("fbdp %s (%s%s) %s %s", FBDP_VERSION,
                    FBDP_GIT_SHA, FBDP_GIT_DIRTY ? "-dirty" : "",
                    FBDP_BUILD_TYPE, compilerString().c_str());
}

std::string
RunManifest::json() const
{
    std::ostringstream os;
    os << "{\"tool\": \"fbdp\""
       << ", \"version\": \"" << jsonEscape(toolVersion) << "\""
       << ", \"git_sha\": \"" << jsonEscape(gitSha) << "\""
       << ", \"git_dirty\": " << (gitDirty ? "true" : "false")
       << ", \"build_type\": \"" << jsonEscape(buildType) << "\""
       << ", \"compiler\": \"" << jsonEscape(compiler) << "\""
       << ", \"config_digest\": \"" << jsonEscape(configDigest)
       << "\""
       << ", \"seed\": " << seed
       << ", \"hostname\": \"" << jsonEscape(hostname) << "\""
       << ", \"started_utc\": \"" << jsonEscape(startedUtc) << "\""
       << "}";
    return os.str();
}

std::string
RunManifest::csvComment() const
{
    std::ostringstream os;
    os << "# fbdp-manifest: version=" << toolVersion << " git="
       << gitSha << (gitDirty ? "-dirty" : "") << " build="
       << buildType << " compiler=" << compiler << '\n'
       << "# fbdp-manifest: config_digest=" << configDigest
       << " seed=" << seed << '\n'
       << "# fbdp-manifest: host=" << hostname << " started="
       << startedUtc << '\n';
    return os.str();
}

} // namespace fbdp
