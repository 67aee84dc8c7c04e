/**
 * @file
 * Run provenance: the manifest every output surface can embed.
 *
 * A figure sweep or a stats dump is only trustworthy if it is
 * self-describing — six months later the question is always "which
 * code, which configuration, which machine produced this file?".
 * RunManifest answers it: a small record of the exact build (version,
 * git SHA + dirty flag, build type, compiler), the exact configuration
 * (a canonical serialisation of SystemConfig folded into a 64-bit
 * FNV-1a digest), the seed, the host and the wall start time.  The
 * digest is the join key of the cross-run ledger: two runs with equal
 * digests simulated the same machine on the same workload, so their
 * metrics are comparable.
 *
 * Embedding is strictly additive and opt-in.  Every writer renders the
 * manifest either as one JSON object (stats dump, sweep JSON,
 * telemetry / ledger JSON-lines) or as '#'-prefixed comment
 * lines (sweep CSV, telemetry CSV), so stripping the manifest recovers
 * the byte-identical manifest-off output — the invariant the
 * observability CI job gates.
 *
 * The digest covers only fields that change simulation results.
 * The observer knob (attribution) is excluded on purpose: results are
 * bit-identical across it, so runs differing only there belong to the
 * same trend line.
 */

#ifndef FBDP_SYSTEM_MANIFEST_HH
#define FBDP_SYSTEM_MANIFEST_HH

#include <cstdint>
#include <string>

#include "system/config.hh"

namespace fbdp {

/** 64-bit FNV-1a over @p text (the config-digest hash). */
std::uint64_t fnv1a64(const std::string &text);

/**
 * Canonical serialisation of @p cfg: every simulation-relevant field
 * as "key=value" joined by ';', in a fixed order that is part of the
 * format (append new fields, never reorder).  Two configs serialise
 * equal iff the simulator would produce identical results for them
 * modulo observer knobs.
 */
std::string canonicalConfigString(const SystemConfig &cfg);

/** Provenance record of one run. */
struct RunManifest
{
    // --- build ---
    std::string toolVersion;  ///< FBDP_VERSION
    std::string gitSha;       ///< short SHA, "unknown" outside git
    bool gitDirty = false;    ///< uncommitted changes at configure
    std::string buildType;    ///< CMake config (RelWithDebInfo, ...)
    std::string compiler;     ///< compiler id + version string

    // --- configuration ---
    std::string configDigest; ///< 16 hex digits of fnv1a64(canonical)
    std::uint64_t seed = 0;

    // --- host / time ---
    std::string hostname;
    std::string startedUtc;   ///< ISO 8601, second resolution

    /**
     * Capture a manifest for a run of @p cfg: build info baked in at
     * compile time, digest from canonicalConfigString(), hostname and
     * wall clock read now.
     */
    static RunManifest capture(const SystemConfig &cfg);

    /**
     * The one-line build-info string behind every tool's --version:
     * "fbdp <version> (<sha>[-dirty]) <build type> <compiler>".
     */
    static std::string buildInfo();

    /** Render as one single-line JSON object (no trailing newline). */
    std::string json() const;

    /**
     * Render as CSV comment lines, one "# key: value" per field plus
     * a terminating newline — prepended to CSV outputs so `grep -v
     * '^#'` recovers the manifest-free bytes.
     */
    std::string csvComment() const;
};

} // namespace fbdp

#endif // FBDP_SYSTEM_MANIFEST_HH
