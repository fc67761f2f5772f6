#ifndef SLAMBENCH_BENCH_COMMON_HPP
#define SLAMBENCH_BENCH_COMMON_HPP

/**
 * @file
 * Shared scaffolding for the figure-regeneration benches: the
 * canonical workload, the default and tuned configurations, and
 * tiny argument parsing. `slambench_cli` and `slambench_serve` parse
 * their shared flags through the same helpers.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/benchmark.hpp"
#include "core/config_binding.hpp"
#include "core/experiment.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "kfusion/backend.hpp"
#include "kfusion/volume_backend.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/telemetry_server.hpp"
#include "support/trace.hpp"

namespace slambench::bench {

/**
 * The canonical evaluation workload: the synthetic living-room
 * orbit sequence at QVGA, the stand-in for ICL-NUIM lr kt0 used by
 * all figures.
 */
inline dataset::SequenceSpec
canonicalWorkload(size_t frames = 30)
{
    dataset::SequenceSpec spec;
    spec.name = "living_room-orbit-a";
    spec.scene = dataset::SceneId::LivingRoom;
    spec.trajectory = dataset::TrajectoryPreset::OrbitA;
    spec.width = 320;
    spec.height = 240;
    spec.numFrames = frames;
    spec.renderRgb = false;
    spec.seed = 42;
    // Faster-than-handheld camera plus a noisier sensor: aggressive
    // configurations (tiny images, skipped tracking, coarse volumes)
    // genuinely fail here, which is what makes the Fig. 2 trade-off
    // non-trivial. The real ICL-NUIM sequences are hard for the same
    // reasons (fast rotation, depth noise).
    spec.trajectorySpeedup = 5.0;
    spec.noise.sigmaQuad = 0.0045f;
    spec.noise.dropoutCosine = 0.35f;
    return spec;
}

/** The KinectFusion default configuration (the paper's baseline). */
inline kfusion::KFusionConfig
defaultConfig()
{
    return kfusion::KFusionConfig{};
}

/**
 * The configuration found for the Odroid-XU3 by the HyperMapper
 * active-learning run in bench_fig2_dse (best simulated runtime
 * subject to Max ATE < 5 cm and paced power < 1 W on this
 * repository's workload). Fixed here so the mobile (Fig. 3) and
 * headline benches are reproducible standalone, exactly as the paper
 * shipped one tuned configuration to the Android app.
 */
inline kfusion::KFusionConfig
tunedConfig()
{
    kfusion::KFusionConfig config;
    config.computeSizeRatio = 2;
    config.icpThreshold = 6.0e-5f;
    config.mu = 0.16f;
    config.integrationRate = 8;
    config.volumeResolution = 64;
    config.pyramidIterations = {4, 3, 2};
    config.trackingRate = 1;
    config.renderingRate = 8;
    return config;
}

namespace detail {
/**
 * Every flag the arg* helpers were asked about in this process,
 * mapped to whether it takes a value: the inventory
 * rejectUnknownFlags() checks argv against.
 */
inline std::map<std::string, bool> &
knownFlags()
{
    static std::map<std::string, bool> flags;
    return flags;
}
} // namespace detail

/** Parse "--name value" string options; returns @p fallback if absent. */
inline const char *
argString(int argc, char **argv, const char *name,
          const char *fallback)
{
    detail::knownFlags()[name] = true;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    return fallback;
}

/** Parse "--name value" style options; returns the default if absent. */
inline long
argLong(int argc, char **argv, const char *name, long fallback)
{
    const char *value = argString(argc, argv, name, nullptr);
    return value ? std::atol(value) : fallback;
}

/** Parse a "--name N" size option; exits naming the flag if N < 1. */
inline size_t
argCount(int argc, char **argv, const char *name, size_t fallback)
{
    const long value = argLong(argc, argv, name, static_cast<long>(fallback));
    if (value < 1)
        support::fatal(std::string(argv[0]) + ": " + name +
                       " must be >= 1");
    return static_cast<size_t>(value);
}

/** @return true when the flag is present. */
inline bool
argFlag(int argc, char **argv, const char *name)
{
    detail::knownFlags().emplace(name, false);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return true;
    return false;
}

/** Parse "--name value" floating-point options. */
inline double
argDouble(int argc, char **argv, const char *name, double fallback)
{
    const char *value = argString(argc, argv, name, nullptr);
    return value ? std::atof(value) : fallback;
}

/**
 * Exit with a usage error naming the first argv token that starts
 * with `--` but is neither a flag some arg* helper was asked about
 * nor the value of one. Call once the binary has parsed every flag
 * it knows, so a mistyped or retired flag fails before the run
 * instead of being silently ignored.
 */
inline void
rejectUnknownFlags(int argc, char **argv)
{
    const std::map<std::string, bool> &known = detail::knownFlags();
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            continue;
        const auto flag = known.find(argv[i]);
        if (flag == known.end())
            support::fatal(std::string(argv[0]) + ": unknown flag " +
                           argv[i]);
        if (flag->second)
            ++i; // its value
    }
}

/**
 * Parse the shared `--backend NAME` flag: the kernel backend the
 * four hot kernels run on ("scalar", "simd", or "auto" for
 * CPUID-based dispatch; see docs/KERNEL_BACKENDS.md). Exits with a
 * usage error on names missing from the registry. All backends are
 * bit-exact, so the flag moves only the performance axis.
 */
inline std::string
backendFromArgs(int argc, char **argv)
{
    const char *name = argString(argc, argv, "--backend", "scalar");
    std::string error;
    if (!kfusion::resolveKernelBackend(name, &error))
        support::fatal(std::string(argv[0]) + ": --backend: " + error);
    return name;
}

/**
 * Parse the shared volume-backend flags into @p config:
 *
 *   --volume NAME        TSDF map data structure, "dense" (default)
 *                        or "sparse" (hashed voxel blocks; see
 *                        docs/ARCHITECTURE.md "Volume backends")
 *   --block-size N       sparse voxel-block edge, 8 or 16
 *   --pool-capacity N    sparse resident-block cap (0 = unbounded)
 *
 * Exits with a usage error on invalid values. Sparse is bit-identical
 * to dense on the observed region, so like `--backend` these flags
 * move only the performance/memory axes.
 */
inline void
volumeFromArgs(int argc, char **argv, kfusion::KFusionConfig &config)
{
    config.volumeBackend =
        argString(argc, argv, "--volume", config.volumeBackend.c_str());
    config.volumeBlockSize = static_cast<int>(argLong(
        argc, argv, "--block-size", config.volumeBlockSize));
    config.volumePoolCapacity = argLong(
        argc, argv, "--pool-capacity", config.volumePoolCapacity);
    if (!kfusion::volumeBackendNameValid(config.volumeBackend))
        support::fatal(std::string(argv[0]) +
                       ": --volume: unknown volume backend '" +
                       config.volumeBackend +
                       "' (valid: dense, sparse)");
    if (config.volumeBlockSize != 8 && config.volumeBlockSize != 16)
        support::fatal(std::string(argv[0]) +
                       ": --block-size must be 8 or 16");
    if (config.volumePoolCapacity < 0)
        support::fatal(std::string(argv[0]) +
                       ": --pool-capacity must be >= 0");
}

/**
 * Parse the shared `--dse-threads N` flag: worker threads for the
 * parallel DSE drivers (and, where a bench evaluates fixed
 * configurations itself, its own evaluation pool). 0 (the default)
 * means hardware concurrency; 1 selects the legacy serial path. Any
 * value produces byte-identical evaluation sequences — only the wall
 * clock changes.
 */
inline size_t
dseThreadsFromArgs(int argc, char **argv)
{
    const long value = argLong(argc, argv, "--dse-threads", 0);
    return value < 0 ? 0 : static_cast<size_t>(value);
}

/**
 * Arm per-kernel tracing from the shared `--trace FILE` flag: a
 * chrome://tracing span timeline (JSON) whose kernel spans carry
 * their frame index, so per-(frame, kernel) host time is recoverable
 * from it (docs/OBSERVABILITY.md). Keep the returned session alive
 * for the whole measured run; the file is written when it goes out
 * of scope. Without the flag the session is inert and tracing stays
 * disabled.
 */
inline support::trace::Session
traceSessionFromArgs(int argc, char **argv)
{
    return support::trace::Session(
        argString(argc, argv, "--trace", ""));
}

/**
 * Arm a machine-readable run report from the shared bench flags:
 *
 *   --metrics-json FILE  versioned JSON run report
 *   --frames-csv FILE    per-frame telemetry table (CSV)
 *
 * Keep the returned session alive for the whole measured run; the
 * files are written by finish() (or at destruction) and the paths are
 * logged at INFO. With neither flag the session is inert.
 */
inline support::metrics::RunSession
metricsSessionFromArgs(int argc, char **argv, const char *generator)
{
    return support::metrics::RunSession(
        argString(argc, argv, "--metrics-json", ""),
        argString(argc, argv, "--frames-csv", ""), generator);
}

/**
 * Arm end-to-end request tracing from the shared bench flags
 * (docs/OBSERVABILITY.md "Request tracing"):
 *
 *   --trace-requests       arm per-frame request traces with
 *                          tail-based retention (SLO breaches,
 *                          tracking losses, and top-bucket frames
 *                          always kept; the rest sampled)
 *   --trace-sample-rate P  retention probability for unflagged
 *                          frames (default 0.01; implies
 *                          --trace-requests)
 *   --trace-store N        retained-trace ring size (default 256;
 *                          implies --trace-requests)
 *
 * Keep the returned session alive for the whole run; retained traces
 * are served by `/tracez?trace_id=...` and linked from `/metrics`
 * histogram exemplars. With none of the flags the session is inert
 * and every span costs a single relaxed load.
 */
inline support::trace::RequestTraceSession
requestTraceFromArgs(int argc, char **argv)
{
    support::trace::RequestTraceOptions options;
    options.sampleRate = argDouble(argc, argv,
                                   "--trace-sample-rate", -1.0);
    const long store = argLong(argc, argv, "--trace-store", 0);
    const bool armed = argFlag(argc, argv, "--trace-requests") ||
                       options.sampleRate >= 0.0 || store > 0;
    if (options.sampleRate < 0.0)
        options.sampleRate = 0.01;
    if (options.sampleRate > 1.0)
        options.sampleRate = 1.0;
    if (store > 0)
        options.maxRetained = static_cast<size_t>(store);
    return support::trace::RequestTraceSession(armed, options);
}

/**
 * Arm live telemetry from the shared bench flags
 * (docs/OBSERVABILITY.md "Live telemetry"):
 *
 *   --telemetry-port N    serve /metrics, /healthz, /runz on
 *                         127.0.0.1:N (0 = pick an ephemeral port,
 *                         logged at INFO)
 *   --crash-dump FILE     fatal-signal flight-recorder dump path
 *                         (default <generator>_crash.json once any
 *                         telemetry flag is set)
 *   --recorder-slots N    flight-recorder ring capacity (default
 *                         1024; rounded up to a power of two)
 *   --slo-frame-p99-ms X  healthz SLO: live frame-time p99 <= X ms
 *   --slo-max-ate X       healthz SLO: per-frame ATE <= X meters
 *   --slo-max-lost N      healthz SLO: <= N consecutive tracking
 *                         failures
 *   --slo-queue-stall-ms X healthz SLO: no pool queue stalled > X ms
 *
 * Keep the returned endpoint alive for the whole run; with none of
 * the flags it is inert and the frame loop pays a single relaxed
 * atomic load per frame.
 */
inline support::telemetry::TelemetryEndpoint
telemetryFromArgs(int argc, char **argv, const char *generator)
{
    support::telemetry::TelemetryOptions options;
    options.port = static_cast<int>(
        argLong(argc, argv, "--telemetry-port", -1));
    options.crashDumpPath =
        argString(argc, argv, "--crash-dump", "");
    const long slots =
        argLong(argc, argv, "--recorder-slots", 1024);
    options.recorderSlots =
        slots <= 0 ? 1024 : static_cast<size_t>(slots);
    options.generator = generator;
    options.slo.frameP99Seconds =
        argDouble(argc, argv, "--slo-frame-p99-ms", 0.0) * 1e-3;
    options.slo.maxAteMeters =
        argDouble(argc, argv, "--slo-max-ate", 0.0);
    options.slo.maxConsecutiveTrackingFailures =
        argLong(argc, argv, "--slo-max-lost", 0);
    options.slo.poolQueueStallSeconds =
        argDouble(argc, argv, "--slo-queue-stall-ms", 0.0) * 1e-3;
    return support::telemetry::TelemetryEndpoint(options);
}

/**
 * Apply the shared logging flags: `--quiet` raises the threshold to
 * warnings (suppressing the INFO output-path and summary lines),
 * `--verbose` lowers it to DEBUG (per-evaluation DSE report lines).
 */
inline void
applyLogFlags(int argc, char **argv)
{
    // Both are looked up so rejectUnknownFlags() knows both.
    const bool quiet = argFlag(argc, argv, "--quiet");
    const bool verbose = argFlag(argc, argv, "--verbose");
    if (quiet)
        support::setLogLevel(support::LogLevel::Warn);
    else if (verbose)
        support::setLogLevel(support::LogLevel::Debug);
}

/** Run one configuration on the workload; returns benchmark result. */
inline core::BenchmarkResult
runConfig(const kfusion::KFusionConfig &config,
          const dataset::Sequence &sequence)
{
    core::KFusionSystem system(config);
    core::BenchmarkOptions options;
    options.alignedAte = false;
    return core::runBenchmark(system, sequence, options);
}

} // namespace slambench::bench

#endif // SLAMBENCH_BENCH_COMMON_HPP
