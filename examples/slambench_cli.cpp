/**
 * @file
 * The SLAMBench-style command-line harness: pick a dataset, a SLAM
 * system, a configuration, and a device model entirely from flags,
 * run the benchmark, and print the metric triple. Mirrors the flag
 * set of the original `kfusion-benchmark` binaries.
 *
 * Examples:
 *   slambench_cli --frames 60
 *   slambench_cli --scene office --trajectory b --vr 128 --csr 2
 *   slambench_cli --system odometry --dump-trajectory est.txt
 *   slambench_cli --vr 64 --ir 8 --mu 0.16 --pyramid 4,3,2 \
 *                 --dump-mesh map.obj --align
 */

#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "core/benchmark.hpp"
#include "core/odometry.hpp"
#include "core/report.hpp"
#include "core/slam_system.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "kfusion/mesh.hpp"
#include "metrics/reconstruction.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"

namespace {

using namespace slambench;

void
usage()
{
    std::printf(
        "slambench_cli — benchmark a SLAM system on a synthetic "
        "RGB-D sequence\n\n"
        "dataset:\n"
        "  --scene living-room|office     (default living-room)\n"
        "  --trajectory a|b|c             (default a = orbit)\n"
        "  --frames N                     (default 40)\n"
        "  --width W --height H           (default 320x240)\n"
        "  --no-noise                     disable the sensor model\n"
        "  --seed S                       sensor noise seed\n\n"
        "system:\n"
        "  --system kfusion|odometry      (default kfusion)\n"
        "  --impl sequential|threaded     (default sequential)\n"
        "  --dse-threads N                worker threads for the "
        "threaded impl\n"
        "                                 (0 = hardware concurrency, "
        "1 = serial)\n\n"
        "kfusion configuration (SLAMBench flags):\n"
        "  --csr {1,2,4,8}   compute-size ratio\n"
        "  --icp T           ICP convergence threshold\n"
        "  --mu M            TSDF truncation, meters\n"
        "  --ir N            integration rate\n"
        "  --vr N            volume resolution (voxels/edge)\n"
        "  --vs S            volume size, meters\n"
        "  --pyramid a,b,c   ICP iterations per level\n"
        "  --tr N            tracking rate\n"
        "  --rr N            rendering rate\n"
        "  --backend NAME    kernel backend: scalar|simd|mixed|auto "
        "(default scalar;\n"
        "                    bit-exact, see docs/KERNEL_BACKENDS.md)"
        "\n"
        "  --volume NAME     TSDF map data structure: dense|sparse "
        "(default dense;\n"
        "                    bit-identical on the observed region, "
        "see\n"
        "                    docs/ARCHITECTURE.md \"Volume "
        "backends\")\n"
        "  --block-size N    sparse voxel-block edge: 8|16 "
        "(default 8)\n"
        "  --pool-capacity N sparse resident-block cap "
        "(default 0 = unbounded)\n\n"
        "outputs:\n"
        "  --align                  also report rigidly aligned ATE\n"
        "  --trace FILE             chrome://tracing span timeline "
        "(JSON)\n"
        "  --metrics-json FILE      machine-readable run report "
        "(JSON)\n"
        "  --frames-csv FILE        per-frame telemetry table (CSV)\n"
        "  --telemetry-port N       serve /metrics, /healthz, /runz "
        "on 127.0.0.1:N\n"
        "                           (0 = ephemeral port, logged at "
        "INFO)\n"
        "  --crash-dump FILE        fatal-signal flight-recorder "
        "dump (JSON)\n"
        "  --slo-frame-p99-ms X     healthz SLO: frame-time p99 "
        "<= X ms\n"
        "  --slo-max-ate X          healthz SLO: per-frame ATE "
        "<= X m\n"
        "  --slo-max-lost N         healthz SLO: <= N consecutive "
        "lost frames\n"
        "  --slo-queue-stall-ms X   healthz SLO: no pool stall "
        "> X ms\n"
        "  --recorder-slots N       flight-recorder ring capacity "
        "(default 1024)\n"
        "  --trace-requests         per-frame request traces with "
        "tail-based\n"
        "                           retention (query /tracez)\n"
        "  --trace-sample-rate P    retention probability for "
        "unflagged frames\n"
        "                           (default 0.01; implies "
        "--trace-requests)\n"
        "  --trace-store N          retained-trace ring size "
        "(default 256;\n"
        "                           implies --trace-requests)\n"
        "  --quiet                  warnings only (suppress INFO "
        "output-path lines)\n"
        "  --verbose                DEBUG logging\n"
        "  --dump-trajectory FILE   estimated trajectory (TUM)\n"
        "  --dump-groundtruth FILE  ground truth (TUM)\n"
        "  --dump-mesh FILE         reconstructed map (.obj, "
        "kfusion only)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace slambench::bench;

    if (argFlag(argc, argv, "--help") || argFlag(argc, argv, "-h")) {
        usage();
        return 0;
    }

    // The observability flags shared with the figure benches
    // (docs/OBSERVABILITY.md): span timeline, run report, live
    // telemetry, and request traces.
    applyLogFlags(argc, argv);
    const support::trace::Session trace_session =
        traceSessionFromArgs(argc, argv);
    support::metrics::RunSession metrics_session =
        metricsSessionFromArgs(argc, argv, "slambench_cli");
    const support::telemetry::TelemetryEndpoint telemetry =
        telemetryFromArgs(argc, argv, "slambench_cli");
    const support::trace::RequestTraceSession request_trace_session =
        requestTraceFromArgs(argc, argv);

    // --- Dataset ---
    dataset::SequenceSpec spec;
    const char *scene = argString(argc, argv, "--scene", nullptr);
    if (scene && std::string(scene) == "office")
        spec.scene = dataset::SceneId::Office;
    else if (scene && std::string(scene) != "living-room")
        support::fatal("unknown --scene (living-room|office)");
    const char *trajectory =
        argString(argc, argv, "--trajectory", nullptr);
    if (trajectory &&
        !dataset::parsePreset(trajectory, spec.trajectory))
        support::fatal("unknown --trajectory (a|b|c)");
    spec.numFrames = argCount(argc, argv, "--frames", 40);
    spec.width = argCount(argc, argv, "--width", 320);
    spec.height = argCount(argc, argv, "--height", 240);
    spec.sensorNoise = !argFlag(argc, argv, "--no-noise");
    spec.seed = static_cast<uint64_t>(argLong(argc, argv, "--seed", 42));
    spec.renderRgb = false;

    // --- Configuration ---
    kfusion::KFusionConfig config;
    config.computeSizeRatio = static_cast<int>(
        argLong(argc, argv, "--csr", config.computeSizeRatio));
    config.icpThreshold = static_cast<float>(
        argDouble(argc, argv, "--icp", config.icpThreshold));
    config.mu =
        static_cast<float>(argDouble(argc, argv, "--mu", config.mu));
    config.integrationRate = static_cast<int>(
        argLong(argc, argv, "--ir", config.integrationRate));
    config.volumeResolution = static_cast<int>(
        argLong(argc, argv, "--vr", config.volumeResolution));
    config.volumeSize = static_cast<float>(
        argDouble(argc, argv, "--vs", config.volumeSize));
    config.trackingRate = static_cast<int>(
        argLong(argc, argv, "--tr", config.trackingRate));
    config.renderingRate = static_cast<int>(
        argLong(argc, argv, "--rr", config.renderingRate));
    config.kernelBackend = backendFromArgs(argc, argv);
    volumeFromArgs(argc, argv, config);
    if (const char *pyramid =
            argString(argc, argv, "--pyramid", nullptr)) {
        config.pyramidIterations.clear();
        for (const std::string &field :
             support::split(pyramid, ',')) {
            long iters = 0;
            if (!support::parseLong(field, iters))
                support::fatal("bad --pyramid (want e.g. 10,5,4)");
            config.pyramidIterations.push_back(
                static_cast<int>(iters));
        }
    }

    kfusion::Implementation impl = kfusion::Implementation::Sequential;
    if (const char *impl_flag =
            argString(argc, argv, "--impl", nullptr)) {
        if (std::string(impl_flag) == "threaded")
            impl = kfusion::Implementation::Threaded;
        else if (std::string(impl_flag) != "sequential")
            support::fatal("unknown --impl (sequential|threaded)");
    }
    // Shared with the DSE benches: worker-thread count (0 = hardware
    // concurrency). Here it sizes the Threaded kernels' pool.
    const size_t num_threads = dseThreadsFromArgs(argc, argv);
    const std::string system_name =
        argString(argc, argv, "--system", "kfusion");
    core::BenchmarkOptions options;
    options.alignedAte = argFlag(argc, argv, "--align");
    const char *trajectory_path =
        argString(argc, argv, "--dump-trajectory", nullptr);
    const char *groundtruth_path =
        argString(argc, argv, "--dump-groundtruth", nullptr);
    const char *mesh_path =
        argString(argc, argv, "--dump-mesh", nullptr);
    rejectUnknownFlags(argc, argv);

    std::printf("generating %zu frames (%zux%zu, %s, trajectory "
                "%s)...\n",
                spec.numFrames, spec.width, spec.height,
                spec.scene == dataset::SceneId::Office
                    ? "office"
                    : "living-room",
                trajectory ? trajectory : "a");
    const dataset::Sequence sequence = generateSequence(spec);

    // --- System ---
    std::unique_ptr<core::SlamSystem> system;
    core::KFusionSystem *kfusion_system = nullptr;
    if (system_name == "kfusion") {
        auto kf = std::make_unique<core::KFusionSystem>(config, impl,
                                                        num_threads);
        kfusion_system = kf.get();
        system = std::move(kf);
    } else if (system_name == "odometry") {
        core::OdometryConfig odo;
        odo.computeSizeRatio = config.computeSizeRatio;
        odo.pyramidIterations = config.pyramidIterations;
        odo.icpThreshold = config.icpThreshold;
        system = std::make_unique<core::OdometrySystem>(odo);
    } else {
        support::fatal("unknown --system (kfusion|odometry)");
    }

    std::printf("running %s (%s)...\n", system->name().c_str(),
                config.toString().c_str());
    core::addConfigParams(metrics_session, config);
    const core::BenchmarkResult result =
        core::runBenchmark(*system, sequence, options);

    // --- Report ---
    const auto xu3 = devices::odroidXu3();
    std::printf("\n%s",
                core::summarizeRun(result, xu3, system->name()).c_str());
    if (options.alignedAte)
        std::printf("aligned     : max ATE %.4f m | RMSE %.4f m\n",
                    result.ateAligned.maxAte, result.ateAligned.rmse);

    const auto sim = devices::simulateRun(xu3, result.frameWork);
    core::appendRunTelemetry(metrics_session, system_name, result,
                             &xu3);
    metrics_session.setSummary("sim_frame_seconds_mean",
                               sim.meanFrameSeconds);
    metrics_session.setSummary("sim_watts_paced", sim.pacedWatts);

    // --- Optional artifacts ---
    if (trajectory_path) {
        dataset::Trajectory estimated;
        for (size_t i = 0; i < result.estimatedPoses.size(); ++i)
            estimated.append(result.estimatedPoses[i],
                             sequence.groundTruth.timestamp(i));
        if (estimated.saveTum(trajectory_path))
            std::printf("wrote %s\n", trajectory_path);
    }
    if (groundtruth_path &&
        sequence.groundTruth.saveTum(groundtruth_path))
        std::printf("wrote %s\n", groundtruth_path);
    if (mesh_path) {
        if (!kfusion_system) {
            std::printf("--dump-mesh requires --system kfusion\n");
        } else {
            const kfusion::TriangleMesh mesh = kfusion::extractMesh(
                kfusion_system->pipeline().volume());
            if (mesh.saveObj(mesh_path)) {
                const auto recon =
                    metrics::computeReconstructionError(
                        mesh, dataset::makeScene(spec.scene), 5);
                std::printf("wrote %s (%zu triangles, surface RMSE "
                            "%.4f m)\n",
                            mesh_path, mesh.triangleCount(),
                            recon.rmse);
            }
        }
    }
    metrics_session.finish();
    return 0;
}
