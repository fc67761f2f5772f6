/**
 * @file
 * slambench_serve — the multi-session SLAM service: N independent
 * tenant sessions, each a full KinectFusion pipeline fed by a
 * simulated device stream (fleet device model x dataset generator),
 * frame-batch scheduled over a shared ThreadPool with admission
 * control / load shedding, per-tenant labels on /metrics and /runz,
 * and graceful drain on SIGTERM. See docs/SERVING.md.
 *
 * Examples:
 *   slambench_serve --serve-tenants 8 --serve-ticks 40 \
 *                   --telemetry-port 9090
 *   slambench_serve --telemetry-port 9090 \
 *                   --slo-queue-stall-ms 200       # run until SIGTERM
 *   slambench_serve --serve-ticks 30 --serve-stall-tick 10 \
 *                   --serve-stall-ms 300 --slo-queue-stall-ms 100 \
 *                   --serve-queue-hi 4              # watch shedding
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/telemetry_server.hpp"
#include "support/trace.hpp"

namespace {

using namespace slambench;

void
usage()
{
    std::printf(
        "slambench_serve — multi-session SLAM service "
        "(docs/SERVING.md)\n\n"
        "service:\n"
        "  --serve-tenants N     concurrent tenant sessions "
        "(default 8)\n"
        "  --serve-ticks N       scheduling ticks to run; 0 = run "
        "until SIGTERM\n"
        "                        (default 0)\n"
        "  --serve-threads N     scheduler pool workers (0 = "
        "hardware concurrency)\n\n"
        "admission control (load shedding):\n"
        "  --serve-queue-hi N    engage shedding at this peak pool "
        "queue depth\n"
        "                        (default 64)\n"
        "  --serve-queue-lo N    clearing requires peak depth <= N "
        "(default 4)\n"
        "  --serve-p99-ms X      engage when smoothed frame p99 "
        "exceeds X ms\n"
        "                        (0 disables; default 0)\n"
        "  --serve-clear-ticks N consecutive healthy ticks before "
        "shedding clears\n"
        "                        (default 3)\n"
        "  --serve-max-tenant-mb X engage when any tenant's TSDF "
        "volume reaches\n"
        "                        X MiB resident (0 disables; default "
        "0; pair with\n"
        "                        --volume sparse, whose footprint "
        "grows with the\n"
        "                        observed surface)\n\n"
        "fault injection (tests):\n"
        "  --serve-stall-tick N  flood the pool with sleeping "
        "blockers at tick N\n"
        "  --serve-stall-ms X    blocker sleep, milliseconds\n\n"
        "tenant streams:\n"
        "  --frames N            frames per rendered stream "
        "(default 16; streams\n"
        "                        wrap into fresh epochs)\n"
        "  --width W --height H  stream resolution (default "
        "160x120)\n"
        "  --seed S              base stream seed (default 42)\n"
        "  --fleet-seed S        device-fleet seed (default 2018)\n\n"
        "pipeline (per tenant):\n"
        "  --vr N                volume resolution (default 64)\n"
        "  --csr {1,2,4,8}       compute-size ratio (default 2)\n"
        "  --backend NAME        kernel backend: "
        "scalar|simd|mixed|auto\n"
        "  --volume NAME         TSDF map: dense|sparse (default "
        "dense)\n"
        "  --block-size N        sparse voxel-block edge: 8|16\n"
        "  --pool-capacity N     sparse resident-block cap (0 = "
        "unbounded)\n\n"
        "observability (docs/OBSERVABILITY.md):\n"
        "  --telemetry-port N    serve /metrics, /healthz, /runz, "
        "/tracez\n"
        "                        on 127.0.0.1:N (0 = ephemeral)\n"
        "  --crash-dump FILE     fatal-signal flight-recorder dump\n"
        "  --slo-frame-p99-ms X  healthz SLO: frame p99 <= X ms\n"
        "  --slo-max-ate X       healthz SLO: per-frame ATE <= X m\n"
        "  --slo-max-lost N      healthz SLO: <= N consecutive lost "
        "frames\n"
        "  --slo-queue-stall-ms X healthz SLO: no pool stall > X "
        "ms\n"
        "  --recorder-slots N    flight-recorder ring capacity "
        "(default 1024)\n"
        "  --trace-requests      arm per-frame request traces "
        "(tail-based\n"
        "                        retention; query "
        "/tracez?trace_id=...)\n"
        "  --trace-sample-rate P retention probability for "
        "unflagged frames\n"
        "                        (default 0.01; implies "
        "--trace-requests)\n"
        "  --trace-store N       retained-trace ring size (default "
        "256; implies\n"
        "                        --trace-requests)\n"
        "  --metrics-json FILE   run report; frames carry the "
        "tenant id as label\n"
        "  --frames-csv FILE     per-frame telemetry table (CSV)\n"
        "  --quiet / --verbose   log level\n");
}

/** Drain target of the SIGTERM/SIGINT handler. */
std::atomic<serve::StreamScheduler *> g_scheduler{nullptr};

void
handleDrainSignal(int)
{
    // Async-signal-safe: requestDrain is one relaxed atomic store.
    if (auto *scheduler =
            g_scheduler.load(std::memory_order_relaxed))
        scheduler->requestDrain();
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

    // Belt and braces on top of the server's send(MSG_NOSIGNAL): no
    // stray SIGPIPE (a scraper gone mid-response, a closed log pipe)
    // may ever kill a long-running service.
    std::signal(SIGPIPE, SIG_IGN);

    applyLogFlags(argc, argv);

    const size_t tenants = static_cast<size_t>(
        std::max(1L, argLong(argc, argv, "--serve-tenants", 8)));
    const uint64_t ticks = static_cast<uint64_t>(
        std::max(0L, argLong(argc, argv, "--serve-ticks", 0)));

    // Run report: one frame row per processed frame, labeled with
    // the producing tenant's id.
    support::metrics::RunSession metrics_session =
        metricsSessionFromArgs(argc, argv, "slambench_serve");
    const support::telemetry::TelemetryEndpoint telemetry =
        telemetryFromArgs(argc, argv, "slambench_serve");
    // Request tracing: every frame through the scheduler gets a
    // TraceContext; tail-based retention keeps SLO breaches,
    // tracking losses, and top-bucket frames, plus a sampled slice
    // of normal traffic (docs/OBSERVABILITY.md "Request tracing").
    const support::trace::RequestTraceSession trace_session =
        requestTraceFromArgs(argc, argv);

    // --- Tenant fleet ---
    const auto fleet = devices::mobileFleet(
        std::max<size_t>(tenants, 8),
        static_cast<uint64_t>(
            argLong(argc, argv, "--fleet-seed", 2018)));

    kfusion::KFusionConfig kfusion_config;
    kfusion_config.volumeResolution =
        static_cast<int>(argLong(argc, argv, "--vr", 64));
    kfusion_config.computeSizeRatio =
        static_cast<int>(argLong(argc, argv, "--csr", 2));
    kfusion_config.kernelBackend = backendFromArgs(argc, argv);
    volumeFromArgs(argc, argv, kfusion_config);

    dataset::SequenceSpec base_spec;
    base_spec.numFrames = argCount(argc, argv, "--frames", 16);
    base_spec.width = argCount(argc, argv, "--width", 160);
    base_spec.height = argCount(argc, argv, "--height", 120);
    base_spec.renderRgb = false;
    const uint64_t base_seed =
        static_cast<uint64_t>(argLong(argc, argv, "--seed", 42));

    serve::SchedulerOptions scheduler_options;
    scheduler_options.threads = static_cast<size_t>(
        std::max(0L, argLong(argc, argv, "--serve-threads", 0)));
    scheduler_options.admission.queueHiWatermark =
        static_cast<size_t>(
            std::max(1L, argLong(argc, argv, "--serve-queue-hi",
                                  64)));
    scheduler_options.admission.queueLoWatermark =
        static_cast<size_t>(
            std::max(0L, argLong(argc, argv, "--serve-queue-lo",
                                  4)));
    scheduler_options.admission.frameP99TargetSeconds =
        argDouble(argc, argv, "--serve-p99-ms", 0.0) * 1e-3;
    scheduler_options.admission.clearAfterHealthyTicks =
        static_cast<int>(
            std::max(1L, argLong(argc, argv, "--serve-clear-ticks",
                                  3)));
    scheduler_options.admission.maxTenantVolumeBytes =
        static_cast<uint64_t>(
            std::max(0.0, argDouble(argc, argv,
                                     "--serve-max-tenant-mb", 0.0)) *
            (1 << 20));
    scheduler_options.stallAtTick = static_cast<uint64_t>(
        std::max(0L, argLong(argc, argv, "--serve-stall-tick", 0)));
    scheduler_options.stallMs =
        argDouble(argc, argv, "--serve-stall-ms", 0.0);
    rejectUnknownFlags(argc, argv);

    std::printf("standing up %zu tenant sessions (%zux%zu, %zu "
                "frames/stream, vr=%d, csr=%d)...\n",
                tenants, base_spec.width, base_spec.height,
                base_spec.numFrames,
                kfusion_config.volumeResolution,
                kfusion_config.computeSizeRatio);

    static const dataset::TrajectoryPreset kPresets[] = {
        dataset::TrajectoryPreset::OrbitA,
        dataset::TrajectoryPreset::SweepB,
        dataset::TrajectoryPreset::CloseupC,
    };
    std::vector<std::unique_ptr<serve::TenantSession>> sessions;
    sessions.reserve(tenants);
    for (size_t i = 0; i < tenants; ++i) {
        serve::TenantConfig tenant;
        char id[24];
        std::snprintf(id, sizeof(id), "t%02u",
                      static_cast<unsigned>(i));
        tenant.id = id;
        tenant.device = fleet[i % fleet.size()];
        tenant.kfusion = kfusion_config;
        tenant.sequence = base_spec;
        tenant.sequence.trajectory = kPresets[i % 3];
        tenant.sequence.seed = base_seed + i;
        tenant.sequence.name =
            tenant.id + "-" + tenant.device.name;
        sessions.push_back(
            std::make_unique<serve::TenantSession>(tenant));
        metrics_session.setParam("tenant." + tenant.id + ".device",
                                 tenant.device.name);
    }

    serve::StreamScheduler scheduler(std::move(sessions),
                                     scheduler_options);

    // Drain handler last, so it overrides the crash-dump handler the
    // TelemetryEndpoint installed for SIGTERM: for a service, TERM
    // is a routine drain request, not a crash.
    g_scheduler.store(&scheduler, std::memory_order_relaxed);
    struct sigaction drain_action;
    std::memset(&drain_action, 0, sizeof(drain_action));
    drain_action.sa_handler = handleDrainSignal;
    sigaction(SIGTERM, &drain_action, nullptr);
    sigaction(SIGINT, &drain_action, nullptr);

    if (ticks == 0)
        std::printf("serving until SIGTERM (pid %d)...\n",
                    static_cast<int>(getpid()));

    const uint64_t ran = scheduler.runLoop(ticks, &metrics_session);
    g_scheduler.store(nullptr, std::memory_order_relaxed);

    // --- Report ---
    const auto &admission = scheduler.admission();
    std::printf("\nserved %llu ticks: %llu frames processed, %llu "
                "shed (%llu shed episodes)\n",
                static_cast<unsigned long long>(ran),
                static_cast<unsigned long long>(
                    scheduler.framesProcessed()),
                static_cast<unsigned long long>(
                    scheduler.framesShed()),
                static_cast<unsigned long long>(
                    admission.engageCount()));
    std::printf("aggregate frame p99: %.2f ms%s\n",
                scheduler.aggregateFrameP99Seconds() * 1e3,
                admission.shedding() ? "  [still shedding]" : "");
    std::printf("%-6s %-22s %8s %6s %7s %8s\n", "tenant", "device",
                "frames", "shed", "epochs", "vol_mib");
    for (const auto &tenant : scheduler.sessions()) {
        std::printf("%-6s %-22s %8llu %6llu %7llu %8.1f\n",
                    tenant->id().c_str(),
                    tenant->device().name.c_str(),
                    static_cast<unsigned long long>(
                        tenant->framesProcessed()),
                    static_cast<unsigned long long>(
                        tenant->framesShed()),
                    static_cast<unsigned long long>(
                        tenant->epochs()),
                    static_cast<double>(tenant->volumeBytes()) /
                        (1 << 20));
    }

    metrics_session.setSummary("serve_ticks",
                               static_cast<double>(ran));
    metrics_session.setSummary(
        "serve_tenants", static_cast<double>(tenants));
    metrics_session.setSummary(
        "serve_frames_processed",
        static_cast<double>(scheduler.framesProcessed()));
    metrics_session.setSummary(
        "serve_frames_shed",
        static_cast<double>(scheduler.framesShed()));
    metrics_session.setSummary(
        "serve_shed_engaged",
        static_cast<double>(admission.engageCount()));
    metrics_session.setSummary(
        "serve_shed_cleared",
        static_cast<double>(admission.clearCount()));
    metrics_session.setSummary("serve_frame_p99_seconds",
                               scheduler.aggregateFrameP99Seconds());
    metrics_session.finish();
    return 0;
}
