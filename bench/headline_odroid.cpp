/**
 * @file
 * HEADLINE — reproduces the paper's in-text claims on the (simulated)
 * Odroid-XU3: the HyperMapper-tuned configuration achieves dense 3D
 * mapping and tracking in the real-time range within a 1 W power
 * budget, a ~4.8x execution-time improvement and ~2.8x power
 * reduction over the state-of-the-art default configuration, while
 * keeping Max ATE below 5 cm.
 *
 * Options: --frames N, --dse-threads N.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "support/thread_pool.hpp"

int
main(int argc, char **argv)
{
    using namespace slambench;
    using namespace slambench::bench;

    applyLogFlags(argc, argv);
    const size_t frames = argCount(argc, argv, "--frames", 30);
    const size_t dse_threads = dseThreadsFromArgs(argc, argv);
    const support::trace::Session trace_session =
        traceSessionFromArgs(argc, argv);
    support::metrics::RunSession metrics_session =
        metricsSessionFromArgs(argc, argv, "headline_odroid");
    // --telemetry-port N (+ --crash-dump / --slo-*): live /metrics,
    // /healthz, /runz server and crash-surviving flight recorder.
    const support::telemetry::TelemetryEndpoint telemetry =
        telemetryFromArgs(argc, argv, "headline_odroid");
    // --trace-requests / --trace-sample-rate / --trace-store:
    // per-frame request traces with tail-based retention.
    const support::trace::RequestTraceSession request_traces =
        requestTraceFromArgs(argc, argv);

    struct Row
    {
        const char *label;
        kfusion::KFusionConfig config;
        core::EvaluatedConfig result;
    };
    Row rows[2] = {{"default (state of the art)", defaultConfig(), {}},
                   {"tuned (HyperMapper)", tunedConfig(), {}}};
    // --backend applies to both rows (bit-exact, performance only).
    const std::string backend = backendFromArgs(argc, argv);
    for (Row &row : rows) {
        row.config.kernelBackend = backend;
        // --volume likewise applies to both rows.
        volumeFromArgs(argc, argv, row.config);
    }
    rejectUnknownFlags(argc, argv);

    std::printf("HEADLINE: default vs tuned on the simulated "
                "odroid-xu3 (%zu frames)\n\n",
                frames);
    const dataset::Sequence sequence =
        generateSequence(canonicalWorkload(frames));
    const auto xu3 = devices::odroidXu3();

    // Both evaluations are independent full pipeline runs; run them
    // concurrently (unless --dse-threads 1) and report serially so
    // the output order is stable.
    if (dse_threads == 1) {
        for (Row &row : rows)
            row.result = core::evaluateConfigOnDevice(row.config,
                                                      sequence, xu3);
    } else {
        support::ThreadPool pool(dse_threads == 0 ? 2 : dse_threads);
        pool.parallelFor(0, 2, [&](size_t i) {
            rows[i].result = core::evaluateConfigOnDevice(
                rows[i].config, sequence, xu3);
        });
    }

    for (Row &row : rows) {
        std::printf("%-27s %s\n", row.label,
                    row.config.toString().c_str());
        std::printf(
            "  runtime %.1f ms/frame (%.1f FPS) | power %.2f W paced "
            "(%.2f W batch) | max ATE %.4f m | tracked %.0f%%\n\n",
            row.result.simulated.meanFrameSeconds * 1e3,
            row.result.simulated.meanFps,
            row.result.simulated.pacedWatts,
            row.result.simulated.meanWatts, row.result.ate.maxAte,
            row.result.trackedFraction * 100.0);
    }

    const auto &d = rows[0].result;
    const auto &t = rows[1].result;
    const double speedup = d.simulated.meanFrameSeconds /
                           t.simulated.meanFrameSeconds;
    const double power_reduction =
        d.simulated.pacedWatts / t.simulated.pacedWatts;

    std::printf("--- paper claims vs this reproduction ---\n");
    std::printf("%-42s paper %-8s measured\n", "claim", "");
    std::printf("%-42s %-14s %.2fx\n",
                "execution-time improvement", "4.8x", speedup);
    std::printf("%-42s %-14s %.2fx\n", "power reduction", "2.8x",
                power_reduction);
    std::printf("%-42s %-14s %.2f W (%s)\n", "within 1 W budget",
                "< 1 W", t.simulated.pacedWatts,
                t.simulated.pacedWatts < 1.0 ? "met" : "MISSED");
    std::printf("%-42s %-14s %.1f FPS (%s)\n",
                "real-time range", ">= 25 FPS",
                t.simulated.meanFps,
                t.simulated.meanFps >= 25.0 ? "met" : "MISSED");
    std::printf("%-42s %-14s %.4f m (%s)\n", "accuracy preserved",
                "ATE < 5 cm", t.ate.maxAte,
                t.ate.maxAte < 0.05 ? "met" : "MISSED");

    // --- Machine-readable run report ---
    core::addConfigParams(metrics_session, rows[1].config);
    core::appendRunTelemetry(metrics_session, "default", d.bench,
                             &xu3);
    core::appendRunTelemetry(metrics_session, "tuned", t.bench, &xu3);
    metrics_session.setSummary("speedup", speedup);
    metrics_session.setSummary("power_reduction", power_reduction);
    metrics_session.setSummary("tuned_watts_paced",
                               t.simulated.pacedWatts);
    metrics_session.setSummary("tuned_fps", t.simulated.meanFps);
    metrics_session.finish();
    return 0;
}
