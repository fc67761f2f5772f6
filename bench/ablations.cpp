/**
 * @file
 * ABLATIONS — per-parameter studies backing the design choices in
 * DESIGN.md section 7. Each study sweeps one axis of the pipeline
 * while keeping everything else at the default, and reports the
 * SLAMBench metric triple on the simulated Odroid-XU3:
 *
 *  1. bilateral filter on/off (and radius),
 *  2. TSDF truncation band (mu),
 *  3. volume resolution,
 *  4. pyramid iteration schedule,
 *  5. ICP residual (point-to-plane vs. point-to-point),
 *  6. integration rate.
 *
 * Output: ablations.csv plus readable tables on stdout.
 *
 * Options: --frames N, --quick, --dse-threads N.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "support/csv.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace slambench;
using namespace slambench::bench;

struct StudyRow
{
    std::string study;
    std::string variant;
    core::EvaluatedConfig result;
};

void
report(const std::vector<StudyRow> &rows)
{
    std::string current;
    for (const StudyRow &row : rows) {
        if (row.study != current) {
            current = row.study;
            std::printf("\n%s:\n", current.c_str());
            std::printf("  %-22s %10s %8s %10s %8s\n", "variant",
                        "ms/frame", "FPS", "maxATE(m)", "W");
        }
        std::printf("  %-22s %10.2f %8.2f %10.4f %8.2f%s\n",
                    row.variant.c_str(),
                    row.result.simulated.meanFrameSeconds * 1e3,
                    row.result.simulated.meanFps,
                    row.result.ate.maxAte,
                    row.result.simulated.pacedWatts,
                    row.result.valid ? "" : "  [invalid]");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    applyLogFlags(argc, argv);
    const bool quick = argFlag(argc, argv, "--quick");
    const size_t frames = argCount(argc, argv, "--frames", quick ? 8 : 30);
    const size_t dse_threads = dseThreadsFromArgs(argc, argv);
    const support::trace::Session trace_session =
        traceSessionFromArgs(argc, argv);
    support::metrics::RunSession metrics_session =
        metricsSessionFromArgs(argc, argv, "ablations");
    // --telemetry-port N (+ --crash-dump / --slo-*): live /metrics,
    // /healthz, /runz server and crash-surviving flight recorder.
    const support::telemetry::TelemetryEndpoint telemetry =
        telemetryFromArgs(argc, argv, "ablations");
    // --trace-requests / --trace-sample-rate / --trace-store:
    // per-frame request traces with tail-based retention.
    const support::trace::RequestTraceSession request_traces =
        requestTraceFromArgs(argc, argv);
    // Baseline for every study: a mid-cost configuration so sweeps
    // finish quickly but the volume still matters. --backend sets
    // the kernel backend for every variant (bit-exact, so it never
    // changes a study's accuracy column).
    kfusion::KFusionConfig base = defaultConfig();
    base.volumeResolution = quick ? 64 : 128;
    base.kernelBackend = backendFromArgs(argc, argv);
    // --volume applies to every variant too (bit-identical fusion).
    volumeFromArgs(argc, argv, base);
    rejectUnknownFlags(argc, argv);

    std::printf("ABLATIONS: single-axis sweeps on the simulated "
                "odroid-xu3 (%zu frames)\n",
                frames);
    const dataset::Sequence sequence =
        generateSequence(canonicalWorkload(frames));
    const auto xu3 = devices::odroidXu3();

    // Collect every (study, variant, config) first, evaluate the
    // whole batch (in parallel unless --dse-threads 1), then report
    // serially so the tables, telemetry, and CSV keep a stable order.
    std::vector<StudyRow> rows;
    std::vector<kfusion::KFusionConfig> configs;
    auto run = [&](const std::string &study,
                   const std::string &variant,
                   const kfusion::KFusionConfig &config) {
        StudyRow row;
        row.study = study;
        row.variant = variant;
        rows.push_back(std::move(row));
        configs.push_back(config);
    };
    core::addConfigParams(metrics_session, defaultConfig());

    // 1. Bilateral filter.
    for (int radius : {0, 1, 2, 4}) {
        kfusion::KFusionConfig c = base;
        c.filterRadius = radius;
        run("bilateral filter radius (0 = off)",
            "radius=" + std::to_string(radius), c);
    }

    // 2. TSDF truncation band.
    for (float mu : {0.025f, 0.05f, 0.1f, 0.2f}) {
        kfusion::KFusionConfig c = base;
        c.mu = mu;
        char label[32];
        std::snprintf(label, sizeof(label), "mu=%.3f", mu);
        run("TSDF truncation (mu)", label, c);
    }

    // 3. Volume resolution.
    for (int vr : {64, 96, 128, 192, 256}) {
        if (quick && vr > 128)
            continue;
        kfusion::KFusionConfig c = base;
        c.volumeResolution = vr;
        run("volume resolution", "vr=" + std::to_string(vr), c);
    }

    // 4. Pyramid iteration schedule.
    const std::vector<std::pair<std::string, std::vector<int>>>
        schedules{{"10,5,4 (default)", {10, 5, 4}},
                  {"4,3,2", {4, 3, 2}},
                  {"2,2,2", {2, 2, 2}},
                  {"12,0,0 (fine only)", {12, 0, 0}},
                  {"0,0,12 (coarse only)", {0, 0, 12}}};
    for (const auto &[label, iters] : schedules) {
        kfusion::KFusionConfig c = base;
        c.pyramidIterations = iters;
        run("pyramid ICP schedule", label, c);
    }

    // 5. ICP residual formulation.
    for (const bool p2p : {false, true}) {
        kfusion::KFusionConfig c = base;
        c.icpResidual = p2p ? kfusion::IcpResidual::PointToPoint
                            : kfusion::IcpResidual::PointToPlane;
        run("ICP residual", p2p ? "point-to-point" : "point-to-plane",
            c);
    }

    // 6. Integration rate.
    for (int rate : {1, 2, 4, 8, 15}) {
        kfusion::KFusionConfig c = base;
        c.integrationRate = rate;
        run("integration rate", "ir=" + std::to_string(rate), c);
    }

    const auto evaluate_one = [&](size_t i) {
        rows[i].result = core::evaluateConfigOnDevice(configs[i],
                                                      sequence, xu3);
    };
    if (dse_threads == 1) {
        for (size_t i = 0; i < rows.size(); ++i)
            evaluate_one(i);
    } else {
        support::ThreadPool pool(dse_threads);
        pool.parallelFor(0, rows.size(), evaluate_one);
    }
    // Every variant's frames land in the run report under its own
    // label, so two ablation runs can be diffed per variant.
    for (const StudyRow &row : rows)
        core::appendRunTelemetry(metrics_session, row.variant,
                                 row.result.bench, &xu3);

    report(rows);

    std::ofstream out("ablations.csv");
    support::CsvWriter csv(out, {"study", "variant", "ms_per_frame",
                                 "fps", "max_ate_m", "watts",
                                 "valid"});
    for (const StudyRow &row : rows) {
        csv.beginRow()
            .cell(row.study)
            .cell(row.variant)
            .cell(row.result.simulated.meanFrameSeconds * 1e3)
            .cell(row.result.simulated.meanFps)
            .cell(row.result.ate.maxAte)
            .cell(row.result.simulated.pacedWatts)
            .cell(row.result.valid ? "1" : "0");
    }
    csv.endRow();
    support::logInfo() << "wrote ablations.csv (" << csv.rowCount()
                       << " rows)";

    metrics_session.setSummary("ablation_variants",
                               static_cast<double>(rows.size()));
    metrics_session.finish();
    return 0;
}
