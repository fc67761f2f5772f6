#include "core/report.hpp"

#include <sstream>

#include "kfusion/backend.hpp"
#include "power/power_monitor.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"

namespace slambench::core {

namespace {

/** Sum host seconds of a kernel subset within one frame's work. */
double
kernelGroupSeconds(const kfusion::WorkCounts &work,
                   std::initializer_list<kfusion::KernelId> kernels)
{
    double seconds = 0.0;
    for (const kfusion::KernelId id : kernels)
        seconds += work.hostSecondsFor(id);
    return seconds;
}

/**
 * Build one frame's telemetry record from a benchmark run: phase
 * times partitioned from the frame's WorkCounts (preprocess / track
 * / integrate / raycast), ATE, tracking state and RSS.
 */
support::metrics::FrameTelemetry
frameTelemetry(const BenchmarkResult &result, size_t frame,
               const std::string &label)
{
    using kfusion::KernelId;
    support::metrics::FrameTelemetry t;
    t.label = label;
    t.frame = frame;
    const kfusion::WorkCounts &work = result.frameWork[frame];

    t.wallSeconds = frame < result.frameSeconds.size()
                        ? result.frameSeconds[frame]
                        : work.totalHostSeconds();
    t.preprocessSeconds = kernelGroupSeconds(
        work, {KernelId::Mm2Meters, KernelId::BilateralFilter,
               KernelId::HalfSample, KernelId::Depth2Vertex,
               KernelId::Vertex2Normal});
    t.trackSeconds = kernelGroupSeconds(
        work,
        {KernelId::Track, KernelId::Reduce, KernelId::Solve});
    t.integrateSeconds =
        kernelGroupSeconds(work, {KernelId::Integrate});
    t.raycastSeconds = kernelGroupSeconds(
        work, {KernelId::Raycast, KernelId::RenderVolume});
    t.ateMeters = frame < result.ate.perFrame.size()
                      ? result.ate.perFrame[frame]
                      : 0.0;
    t.tracked = frame < result.frameTracked.size()
                    ? static_cast<bool>(result.frameTracked[frame])
                    : true;
    t.integrated = work.itemsFor(KernelId::Integrate) > 0.0;
    t.rssPeakBytes = frame < result.frameRssPeak.size()
                         ? result.frameRssPeak[frame]
                         : support::metrics::peakRssBytes();
    return t;
}

} // namespace

std::string
summarizeRun(const BenchmarkResult &result,
             const devices::DeviceModel &device,
             const std::string &system_name)
{
    const devices::SimulatedRun sim =
        devices::simulateRun(device, result.frameWork);

    std::ostringstream out;
    out << "=== " << system_name << " ===\n";
    out << support::format(
        "frames      : %zu (%zu tracked, %.0f%%)\n", result.frames,
        result.trackedFrames, result.trackedFraction() * 100.0);
    out << support::format(
        "accuracy    : max ATE %.4f m | mean %.4f m | RMSE %.4f m\n",
        result.ate.maxAte, result.ate.meanAte, result.ate.rmse);
    out << support::format(
        "local drift : RPE %.5f m/frame | %.5f rad/frame\n",
        result.rpe.translationRmse, result.rpe.rotationRmse);
    out << support::format(
        "host        : %s\n",
        metrics::describeTiming(result.hostTiming).c_str());
    out << support::format(
        "%-12s: %.1f ms/frame (%.1f FPS) | %.2f W paced | %.2f W "
        "batch\n",
        device.name.c_str(), sim.meanFrameSeconds * 1e3, sim.meanFps,
        sim.pacedWatts, sim.meanWatts);
    out << "per-kernel work (items / bytes / host ms):\n";
    for (size_t k = 0; k < kfusion::kNumKernels; ++k) {
        const auto id = static_cast<kfusion::KernelId>(k);
        if (result.totalWork.itemsFor(id) == 0.0)
            continue;
        out << support::format(
            "  %-16s %14.0f %12.0f %10.2f\n", kfusion::kernelName(id),
            result.totalWork.itemsFor(id),
            result.totalWork.bytesFor(id),
            result.totalWork.hostSecondsFor(id) * 1e3);
    }
    return out.str();
}

void
addConfigParams(support::metrics::RunSession &session,
                const kfusion::KFusionConfig &config)
{
    if (!session.active())
        return;
    session.setParam("csr",
                     std::to_string(config.computeSizeRatio));
    session.setParam("icp", support::format("%g", config.icpThreshold));
    session.setParam("mu", support::format("%g", config.mu));
    session.setParam("ir", std::to_string(config.integrationRate));
    session.setParam("vr", std::to_string(config.volumeResolution));
    session.setParam("vs", support::format("%g", config.volumeSize));
    std::string pyramid;
    for (const int iters : config.pyramidIterations) {
        if (!pyramid.empty())
            pyramid += ",";
        pyramid += std::to_string(iters);
    }
    session.setParam("pyramid", pyramid);
    session.setParam("tr", std::to_string(config.trackingRate));
    session.setParam("rr", std::to_string(config.renderingRate));
    // Record the *resolved* backend ("auto" dispatched to a concrete
    // name), so run reports from different hosts are comparable.
    const kfusion::KernelBackend *backend =
        kfusion::resolveKernelBackend(config.kernelBackend);
    session.setParam("kernel.backend",
                     backend ? backend->name() : config.kernelBackend);
}

size_t
appendRunTelemetry(support::metrics::RunSession &session,
                   const std::string &label,
                   const BenchmarkResult &result,
                   const devices::DeviceModel *device)
{
    if (!session.active())
        return 0;
    auto &registry = support::metrics::Registry::instance();
    auto &wall_histogram = registry.histogram("frame_wall_seconds");
    auto &ate_histogram = registry.histogram("frame_ate_m");
    std::unique_ptr<power::PowerMonitor> monitor =
        device ? power::makeSimulatedMonitor(*device)
               : power::makeNullMonitor();
    power::EnergyReading previous;
    for (size_t frame = 0; frame < result.frameWork.size();
         ++frame) {
        support::metrics::FrameTelemetry t =
            frameTelemetry(result, frame, label);
        // Modeled device time and energy of the frame: the delta of
        // the simulated INA231 rail of the target device.
        monitor->recordFrame(result.frameWork[frame]);
        const power::EnergyReading reading = monitor->reading();
        if (reading.available) {
            t.simSeconds = reading.seconds - previous.seconds;
            t.simJoules = reading.joules - previous.joules;
            previous = reading;
        }
        wall_histogram.record(t.wallSeconds);
        ate_histogram.record(t.ateMeters);
        session.addFrame(t);
    }
    registry.counter("runs_total").add(1);
    registry.gauge("peak_rss_bytes")
        .setMax(support::metrics::peakRssBytes());
    return result.frameWork.size();
}

} // namespace slambench::core
