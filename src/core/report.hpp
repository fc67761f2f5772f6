#ifndef SLAMBENCH_CORE_REPORT_HPP
#define SLAMBENCH_CORE_REPORT_HPP

/**
 * @file
 * SLAMBench-style run reporting: the per-frame telemetry fed to a
 * run-report session (one `--frames-csv` row per frame: phase times,
 * tracking state, pose error, modeled device time and energy) and
 * the human-readable summary block the original benchmark binaries
 * print at the end of a run.
 */

#include <string>

#include "core/benchmark.hpp"
#include "dataset/generator.hpp"
#include "devices/device_model.hpp"
#include "support/metrics.hpp"

namespace slambench::core {

/**
 * Format the end-of-run summary block (the metric triple plus
 * per-kernel totals), mirroring the original SLAMBench output.
 *
 * @param result A finished benchmark run.
 * @param device Device model for simulated speed/power.
 * @param system_name Name of the SLAM system that produced it.
 * @return multi-line text.
 */
std::string summarizeRun(const BenchmarkResult &result,
                         const devices::DeviceModel &device,
                         const std::string &system_name);

/**
 * Record the explored pipeline parameters into a run-report session
 * (the `config` object of the JSON schema), using the SLAMBench flag
 * names (`csr`, `icp`, `mu`, `ir`, `vr`, `vs`, `pyramid`, `tr`,
 * `rr`).
 */
void addConfigParams(support::metrics::RunSession &session,
                     const kfusion::KFusionConfig &config);

/**
 * Append every frame of @p result to @p session (no-op when the
 * session is inactive) and fold the run into the process metrics
 * registry (`frame_wall_seconds` / `frame_ate_m` histograms and the
 * run counters the report's `histograms` section is built from).
 * Each frame's host phase times are partitioned from its WorkCounts
 * (preprocess / track / integrate / raycast); its modeled device
 * time and energy come from a simulated power monitor of @p device.
 *
 * @param device Device model for the `sim_ms` / `sim_joules` columns
 *     (nullptr = both 0).
 * @return number of frames appended.
 */
size_t appendRunTelemetry(support::metrics::RunSession &session,
                          const std::string &label,
                          const BenchmarkResult &result,
                          const devices::DeviceModel *device =
                              nullptr);

} // namespace slambench::core

#endif // SLAMBENCH_CORE_REPORT_HPP
