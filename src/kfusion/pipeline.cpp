#include "kfusion/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "kfusion/backend.hpp"
#include "metrics/timing.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

using math::Mat4f;
using math::Vec3f;

namespace {

/** Bitwise float equality (+0 and -0 are different, as for a ray). */
bool
sameBits(float a, float b)
{
    return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

/** @return whether two views would cast bit-identical rays. */
bool
sameView(const Mat4f &a, const Mat4f &b,
         const math::CameraIntrinsics &ka,
         const math::CameraIntrinsics &kb)
{
    return std::memcmp(a.m, b.m, sizeof a.m) == 0 &&
           ka.width == kb.width && ka.height == kb.height &&
           sameBits(ka.fx, kb.fx) && sameBits(ka.fy, kb.fy) &&
           sameBits(ka.cx, kb.cx) && sameBits(ka.cy, kb.cy);
}

} // namespace

std::string
KFusion::checkCompatibility(
    const KFusionConfig &config,
    const math::CameraIntrinsics &input_intrinsics)
{
    const std::string problem = config.validate();
    if (!problem.empty())
        return problem;
    const math::CameraIntrinsics scaled = input_intrinsics.scaled(
        static_cast<size_t>(config.computeSizeRatio));
    if (scaled.width < 8 || scaled.height < 8)
        return "compute image too small; lower the compute-size "
               "ratio";
    math::CameraIntrinsics level_k = scaled;
    for (size_t l = 0; l < config.levels(); ++l) {
        if (level_k.width < 4 || level_k.height < 4)
            return "too many pyramid levels for the compute image "
                   "size";
        level_k = level_k.scaled(2);
    }
    return "";
}

KFusion::KFusion(const KFusionConfig &config,
                 const math::CameraIntrinsics &input_intrinsics,
                 Implementation impl, size_t num_threads)
    : config_(config), inputIntrinsics_(input_intrinsics), impl_(impl)
{
    const std::string problem =
        checkCompatibility(config, input_intrinsics);
    if (!problem.empty())
        support::fatal("KFusion: invalid configuration: " + problem);

    // Resolve "auto" (CPUID dispatch) to a concrete backend once;
    // validate() already guaranteed the name resolves.
    std::string backend_error;
    backend_ = resolveKernelBackend(config_.kernelBackend,
                                    &backend_error);
    if (!backend_)
        support::fatal("KFusion: " + backend_error);

    if (impl_ == Implementation::Threaded)
        pool_ = std::make_unique<support::ThreadPool>(num_threads);

    scaledIntrinsics_ = inputIntrinsics_.scaled(
        static_cast<size_t>(config_.computeSizeRatio));

    volume_ = makeVolumeBackend(
        config_.volumeBackend, config_.volumeResolution,
        config_.volumeSize, config_.volumeOrigin,
        config_.volumeBlockSize,
        static_cast<size_t>(config_.volumePoolCapacity), pool_.get());
    volume_->setKernelBackend(backend_);

    pyramid_.resize(config_.levels());
    math::CameraIntrinsics level_k = scaledIntrinsics_;
    for (size_t l = 0; l < config_.levels(); ++l) {
        pyramid_[l].intrinsics = level_k;
        level_k = level_k.scaled(2);
    }
}

RaycastParams
KFusion::raycastParams() const
{
    RaycastParams params;
    params.nearPlane = config_.nearPlane;
    params.farPlane = config_.farPlane;
    params.step = config_.voxelSize();
    params.largeStep = 0.75f * config_.mu;
    // The coarse step must never be finer than the fine step.
    params.largeStep = std::max(params.largeStep, params.step);
    return params;
}

void
KFusion::preprocess(const support::Image<uint16_t> &depth_mm,
                    WorkCounts &work)
{
    TRACE_SCOPE("preprocess");
    {
        KernelTimer timer(work, KernelId::Mm2Meters);
        mm2metersKernel(rawDepth_, depth_mm, config_.computeSizeRatio,
                        pool_.get());
        work.addItems(KernelId::Mm2Meters,
                      static_cast<double>(rawDepth_.size()));
        work.addBytes(KernelId::Mm2Meters,
                      static_cast<double>(rawDepth_.size()) * 6.0);
    }
    {
        KernelTimer timer(work, KernelId::BilateralFilter);
        bilateralFilterKernel(filteredDepth_, rawDepth_,
                              config_.filterRadius,
                              config_.gaussianDelta, config_.eDelta,
                              pool_.get());
        work.addItems(
            KernelId::BilateralFilter,
            static_cast<double>(filteredDepth_.size()) *
                bilateralItemsPerPixel(config_.filterRadius));
        work.addBytes(
            KernelId::BilateralFilter,
            static_cast<double>(filteredDepth_.size()) *
                (bilateralItemsPerPixel(config_.filterRadius) * 4.0 +
                 4.0));
    }
}

void
KFusion::buildPyramid(WorkCounts &work)
{
    TRACE_SCOPE("build_pyramid");
    pyramid_[0].depth = filteredDepth_;
    for (size_t l = 1; l < pyramid_.size(); ++l) {
        KernelTimer timer(work, KernelId::HalfSample);
        halfSampleRobustKernel(pyramid_[l].depth,
                               pyramid_[l - 1].depth,
                               config_.eDelta * 3.0f, pool_.get());
        work.addItems(KernelId::HalfSample,
                      static_cast<double>(pyramid_[l].depth.size()));
        work.addBytes(KernelId::HalfSample,
                      static_cast<double>(pyramid_[l].depth.size()) *
                          20.0);
    }
    for (size_t l = 0; l < pyramid_.size(); ++l) {
        {
            KernelTimer timer(work, KernelId::Depth2Vertex);
            depth2vertexKernel(pyramid_[l].vertex, pyramid_[l].depth,
                               pyramid_[l].intrinsics, pool_.get());
            work.addItems(
                KernelId::Depth2Vertex,
                static_cast<double>(pyramid_[l].vertex.size()));
            work.addBytes(
                KernelId::Depth2Vertex,
                static_cast<double>(pyramid_[l].vertex.size()) * 16.0);
        }
        {
            KernelTimer timer(work, KernelId::Vertex2Normal);
            vertex2normalKernel(pyramid_[l].normal, pyramid_[l].vertex,
                                pool_.get());
            work.addItems(
                KernelId::Vertex2Normal,
                static_cast<double>(pyramid_[l].normal.size()));
            work.addBytes(
                KernelId::Vertex2Normal,
                static_cast<double>(pyramid_[l].normal.size()) * 48.0);
        }
    }
}

FrameResult
KFusion::processFrame(const support::Image<uint16_t> &depth_mm)
{
    if (depth_mm.width() != inputIntrinsics_.width ||
        depth_mm.height() != inputIntrinsics_.height)
        support::fatal("KFusion::processFrame: frame size does not "
                       "match the input intrinsics");

    TRACE_FRAME(frame_);
    TRACE_SCOPE("process_frame");
    // Registry handles are stable for the process lifetime, so the
    // lookups happen once; per frame this is a few relaxed atomics.
    namespace sm = support::metrics;
    static sm::Counter &frames_counter =
        sm::Registry::instance().counter("pipeline.frames");
    static sm::Counter &integrations_counter =
        sm::Registry::instance().counter("pipeline.integrations");
    static sm::Counter &integration_skips_counter =
        sm::Registry::instance().counter(
            "pipeline.integration_skips");
    static sm::Counter &lost_counter =
        sm::Registry::instance().counter(
            "pipeline.tracking_failures");
    static sm::LatencyHistogram &frame_histogram =
        sm::Registry::instance().histogram(
            "pipeline.frame_seconds");
    const uint64_t start_ns = slambench::metrics::now_ns();

    FrameResult result;
    result.frameIndex = frame_;
    WorkCounts &work = result.work;

    preprocess(depth_mm, work);

    // --- Tracking ---
    const bool do_track =
        frame_ % static_cast<size_t>(config_.trackingRate) == 0;
    if (frame_ == 0) {
        // The first frame defines the reference; nothing to track
        // against yet.
        buildPyramid(work);
        result.tracking.tracked = true;
    } else if (do_track && haveReference_) {
        buildPyramid(work);
        result.tracking = icpTrack(
            pose_, pyramid_, raycastVertex_, raycastNormal_,
            scaledIntrinsics_, raycastPose_, config_, work,
            pool_.get(), &lastTrackData_, backend_);
    } else {
        // Tracking skipped this frame: reuse the previous pose.
        result.tracking.tracked = true;
    }

    // --- Integration ---
    const bool do_integrate =
        result.tracking.tracked &&
        (frame_ % static_cast<size_t>(config_.integrationRate) == 0 ||
         frame_ < 4);
    if (do_integrate) {
        volume_->integrate(rawDepth_, scaledIntrinsics_, pose_,
                           config_.mu, config_.maxWeight, work,
                           pool_.get());
        result.integrated = true;
        raycastCurrent_ = false;
    }

    // --- Raycast the model for the next frame's tracking ---
    if (frame_ > 2 || do_integrate) {
        const double steps_before = work.itemsFor(KernelId::Raycast);
        volume_->raycast(raycastVertex_, raycastNormal_,
                         scaledIntrinsics_, pose_, raycastParams(),
                         work, pool_.get());
        raycastSteps_ = work.itemsFor(KernelId::Raycast) - steps_before;
        raycastCurrent_ = true;
        raycastPose_ = pose_;
        haveReference_ = true;
        result.raycast = true;
    }

    result.pose = pose_;
    totalWork_.merge(work);
    frameWork_.push_back(work);
    ++frame_;

    frames_counter.add(1);
    (result.integrated ? integrations_counter
                       : integration_skips_counter)
        .add(1);
    if (!result.tracking.tracked)
        lost_counter.add(1);
    frame_histogram.record(
        static_cast<double>(slambench::metrics::now_ns() - start_ns) *
        1e-9);
    return result;
}

void
KFusion::renderModel(support::Image<support::Rgb8> &out,
                     const Mat4f &view_pose,
                     const math::CameraIntrinsics *intrinsics)
{
    TRACE_SCOPE("render_model");
    const math::CameraIntrinsics &k =
        intrinsics ? *intrinsics : inputIntrinsics_;
    WorkCounts work;
    static support::metrics::Counter &reuses_counter =
        support::metrics::Registry::instance().counter(
            "pipeline.render_reuses");
    // The last raycast marched exactly these rays when neither the
    // view nor the volume changed since: shade its normal map.
    if (raycastCurrent_ &&
        sameView(view_pose, raycastPose_, k, scaledIntrinsics_)) {
        renderNormalsKernel(out, raycastNormal_, raycastSteps_, work);
        reuses_counter.add(1);
    } else {
        volume_->renderVolume(out, k, view_pose, raycastParams(), work,
                              pool_.get());
    }
    totalWork_.merge(work);
    if (!frameWork_.empty())
        frameWork_.back().merge(work);
}

void
KFusion::renderTrack(support::Image<support::Rgb8> &out) const
{
    out.resize(lastTrackData_.width(), lastTrackData_.height());
    for (size_t i = 0; i < lastTrackData_.size(); ++i) {
        switch (lastTrackData_[i].result) {
          case TrackResult::Ok:
            out[i] = {128, 128, 128};
            break;
          case TrackResult::NoInputVertex:
            out[i] = {0, 0, 0};
            break;
          case TrackResult::ProjectedOutside:
            out[i] = {255, 0, 0};
            break;
          case TrackResult::NoRefNormal:
            out[i] = {0, 0, 255};
            break;
          case TrackResult::TooFar:
            out[i] = {255, 255, 0};
            break;
          case TrackResult::NormalMismatch:
            out[i] = {255, 0, 255};
            break;
        }
    }
}

} // namespace slambench::kfusion
