#include "dataset/generator.hpp"

#include "support/logging.hpp"
#include "support/trace.hpp"

namespace slambench::dataset {

Scene
makeScene(SceneId id)
{
    switch (id) {
      case SceneId::LivingRoom:
        return livingRoomScene();
      case SceneId::Office:
        return officeScene();
    }
    support::panic("makeScene: unknown scene id");
}

Sequence
generateSequence(const SequenceSpec &spec)
{
    // Phase span: the renderer's row chunks on pool workers are
    // traced as Worker spans under this name, never as Kernel spans.
    TRACE_SCOPE("dataset.synthesis");
    Sequence seq;
    seq.spec = spec;
    seq.intrinsics = math::CameraIntrinsics::fromFov(
        spec.width, spec.height, spec.hfovRad);

    const Scene scene = makeScene(spec.scene);
    TrajectorySpec traj_spec = presetSpec(spec.trajectory);
    if (spec.trajectorySpeedup > 0.0)
        traj_spec.durationSeconds /= spec.trajectorySpeedup;
    seq.groundTruth =
        Trajectory::fromSpline(traj_spec, spec.numFrames, spec.fps);

    support::Rng rng(spec.seed);
    RenderOptions render_options;
    render_options.shadeRgb = spec.renderRgb;

    seq.frames.reserve(spec.numFrames);
    for (size_t i = 0; i < spec.numFrames; ++i) {
        const RenderResult rendered = renderFrame(
            scene, seq.intrinsics, seq.groundTruth.pose(i),
            render_options);

        Frame frame;
        frame.timestamp = seq.groundTruth.timestamp(i);
        if (spec.sensorNoise) {
            frame.depthMm = applySensorModel(
                rendered.depth, rendered.cosIncidence, spec.noise, rng);
        } else {
            frame.depthMm =
                depthToMillimeters(rendered.depth, spec.noise.maxRange);
        }
        if (spec.renderRgb)
            frame.rgb = rendered.rgb;
        seq.frames.push_back(std::move(frame));
    }
    return seq;
}

} // namespace slambench::dataset
