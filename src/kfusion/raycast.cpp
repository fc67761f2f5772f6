#include "kfusion/raycast.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kfusion/backend.hpp"
#include "math/aabb.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

using math::Vec3f;

namespace {

/**
 * Intersect a ray with a volume's AABB (slab test, shared with
 * math::intersectRayAabb).
 *
 * @return false when the ray misses entirely.
 */
bool
clipToVolume(const Vec3f &vol_origin, float vol_size,
             const Vec3f &origin, const Vec3f &dir, float &t_near,
             float &t_far)
{
    const math::Aabb box{vol_origin,
                         vol_origin + Vec3f::all(vol_size)};
    return math::intersectRayAabb(box, origin, dir, t_near, t_far);
}

/**
 * Shared single-ray marching core: every volume backend casts with
 * this exact control flow — per-step t accumulation (never jumped, so
 * refined hit parameters are bit-identical across backends), linear
 * zero-crossing refinement, coarse steps across invalid samples —
 * differing only in how a sample is fetched.
 *
 * With @p kElides, @p sample may return kFreeSample (valid) for a
 * sample it did not fetch; such a sample takes the large step like
 * any sample at or above kFineStepBand. Only a crossing reads the
 * previous sample's value, so a crossing after kFreeSample re-fetches
 * it through the exact @p interp at the previous t (the t it was
 * sampled at, not t - stepsize, which may round differently).
 * @p free_steps counts the kFreeSample steps. Without @p kElides (the
 * sparse sampler) this bookkeeping compiles away.
 */
template <bool kElides, typename SampleFn, typename InterpFn>
bool
castRayCore(const Vec3f &vol_origin, float vol_size,
            const Vec3f &origin, const Vec3f &dir,
            const RaycastParams &params, Vec3f &hit, int &steps,
            int &free_steps, const SampleFn &sample,
            const InterpFn &interp)
{
    steps = 0;
    free_steps = 0;
    float t_near, t_far;
    if (!clipToVolume(vol_origin, vol_size, origin, dir, t_near,
                      t_far))
        return false;
    // Start marching at the volume entry point, not the near plane.
    float t = std::max(t_near, params.nearPlane);
    const float t_end = std::min(t_far, params.farPlane);
    if (t >= t_end)
        return false;

    bool valid = false;
    float f_t = sample(origin + dir * t, valid);
    if (valid && f_t < 0.0f)
        return false; // started inside the surface

    float stepsize = params.largeStep;
    float t_prev = t;
    while (t < t_end) {
        ++steps;
        if constexpr (kElides)
            t_prev = t;
        t += stepsize;
        bool sample_valid = false;
        const float f_tt = sample(origin + dir * t, sample_valid);
        if (!sample_valid) {
            // Unknown space: cross at the coarse rate.
            f_t = 1.0f;
            stepsize = params.largeStep;
            continue;
        }
        if (f_tt < 0.0f) {
            if (kElides && f_t == kFreeSample)
                f_t = interp(origin + dir * t_prev, sample_valid);
            // Zero crossing: linear refinement between samples.
            const float denom = f_t - f_tt;
            const float t_star =
                denom > 1e-12f ? t + stepsize * f_tt / denom : t;
            hit = origin + dir * t_star;
            return true;
        }
        if constexpr (kElides)
            free_steps += f_tt == kFreeSample;
        // Close to the surface: drop to the fine step.
        stepsize =
            f_tt < kFineStepBand ? params.step : params.largeStep;
        f_t = f_tt;
    }
    return false;
}

/**
 * Marching-step totals of a row or an image; padded to a cache line
 * so adjacent rows written by different workers never share a line
 * (parallelFor hands out consecutive row indices).
 */
struct alignas(64) MarchSteps
{
    double steps = 0.0;     ///< Marching steps.
    double freeSteps = 0.0; ///< Steps whose sample was not fetched.
};

/**
 * The raycast's normal for a pixel: the unit TSDF gradient at the
 * hit, or zero on a miss or a degenerate gradient. Both the raycast
 * and the render take their normal from here, so a render shaded
 * from the raycast's normal map equals a marched render.
 */
Vec3f
surfaceNormal(bool found, const Vec3f &g)
{
    // TSDF increases away from the surface toward the camera side,
    // so the gradient already points outward.
    return found && g.squaredNorm() > 1e-18f ? g.normalized()
                                              : Vec3f{};
}

/** Direction the model pane is lit from (world frame). */
const Vec3f kLight = Vec3f{0.3f, 0.8f, -0.5f}.normalized();

/** Model-pane pixel for a raycast normal; zero shades background. */
support::Rgb8
shadeNormal(const Vec3f &n)
{
    if (n == Vec3f{})
        return {20, 20, 28};
    const float diffuse = std::max(0.0f, n.dot(kLight)) * 0.7f + 0.25f;
    const auto channel = [diffuse](float base) {
        return static_cast<uint8_t>(
            std::clamp(base * diffuse, 0.0f, 255.0f));
    };
    return {channel(200.0f), channel(205.0f), channel(215.0f)};
}

/** Charge a render of @p steps marching steps to RenderVolume. */
void
chargeRender(WorkCounts &counts, double steps)
{
    counts.addItems(KernelId::RenderVolume, steps);
    counts.addBytes(KernelId::RenderVolume, steps * 32.0);
    TRACE_COUNTER("render_volume.steps", steps);
}

/** Dense volume caster: ray packets + gradients via the backend. */
struct DenseCaster
{
    const TsdfVolume &volume;
    const KernelBackend &backend;

    void
    castRays(const Vec3f &origin, const Vec3f *dirs, size_t n,
             const RaycastParams &params, RayHit *hits,
             Vec3f *grads) const
    {
        backend.castRays(volume, origin, dirs, n, params, hits);
        for (size_t l = 0; l < n; ++l)
            grads[l] = hits[l].found ? backend.grad(volume, hits[l].hit)
                                     : Vec3f{};
    }
};

/**
 * Sparse volume caster: per-lane scalar marching and hit gradients
 * with one block cache shared across the packet (adjacent rays walk
 * and hit the same blocks). The kernel backend's packet caster is a
 * dense-layout kernel, so the sparse path always marches the scalar
 * sampler — bit-identical to every dense backend anyway.
 */
struct SparseCaster
{
    const SparseTsdfVolume &volume;

    void
    castRays(const Vec3f &origin, const Vec3f *dirs, size_t n,
             const RaycastParams &params, RayHit *hits,
             Vec3f *grads) const
    {
        SparseTsdfVolume::LookupCache cache;
        for (size_t l = 0; l < n; ++l)
            hits[l].found =
                castRay(volume, origin, dirs[l], params, hits[l].hit,
                        hits[l].steps, cache);
        for (size_t l = 0; l < n; ++l)
            grads[l] = hits[l].found
                           ? volume.gradCached(hits[l].hit, cache)
                           : Vec3f{};
    }
};

/**
 * Shared ray-march core of raycastKernel and renderVolumeKernel.
 *
 * Rays are cast in packets of up to kRayPacketWidth per row through
 * the volume caster (dense: the kernel backend; sparse: per-lane
 * block-cached marching), which also evaluates the fused TSDF
 * gradient at each hit, and shade(x, y, hit_found, hit, grad) runs
 * for every pixel — grad is the raw (unnormalized) gradient, zero
 * when the ray missed; both callers turn it into a normal through
 * surfaceNormal().
 *
 * @return marching steps taken across the image.
 */
template <typename Caster, typename ShadeFn>
MarchSteps
marchImage(const Caster &caster,
           const math::CameraIntrinsics &intrinsics,
           const math::Mat4f &camera_to_world,
           const RaycastParams &params, support::ThreadPool *pool,
           const ShadeFn &shade)
{
    const size_t w = intrinsics.width;
    const size_t h = intrinsics.height;
    const Vec3f origin = camera_to_world.translationPart();
    std::vector<MarchSteps> row_steps(h);

    auto process_row = [&](size_t y) {
        MarchSteps row;
        Vec3f dirs[kRayPacketWidth];
        RayHit hits[kRayPacketWidth];
        Vec3f grads[kRayPacketWidth];
        for (size_t x0 = 0; x0 < w; x0 += kRayPacketWidth) {
            const size_t n = std::min(kRayPacketWidth, w - x0);
            for (size_t l = 0; l < n; ++l) {
                const Vec3f dir_cam = intrinsics.rayDir(
                    static_cast<float>(x0 + l) + 0.5f,
                    static_cast<float>(y) + 0.5f);
                dirs[l] = camera_to_world.transformDir(dir_cam)
                              .normalized();
            }
            caster.castRays(origin, dirs, n, params, hits, grads);
            for (size_t l = 0; l < n; ++l) {
                row.steps += hits[l].steps;
                row.freeSteps += hits[l].freeSteps;
                shade(x0 + l, y, hits[l].found, hits[l].hit, grads[l]);
            }
        }
        row_steps[y] = row;
    };

    if (pool) {
        pool->parallelFor(0, h, process_row);
    } else {
        for (size_t y = 0; y < h; ++y)
            process_row(y);
    }

    MarchSteps totals;
    for (const MarchSteps &s : row_steps) {
        totals.steps += s.steps;
        totals.freeSteps += s.freeSteps;
    }
    return totals;
}

template <typename Caster>
void
raycastKernelImpl(support::Image<Vec3f> &vertex_out,
                  support::Image<Vec3f> &normal_out,
                  const Caster &caster,
                  const math::CameraIntrinsics &intrinsics,
                  const math::Mat4f &camera_to_world,
                  const RaycastParams &params, WorkCounts &counts,
                  support::ThreadPool *pool)
{
    KernelTimer timer(counts, KernelId::Raycast);
    const size_t w = intrinsics.width;
    const size_t h = intrinsics.height;
    vertex_out.resize(w, h);
    normal_out.resize(w, h);

    const MarchSteps totals = marchImage(
        caster, intrinsics, camera_to_world, params, pool,
        [&](size_t x, size_t y, bool found, const Vec3f &hit,
            const Vec3f &g) {
            const Vec3f n = surfaceNormal(found, g);
            vertex_out(x, y) = n == Vec3f{} ? Vec3f{} : hit;
            normal_out(x, y) = n;
        });
    const double total_steps = totals.steps;

    counts.addItems(KernelId::Raycast, total_steps);
    counts.addBytes(KernelId::Raycast, total_steps * 32.0);

    namespace sm = support::metrics;
    static sm::Counter &rays_counter =
        sm::Registry::instance().counter("raycast.rays");
    static sm::Counter &steps_counter =
        sm::Registry::instance().counter("raycast.steps");
    static sm::Counter &free_steps_counter =
        sm::Registry::instance().counter("raycast.free_steps");
    rays_counter.add(static_cast<uint64_t>(w * h));
    steps_counter.add(static_cast<uint64_t>(total_steps));
    free_steps_counter.add(static_cast<uint64_t>(totals.freeSteps));
    TRACE_COUNTER("raycast.steps", total_steps);
}

template <typename Caster>
void
renderVolumeKernelImpl(support::Image<support::Rgb8> &out,
                       const Caster &caster,
                       const math::CameraIntrinsics &intrinsics,
                       const math::Mat4f &camera_to_world,
                       const RaycastParams &params, WorkCounts &counts,
                       support::ThreadPool *pool)
{
    KernelTimer timer(counts, KernelId::RenderVolume);
    const size_t w = intrinsics.width;
    const size_t h = intrinsics.height;
    out.resize(w, h);

    const MarchSteps totals = marchImage(
        caster, intrinsics, camera_to_world, params, pool,
        [&](size_t x, size_t y, bool found, const Vec3f &,
            const Vec3f &g) {
            out(x, y) = shadeNormal(surfaceNormal(found, g));
        });
    chargeRender(counts, totals.steps);
}

} // namespace

bool
castRay(const TsdfVolume &volume, const Vec3f &origin, const Vec3f &dir,
        const RaycastParams &params, Vec3f &hit, int &steps,
        int *free_steps)
{
    int free = 0;
    const bool found = castRayCore<true>(
        volume.origin(), volume.size(), origin, dir, params, hit,
        steps, free,
        [&](const Vec3f &p, bool &valid) {
            return volume.marchSample(p, valid);
        },
        [&](const Vec3f &p, bool &valid) {
            return volume.interp(p, valid);
        });
    if (free_steps)
        *free_steps = free;
    return found;
}

bool
castRay(const SparseTsdfVolume &volume, const Vec3f &origin,
        const Vec3f &dir, const RaycastParams &params, Vec3f &hit,
        int &steps, SparseTsdfVolume::LookupCache &cache)
{
    const auto interp = [&](const Vec3f &p, bool &valid) {
        return volume.interpCached(p, valid, cache);
    };
    int free_steps = 0;
    return castRayCore<false>(volume.origin(), volume.size(), origin,
                              dir, params, hit, steps, free_steps,
                              interp, interp);
}

void
raycastKernel(support::Image<Vec3f> &vertex_out,
              support::Image<Vec3f> &normal_out,
              const TsdfVolume &volume,
              const math::CameraIntrinsics &intrinsics,
              const math::Mat4f &camera_to_world,
              const RaycastParams &params, WorkCounts &counts,
              support::ThreadPool *pool, const KernelBackend *backend)
{
    const DenseCaster caster{
        volume, backend ? *backend : scalarKernelBackend()};
    raycastKernelImpl(vertex_out, normal_out, caster, intrinsics,
                      camera_to_world, params, counts, pool);
}

void
raycastKernel(support::Image<Vec3f> &vertex_out,
              support::Image<Vec3f> &normal_out,
              const SparseTsdfVolume &volume,
              const math::CameraIntrinsics &intrinsics,
              const math::Mat4f &camera_to_world,
              const RaycastParams &params, WorkCounts &counts,
              support::ThreadPool *pool)
{
    const SparseCaster caster{volume};
    raycastKernelImpl(vertex_out, normal_out, caster, intrinsics,
                      camera_to_world, params, counts, pool);
}

void
renderVolumeKernel(support::Image<support::Rgb8> &out,
                   const TsdfVolume &volume,
                   const math::CameraIntrinsics &intrinsics,
                   const math::Mat4f &camera_to_world,
                   const RaycastParams &params, WorkCounts &counts,
                   support::ThreadPool *pool,
                   const KernelBackend *backend)
{
    const DenseCaster caster{
        volume, backend ? *backend : scalarKernelBackend()};
    renderVolumeKernelImpl(out, caster, intrinsics, camera_to_world,
                           params, counts, pool);
}

void
renderVolumeKernel(support::Image<support::Rgb8> &out,
                   const SparseTsdfVolume &volume,
                   const math::CameraIntrinsics &intrinsics,
                   const math::Mat4f &camera_to_world,
                   const RaycastParams &params, WorkCounts &counts,
                   support::ThreadPool *pool)
{
    const SparseCaster caster{volume};
    renderVolumeKernelImpl(out, caster, intrinsics, camera_to_world,
                           params, counts, pool);
}

void
renderNormalsKernel(support::Image<support::Rgb8> &out,
                    const support::Image<Vec3f> &normals,
                    double steps, WorkCounts &counts)
{
    KernelTimer timer(counts, KernelId::RenderVolume);
    out.resize(normals.width(), normals.height());
    for (size_t i = 0; i < normals.size(); ++i)
        out[i] = shadeNormal(normals[i]);
    chargeRender(counts, steps);
}

} // namespace slambench::kfusion
