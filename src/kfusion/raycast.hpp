#ifndef SLAMBENCH_KFUSION_RAYCAST_HPP
#define SLAMBENCH_KFUSION_RAYCAST_HPP

/**
 * @file
 * TSDF surface extraction by ray marching (KinectFusion's raycast
 * stage) plus the shaded visualization render used by the GUI path.
 */

#include "kfusion/sparse_volume.hpp"
#include "kfusion/volume.hpp"
#include "kfusion/work_counters.hpp"
#include "math/camera.hpp"
#include "support/image.hpp"
#include "support/thread_pool.hpp"

namespace slambench::kfusion {

class KernelBackend;

/**
 * The march drops to its fine step after a sample below this value.
 * Samples at or above it are free space to the march, which is what
 * lets the dense march skip unflagged bricks (kFreeTsdf, volume.hpp).
 */
inline constexpr float kFineStepBand = 0.8f;
static_assert(kFreeTsdf * (1.0f - 1e-6f) > kFineStepBand,
              "free-brick elision needs kFreeTsdf clear of the band");

/** Raycast tuning (derived from the configuration). */
struct RaycastParams
{
    float nearPlane = 0.4f; ///< Meters.
    float farPlane = 4.5f;  ///< Meters.
    /** Coarse step while outside the truncation band, meters. */
    float largeStep = 0.075f;
    /** Fine step near the surface (typically the voxel size). */
    float step = 0.01875f;
};

/** Per-ray result of a march (mirrors castRay outputs). */
struct RayHit
{
    math::Vec3f hit;    ///< World-space surface point when found.
    int steps = 0;      ///< Marching steps consumed by this ray.
    int freeSteps = 0;  ///< Steps whose sample was not fetched.
    bool found = false; ///< Whether a + to - zero crossing was found.
};

/**
 * Raycast the volume from a camera, producing model vertex and
 * normal maps in *world* coordinates (the tracker's reference).
 *
 * The dense march does not fetch samples inside bricks the volume
 * has not flagged (TsdfVolume::marchSample): they cannot be a
 * crossing or drop to the fine step, and the sample before a
 * crossing is re-fetched at its own t, so step counts, hits and
 * normals equal a march that fetches every sample. The elided
 * samples are counted in the `raycast.free_steps` registry counter;
 * work counts (items = steps) do not see the elision.
 *
 * @param[out] vertex_out World-space hit per pixel; zero on miss.
 * @param[out] normal_out World-space unit normal; zero on miss.
 * @param volume Fused TSDF volume.
 * @param intrinsics Output camera intrinsics.
 * @param camera_to_world Camera pose to cast from.
 * @param params Stepping parameters.
 * @param[in,out] counts Work accounting (Raycast kernel; the item
 *                       unit is marching steps taken).
 * @param pool Optional worker pool.
 * @param backend Kernel backend casting the rays and evaluating the
 *                gradients (nullptr = scalar reference).
 */
void raycastKernel(support::Image<math::Vec3f> &vertex_out,
                   support::Image<math::Vec3f> &normal_out,
                   const TsdfVolume &volume,
                   const math::CameraIntrinsics &intrinsics,
                   const math::Mat4f &camera_to_world,
                   const RaycastParams &params, WorkCounts &counts,
                   support::ThreadPool *pool,
                   const KernelBackend *backend = nullptr);

/**
 * Shaded rendering of the current model (the GUI's right pane).
 *
 * @param[out] out Shaded image.
 * @param volume Fused TSDF volume.
 * @param intrinsics Output camera intrinsics.
 * @param camera_to_world View pose.
 * @param params Stepping parameters.
 * @param[in,out] counts Work accounting (RenderVolume kernel).
 * @param pool Optional worker pool.
 * @param backend Kernel backend casting the rays and evaluating the
 *                gradients (nullptr = scalar reference).
 */
void renderVolumeKernel(support::Image<support::Rgb8> &out,
                        const TsdfVolume &volume,
                        const math::CameraIntrinsics &intrinsics,
                        const math::Mat4f &camera_to_world,
                        const RaycastParams &params, WorkCounts &counts,
                        support::ThreadPool *pool,
                        const KernelBackend *backend = nullptr);

/**
 * Shaded rendering from a raycast's normal map instead of a second
 * march: pixel for pixel equal to renderVolumeKernel at the
 * raycast's view, intrinsics and volume state, because both shade
 * the same normal through the same code.
 *
 * @param[out] out Shaded image, the size of @p normals.
 * @param normals Normal map from raycastKernel.
 * @param steps Marching steps of that raycast; charged to
 *              RenderVolume exactly as the marched render charges
 *              its own (items = steps, bytes = steps x 32), so work
 *              counts and device models do not see the reuse.
 * @param[in,out] counts Work accounting (RenderVolume kernel; its
 *                       host time is the shading alone).
 */
void renderNormalsKernel(support::Image<support::Rgb8> &out,
                         const support::Image<math::Vec3f> &normals,
                         double steps, WorkCounts &counts);

/**
 * Cast a single ray against the volume, eliding the fetches of free
 * bricks (see raycastKernel).
 *
 * @param volume Fused TSDF volume.
 * @param origin Ray origin (world).
 * @param dir Unit ray direction (world).
 * @param params Stepping parameters.
 * @param[out] hit World-space surface point when found.
 * @param[out] steps Marching steps consumed.
 * @param[out] free_steps When non-null, the steps whose sample was
 *                        not fetched.
 * @return true when a zero crossing (+ to -) was found.
 */
bool castRay(const TsdfVolume &volume, const math::Vec3f &origin,
             const math::Vec3f &dir, const RaycastParams &params,
             math::Vec3f &hit, int &steps, int *free_steps = nullptr);

/**
 * Sparse-volume flavors. Control flow (per-step t accumulation,
 * refinement, invalid-sample handling) is shared with the dense core,
 * so hits and step counts are bit-identical to the dense volume's;
 * the sparse sampler resolves its stencil through @p cache (see
 * SparseTsdfVolume::interpCached). The march takes every step the
 * dense march takes: unallocated blocks are rare along a ray, since
 * the integrator allocates the free space it fuses. It fetches every
 * sample (the sparse volume keeps no brick flags).
 */
bool castRay(const SparseTsdfVolume &volume, const math::Vec3f &origin,
             const math::Vec3f &dir, const RaycastParams &params,
             math::Vec3f &hit, int &steps,
             SparseTsdfVolume::LookupCache &cache);

/**
 * Sparse-volume raycast. Rays march through cached block lookups on
 * the scalar sampler (the kernel backend's packet caster is a
 * dense-layout kernel); results are bit-identical to the dense
 * raycast of the same scene.
 */
void raycastKernel(support::Image<math::Vec3f> &vertex_out,
                   support::Image<math::Vec3f> &normal_out,
                   const SparseTsdfVolume &volume,
                   const math::CameraIntrinsics &intrinsics,
                   const math::Mat4f &camera_to_world,
                   const RaycastParams &params, WorkCounts &counts,
                   support::ThreadPool *pool);

/** Sparse-volume shaded render (see renderVolumeKernel above). */
void renderVolumeKernel(support::Image<support::Rgb8> &out,
                        const SparseTsdfVolume &volume,
                        const math::CameraIntrinsics &intrinsics,
                        const math::Mat4f &camera_to_world,
                        const RaycastParams &params, WorkCounts &counts,
                        support::ThreadPool *pool);

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_RAYCAST_HPP
