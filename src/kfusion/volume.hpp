#ifndef SLAMBENCH_KFUSION_VOLUME_HPP
#define SLAMBENCH_KFUSION_VOLUME_HPP

/**
 * @file
 * Truncated signed distance function (TSDF) volume and depth-map
 * fusion, the map representation of KinectFusion.
 */

#include <cstddef>
#include <vector>

#include "kfusion/integrate_cull.hpp"
#include "kfusion/work_counters.hpp"
#include "math/camera.hpp"
#include "math/mat.hpp"
#include "math/vec.hpp"
#include "support/image.hpp"
#include "support/thread_pool.hpp"

namespace slambench::kfusion {

using math::CameraIntrinsics;
using math::Mat4f;
using math::Vec3f;
using math::Vec3i;

class KernelBackend;

/** One voxel: truncated SDF value in [-1, 1] and fusion weight. */
struct Voxel
{
    float tsdf = 1.0f;
    float weight = 0.0f;
};

/**
 * Trilinear blend of one 2x2x2 interpolation stencil: the arithmetic
 * every TSDF sampler shares (dense, sparse block-local, sparse
 * block-straddling), so their results are bit-identical by
 * construction.
 *
 * Unobserved voxels contribute their initial value (+1, free space),
 * exactly as the original KinectFusion interpolation does; the sample
 * is only invalid when *nothing* under the stencil has ever been
 * observed. The accumulation keeps the reference dz/dy/dx loop order.
 *
 * @param v Stencil corners; corner (dx, dy, dz) is
 *          v[dx | dy << 1 | dz << 2].
 * @param fx,fy,fz Position inside the stencil, each in [0, 1).
 * @param[out] valid False when no corner was ever observed.
 * @return the blended normalized TSDF (1 when invalid).
 */
inline float
blendStencil(const Voxel *const (&v)[8], float fx, float fy, float fz,
             bool &valid)
{
    const float wx0 = 1.0f - fx, wx1 = fx;
    const float wy0 = 1.0f - fy, wy1 = fy;
    const float wz0 = 1.0f - fz, wz1 = fz;
    const bool any_observed =
        v[0]->weight > 0.0f || v[1]->weight > 0.0f ||
        v[2]->weight > 0.0f || v[3]->weight > 0.0f ||
        v[4]->weight > 0.0f || v[5]->weight > 0.0f ||
        v[6]->weight > 0.0f || v[7]->weight > 0.0f;
    float value = 0.0f;
    value += v[0]->tsdf * wx0 * wy0 * wz0;
    value += v[1]->tsdf * wx1 * wy0 * wz0;
    value += v[2]->tsdf * wx0 * wy1 * wz0;
    value += v[3]->tsdf * wx1 * wy1 * wz0;
    value += v[4]->tsdf * wx0 * wy0 * wz1;
    value += v[5]->tsdf * wx1 * wy0 * wz1;
    value += v[6]->tsdf * wx0 * wy1 * wz1;
    value += v[7]->tsdf * wx1 * wy1 * wz1;
    valid = any_observed;
    return any_observed ? value : 1.0f;
}

/**
 * blendStencil() over a stencil stored z-major at fixed strides from
 * its (0, 0, 0) corner @p base (+1 in z, +stride_y in y, +stride_x
 * in x): one base address instead of eight index computations.
 */
inline float
blendStrided(const Voxel *base, size_t stride_x, size_t stride_y,
             float fx, float fy, float fz, bool &valid)
{
    const Voxel *const v[8] = {
        base,
        base + stride_x,
        base + stride_y,
        base + stride_x + stride_y,
        base + 1,
        base + stride_x + 1,
        base + stride_y + 1,
        base + stride_x + stride_y + 1,
    };
    return blendStencil(v, fx, fy, fz, valid);
}

/**
 * Cubic, uniform TSDF volume positioned in world space.
 *
 * Values are normalized: tsdf = clamp(signed_distance / mu, -1, 1).
 * A weight of 0 marks never-observed voxels.
 *
 * Storage is z-major (z contiguous, then y, then x), so the
 * integration sweep along a (x, y) voxel column and the 2x2x2
 * interpolation stencil both touch adjacent memory.
 */
class TsdfVolume
{
  public:
    /**
     * @param resolution Voxels per edge (>= 8).
     * @param size_m Edge length in meters.
     * @param origin World position of the minimum corner.
     */
    TsdfVolume(int resolution, float size_m, const Vec3f &origin);

    /** @return voxels per edge. */
    int resolution() const { return resolution_; }
    /** @return edge length, meters. */
    float size() const { return size_; }
    /** @return world position of the minimum corner. */
    const Vec3f &origin() const { return origin_; }
    /** @return voxel edge length, meters. */
    float voxelSize() const { return size_ / resolution_; }

    /** Reset every voxel to unobserved. */
    void reset();

    /** Unchecked voxel access. */
    Voxel &
    at(int x, int y, int z)
    {
        return voxels_[index(x, y, z)];
    }

    /** Unchecked voxel access. */
    const Voxel &
    at(int x, int y, int z) const
    {
        return voxels_[index(x, y, z)];
    }

    /**
     * Voxel copy accessor — the generic spelling shared with
     * SparseTsdfVolume (which has no stable reference to return for
     * unallocated voxels), used by volume-generic code such as the
     * mesh extractor.
     */
    Voxel
    voxelAt(int x, int y, int z) const
    {
        return voxels_[index(x, y, z)];
    }

    /** @return world position of the center of voxel (x, y, z). */
    Vec3f
    voxelCenter(int x, int y, int z) const
    {
        const float vs = voxelSize();
        return origin_ + Vec3f{(x + 0.5f) * vs, (y + 0.5f) * vs,
                               (z + 0.5f) * vs};
    }

    /** @return true when @p p (world) lies inside the volume. */
    bool contains(const Vec3f &p) const;

    /**
     * Trilinearly interpolated TSDF at world point @p p.
     *
     * @param p World-space point; should lie inside the volume.
     * @param[out] valid Set false when any contributing voxel is
     *                   unobserved or @p p is outside.
     * @return interpolated normalized TSDF (1 when invalid).
     */
    float interp(const Vec3f &p, bool &valid) const;

    /**
     * TSDF gradient (surface normal direction) at world point @p p.
     *
     * Fused single-pass implementation: the six central-difference
     * samples are gathered in one function body, each with a single
     * base-index computation instead of eight full index
     * calculations. Bit-identical to gradReference().
     *
     * @param p World-space point near the surface.
     * @return unnormalized gradient; zero when samples are invalid.
     */
    Vec3f grad(const Vec3f &p) const;

    /**
     * Reference gradient: six independent interp() calls (the
     * textbook formulation). Kept for the bit-exactness parity tests
     * and the kernel benchmarks; grad() must match it exactly.
     */
    Vec3f gradReference(const Vec3f &p) const;

    /**
     * Fuse one metric depth map into the volume (KinectFusion
     * integration step).
     *
     * Voxel columns whose conservative camera-frame z-range projects
     * entirely outside the depth image (or behind the camera) are
     * culled before the per-voxel loop; visited voxels are counted as
     * Integrate items and culled voxels as skipped work. The fused
     * result is bit-identical to integrateDense().
     *
     * Not thread-safe against concurrent calls on the same volume
     * (the per-intrinsics lambda table is cached in the object).
     *
     * @param depth Metric depth image; 0 marks invalid pixels.
     * @param intrinsics Intrinsics of @p depth.
     * @param camera_to_world Camera pose of the depth map.
     * @param mu Truncation band, meters.
     * @param max_weight Weight saturation bound.
     * @param[in,out] counts Work accounting (Integrate kernel).
     * @param pool Optional worker pool.
     */
    void integrate(const support::Image<float> &depth,
                   const CameraIntrinsics &intrinsics,
                   const Mat4f &camera_to_world, float mu,
                   float max_weight, WorkCounts &counts,
                   support::ThreadPool *pool);

    /**
     * Reference integration: identical per-voxel math but every voxel
     * of every column is visited (no frustum culling). Kept for the
     * bit-exactness parity tests and the kernel benchmarks;
     * integrate() must produce exactly the same volume.
     */
    void integrateDense(const support::Image<float> &depth,
                        const CameraIntrinsics &intrinsics,
                        const Mat4f &camera_to_world, float mu,
                        float max_weight, WorkCounts &counts,
                        support::ThreadPool *pool);

    /** @return total voxel count (resolution^3). */
    size_t voxelCount() const { return voxels_.size(); }

    /**
     * Select the kernel backend integrate() fuses with (nullptr for
     * the scalar reference). integrateDense() always runs the scalar
     * backend — it is the parity baseline every backend is tested
     * against (see docs/ARCHITECTURE.md).
     */
    void setBackend(const KernelBackend *backend)
    {
        backend_ = backend;
    }

    /** @return the active kernel backend (nullptr = scalar). */
    const KernelBackend *backend() const { return backend_; }

  private:
    size_t
    index(int x, int y, int z) const
    {
        return (static_cast<size_t>(x) * resolution_ +
                static_cast<size_t>(y)) *
                   resolution_ +
               static_cast<size_t>(z);
    }

    /**
     * Trilinear sample with interp()'s exact arithmetic but a single
     * base-index computation; the building block of grad().
     */
    float sampleTrilinear(float px, float py, float pz,
                          bool &valid) const;

    /** Shared culled/dense integration sweep (see integrate()). */
    void integrateImpl(const support::Image<float> &depth,
                       const CameraIntrinsics &intrinsics,
                       const Mat4f &camera_to_world, float mu,
                       float max_weight, WorkCounts &counts,
                       support::ThreadPool *pool, bool cull,
                       const KernelBackend &backend);

    int resolution_;
    float size_;
    Vec3f origin_;
    std::vector<Voxel> voxels_;
    const KernelBackend *backend_ = nullptr;
    LambdaTable lambda_;
};

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_VOLUME_HPP
