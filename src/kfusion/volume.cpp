#include "kfusion/volume.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "kfusion/backend.hpp"
#include "kfusion/integrate_cull.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

TsdfVolume::TsdfVolume(int resolution, float size_m, const Vec3f &origin,
                       support::ThreadPool *pool)
    : resolution_(resolution), size_(size_m), origin_(origin),
      bricks_(((resolution - 1) >> kBrickShift) + 1)
{
    if (resolution < 8 || resolution > 1024)
        support::fatal("TsdfVolume: resolution must be in [8, 1024]");
    if (!(size_m > 0.0f))
        support::fatal("TsdfVolume: size must be positive");
    // The allocator leaves the array untouched: its pages are first
    // written by the (possibly parallel) fill.
    voxels_.resize(static_cast<size_t>(resolution) * resolution *
                   resolution);
    fillVoxels(pool);
    brickFlags_.assign(
        static_cast<size_t>(bricks_) * bricks_ * bricks_ + 3, 0);
}

void
TsdfVolume::fillVoxels(support::ThreadPool *pool)
{
    const auto fill = [this](size_t begin, size_t end) {
        std::fill(voxels_.begin() + static_cast<ptrdiff_t>(begin),
                  voxels_.begin() + static_cast<ptrdiff_t>(end),
                  Voxel{});
    };
    if (pool)
        pool->parallelForChunked(0, voxels_.size(), fill);
    else
        fill(0, voxels_.size());
}

void
TsdfVolume::reset(support::ThreadPool *pool)
{
    fillVoxels(pool);
    std::fill(brickFlags_.begin(), brickFlags_.end(), 0);
}

bool
TsdfVolume::contains(const Vec3f &p) const
{
    const Vec3f local = p - origin_;
    return local.x >= 0.0f && local.y >= 0.0f && local.z >= 0.0f &&
           local.x < size_ && local.y < size_ && local.z < size_;
}

float
TsdfVolume::sampleTrilinear(float px, float py, float pz, bool &valid,
                            bool elide_free) const
{
    const float vs = voxelSize();
    // Shift by half a voxel so samples are taken at voxel centers.
    const Vec3f local = (Vec3f{px, py, pz} - origin_) * (1.0f / vs) -
                        Vec3f{0.5f, 0.5f, 0.5f};
    const int x0 = static_cast<int>(std::floor(local.x));
    const int y0 = static_cast<int>(std::floor(local.y));
    const int z0 = static_cast<int>(std::floor(local.z));
    if (x0 < 0 || y0 < 0 || z0 < 0 || x0 + 1 >= resolution_ ||
        y0 + 1 >= resolution_ || z0 + 1 >= resolution_) {
        valid = false;
        return 1.0f;
    }
    if (elide_free &&
        !brickFlags_[(static_cast<size_t>(x0 >> kBrickShift) * bricks_ +
                      static_cast<size_t>(y0 >> kBrickShift)) *
                         bricks_ +
                     static_cast<size_t>(z0 >> kBrickShift)]) {
        valid = true;
        return kFreeSample;
    }
    // One base index; the stencil's seven neighbors are fixed offsets
    // in the z-major layout (+1 in z, +res in y, +res^2 in x).
    const size_t stride_y = static_cast<size_t>(resolution_);
    return blendStrided(voxels_.data() + index(x0, y0, z0),
                        stride_y * stride_y, stride_y, local.x - x0,
                        local.y - y0, local.z - z0, valid);
}

float
TsdfVolume::interp(const Vec3f &p, bool &valid) const
{
    return sampleTrilinear(p.x, p.y, p.z, valid);
}

float
TsdfVolume::marchSample(const Vec3f &p, bool &valid) const
{
    return sampleTrilinear(p.x, p.y, p.z, valid, /*elide_free=*/true);
}

void
TsdfVolume::flagColumn(int x, int y, const NearBricks &near)
{
    for (int w = 0; w < 2; ++w) {
        for (uint64_t bits = near.words[w]; bits != 0;
             bits &= bits - 1) {
            const int bz = w * 64 + std::countr_zero(bits);
            for (int bx = (x - (x > 0)) >> kBrickShift;
                 bx <= x >> kBrickShift; ++bx)
                for (int by = (y - (y > 0)) >> kBrickShift;
                     by <= y >> kBrickShift; ++by)
                    flagBrick(bx, by, bz);
        }
    }
}

Vec3f
TsdfVolume::grad(const Vec3f &p) const
{
    const float step = voxelSize();
    // Each central difference needs at least one of its two samples
    // observed; unobserved samples read as +1 (free space), matching
    // the interpolation convention above. The floor boundaries of the
    // six sample points can differ, so each sample recomputes its own
    // base index — fusing means one pass, one call frame and six
    // base-index computations instead of 48 full index calculations.
    bool ok_p, ok_m;
    const float xp = sampleTrilinear(p.x + step, p.y, p.z, ok_p);
    const float xm = sampleTrilinear(p.x - step, p.y, p.z, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float yp = sampleTrilinear(p.x, p.y + step, p.z, ok_p);
    const float ym = sampleTrilinear(p.x, p.y - step, p.z, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float zp = sampleTrilinear(p.x, p.y, p.z + step, ok_p);
    const float zm = sampleTrilinear(p.x, p.y, p.z - step, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    return {xp - xm, yp - ym, zp - zm};
}

Vec3f
TsdfVolume::gradReference(const Vec3f &p) const
{
    const float step = voxelSize();
    bool ok_p, ok_m;
    const float xp = interp({p.x + step, p.y, p.z}, ok_p);
    const float xm = interp({p.x - step, p.y, p.z}, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float yp = interp({p.x, p.y + step, p.z}, ok_p);
    const float ym = interp({p.x, p.y - step, p.z}, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float zp = interp({p.x, p.y, p.z + step}, ok_p);
    const float zm = interp({p.x, p.y, p.z - step}, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    return {xp - xm, yp - ym, zp - zm};
}

void
TsdfVolume::integrate(const support::Image<float> &depth,
                      const CameraIntrinsics &intrinsics,
                      const Mat4f &camera_to_world, float mu,
                      float max_weight, WorkCounts &counts,
                      support::ThreadPool *pool)
{
    integrateImpl(depth, intrinsics, camera_to_world, mu, max_weight,
                  counts, pool, /*cull=*/true,
                  backend_ ? *backend_ : scalarKernelBackend());
}

void
TsdfVolume::integrateDense(const support::Image<float> &depth,
                           const CameraIntrinsics &intrinsics,
                           const Mat4f &camera_to_world, float mu,
                           float max_weight, WorkCounts &counts,
                           support::ThreadPool *pool)
{
    // Always the scalar backend: the dense sweep is the numerical
    // reference the parity tests compare every backend against.
    integrateImpl(depth, intrinsics, camera_to_world, mu, max_weight,
                  counts, pool, /*cull=*/false, scalarKernelBackend());
}

void
TsdfVolume::integrateImpl(const support::Image<float> &depth,
                          const CameraIntrinsics &intrinsics,
                          const Mat4f &camera_to_world, float mu,
                          float max_weight, WorkCounts &counts,
                          support::ThreadPool *pool, bool cull,
                          const KernelBackend &backend)
{
    KernelTimer timer(counts, KernelId::Integrate);
    const Mat4f world_to_camera = camera_to_world.rigidInverse();
    const float vs = voxelSize();
    const int res = resolution_;
    const size_t width = depth.width();
    const size_t height = depth.height();
    const float *lambda_table =
        lambda_.tableFor(intrinsics, width, height);

    // The camera-frame z-step is identical for every column: hoisted
    // out of the per-column loop.
    const Vec3f step = world_to_camera.transformDir({0.0f, 0.0f, vs});

    // Loop invariants of the per-voxel fusion body, shared by every
    // column this call visits (the backend hook's context).
    IntegrateContext ctx;
    ctx.depth = depth.data();
    ctx.width = width;
    ctx.height = height;
    ctx.lambda = lambda_table;
    ctx.intrinsics = intrinsics;
    ctx.mu = mu;
    ctx.invMu = 1.0f / mu;
    ctx.maxWeight = max_weight;
    ctx.step = step;
    const double slack =
        cull ? accumulationSlack(world_to_camera, origin_, size_, res)
             : 0.0;

    // Visited/culled voxels, accumulated per chunk then folded in
    // with integer atomics so the totals are deterministic under any
    // parallel schedule.
    std::atomic<long long> visited_total{0};
    std::atomic<long long> culled_total{0};

    // March along voxel columns: for fixed (x, y) the camera-frame
    // position is affine in z, so compute it incrementally (this is
    // the same strategy the CUDA kernel uses per thread). In the
    // z-major layout the column is contiguous in memory.
    auto process_column_range = [&](size_t begin, size_t end) {
        long long visited = 0;
        long long culled = 0;
        for (size_t xy = begin; xy < end; ++xy) {
            const int x = static_cast<int>(xy) % res;
            const int y = static_cast<int>(xy) / res;
            Vec3f pos = world_to_camera.transformPoint(
                voxelCenter(x, y, 0));
            int z_begin = 0;
            int z_end = res;
            if (cull) {
                const ZInterval zi = cullColumn(
                    pos, step, intrinsics, width, height, res, slack);
                z_begin = zi.begin;
                z_end = zi.end;
            }
            culled += res - (z_end - z_begin);
            if (z_begin >= z_end)
                continue;
            visited += z_end - z_begin;
            // Fast-forward to z_begin by replaying the accumulation
            // the dense sweep performs, so every visited voxel sees a
            // bit-identical position.
            for (int z = 0; z < z_begin; ++z)
                pos += step;
            Voxel *column = voxels_.data() + index(x, y, 0);
            flagColumn(x, y,
                       backend.integrateColumn(ctx, column, z_begin,
                                               z_end, pos));
        }
        visited_total.fetch_add(visited, std::memory_order_relaxed);
        culled_total.fetch_add(culled, std::memory_order_relaxed);
    };

    const size_t columns = static_cast<size_t>(res) * res;
    if (pool) {
        pool->parallelForChunked(0, columns, process_column_range);
    } else {
        process_column_range(0, columns);
    }

    const double visited =
        static_cast<double>(visited_total.load());
    const double culled = static_cast<double>(culled_total.load());

    // Work unit: voxel visits actually performed; culled voxels are
    // reported as skipped work so the naive workload (res^3) stays
    // reconstructible as items + skipped.
    counts.addItems(KernelId::Integrate, visited);
    counts.addSkipped(KernelId::Integrate, culled);
    counts.addBytes(KernelId::Integrate, visited * 16.0);

    namespace sm = support::metrics;
    static sm::Counter &visited_counter =
        sm::Registry::instance().counter("volume.integrate.visited");
    static sm::Counter &culled_counter =
        sm::Registry::instance().counter("volume.integrate.culled");
    visited_counter.add(static_cast<uint64_t>(visited_total.load()));
    culled_counter.add(static_cast<uint64_t>(culled_total.load()));
    TRACE_COUNTER("integrate.voxels", visited);
    TRACE_COUNTER("integrate.culled", culled);
}

} // namespace slambench::kfusion
