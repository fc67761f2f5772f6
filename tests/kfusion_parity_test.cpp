/**
 * @file
 * Bit-exactness parity suite for the frame-loop fast paths: the
 * frustum-culled integration sweep against the dense reference, the
 * fused single-pass gradient against the six-interp reference, and
 * the volume-clipped raycast, each serial and under a thread pool.
 *
 * These tests assert exact float equality (operator==, not
 * EXPECT_FLOAT_EQ): the optimized paths are designed to execute the
 * same arithmetic as their references, so any drift is a bug, not
 * noise. The *Pooled* tests double as the TSan race gate's kernel
 * workload (scripts/tsan_smoke.sh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "dataset/generator.hpp"
#include "kfusion/backend.hpp"
#include "kfusion/pipeline.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/sparse_volume.hpp"
#include "kfusion/tracking.hpp"
#include "kfusion/volume.hpp"
#include "math/se3.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace slambench::kfusion;
using slambench::math::CameraIntrinsics;
using slambench::math::Mat4f;
using slambench::math::Vec3f;
using slambench::support::Image;
using slambench::support::Rng;
using slambench::support::ThreadPool;

/** Random metric depth with a sprinkling of invalid (0) pixels. */
Image<float>
makeDepth(const CameraIntrinsics &k, uint64_t seed)
{
    Image<float> depth(k.width, k.height);
    Rng rng(seed);
    for (size_t i = 0; i < depth.size(); ++i) {
        depth[i] = rng.uniform(0.0, 1.0) < 0.08
                       ? 0.0f
                       : static_cast<float>(rng.uniform(0.5, 2.5));
    }
    return depth;
}

/** Assert two equally sized volumes match voxel-for-voxel, exactly. */
void
expectBitIdentical(const TsdfVolume &a, const TsdfVolume &b)
{
    ASSERT_EQ(a.resolution(), b.resolution());
    for (int x = 0; x < a.resolution(); ++x) {
        for (int y = 0; y < a.resolution(); ++y) {
            for (int z = 0; z < a.resolution(); ++z) {
                ASSERT_EQ(a.at(x, y, z).tsdf, b.at(x, y, z).tsdf)
                    << "tsdf mismatch at (" << x << ", " << y << ", "
                    << z << ")";
                ASSERT_EQ(a.at(x, y, z).weight, b.at(x, y, z).weight)
                    << "weight mismatch at (" << x << ", " << y
                    << ", " << z << ")";
            }
        }
    }
}

/**
 * Integrate the same frame into a culled and a dense volume (serial)
 * and require identical results; returns the culled work counts.
 */
WorkCounts
checkCulledMatchesDense(const Mat4f &pose, uint64_t seed)
{
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Image<float> depth = makeDepth(k, seed);

    TsdfVolume culled(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    WorkCounts culled_counts, dense_counts;
    culled.integrate(depth, k, pose, 0.1f, 100.0f, culled_counts,
                     nullptr);
    dense.integrateDense(depth, k, pose, 0.1f, 100.0f, dense_counts,
                         nullptr);
    expectBitIdentical(culled, dense);

    // Culling never inspects more than the dense sweep, and the two
    // accounts partition the same res^3 workload.
    EXPECT_DOUBLE_EQ(
        culled_counts.itemsFor(KernelId::Integrate) +
            culled_counts.skippedFor(KernelId::Integrate),
        dense_counts.itemsFor(KernelId::Integrate));
    return culled_counts;
}

TEST(IntegrateParity, CulledMatchesDenseIdentityPose)
{
    const WorkCounts counts = checkCulledMatchesDense(Mat4f{}, 11);
    EXPECT_GT(counts.itemsFor(KernelId::Integrate), 0.0);
}

TEST(IntegrateParity, CulledMatchesDensePartialFrustum)
{
    // Oblique view from outside a corner: a good part of the volume
    // projects off-image, so whole columns get culled mid-range.
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.8f, 0.4f, -0.6f}, Vec3f{-0.2f, 0.0f, 1.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    const WorkCounts counts = checkCulledMatchesDense(pose, 12);
    EXPECT_GT(counts.itemsFor(KernelId::Integrate), 0.0);
    EXPECT_GT(counts.skippedFor(KernelId::Integrate), 0.0);
}

TEST(IntegrateParity, CulledMatchesDenseCameraInsideVolume)
{
    // Camera in the middle of the volume: every column straddles the
    // camera plane, exercising the behind-camera half-space clip.
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.0f, 0.0f, 1.0f}, Vec3f{0.0f, 0.0f, 2.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    const WorkCounts counts = checkCulledMatchesDense(pose, 13);
    EXPECT_GT(counts.itemsFor(KernelId::Integrate), 0.0);
    EXPECT_GT(counts.skippedFor(KernelId::Integrate), 0.0);
}

TEST(IntegrateParity, CulledMatchesDenseVolumeBehindCamera)
{
    // Looking directly away from the volume: everything is culled
    // and the volume must stay untouched, exactly like the dense
    // sweep (which visits every voxel and updates none).
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.0f, 0.0f, -0.5f}, Vec3f{0.0f, 0.0f, -2.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    const WorkCounts counts = checkCulledMatchesDense(pose, 14);
    EXPECT_DOUBLE_EQ(counts.itemsFor(KernelId::Integrate), 0.0);
    EXPECT_DOUBLE_EQ(counts.skippedFor(KernelId::Integrate),
                     32.0 * 32.0 * 32.0);
}

TEST(IntegrateParity, CulledMatchesDensePooled)
{
    // All four combinations of {culled, dense} x {serial, pooled}
    // must agree bit-for-bit across several fused frames.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Mat4f poses[] = {
        Mat4f{},
        slambench::math::lookAt(Vec3f{0.5f, 0.2f, -0.4f},
                                Vec3f{0.0f, 0.0f, 1.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
    };

    TsdfVolume culled_serial(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    TsdfVolume culled_pooled(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    TsdfVolume dense_pooled(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    ThreadPool pool(3);
    WorkCounts counts;
    uint64_t seed = 21;
    for (const Mat4f &pose : poses) {
        const Image<float> depth = makeDepth(k, seed++);
        culled_serial.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                                nullptr);
        culled_pooled.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                                &pool);
        dense_pooled.integrateDense(depth, k, pose, 0.1f, 100.0f,
                                    counts, &pool);
    }
    expectBitIdentical(culled_serial, culled_pooled);
    expectBitIdentical(culled_serial, dense_pooled);
}

// --- gradient parity ---

class FusedVolume : public ::testing::Test
{
  protected:
    FusedVolume()
        : volume_(48, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f}),
          k_(CameraIntrinsics::fromFov(48, 48, 1.0f))
    {
        WorkCounts counts;
        Image<float> wall(k_.width, k_.height, 1.0f);
        volume_.integrate(wall, k_, Mat4f{}, 0.1f, 100.0f, counts,
                          nullptr);
        const Image<float> depth = makeDepth(k_, 31);
        volume_.integrate(depth, k_, Mat4f{}, 0.1f, 100.0f, counts,
                          nullptr);
    }

    TsdfVolume volume_;
    CameraIntrinsics k_;
};

TEST_F(FusedVolume, FusedGradMatchesReferenceEverywhere)
{
    // Random points over the whole volume (inside, near faces, and
    // in unobserved space where the per-axis early-outs trigger).
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const Vec3f p{
            static_cast<float>(rng.uniform(-1.1, 1.1)),
            static_cast<float>(rng.uniform(-1.1, 1.1)),
            static_cast<float>(rng.uniform(-0.1, 2.1))};
        const Vec3f fused = volume_.grad(p);
        const Vec3f reference = volume_.gradReference(p);
        ASSERT_EQ(fused.x, reference.x) << "at " << p.x << ", "
                                        << p.y << ", " << p.z;
        ASSERT_EQ(fused.y, reference.y);
        ASSERT_EQ(fused.z, reference.z);
    }
}

TEST_F(FusedVolume, FusedGradMatchesReferenceNearSurface)
{
    // Dense sampling in the truncation band around the fused wall,
    // where raycast actually evaluates gradients.
    Rng rng(8);
    for (int i = 0; i < 20000; ++i) {
        const Vec3f p{
            static_cast<float>(rng.uniform(-0.9, 0.9)),
            static_cast<float>(rng.uniform(-0.9, 0.9)),
            static_cast<float>(rng.uniform(0.85, 1.15))};
        const Vec3f fused = volume_.grad(p);
        const Vec3f reference = volume_.gradReference(p);
        ASSERT_EQ(fused.x, reference.x);
        ASSERT_EQ(fused.y, reference.y);
        ASSERT_EQ(fused.z, reference.z);
    }
}

// --- raycast parity ---

RaycastParams
testParams(const TsdfVolume &volume)
{
    RaycastParams params;
    params.nearPlane = 0.1f;
    params.farPlane = 4.0f;
    params.step = volume.voxelSize();
    params.largeStep = 0.075f;
    return params;
}

TEST_F(FusedVolume, RaycastPooledMatchesSerial)
{
    const RaycastParams params = testParams(volume_);
    Image<Vec3f> vertex_s, normal_s, vertex_p, normal_p;
    WorkCounts counts;
    ThreadPool pool(3);
    raycastKernel(vertex_s, normal_s, volume_, k_, Mat4f{}, params,
                  counts, nullptr);
    raycastKernel(vertex_p, normal_p, volume_, k_, Mat4f{}, params,
                  counts, &pool);
    ASSERT_EQ(vertex_s.size(), vertex_p.size());
    for (size_t i = 0; i < vertex_s.size(); ++i) {
        ASSERT_EQ(vertex_s[i].x, vertex_p[i].x) << "pixel " << i;
        ASSERT_EQ(vertex_s[i].y, vertex_p[i].y);
        ASSERT_EQ(vertex_s[i].z, vertex_p[i].z);
        ASSERT_EQ(normal_s[i].x, normal_p[i].x);
        ASSERT_EQ(normal_s[i].y, normal_p[i].y);
        ASSERT_EQ(normal_s[i].z, normal_p[i].z);
    }
}

TEST_F(FusedVolume, RenderVolumePooledMatchesSerial)
{
    const RaycastParams params = testParams(volume_);
    Image<slambench::support::Rgb8> serial, pooled;
    WorkCounts counts;
    ThreadPool pool(3);
    renderVolumeKernel(serial, volume_, k_, Mat4f{}, params, counts,
                       nullptr);
    renderVolumeKernel(pooled, volume_, k_, Mat4f{}, params, counts,
                       &pool);
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].r, pooled[i].r) << "pixel " << i;
        ASSERT_EQ(serial[i].g, pooled[i].g);
        ASSERT_EQ(serial[i].b, pooled[i].b);
    }
}

TEST_F(FusedVolume, ClippedRayFromFarOriginHitsSameSurface)
{
    // The AABB clip fast-forwards the march to the volume entry, so
    // pushing the origin back along the ray must find the same
    // surface (up to the fine step's refinement tolerance).
    const RaycastParams params = testParams(volume_);
    Vec3f near_hit, far_hit;
    int near_steps = 0, far_steps = 0;
    ASSERT_TRUE(castRay(volume_, Vec3f{0.0f, 0.0f, 0.2f},
                        Vec3f{0.0f, 0.0f, 1.0f}, params, near_hit,
                        near_steps));
    ASSERT_TRUE(castRay(volume_, Vec3f{0.0f, 0.0f, -2.0f},
                        Vec3f{0.0f, 0.0f, 1.0f}, params, far_hit,
                        far_steps));
    EXPECT_NEAR(near_hit.z, far_hit.z, volume_.voxelSize());
    // The far ray marches the clipped interval, not the extra two
    // meters of empty space in front of the volume.
    EXPECT_LT(far_steps, near_steps + 30);
}

TEST_F(FusedVolume, RaysMissingTheVolumeTakeNoSteps)
{
    const RaycastParams params = testParams(volume_);
    Vec3f hit;
    int steps = 0;
    EXPECT_FALSE(castRay(volume_, Vec3f{0.0f, 0.0f, -0.5f},
                         Vec3f{0.0f, 0.0f, -1.0f}, params, hit,
                         steps));
    EXPECT_EQ(steps, 0);
    EXPECT_FALSE(castRay(volume_, Vec3f{5.0f, 0.0f, 1.0f},
                         Vec3f{0.0f, 1.0f, 0.0f}, params, hit,
                         steps));
    EXPECT_EQ(steps, 0);
}

// --- kernel-backend parity ---
//
// Every backend in the registry must reproduce the scalar reference
// bit-for-bit on all four hot kernels (the parity contract in
// docs/KERNEL_BACKENDS.md): the vectorized paths are engineered to
// replay the scalar operation sequence per lane, so exact equality
// is the specification, not an aspiration.

/** All registered backends except the scalar reference itself. */
std::vector<const KernelBackend *>
nonScalarBackends()
{
    std::vector<const KernelBackend *> backends;
    for (const std::string &name : kernelBackendNames()) {
        const KernelBackend *backend = findKernelBackend(name);
        if (backend != &scalarKernelBackend())
            backends.push_back(backend);
    }
    return backends;
}

TEST(BackendParity, IntegrateMatchesScalarDense)
{
    // integrateDense() always runs the scalar backend, so fusing the
    // same frames through each backend and comparing against the
    // dense sweep checks both the culling and the backend at once.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Mat4f poses[] = {
        Mat4f{},
        slambench::math::lookAt(Vec3f{0.8f, 0.4f, -0.6f},
                                Vec3f{-0.2f, 0.0f, 1.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
        slambench::math::lookAt(Vec3f{0.0f, 0.0f, 1.0f},
                                Vec3f{0.0f, 0.0f, 2.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
    };
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        TsdfVolume tested(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        tested.setBackend(backend);
        WorkCounts counts;
        uint64_t seed = 101;
        for (const Mat4f &pose : poses) {
            const Image<float> depth = makeDepth(k, seed++);
            tested.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                             nullptr);
            dense.integrateDense(depth, k, pose, 0.1f, 100.0f,
                                 counts, nullptr);
        }
        expectBitIdentical(tested, dense);
    }
}

TEST(BackendParity, IntegrateMatchesScalarWithInvalidDepth)
{
    // All-invalid and all-behind depth exercise the skip branches
    // (measured <= 0, sdf < -mu) on every lane.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    Image<float> depth(k.width, k.height, 0.0f);
    for (size_t i = 0; i < depth.size(); i += 3)
        depth[i] = 0.45f; // in front of most of the volume
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        TsdfVolume tested(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        tested.setBackend(backend);
        WorkCounts counts;
        tested.integrate(depth, k, Mat4f{}, 0.1f, 100.0f, counts,
                         nullptr);
        dense.integrateDense(depth, k, Mat4f{}, 0.1f, 100.0f, counts,
                             nullptr);
        expectBitIdentical(tested, dense);
    }
}

TEST_F(FusedVolume, BackendGradMatchesScalarEverywhere)
{
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        Rng rng(7);
        for (int i = 0; i < 20000; ++i) {
            const Vec3f p{
                static_cast<float>(rng.uniform(-1.1, 1.1)),
                static_cast<float>(rng.uniform(-1.1, 1.1)),
                static_cast<float>(rng.uniform(-0.1, 2.1))};
            const Vec3f tested = backend->grad(volume_, p);
            const Vec3f reference = volume_.grad(p);
            ASSERT_EQ(tested.x, reference.x)
                << "at " << p.x << ", " << p.y << ", " << p.z;
            ASSERT_EQ(tested.y, reference.y);
            ASSERT_EQ(tested.z, reference.z);
        }
    }
}

TEST_F(FusedVolume, BackendRaycastMatchesScalar)
{
    const RaycastParams params = testParams(volume_);
    Image<Vec3f> vertex_ref, normal_ref;
    WorkCounts counts;
    raycastKernel(vertex_ref, normal_ref, volume_, k_, Mat4f{},
                  params, counts, nullptr);
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        Image<Vec3f> vertex, normal;
        raycastKernel(vertex, normal, volume_, k_, Mat4f{}, params,
                      counts, nullptr, backend);
        ASSERT_EQ(vertex.size(), vertex_ref.size());
        for (size_t i = 0; i < vertex.size(); ++i) {
            ASSERT_EQ(vertex[i].x, vertex_ref[i].x) << "pixel " << i;
            ASSERT_EQ(vertex[i].y, vertex_ref[i].y);
            ASSERT_EQ(vertex[i].z, vertex_ref[i].z);
            ASSERT_EQ(normal[i].x, normal_ref[i].x) << "pixel " << i;
            ASSERT_EQ(normal[i].y, normal_ref[i].y);
            ASSERT_EQ(normal[i].z, normal_ref[i].z);
        }
    }
}

TEST_F(FusedVolume, BackendRaycastMatchesScalarObliqueView)
{
    // Oblique pose: rays enter the volume at an angle, so packet
    // lanes clip to different [t, t_end] intervals and finish their
    // marches at different times.
    const RaycastParams params = testParams(volume_);
    const Mat4f view = slambench::math::lookAt(
        Vec3f{1.2f, 0.8f, -0.4f}, Vec3f{-0.2f, -0.1f, 1.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    Image<Vec3f> vertex_ref, normal_ref;
    WorkCounts counts;
    raycastKernel(vertex_ref, normal_ref, volume_, k_, view, params,
                  counts, nullptr);
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        Image<Vec3f> vertex, normal;
        raycastKernel(vertex, normal, volume_, k_, view, params,
                      counts, nullptr, backend);
        ASSERT_EQ(vertex.size(), vertex_ref.size());
        for (size_t i = 0; i < vertex.size(); ++i) {
            ASSERT_EQ(vertex[i].x, vertex_ref[i].x) << "pixel " << i;
            ASSERT_EQ(vertex[i].y, vertex_ref[i].y);
            ASSERT_EQ(vertex[i].z, vertex_ref[i].z);
            ASSERT_EQ(normal[i].x, normal_ref[i].x) << "pixel " << i;
            ASSERT_EQ(normal[i].y, normal_ref[i].y);
            ASSERT_EQ(normal[i].z, normal_ref[i].z);
        }
    }
}

TEST_F(FusedVolume, BackendRenderVolumeMatchesScalar)
{
    const RaycastParams params = testParams(volume_);
    Image<slambench::support::Rgb8> reference;
    WorkCounts counts;
    renderVolumeKernel(reference, volume_, k_, Mat4f{}, params,
                       counts, nullptr);
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        Image<slambench::support::Rgb8> tested;
        renderVolumeKernel(tested, volume_, k_, Mat4f{}, params,
                           counts, nullptr, backend);
        ASSERT_EQ(tested.size(), reference.size());
        for (size_t i = 0; i < tested.size(); ++i) {
            ASSERT_EQ(tested[i].r, reference[i].r) << "pixel " << i;
            ASSERT_EQ(tested[i].g, reference[i].g);
            ASSERT_EQ(tested[i].b, reference[i].b);
        }
    }
}

// --- free-brick elision ---
//
// The dense march skips the fetch of samples in bricks the volume
// has not flagged (TsdfVolume::marchSample). The oracle is the same
// volume rewritten voxel by voxel through the mutable at(), which
// flags every brick, so its march fetches every sample.

/**
 * Two smooth surfaces fused from two poses with @p backend: a slope
 * patch (its edges cut across bricks on every axis) seen head-on and
 * a wall seen obliquely, so most bricks stay free and flagged ones
 * sit at varied depths along the rays.
 */
TsdfVolume
fuseSurfaces(const CameraIntrinsics &k, const KernelBackend *backend,
             ThreadPool *pool = nullptr)
{
    TsdfVolume volume(64, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    volume.setBackend(backend);
    WorkCounts counts;
    Image<float> slope(k.width, k.height, 0.0f);
    for (size_t y = 3; y < k.height * 2 / 3; ++y)
        for (size_t x = k.width / 5; x < k.width - 2; ++x)
            slope(x, y) = 0.9f + 0.5f * static_cast<float>(x) /
                                     static_cast<float>(k.width);
    volume.integrate(slope, k, Mat4f{}, 0.1f, 100.0f, counts, pool);
    const Image<float> wall(k.width, k.height, 1.5f);
    volume.integrate(wall, k,
                     slambench::math::lookAt(Vec3f{0.3f, 0.1f, -0.2f},
                                             Vec3f{0.0f, 0.0f, 1.3f},
                                             Vec3f{0.0f, 1.0f, 0.0f}),
                     0.1f, 100.0f, counts, pool);
    return volume;
}

/** @p volume rewritten through the mutable at(): every brick flagged. */
std::unique_ptr<TsdfVolume>
flaggedCopy(const TsdfVolume &volume)
{
    auto copy = std::make_unique<TsdfVolume>(
        volume.resolution(), volume.size(), volume.origin());
    const int res = volume.resolution();
    for (int x = 0; x < res; ++x)
        for (int y = 0; y < res; ++y)
            for (int z = 0; z < res; ++z)
                copy->at(x, y, z) = volume.at(x, y, z);
    return copy;
}

/** @return the number of flagged bricks of @p volume. */
size_t
flaggedBricks(const TsdfVolume &volume)
{
    const size_t bricks = static_cast<size_t>(volume.bricks());
    size_t flagged = 0;
    for (size_t i = 0; i < bricks * bricks * bricks; ++i)
        flagged += volume.brickFlags()[i] != 0;
    return flagged;
}

/** Every registered backend, the scalar reference first. */
std::vector<const KernelBackend *>
allBackends()
{
    std::vector<const KernelBackend *> backends{&scalarKernelBackend()};
    for (const KernelBackend *backend : nonScalarBackends())
        backends.push_back(backend);
    return backends;
}

/** Camera poses the elision tests cast from. */
std::vector<Mat4f>
elisionViews()
{
    return {Mat4f{},
            slambench::math::lookAt(Vec3f{1.2f, 0.8f, -0.4f},
                                    Vec3f{-0.2f, -0.1f, 1.0f},
                                    Vec3f{0.0f, 1.0f, 0.0f}),
            slambench::math::lookAt(Vec3f{-0.6f, 0.3f, 0.1f},
                                    Vec3f{0.3f, -0.2f, 1.6f},
                                    Vec3f{0.0f, 1.0f, 0.0f})};
}

uint64_t
freeStepsCounter()
{
    return slambench::support::metrics::Registry::instance()
        .counter("raycast.free_steps")
        .value();
}

/**
 * Raycast and render @p fused and its flagged copy alike; require
 * identical maps, images and step counts, and elided samples on the
 * fused volume only.
 */
void
expectElisionInvisible(const TsdfVolume &fused, const TsdfVolume &copy,
                       const CameraIntrinsics &k, const Mat4f &view,
                       const RaycastParams &params,
                       const KernelBackend *backend, ThreadPool *pool)
{
    WorkCounts elided_counts, full_counts;
    Image<Vec3f> vertex, normal, vertex_ref, normal_ref;
    const uint64_t before = freeStepsCounter();
    raycastKernel(vertex, normal, fused, k, view, params, elided_counts,
                  pool, backend);
    const uint64_t elided = freeStepsCounter() - before;
    raycastKernel(vertex_ref, normal_ref, copy, k, view, params,
                  full_counts, pool, backend);
    EXPECT_GT(elided, 0u);
    EXPECT_EQ(freeStepsCounter() - before, elided)
        << "the flagged copy elided samples";
    EXPECT_EQ(elided_counts.itemsFor(KernelId::Raycast),
              full_counts.itemsFor(KernelId::Raycast));
    for (size_t i = 0; i < vertex.size(); ++i) {
        ASSERT_EQ(vertex[i].x, vertex_ref[i].x) << "pixel " << i;
        ASSERT_EQ(vertex[i].y, vertex_ref[i].y);
        ASSERT_EQ(vertex[i].z, vertex_ref[i].z);
        ASSERT_EQ(normal[i].x, normal_ref[i].x);
        ASSERT_EQ(normal[i].y, normal_ref[i].y);
        ASSERT_EQ(normal[i].z, normal_ref[i].z);
    }
    Image<slambench::support::Rgb8> render, render_ref;
    renderVolumeKernel(render, fused, k, view, params, elided_counts,
                       pool, backend);
    renderVolumeKernel(render_ref, copy, k, view, params, full_counts,
                       pool, backend);
    for (size_t i = 0; i < render.size(); ++i) {
        ASSERT_EQ(render[i].r, render_ref[i].r) << "pixel " << i;
        ASSERT_EQ(render[i].g, render_ref[i].g);
        ASSERT_EQ(render[i].b, render_ref[i].b);
    }
    EXPECT_EQ(elided_counts.itemsFor(KernelId::RenderVolume),
              full_counts.itemsFor(KernelId::RenderVolume));
}

TEST(FreeBrick, RaycastMatchesFullyFlaggedCopyPooled)
{
    const CameraIntrinsics k = CameraIntrinsics::fromFov(40, 32, 1.0f);
    // The pipeline's large step (0.75 mu) stops short of the band, so
    // its crossings follow fetched samples; a large step past 0.8 mu
    // also crosses straight from an elided sample (the re-fetch).
    std::vector<RaycastParams> param_sets(2);
    param_sets[0].largeStep = 0.075f;
    param_sets[1].largeStep = 0.2f;
    for (RaycastParams &p : param_sets) {
        p.nearPlane = 0.1f;
        p.farPlane = 4.0f;
        p.step = 2.0f / 64.0f;
    }
    ThreadPool pool(3);
    for (const KernelBackend *fuse_backend : allBackends()) {
        SCOPED_TRACE(std::string("integrate ") + fuse_backend->name());
        const TsdfVolume fused = fuseSurfaces(k, fuse_backend, &pool);
        const auto copy = flaggedCopy(fused);
        const size_t bricks = static_cast<size_t>(fused.bricks());
        ASSERT_EQ(flaggedBricks(*copy), bricks * bricks * bricks);
        // The fixture only tests something when bricks stay free.
        ASSERT_GT(flaggedBricks(fused), 0u);
        ASSERT_LT(flaggedBricks(fused), bricks * bricks * bricks / 2);
        for (const RaycastParams &params : param_sets)
            for (const Mat4f &view : elisionViews())
                for (const KernelBackend *backend : allBackends())
                    for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr),
                                          &pool}) {
                        SCOPED_TRACE(std::string(backend->name()) +
                                     (p ? " pooled" : " serial"));
                        expectElisionInvisible(fused, *copy, k, view,
                                               params, backend, p);
                    }
    }
}

TEST(FreeBrick, NegativeVoxelsWrittenThroughAtAreHit)
{
    const CameraIntrinsics k = CameraIntrinsics::fromFov(40, 32, 1.0f);
    TsdfVolume volume = fuseSurfaces(k, nullptr);
    RaycastParams params;
    params.nearPlane = 0.1f;
    params.farPlane = 4.0f;
    params.step = volume.voxelSize();
    const Vec3f origin{0.0f, 0.0f, 0.0f};
    const Vec3f dir{0.0f, 0.0f, 1.0f};
    Vec3f hit;
    int steps = 0;
    ASSERT_TRUE(castRay(volume, origin, dir, params, hit, steps));
    ASSERT_GT(hit.z, 0.8f); // the slope, beyond the cube below

    // A 4^3 cube of "inside" voxels around z = 0.5 m on the ray, in
    // bricks integrate left free.
    const int c = volume.resolution() / 2;
    const int z0 = 15;
    for (int x = c - 2; x < c + 2; ++x)
        for (int y = c - 2; y < c + 2; ++y)
            for (int z = z0; z < z0 + 4; ++z)
                ASSERT_EQ(std::as_const(volume).brickFlags()
                              [((x >> 3) * volume.bricks() + (y >> 3)) *
                                   volume.bricks() +
                               (z >> 3)],
                          0)
                    << "voxel (" << x << ", " << y << ", " << z
                    << ") is not in a free brick";
    for (int x = c - 2; x < c + 2; ++x)
        for (int y = c - 2; y < c + 2; ++y)
            for (int z = z0; z < z0 + 4; ++z)
                volume.at(x, y, z) = Voxel{-1.0f, 1.0f};

    const float vs = volume.voxelSize();
    for (const KernelBackend *backend : allBackends()) {
        SCOPED_TRACE(backend->name());
        RayHit ray;
        backend->castRays(volume, origin, &dir, 1, params, &ray);
        ASSERT_TRUE(ray.found);
        EXPECT_GT(ray.hit.z, (z0 - 1) * vs);
        EXPECT_LT(ray.hit.z, (z0 + 1) * vs);
        const auto copy = flaggedCopy(volume);
        RayHit ref;
        backend->castRays(*copy, origin, &dir, 1, params, &ref);
        EXPECT_EQ(ray.hit.z, ref.hit.z);
        EXPECT_EQ(ray.steps, ref.steps);
    }
}

TEST(FreeBrick, ResetClearsFlagsPooled)
{
    const CameraIntrinsics k = CameraIntrinsics::fromFov(40, 32, 1.0f);
    ThreadPool pool(3);
    for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool}) {
        TsdfVolume volume = fuseSurfaces(k, nullptr);
        ASSERT_GT(flaggedBricks(volume), 0u);
        volume.reset(p);
        EXPECT_EQ(flaggedBricks(volume), 0u);
        const int res = volume.resolution();
        for (int x = 0; x < res; ++x)
            for (int y = 0; y < res; ++y)
                for (int z = 0; z < res; ++z) {
                    ASSERT_EQ(volume.voxelAt(x, y, z).tsdf, 1.0f);
                    ASSERT_EQ(volume.voxelAt(x, y, z).weight, 0.0f);
                }
    }
    // A volume first touched on a pool starts unobserved, unflagged.
    const TsdfVolume pooled(40, 2.0f, Vec3f{}, &pool);
    EXPECT_EQ(flaggedBricks(pooled), 0u);
    for (int x = 0; x < 40; ++x)
        for (int y = 0; y < 40; ++y)
            for (int z = 0; z < 40; ++z) {
                ASSERT_EQ(pooled.voxelAt(x, y, z).tsdf, 1.0f);
                ASSERT_EQ(pooled.voxelAt(x, y, z).weight, 0.0f);
            }
}

TEST(FreeBrick, VoxelWriteFlagsExactlyTheBricksOfItsStencils)
{
    // Voxel (x, y, z) is read by the stencils based at {x - 1, x} x
    // {y - 1, y} x {z - 1, z}: two bricks per axis on a brick's first
    // index, one elsewhere and at the volume's lower face.
    const int coords[] = {0, 5, 7, 8, 16, 63};
    for (int x : coords)
        for (int y : coords)
            for (int z : coords) {
                TsdfVolume volume(64, 2.0f, Vec3f{});
                volume.at(x, y, z) = Voxel{-0.5f, 1.0f};
                const TsdfVolume &read = volume;
                const int bricks = read.bricks();
                for (int bx = 0; bx < bricks; ++bx)
                    for (int by = 0; by < bricks; ++by)
                        for (int bz = 0; bz < bricks; ++bz) {
                            const auto reads = [](int b, int c) {
                                return b == c >> 3 ||
                                       (c > 0 && b == (c - 1) >> 3);
                            };
                            const bool expect = reads(bx, x) &&
                                                reads(by, y) &&
                                                reads(bz, z);
                            ASSERT_EQ(read.brickFlags()
                                              [(bx * bricks + by) *
                                                   bricks +
                                               bz] != 0,
                                      expect)
                                << "voxel (" << x << ", " << y << ", "
                                << z << "), brick (" << bx << ", "
                                << by << ", " << bz << ")";
                        }
            }
}

TEST(FreeBrick, UnflaggedBricksHoldNoNearStencil)
{
    // The flag invariant itself, exhaustively: every stencil based in
    // an unflagged brick reads corners >= kFreeTsdf only.
    const CameraIntrinsics k = CameraIntrinsics::fromFov(40, 32, 1.0f);
    for (const KernelBackend *backend : allBackends()) {
        SCOPED_TRACE(backend->name());
        const TsdfVolume volume = fuseSurfaces(k, backend);
        const int res = volume.resolution();
        const int bricks = volume.bricks();
        int near_voxels = 0, checked = 0;
        for (int x = 0; x + 1 < res; ++x)
            for (int y = 0; y + 1 < res; ++y)
                for (int z = 0; z + 1 < res; ++z) {
                    near_voxels += !(volume.at(x, y, z).tsdf >= kFreeTsdf);
                    if (volume.brickFlags()[((x >> 3) * bricks +
                                             (y >> 3)) *
                                                bricks +
                                            (z >> 3)])
                        continue;
                    ++checked;
                    for (int c = 0; c < 8; ++c)
                        ASSERT_GE(volume
                                      .at(x + (c & 1), y + (c >> 1 & 1),
                                          z + (c >> 2))
                                      .tsdf,
                                  kFreeTsdf)
                            << "stencil (" << x << ", " << y << ", "
                            << z << ") corner " << c;
                }
        EXPECT_GT(near_voxels, 1000);
        EXPECT_GT(checked, res * res * res / 2);
    }
}

TEST(FreeBrick, UnflaggedStencilsReadAtLeastTheBand)
{
    // The elision's premise: a sample based in an unflagged brick
    // reads >= kFineStepBand. Half the points sit on a brick's last
    // base index on some axis, where the stencil reaches into the
    // next brick; integrate must have flagged the brick when that
    // next voxel is near.
    const CameraIntrinsics k = CameraIntrinsics::fromFov(40, 32, 1.0f);
    for (const KernelBackend *backend : allBackends()) {
        SCOPED_TRACE(backend->name());
        const TsdfVolume volume = fuseSurfaces(k, backend);
        const int res = volume.resolution();
        const float vs = volume.voxelSize();
        Rng rng(23);
        int checked = 0, on_last = 0;
        for (int i = 0; i < 200000; ++i) {
            int base[3];
            for (int a = 0; a < 3; ++a) {
                base[a] = static_cast<int>(rng.uniform(0.0, res - 1.0));
                if (rng.uniform(0.0, 1.0) < 0.5)
                    base[a] |= 7;
                base[a] = std::min(base[a], res - 2);
            }
            const Vec3f p =
                volume.origin() +
                Vec3f{(base[0] + 0.5f + static_cast<float>(
                                            rng.uniform(0.0, 1.0))) *
                          vs,
                      (base[1] + 0.5f + static_cast<float>(
                                            rng.uniform(0.0, 1.0))) *
                          vs,
                      (base[2] + 0.5f + static_cast<float>(
                                            rng.uniform(0.0, 1.0))) *
                          vs};
            bool valid = false;
            const float marched = volume.marchSample(p, valid);
            if (marched != kFreeSample)
                continue; // flagged brick or out of bounds
            ++checked;
            on_last += (base[0] & 7) == 7 || (base[1] & 7) == 7 ||
                       (base[2] & 7) == 7;
            const float value = volume.interp(p, valid);
            ASSERT_GE(value, kFineStepBand)
                << "at (" << p.x << ", " << p.y << ", " << p.z << ")";
        }
        EXPECT_GT(checked, 50000);
        EXPECT_GT(on_last, 20000);
    }
}

/** Synthetic track data covering every TrackResult branch. */
Image<TrackData>
makeTrackData(size_t w, size_t h, uint64_t seed)
{
    Image<TrackData> track(w, h);
    Rng rng(seed);
    for (size_t i = 0; i < track.size(); ++i) {
        TrackData &d = track[i];
        const double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.55) {
            d.result = TrackResult::Ok;
        } else if (kind < 0.7) {
            d.result = TrackResult::NoInputVertex;
        } else if (kind < 0.85) {
            d.result = TrackResult::TooFar;
        } else {
            d.result = TrackResult::NormalMismatch;
        }
        d.error = static_cast<float>(rng.uniform(-0.05, 0.05));
        for (float &j : d.jacobian)
            j = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return track;
}

TEST(BackendParity, ReduceMatchesScalar)
{
    const Image<TrackData> track = makeTrackData(80, 60, 303);
    const KernelBackend &scalar = scalarKernelBackend();
    // Full image plus awkward sub-ranges (unaligned begin/end, short
    // tails smaller than one vector width).
    const std::pair<size_t, size_t> ranges[] = {
        {0, track.size()}, {1, track.size() - 3}, {17, 29},
        {track.size() - 5, track.size()}, {7, 7},
    };
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        for (const auto &[begin, end] : ranges) {
            const ReductionResult expect =
                scalar.reduceRange(track, begin, end);
            const ReductionResult got =
                backend->reduceRange(track, begin, end);
            ASSERT_EQ(got.validCount, expect.validCount);
            ASSERT_EQ(got.errorSq, expect.errorSq);
            for (size_t i = 0; i < expect.jtj.size(); ++i)
                ASSERT_EQ(got.jtj[i], expect.jtj[i]) << "jtj " << i;
            for (size_t i = 0; i < expect.jte.size(); ++i)
                ASSERT_EQ(got.jte[i], expect.jte[i]) << "jte " << i;
        }
    }
}

// --- sparse-volume parity ---
//
// The hashed-voxel-block volume promises bit-identity with the dense
// reference at EVERY voxel: observed voxels replay the exact dense
// fusion arithmetic, and unallocated voxels read the default
// Voxel{+1, 0} — the value an untouched dense voxel holds. So full
// res^3 equality (not just the observed region) is the contract.

/** Assert a sparse volume matches a dense one at every voxel. */
void
expectSparseMatchesDense(const SparseTsdfVolume &sparse,
                         const TsdfVolume &dense)
{
    ASSERT_EQ(sparse.resolution(), dense.resolution());
    for (int x = 0; x < dense.resolution(); ++x) {
        for (int y = 0; y < dense.resolution(); ++y) {
            for (int z = 0; z < dense.resolution(); ++z) {
                const Voxel s = sparse.voxelAt(x, y, z);
                const Voxel d = dense.voxelAt(x, y, z);
                ASSERT_EQ(s.tsdf, d.tsdf)
                    << "tsdf mismatch at (" << x << ", " << y << ", "
                    << z << ")";
                ASSERT_EQ(s.weight, d.weight)
                    << "weight mismatch at (" << x << ", " << y
                    << ", " << z << ")";
            }
        }
    }
}

/**
 * Fuse the same frame into sparse and dense volumes (both serial and
 * pooled sparse) and require voxel-for-voxel identity.
 */
void
checkSparseMatchesDense(const Mat4f &pose, uint64_t seed,
                        int block_size)
{
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Image<float> depth = makeDepth(k, seed);

    TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    SparseTsdfVolume serial(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f},
                            block_size, 0);
    SparseTsdfVolume pooled(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f},
                            block_size, 0);
    ThreadPool pool(3);
    WorkCounts dense_counts, serial_counts, pooled_counts;
    dense.integrate(depth, k, pose, 0.1f, 100.0f, dense_counts,
                    nullptr);
    serial.integrate(depth, k, pose, 0.1f, 100.0f, serial_counts,
                     nullptr);
    pooled.integrate(depth, k, pose, 0.1f, 100.0f, pooled_counts,
                     &pool);
    expectSparseMatchesDense(serial, dense);
    expectSparseMatchesDense(pooled, dense);
    EXPECT_EQ(serial.allocatedBlocks(), pooled.allocatedBlocks());
    // Sparse and dense run the identical culled sweep, so the work
    // accounts agree exactly.
    EXPECT_DOUBLE_EQ(serial_counts.itemsFor(KernelId::Integrate),
                     dense_counts.itemsFor(KernelId::Integrate));
    EXPECT_DOUBLE_EQ(serial_counts.skippedFor(KernelId::Integrate),
                     dense_counts.skippedFor(KernelId::Integrate));
}

TEST(SparseParity, MatchesDenseIdentityPose)
{
    checkSparseMatchesDense(Mat4f{}, 11, 8);
    checkSparseMatchesDense(Mat4f{}, 11, 16);
}

TEST(SparseParity, MatchesDensePartialFrustum)
{
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.8f, 0.4f, -0.6f}, Vec3f{-0.2f, 0.0f, 1.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    checkSparseMatchesDense(pose, 12, 8);
    checkSparseMatchesDense(pose, 12, 16);
}

TEST(SparseParity, MatchesDenseCameraInsideVolume)
{
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.0f, 0.0f, 1.0f}, Vec3f{0.0f, 0.0f, 2.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    checkSparseMatchesDense(pose, 13, 8);
}

TEST(SparseParity, MatchesDenseVolumeBehindCamera)
{
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.0f, 0.0f, -0.5f}, Vec3f{0.0f, 0.0f, -2.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    checkSparseMatchesDense(pose, 14, 8);
    // Nothing projects: no block may be allocated.
    SparseTsdfVolume sparse(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f}, 8,
                            0);
    WorkCounts counts;
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    sparse.integrate(makeDepth(k, 14), k, pose, 0.1f, 100.0f, counts,
                     nullptr);
    EXPECT_EQ(sparse.allocatedBlocks(), 0u);
}

TEST(SparseParity, MatchesDenseAcrossFusedFramesPooled)
{
    // Multi-frame fusion with every kernel backend, serial and
    // pooled: weights accumulate across frames, so any ordering slip
    // in the block-run replay would show up here.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Mat4f poses[] = {
        Mat4f{},
        slambench::math::lookAt(Vec3f{0.5f, 0.2f, -0.4f},
                                Vec3f{0.0f, 0.0f, 1.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
    };
    for (const std::string &name : kernelBackendNames()) {
        SCOPED_TRACE(name);
        const KernelBackend *backend = findKernelBackend(name);
        TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        SparseTsdfVolume sparse(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f},
                                8, 0);
        dense.setBackend(backend);
        sparse.setBackend(backend);
        ThreadPool pool(3);
        WorkCounts counts;
        uint64_t seed = 51;
        for (const Mat4f &pose : poses) {
            const Image<float> depth = makeDepth(k, seed++);
            dense.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                            nullptr);
            sparse.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                             &pool);
        }
        expectSparseMatchesDense(sparse, dense);
    }
}

/**
 * Sparse copies of FusedVolume's dense fixture content, one per block
 * size (8 and 16): every test below runs against both.
 */
class SparseFusedVolume : public FusedVolume
{
  protected:
    SparseFusedVolume()
    {
        for (int block_size : {8, 16}) {
            auto sparse = std::make_unique<SparseTsdfVolume>(
                48, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f}, block_size, 0);
            WorkCounts counts;
            Image<float> wall(k_.width, k_.height, 1.0f);
            sparse->integrate(wall, k_, Mat4f{}, 0.1f, 100.0f, counts,
                              nullptr);
            const Image<float> depth = makeDepth(k_, 31);
            sparse->integrate(depth, k_, Mat4f{}, 0.1f, 100.0f,
                              counts, nullptr);
            sparse_.push_back(std::move(sparse));
        }
    }

    std::vector<std::unique_ptr<SparseTsdfVolume>> sparse_;
};

TEST_F(SparseFusedVolume, InterpMatchesDenseEverywhere)
{
    for (const auto &sparse : sparse_) {
        SCOPED_TRACE(sparse->blockSize());
        Rng rng(7);
        SparseTsdfVolume::LookupCache cache;
        for (int i = 0; i < 20000; ++i) {
            const Vec3f p{
                static_cast<float>(rng.uniform(-1.1, 1.1)),
                static_cast<float>(rng.uniform(-1.1, 1.1)),
                static_cast<float>(rng.uniform(-0.1, 2.1))};
            bool dense_valid = false, sparse_valid = false,
                 cached_valid = false;
            const float dense_v = volume_.interp(p, dense_valid);
            const float sparse_v = sparse->interp(p, sparse_valid);
            const float cached_v =
                sparse->interpCached(p, cached_valid, cache);
            ASSERT_EQ(sparse_v, dense_v)
                << "at " << p.x << ", " << p.y << ", " << p.z;
            ASSERT_EQ(sparse_valid, dense_valid);
            ASSERT_EQ(cached_v, dense_v);
            ASSERT_EQ(cached_valid, dense_valid);
        }
    }
}

TEST_F(SparseFusedVolume, GradMatchesDenseEverywhere)
{
    for (const auto &sparse : sparse_) {
        SCOPED_TRACE(sparse->blockSize());
        Rng rng(8);
        SparseTsdfVolume::LookupCache cache;
        for (int i = 0; i < 20000; ++i) {
            const Vec3f p{
                static_cast<float>(rng.uniform(-1.1, 1.1)),
                static_cast<float>(rng.uniform(-1.1, 1.1)),
                static_cast<float>(rng.uniform(-0.1, 2.1))};
            const Vec3f dense_g = volume_.grad(p);
            const Vec3f sparse_g = sparse->grad(p);
            const Vec3f cached_g = sparse->gradCached(p, cache);
            ASSERT_EQ(sparse_g.x, dense_g.x)
                << "at " << p.x << ", " << p.y << ", " << p.z;
            ASSERT_EQ(sparse_g.y, dense_g.y);
            ASSERT_EQ(sparse_g.z, dense_g.z);
            ASSERT_EQ(cached_g.x, dense_g.x);
            ASSERT_EQ(cached_g.y, dense_g.y);
            ASSERT_EQ(cached_g.z, dense_g.z);
        }
    }
}

TEST_F(SparseFusedVolume, CastRayMatchesDense)
{
    const RaycastParams params = testParams(volume_);
    for (const auto &sparse : sparse_) {
        SCOPED_TRACE(sparse->blockSize());
        Rng rng(9);
        SparseTsdfVolume::LookupCache cache;
        for (int i = 0; i < 500; ++i) {
            const Vec3f origin{
                static_cast<float>(rng.uniform(-0.5, 0.5)),
                static_cast<float>(rng.uniform(-0.5, 0.5)),
                static_cast<float>(rng.uniform(-0.5, 0.3))};
            Vec3f dir{static_cast<float>(rng.uniform(-0.4, 0.4)),
                      static_cast<float>(rng.uniform(-0.4, 0.4)),
                      static_cast<float>(rng.uniform(0.5, 1.0))};
            dir = dir * (1.0f / dir.norm());
            Vec3f dense_hit, sparse_hit;
            int dense_steps = 0, sparse_steps = 0;
            const bool dense_found = castRay(
                volume_, origin, dir, params, dense_hit, dense_steps);
            const bool sparse_found =
                castRay(*sparse, origin, dir, params, sparse_hit,
                        sparse_steps, cache);
            ASSERT_EQ(sparse_found, dense_found) << "ray " << i;
            ASSERT_EQ(sparse_steps, dense_steps);
            if (dense_found) {
                ASSERT_EQ(sparse_hit.x, dense_hit.x) << "ray " << i;
                ASSERT_EQ(sparse_hit.y, dense_hit.y);
                ASSERT_EQ(sparse_hit.z, dense_hit.z);
            }
        }
    }
}

TEST_F(SparseFusedVolume, RaycastKernelMatchesDenseSerialAndPooled)
{
    const RaycastParams params = testParams(volume_);
    const Mat4f views[] = {
        Mat4f{},
        slambench::math::lookAt(Vec3f{1.2f, 0.8f, -0.4f},
                                Vec3f{-0.2f, -0.1f, 1.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
    };
    ThreadPool pool(3);
    for (const Mat4f &view : views) {
        Image<Vec3f> vertex_ref, normal_ref;
        WorkCounts ref_counts;
        raycastKernel(vertex_ref, normal_ref, volume_, k_, view,
                      params, ref_counts, nullptr);
        for (const auto &sparse : sparse_) {
            SCOPED_TRACE(sparse->blockSize());
            for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr),
                                  &pool}) {
                Image<Vec3f> vertex, normal;
                WorkCounts counts;
                raycastKernel(vertex, normal, *sparse, k_, view,
                              params, counts, p);
                // The device models price the marching steps, so the
                // sparse march must take exactly the dense steps.
                ASSERT_EQ(counts.itemsFor(KernelId::Raycast),
                          ref_counts.itemsFor(KernelId::Raycast));
                ASSERT_EQ(vertex.size(), vertex_ref.size());
                for (size_t i = 0; i < vertex.size(); ++i) {
                    ASSERT_EQ(vertex[i].x, vertex_ref[i].x)
                        << "pixel " << i;
                    ASSERT_EQ(vertex[i].y, vertex_ref[i].y);
                    ASSERT_EQ(vertex[i].z, vertex_ref[i].z);
                    ASSERT_EQ(normal[i].x, normal_ref[i].x)
                        << "pixel " << i;
                    ASSERT_EQ(normal[i].y, normal_ref[i].y);
                    ASSERT_EQ(normal[i].z, normal_ref[i].z);
                }
            }
        }
    }
}

TEST_F(SparseFusedVolume, RenderVolumeMatchesDense)
{
    const RaycastParams params = testParams(volume_);
    Image<slambench::support::Rgb8> reference;
    WorkCounts counts;
    ThreadPool pool(3);
    renderVolumeKernel(reference, volume_, k_, Mat4f{}, params,
                       counts, nullptr);
    for (const auto &sparse : sparse_) {
        SCOPED_TRACE(sparse->blockSize());
        Image<slambench::support::Rgb8> tested;
        renderVolumeKernel(tested, *sparse, k_, Mat4f{}, params,
                           counts, &pool);
        ASSERT_EQ(tested.size(), reference.size());
        for (size_t i = 0; i < tested.size(); ++i) {
            ASSERT_EQ(tested[i].r, reference[i].r) << "pixel " << i;
            ASSERT_EQ(tested[i].g, reference[i].g);
            ASSERT_EQ(tested[i].b, reference[i].b);
        }
    }
}

TEST(SparseParity, PipelinePosesMatchDenseExactly)
{
    // End-to-end: a full pipeline on the sparse volume must produce
    // bit-identical poses to the dense run — fusion, sampling, and
    // raycast are all bit-exact, and the pose is a pure function of
    // their outputs.
    slambench::dataset::SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 6;
    spec.renderRgb = false;
    spec.seed = 42;
    const auto seq = slambench::dataset::generateSequence(spec);

    KFusionConfig config;
    config.volumeResolution = 96;
    config.pyramidIterations = {6, 4, 3};

    std::vector<Mat4f> reference_poses;
    {
        KFusion kf(config, seq.intrinsics);
        kf.setPose(seq.groundTruth.pose(0));
        for (const auto &frame : seq.frames)
            reference_poses.push_back(
                kf.processFrame(frame.depthMm).pose);
    }

    for (int block_size : {8, 16}) {
        SCOPED_TRACE(block_size);
        KFusionConfig cfg = config;
        cfg.volumeBackend = "sparse";
        cfg.volumeBlockSize = block_size;
        KFusion kf(cfg, seq.intrinsics);
        kf.setPose(seq.groundTruth.pose(0));
        for (size_t f = 0; f < seq.frames.size(); ++f) {
            const Mat4f pose =
                kf.processFrame(seq.frames[f].depthMm).pose;
            for (int r = 0; r < 4; ++r)
                for (int c = 0; c < 4; ++c)
                    ASSERT_EQ(pose(r, c), reference_poses[f](r, c))
                        << "frame " << f << " element (" << r << ", "
                        << c << ")";
        }
    }
}

TEST(BackendParity, PipelinePosesMatchScalarExactly)
{
    // End-to-end: the full pipeline must produce bit-identical poses
    // under every backend, because each kernel is bit-exact and the
    // pose is a pure function of the kernel outputs.
    slambench::dataset::SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 6;
    spec.renderRgb = false;
    spec.seed = 42;
    const auto seq = slambench::dataset::generateSequence(spec);

    KFusionConfig config;
    config.volumeResolution = 96;
    config.pyramidIterations = {6, 4, 3};

    std::vector<Mat4f> reference_poses;
    {
        KFusion kf(config, seq.intrinsics);
        kf.setPose(seq.groundTruth.pose(0));
        for (const auto &frame : seq.frames)
            reference_poses.push_back(
                kf.processFrame(frame.depthMm).pose);
    }

    for (const std::string &name : kernelBackendNames()) {
        SCOPED_TRACE(name);
        KFusionConfig cfg = config;
        cfg.kernelBackend = name;
        KFusion kf(cfg, seq.intrinsics);
        kf.setPose(seq.groundTruth.pose(0));
        for (size_t f = 0; f < seq.frames.size(); ++f) {
            const Mat4f pose =
                kf.processFrame(seq.frames[f].depthMm).pose;
            for (int r = 0; r < 4; ++r)
                for (int c = 0; c < 4; ++c)
                    ASSERT_EQ(pose(r, c), reference_poses[f](r, c))
                        << "frame " << f << " element (" << r << ", "
                        << c << ")";
        }
    }
}

// --- render reuse ---
//
// KFusion::renderModel shades the last raycast's normal map instead
// of marching again when the view pose and intrinsics are bit-equal
// to the raycast's and the volume is unchanged since. Either way the
// render must equal a fresh march of the pipeline's volume, pixel for
// pixel, and charge RenderVolume the same items and bytes.

/** A pipeline run over the first frames of a short sequence. */
struct ReuseRun
{
    slambench::dataset::Sequence seq;
    std::unique_ptr<KFusion> kf;
};

/**
 * Run @p frames frames of an 80x60 (times @p csr) sequence through a
 * KFusion on @p volume with block size @p block_size.
 */
ReuseRun
runPipeline(const std::string &volume, int block_size, int csr,
            size_t frames, int tracking_rate = 1)
{
    slambench::dataset::SequenceSpec spec;
    spec.width = 80 * static_cast<size_t>(csr);
    spec.height = 60 * static_cast<size_t>(csr);
    spec.numFrames = 6;
    spec.renderRgb = false;
    spec.seed = 42;
    ReuseRun run{slambench::dataset::generateSequence(spec), nullptr};

    KFusionConfig config;
    config.volumeResolution = 64;
    config.pyramidIterations = {6, 4, 3};
    config.volumeBackend = volume;
    config.volumeBlockSize = block_size;
    config.computeSizeRatio = csr;
    config.trackingRate = tracking_rate;
    run.kf = std::make_unique<KFusion>(config, run.seq.intrinsics);
    run.kf->setPose(run.seq.groundTruth.pose(0));
    for (size_t f = 0; f < frames; ++f)
        run.kf->processFrame(run.seq.frames[f].depthMm);
    return run;
}

/**
 * renderModel(view, k) against a marched render at (view,
 * marched_k): identical pixels and RenderVolume items and bytes.
 *
 * @return whether renderModel reused the raycast.
 */
bool
expectRenderMatchesMarched(KFusion &kf, const Mat4f &view,
                           const CameraIntrinsics *k,
                           const CameraIntrinsics &marched_k)
{
    slambench::support::metrics::Counter &reuses =
        slambench::support::metrics::Registry::instance().counter(
            "pipeline.render_reuses");
    const uint64_t reuses_before = reuses.value();
    const WorkCounts before = kf.totalWork();
    Image<slambench::support::Rgb8> rendered;
    kf.renderModel(rendered, view, k);
    const bool reused = reuses.value() != reuses_before;

    Image<slambench::support::Rgb8> marched;
    WorkCounts marched_work;
    kf.volume().renderVolume(marched, marched_k, view,
                             kf.raycastParams(), marched_work, nullptr);
    EXPECT_EQ(kf.totalWork().itemsFor(KernelId::RenderVolume) -
                  before.itemsFor(KernelId::RenderVolume),
              marched_work.itemsFor(KernelId::RenderVolume));
    EXPECT_EQ(kf.totalWork().bytesFor(KernelId::RenderVolume) -
                  before.bytesFor(KernelId::RenderVolume),
              marched_work.bytesFor(KernelId::RenderVolume));
    EXPECT_GT(marched_work.itemsFor(KernelId::RenderVolume), 0.0);
    EXPECT_EQ(rendered.width(), marched.width());
    EXPECT_EQ(rendered.height(), marched.height());
    size_t lit = 0;
    for (size_t i = 0; i < marched.size() && i < rendered.size();
         ++i) {
        EXPECT_EQ(rendered[i], marched[i]) << "pixel " << i;
        if (rendered[i] != marched[i])
            break;
        lit += !(marched[i] == slambench::support::Rgb8{20, 20, 28});
    }
    // A render of mostly background would prove little.
    EXPECT_GT(lit, marched.size() / 4);
    return reused;
}

/** Volume backends the reuse tests run on: {backend, block size}. */
const std::pair<const char *, int> kReuseVolumes[] = {
    {"dense", 8}, {"sparse", 8}, {"sparse", 16}};

TEST(RenderReuse, RaycastViewMatchesMarchedRender)
{
    for (const auto &[volume, block_size] : kReuseVolumes) {
        SCOPED_TRACE(::testing::Message() << volume << " B="
                                          << block_size);
        ReuseRun run = runPipeline(volume, block_size, 1, 4);
        KFusion &kf = *run.kf;
        const CameraIntrinsics k = kf.computeIntrinsics();
        EXPECT_TRUE(expectRenderMatchesMarched(kf, kf.pose(), &k, k));
        // The reuse charges the raycast's steps: the same rays.
        EXPECT_EQ(kf.frameWork().back().itemsFor(KernelId::Raycast),
                  kf.frameWork().back().itemsFor(
                      KernelId::RenderVolume));
    }
}

TEST(RenderReuse, FallsBackToMarchingWhenViewOrVolumeChanged)
{
    for (const auto &[volume, block_size] : kReuseVolumes) {
        SCOPED_TRACE(::testing::Message() << volume << " B="
                                          << block_size);
        {
            // Another pose: different rays.
            ReuseRun run = runPipeline(volume, block_size, 1, 4);
            KFusion &kf = *run.kf;
            const CameraIntrinsics k = kf.computeIntrinsics();
            const Mat4f moved =
                Mat4f::translation(Vec3f{0.02f, -0.01f, 0.0f}) *
                kf.pose();
            EXPECT_FALSE(expectRenderMatchesMarched(kf, moved, &k, k));
        }
        {
            // The GUI default renders at the input intrinsics, twice
            // the compute resolution here.
            ReuseRun run = runPipeline(volume, block_size, 2, 4);
            KFusion &kf = *run.kf;
            EXPECT_FALSE(expectRenderMatchesMarched(
                kf, kf.pose(), nullptr, run.seq.intrinsics));
            const CameraIntrinsics k = kf.computeIntrinsics();
            EXPECT_TRUE(expectRenderMatchesMarched(kf, kf.pose(), &k, k));
        }
        {
            // A view raycast before the latest integrate: processFrame
            // raycasts again after every integrate, at the new pose,
            // so the old view marches the updated volume.
            ReuseRun run = runPipeline(volume, block_size, 1, 2);
            KFusion &kf = *run.kf;
            const Mat4f old_view = kf.pose();
            ASSERT_TRUE(
                kf.processFrame(run.seq.frames[2].depthMm).integrated);
            ASSERT_NE(std::memcmp(old_view.m, kf.pose().m,
                                  sizeof old_view.m),
                      0);
            const CameraIntrinsics k = kf.computeIntrinsics();
            EXPECT_FALSE(
                expectRenderMatchesMarched(kf, old_view, &k, k));
        }
        {
            // Tracking skipped: the frame integrates and raycasts at
            // the unchanged pose, so the render at that view reuses
            // the fresh raycast of the updated volume.
            ReuseRun run = runPipeline(volume, block_size, 1, 3, 2);
            KFusion &kf = *run.kf;
            const Mat4f view = kf.pose();
            const FrameResult frame =
                kf.processFrame(run.seq.frames[3].depthMm);
            ASSERT_TRUE(frame.integrated);
            ASSERT_EQ(std::memcmp(view.m, kf.pose().m, sizeof view.m),
                      0);
            const CameraIntrinsics k = kf.computeIntrinsics();
            EXPECT_TRUE(expectRenderMatchesMarched(kf, view, &k, k));
        }
    }
}

} // namespace
