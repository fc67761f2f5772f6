/**
 * @file
 * Tests for the synthetic dataset substrate: SDF evaluation, scenes,
 * trajectories, rendering, and the sensor noise model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "dataset/generator.hpp"
#include "dataset/noise.hpp"
#include "dataset/raw_io.hpp"
#include "dataset/renderer.hpp"
#include "dataset/scene.hpp"
#include "dataset/sdf.hpp"
#include "dataset/trajectory.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace slambench::dataset;
using slambench::math::Mat4f;
using slambench::math::Vec3f;
using slambench::support::Image;
using slambench::support::Rng;
using slambench::support::ThreadPool;

// --- SDF primitives ---

TEST(Sdf, SphereDistance)
{
    Primitive s;
    s.kind = PrimitiveKind::Sphere;
    s.center = {1, 0, 0};
    s.params = {0.5f, 0, 0};
    EXPECT_NEAR(primitiveDistance(s, {3, 0, 0}), 1.5f, 1e-6f);
    EXPECT_NEAR(primitiveDistance(s, {1, 0, 0}), -0.5f, 1e-6f);
    EXPECT_NEAR(primitiveDistance(s, {1.5f, 0, 0}), 0.0f, 1e-6f);
}

TEST(Sdf, BoxDistanceOutsideFaceAndCorner)
{
    Primitive b;
    b.kind = PrimitiveKind::Box;
    b.center = {0, 0, 0};
    b.params = {1, 1, 1};
    EXPECT_NEAR(primitiveDistance(b, {2, 0, 0}), 1.0f, 1e-6f);
    // Corner distance: sqrt(3) from (2,2,2) to (1,1,1).
    EXPECT_NEAR(primitiveDistance(b, {2, 2, 2}),
                std::sqrt(3.0f), 1e-5f);
    // Inside: negative, distance to the nearest face.
    EXPECT_NEAR(primitiveDistance(b, {0.5f, 0, 0}), -0.5f, 1e-6f);
}

TEST(Sdf, InvertedBoxIsInsideOut)
{
    Primitive b;
    b.kind = PrimitiveKind::InvertedBox;
    b.center = {0, 1, 0};
    b.params = {2, 1, 2};
    // Center of the room: positive distance (free space) = 1 (to
    // ceiling/floor).
    EXPECT_NEAR(primitiveDistance(b, {0, 1, 0}), 1.0f, 1e-6f);
    // Beyond the wall: negative (solid).
    EXPECT_LT(primitiveDistance(b, {3, 1, 0}), 0.0f);
}

TEST(Sdf, BoxYawRotation)
{
    Primitive b;
    b.kind = PrimitiveKind::Box;
    b.center = {0, 0, 0};
    b.params = {1.0f, 1.0f, 0.1f};
    b.yaw = static_cast<float>(M_PI / 2); // slab now spans x ~ 0.1
    EXPECT_NEAR(primitiveDistance(b, {2.0f, 0, 0}), 1.9f, 1e-5f);
    EXPECT_NEAR(primitiveDistance(b, {0, 0, 2.0f}), 1.0f, 1e-5f);
}

TEST(Sdf, CylinderDistance)
{
    Primitive c;
    c.kind = PrimitiveKind::Cylinder;
    c.center = {0, 0, 0};
    c.params = {0.5f, 1.0f, 0.0f}; // radius, half height
    EXPECT_NEAR(primitiveDistance(c, {2, 0, 0}), 1.5f, 1e-6f);
    EXPECT_NEAR(primitiveDistance(c, {0, 2, 0}), 1.0f, 1e-6f);
    EXPECT_LT(primitiveDistance(c, {0, 0, 0}), 0.0f);
}

TEST(Sdf, SceneEvaluateTracksNearest)
{
    Scene scene;
    Primitive a;
    a.kind = PrimitiveKind::Sphere;
    a.center = {0, 0, 0};
    a.params = {1, 0, 0};
    Primitive b = a;
    b.center = {10, 0, 0};
    scene.add(a);
    scene.add(b);
    const SdfSample near_a = scene.evaluate({2, 0, 0});
    EXPECT_EQ(near_a.primitive, 0);
    const SdfSample near_b = scene.evaluate({9, 0, 0});
    EXPECT_EQ(near_b.primitive, 1);
}

TEST(Sdf, SceneNormalPointsOutward)
{
    Scene scene;
    Primitive s;
    s.kind = PrimitiveKind::Sphere;
    s.center = {0, 0, 0};
    s.params = {1, 0, 0};
    scene.add(s);
    const Vec3f n = scene.normal({1.0f, 0, 0});
    EXPECT_NEAR(n.x, 1.0f, 1e-2f);
    EXPECT_NEAR(n.norm(), 1.0f, 1e-4f);
}

/** Min-union over every primitive, with no cull: the reference. */
SdfSample
bruteForceEvaluate(const Scene &scene, const Vec3f &p)
{
    SdfSample best;
    best.distance = scene.farClip();
    for (size_t i = 0; i < scene.size(); ++i) {
        const float d = primitiveDistance(scene.primitives()[i], p);
        if (d < best.distance) {
            best.distance = d;
            best.primitive = static_cast<int>(i);
        }
    }
    return best;
}

bool
sameFloatBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST(Sdf, CulledSceneMatchesBruteForce)
{
    // Half the points fill the room shell and a 25 cm band outside
    // its walls; the other half land in or just around one
    // primitive's bounding ball, where the cull's margin is tightest.
    constexpr size_t kPoints = 1u << 20;
    for (SceneId id : {SceneId::LivingRoom, SceneId::Office}) {
        const Scene scene = makeScene(id);
        const Primitive &room = scene.primitives().front();
        ASSERT_EQ(room.kind, PrimitiveKind::InvertedBox);
        const Vec3f room_half = room.params + Vec3f{0.25f, 0.25f, 0.25f};
        Rng rng(1234 + static_cast<int>(id));
        size_t mismatches = 0;
        for (size_t n = 0; n < kPoints; ++n) {
            const Vec3f unit{static_cast<float>(rng.uniform(-1.0, 1.0)),
                             static_cast<float>(rng.uniform(-1.0, 1.0)),
                             static_cast<float>(rng.uniform(-1.0, 1.0))};
            Vec3f p;
            if (n % 2 == 0) {
                p = room.center + Vec3f{unit.x * room_half.x,
                                        unit.y * room_half.y,
                                        unit.z * room_half.z};
            } else {
                const Primitive &prim =
                    scene.primitives()[rng.uniformInt(scene.size())];
                const float reach =
                    prim.params.norm() + prim.rounding + 0.1f;
                p = prim.center + unit * reach;
            }
            const SdfSample want = bruteForceEvaluate(scene, p);
            const SdfSample got = scene.evaluate(p);
            const bool same =
                sameFloatBits(got.distance, want.distance) &&
                got.primitive == want.primitive &&
                sameFloatBits(scene.distance(p), want.distance);
            if (!same && mismatches++ < 5) {
                ADD_FAILURE() << "scene " << static_cast<int>(id)
                              << " point (" << p.x << ", " << p.y << ", "
                              << p.z << "): culled " << got.distance
                              << " #" << got.primitive << ", brute "
                              << want.distance << " #" << want.primitive;
            }
        }
        EXPECT_EQ(mismatches, 0u) << "scene " << static_cast<int>(id);
    }
}

// --- Scenes ---

TEST(Scene, LivingRoomHasFurnitureInsideVolume)
{
    const Scene scene = livingRoomScene();
    EXPECT_GT(scene.size(), 10u);
    // The scene center must be free space (camera flies there).
    EXPECT_GT(scene.distance({0.0f, 1.4f, 0.9f}), 0.05f);
    // The volume of kSceneVolumeSize must contain all furniture.
    for (const Primitive &p : scene.primitives()) {
        if (p.kind == PrimitiveKind::InvertedBox)
            continue;
        EXPECT_LT(std::abs(p.center.x), kSceneVolumeSize / 2)
            << p.name;
        EXPECT_LT(std::abs(p.center.z), kSceneVolumeSize / 2)
            << p.name;
    }
}

TEST(Scene, OfficeDiffersFromLivingRoom)
{
    const Scene lr = livingRoomScene();
    const Scene office = officeScene();
    EXPECT_NE(lr.size(), office.size());
}

// --- Catmull-Rom / trajectory ---

TEST(Trajectory, CatmullRomInterpolatesKeys)
{
    const std::vector<Vec3f> keys{{0, 0, 0}, {1, 0, 0}, {2, 1, 0},
                                  {3, 1, 0}};
    // At t=0 and t=1 the spline passes through the end keys.
    EXPECT_NEAR((catmullRom(keys, 0.0f, false) - keys.front()).norm(),
                0.0f, 1e-5f);
    EXPECT_NEAR((catmullRom(keys, 1.0f, false) - keys.back()).norm(),
                0.0f, 1e-5f);
    // Interior knots are hit at their parameter.
    EXPECT_NEAR(
        (catmullRom(keys, 1.0f / 3.0f, false) - keys[1]).norm(), 0.0f,
        1e-4f);
}

TEST(Trajectory, FromSplineFramesHaveSmallSteps)
{
    const TrajectorySpec spec = presetSpec(TrajectoryPreset::OrbitA);
    const Trajectory traj = Trajectory::fromSpline(spec, 60, 30.0);
    ASSERT_EQ(traj.size(), 60u);
    for (size_t i = 1; i < traj.size(); ++i) {
        const float step = (traj.pose(i).translationPart() -
                            traj.pose(i - 1).translationPart())
                               .norm();
        EXPECT_LT(step, 0.05f) << "frame " << i;
    }
}

TEST(Trajectory, PosesAreRigid)
{
    const Trajectory traj = Trajectory::fromSpline(
        presetSpec(TrajectoryPreset::SweepB), 20, 30.0);
    for (size_t i = 0; i < traj.size(); ++i) {
        EXPECT_NEAR(traj.pose(i).rotation().determinant(), 1.0f,
                    1e-4f);
    }
}

TEST(Trajectory, TimestampsFollowFps)
{
    const Trajectory traj = Trajectory::fromSpline(
        presetSpec(TrajectoryPreset::SweepB), 10, 25.0);
    EXPECT_DOUBLE_EQ(traj.timestamp(0), 0.0);
    EXPECT_NEAR(traj.timestamp(5), 0.2, 1e-9);
}

TEST(Trajectory, TumSaveLoadRoundTrip)
{
    const Trajectory traj = Trajectory::fromSpline(
        presetSpec(TrajectoryPreset::CloseupC), 15, 30.0);
    const std::string path = "/tmp/sb_test_traj.txt";
    ASSERT_TRUE(traj.saveTum(path));
    Trajectory loaded;
    ASSERT_TRUE(Trajectory::loadTum(path, loaded));
    ASSERT_EQ(loaded.size(), traj.size());
    for (size_t i = 0; i < traj.size(); ++i) {
        EXPECT_NEAR((loaded.pose(i).translationPart() -
                     traj.pose(i).translationPart())
                        .norm(),
                    0.0f, 1e-5f);
        // Rotations should match too (compare a rotated basis vector).
        const Vec3f a = loaded.pose(i).rotation() * Vec3f{0, 0, 1};
        const Vec3f b = traj.pose(i).rotation() * Vec3f{0, 0, 1};
        EXPECT_NEAR((a - b).norm(), 0.0f, 1e-4f);
    }
    std::filesystem::remove(path);
}

TEST(Trajectory, ParsePresetNames)
{
    TrajectoryPreset p;
    EXPECT_TRUE(parsePreset("orbit-a", p));
    EXPECT_EQ(p, TrajectoryPreset::OrbitA);
    EXPECT_TRUE(parsePreset("LR-B", p));
    EXPECT_EQ(p, TrajectoryPreset::SweepB);
    EXPECT_TRUE(parsePreset(" c ", p));
    EXPECT_EQ(p, TrajectoryPreset::CloseupC);
    EXPECT_FALSE(parsePreset("nope", p));
}

// --- Renderer ---

class RendererFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scene_ = livingRoomScene();
        intrinsics_ = slambench::math::CameraIntrinsics::fromFov(
            80, 60, 1.02f);
        const Trajectory traj = Trajectory::fromSpline(
            presetSpec(TrajectoryPreset::OrbitA), 2, 30.0);
        pose_ = traj.pose(0);
    }

    Scene scene_;
    slambench::math::CameraIntrinsics intrinsics_;
    Mat4f pose_;
};

TEST_F(RendererFixture, EveryRayHitsInsideARoom)
{
    const RenderResult r = renderFrame(scene_, intrinsics_, pose_);
    size_t misses = 0;
    for (size_t i = 0; i < r.depth.size(); ++i)
        misses += r.depth[i] <= 0.0f;
    // Inside a closed room every ray terminates on something.
    EXPECT_EQ(misses, 0u);
}

TEST_F(RendererFixture, DepthMatchesSceneDistanceAlongRay)
{
    const RenderResult r = renderFrame(scene_, intrinsics_, pose_);
    // Reconstruct the 3D point and check it lies on a surface.
    for (size_t y = 0; y < r.depth.height(); y += 9) {
        for (size_t x = 0; x < r.depth.width(); x += 9) {
            const float d = r.depth(x, y);
            ASSERT_GT(d, 0.0f);
            const Vec3f p_cam = intrinsics_.backProject(
                static_cast<float>(x) + 0.5f,
                static_cast<float>(y) + 0.5f, d);
            const Vec3f p_world = pose_.transformPoint(p_cam);
            EXPECT_LT(std::abs(scene_.distance(p_world)), 5e-3f);
        }
    }
}

TEST_F(RendererFixture, CosIncidenceInUnitRange)
{
    const RenderResult r = renderFrame(scene_, intrinsics_, pose_);
    for (size_t i = 0; i < r.cosIncidence.size(); ++i) {
        EXPECT_GE(r.cosIncidence[i], 0.0f);
        EXPECT_LE(r.cosIncidence[i], 1.0f + 1e-4f);
    }
}

TEST_F(RendererFixture, RgbDisabledSkipsShading)
{
    RenderOptions options;
    options.shadeRgb = false;
    const RenderResult r =
        renderFrame(scene_, intrinsics_, pose_, options);
    EXPECT_TRUE(r.rgb.empty());
    EXPECT_FALSE(r.depth.empty());
}

TEST_F(RendererFixture, PrimitiveIdsAreValid)
{
    const RenderResult r = renderFrame(scene_, intrinsics_, pose_);
    for (size_t i = 0; i < r.primitive.size(); ++i) {
        EXPECT_GE(r.primitive[i], 0);
        EXPECT_LT(r.primitive[i], static_cast<int>(scene_.size()));
    }
}

// --- Renderer bit-exactness ---
//
// The digests below were recorded from the serial per-pixel renderer
// (one `for (y ...) for (x ...)` loop on the calling thread). The
// row-parallel renderer must reproduce them byte for byte.

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** 64-bit FNV-1a over the raw pixel bytes of @p image. */
template <typename T>
uint64_t
fnv1a(const Image<T> &image, uint64_t hash = kFnvOffset)
{
    static_assert(sizeof(slambench::support::Rgb8) == 3,
                  "Rgb8 must be tightly packed for a stable digest");
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(image.data());
    for (size_t i = 0; i < image.size() * sizeof(T); ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

struct FrameDigests
{
    uint64_t depth;
    uint64_t cosIncidence;
    uint64_t primitive;
    uint64_t rgb;
};

/** Render one 320x240 orbit-a frame of @p scene at pose @p index. */
FrameDigests
digestFrame(const Scene &scene, size_t index)
{
    const auto intrinsics =
        slambench::math::CameraIntrinsics::fromFov(320, 240, 1.02f);
    const Trajectory traj = Trajectory::fromSpline(
        presetSpec(TrajectoryPreset::OrbitA), 60, 30.0);
    const RenderResult r =
        renderFrame(scene, intrinsics, traj.pose(index));
    return {fnv1a(r.depth), fnv1a(r.cosIncidence), fnv1a(r.primitive),
            fnv1a(r.rgb)};
}

void
expectDigests(const FrameDigests &got, const FrameDigests &want)
{
    EXPECT_EQ(got.depth, want.depth);
    EXPECT_EQ(got.cosIncidence, want.cosIncidence);
    EXPECT_EQ(got.primitive, want.primitive);
    EXPECT_EQ(got.rgb, want.rgb);
}

TEST(Renderer, LivingRoomFrameDigest)
{
    const Scene scene = livingRoomScene();
    expectDigests(digestFrame(scene, 0),
                  {0x6e3c493e0b78adf6ULL, 0x7460587314fe3cf7ULL,
                   0x07aabf1ea66e289cULL, 0xa4ee1dd6937bb94eULL});
    expectDigests(digestFrame(scene, 30),
                  {0x9ae19009568bd382ULL, 0x5ef671203d690612ULL,
                   0x8b3640b4fab6f515ULL, 0x0dbd30c171505b90ULL});
}

TEST(Renderer, OfficeFrameDigest)
{
    const Scene scene = officeScene();
    expectDigests(digestFrame(scene, 0),
                  {0x809aa921ba6c0ea0ULL, 0xadd14f0b7c8aae7fULL,
                   0x1ddda16fa8f39aeaULL, 0xe175a03854496dcbULL});
    expectDigests(digestFrame(scene, 30),
                  {0xe1299558850e88b1ULL, 0x0a591b5a3f19e9f8ULL,
                   0xd8c754baf7ee2a74ULL, 0x371669ab37d0e573ULL});
}

/**
 * Render pose @p index of 16 along @p preset at 160x120, the stream
 * shape the serve benchmark's tenants use. No RGB: the digest covers
 * depth, cosIncidence and primitive ids.
 */
FrameDigests
digestServeFrame(const Scene &scene, TrajectoryPreset preset, size_t index)
{
    const auto intrinsics =
        slambench::math::CameraIntrinsics::fromFov(160, 120, 1.02f);
    const Trajectory traj =
        Trajectory::fromSpline(presetSpec(preset), 16, 30.0);
    RenderOptions options;
    options.shadeRgb = false;
    const RenderResult r =
        renderFrame(scene, intrinsics, traj.pose(index), options);
    return {fnv1a(r.depth), fnv1a(r.cosIncidence), fnv1a(r.primitive), 0};
}

TEST(Renderer, ServePresetDigests)
{
    // Close-up poses put the camera next to furniture, where the
    // scene's bounding-sphere cull has the least slack.
    struct Case
    {
        SceneId scene;
        TrajectoryPreset preset;
        size_t index;
        FrameDigests want;
    };
    const Case cases[] = {
        {SceneId::LivingRoom, TrajectoryPreset::SweepB, 0,
         {0x69315a10f6aef256ULL, 0xdca94651da8e377dULL,
          0xaa2d1a0a38258beaULL, 0}},
        {SceneId::LivingRoom, TrajectoryPreset::SweepB, 8,
         {0x1e3aae6fe36c3a25ULL, 0x879ffb8f0ca2f9a2ULL,
          0x33d607d505a9190dULL, 0}},
        {SceneId::LivingRoom, TrajectoryPreset::CloseupC, 0,
         {0x2e446e321477041bULL, 0xa4ec307b3e861731ULL,
          0x58fae020b4ad41aaULL, 0}},
        {SceneId::LivingRoom, TrajectoryPreset::CloseupC, 8,
         {0x1373b76141b13202ULL, 0xcac7c5747b9f8bf0ULL,
          0xc5d3d65ec3ba6c70ULL, 0}},
        {SceneId::Office, TrajectoryPreset::SweepB, 0,
         {0x853c24e15bfa3476ULL, 0x9153ae8803652babULL,
          0xc2fab4ee354cefb4ULL, 0}},
        {SceneId::Office, TrajectoryPreset::SweepB, 8,
         {0xe24473f40a746db1ULL, 0xbdf97c67d5f73d8cULL,
          0xcc4c1dc508666b64ULL, 0}},
        {SceneId::Office, TrajectoryPreset::CloseupC, 0,
         {0x2209784c70a309d6ULL, 0x10713c7dfaeb2611ULL,
          0xc6a3755beb85d8d0ULL, 0}},
        {SceneId::Office, TrajectoryPreset::CloseupC, 8,
         {0xa390e3df10fe99dbULL, 0xc5c0dab427747863ULL,
          0x8230034a44c92290ULL, 0}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << "scene " << static_cast<int>(c.scene) << " preset "
                     << static_cast<int>(c.preset) << " pose " << c.index);
        expectDigests(
            digestServeFrame(makeScene(c.scene), c.preset, c.index),
            c.want);
    }
}

TEST(Renderer, NoisySequenceDigest)
{
    SequenceSpec spec; // 320x240 living room, orbit-a, seed 42
    spec.numFrames = 5;
    const Sequence seq = generateSequence(spec);
    uint64_t hash = kFnvOffset;
    for (const Frame &frame : seq.frames)
        hash = fnv1a(frame.depthMm, hash);
    EXPECT_EQ(hash, 0x98ba2244ec2cece3ULL);
}

/** Byte-for-byte equality of two images (sizes and pixel bytes). */
template <typename T>
bool
sameBytes(const Image<T> &a, const Image<T> &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void
expectSameSequence(const Sequence &got, const Sequence &want)
{
    ASSERT_EQ(got.frames.size(), want.frames.size());
    for (size_t f = 0; f < want.frames.size(); ++f) {
        EXPECT_TRUE(sameBytes(got.frames[f].depthMm,
                              want.frames[f].depthMm))
            << "frame " << f;
        EXPECT_TRUE(sameBytes(got.frames[f].rgb, want.frames[f].rgb))
            << "frame " << f;
        EXPECT_EQ(got.frames[f].timestamp, want.frames[f].timestamp);
    }
}

/** Small noisy RGB-D spec for the concurrency tests. */
SequenceSpec
smallSpec()
{
    SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 4;
    spec.seed = 7;
    return spec;
}

TEST(Renderer, ConcurrentGenerateSequenceMatchesSingleThreaded)
{
    const SequenceSpec spec = smallSpec();
    const Sequence reference = generateSequence(spec);
    std::vector<Sequence> results(3);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < results.size(); ++i)
        threads.emplace_back(
            [&results, &spec, i] { results[i] = generateSequence(spec); });
    for (std::thread &t : threads)
        t.join();
    for (const Sequence &result : results)
        expectSameSequence(result, reference);
}

TEST(Renderer, NestedGenerateSequenceMatchesSingleThreaded)
{
    const SequenceSpec spec = smallSpec();
    const Sequence reference = generateSequence(spec);
    // The render's row loop opens a region on the shared pool from
    // inside a task already running on it.
    ThreadPool &pool = ThreadPool::global();
    ThreadPool::TaskGroup group;
    Sequence nested;
    pool.submit(group, [&nested, &spec] { nested = generateSequence(spec); });
    pool.wait(group);
    expectSameSequence(nested, reference);
}

// --- Noise model ---

TEST(Noise, NoiseFreeConversionQuantizesToMm)
{
    Image<float> depth(4, 1);
    depth[0] = 1.2345f;
    depth[1] = 0.0f;   // invalid stays invalid
    depth[2] = 9.0f;   // beyond max range -> invalid
    depth[3] = 2.0f;
    const auto mm = depthToMillimeters(depth, 4.5f);
    EXPECT_EQ(mm[0], 1235);
    EXPECT_EQ(mm[1], 0);
    EXPECT_EQ(mm[2], 0);
    EXPECT_EQ(mm[3], 2000);
}

TEST(Noise, AxialNoiseGrowsWithDepth)
{
    DepthNoiseOptions options;
    options.dropouts = false;
    options.quantize = false;
    Rng rng(5);

    const size_t n = 20000;
    Image<float> near_img(n, 1, 1.0f), far_img(n, 1, 4.0f);
    Image<float> cos_img(n, 1, 1.0f);

    auto spread = [&](const Image<float> &img, float z) {
        Rng local(9);
        const auto noisy =
            applySensorModel(img, cos_img, options, local);
        double sse = 0.0;
        size_t count = 0;
        for (size_t i = 0; i < n; ++i) {
            if (noisy[i] == 0)
                continue;
            const double err = noisy[i] / 1000.0 - z;
            sse += err * err;
            ++count;
        }
        return std::sqrt(sse / static_cast<double>(count));
    };

    const double sigma_near = spread(near_img, 1.0f);
    const double sigma_far = spread(far_img, 4.0f);
    EXPECT_GT(sigma_far, sigma_near * 3.0);
}

TEST(Noise, GrazingAnglesDropOut)
{
    DepthNoiseOptions options;
    options.axialNoise = false;
    Rng rng(6);
    const size_t n = 10000;
    Image<float> depth(n, 1, 2.0f);
    Image<float> grazing(n, 1, 0.02f); // nearly parallel to surface
    const auto noisy = applySensorModel(depth, grazing, options, rng);
    size_t dropped = 0;
    for (size_t i = 0; i < n; ++i)
        dropped += noisy[i] == 0;
    // dropoutMaxProb defaults to 0.95 at cos=0; at 0.02 it is ~0.87.
    EXPECT_GT(dropped, n / 2);
}

TEST(Noise, FrontalSurfacesKept)
{
    DepthNoiseOptions options;
    options.axialNoise = false;
    Rng rng(7);
    const size_t n = 1000;
    Image<float> depth(n, 1, 2.0f);
    Image<float> frontal(n, 1, 1.0f);
    const auto noisy = applySensorModel(depth, frontal, options, rng);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(noisy[i], 2000);
}

TEST(Noise, RangeClipping)
{
    DepthNoiseOptions options;
    options.axialNoise = false;
    options.dropouts = false;
    Rng rng(8);
    Image<float> depth(3, 1);
    depth[0] = 0.2f; // below min range
    depth[1] = 5.0f; // above max range
    depth[2] = 1.0f;
    Image<float> cos_img(3, 1, 1.0f);
    const auto noisy = applySensorModel(depth, cos_img, options, rng);
    EXPECT_EQ(noisy[0], 0);
    EXPECT_EQ(noisy[1], 0);
    EXPECT_EQ(noisy[2], 1000);
}

// --- Generator ---

TEST(Generator, SequenceShapeAndDeterminism)
{
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 3;
    spec.seed = 99;
    const Sequence a = generateSequence(spec);
    const Sequence b = generateSequence(spec);
    ASSERT_EQ(a.frames.size(), 3u);
    ASSERT_EQ(a.groundTruth.size(), 3u);
    EXPECT_EQ(a.intrinsics.width, 40u);
    for (size_t f = 0; f < a.frames.size(); ++f) {
        ASSERT_EQ(a.frames[f].depthMm.size(),
                  b.frames[f].depthMm.size());
        for (size_t i = 0; i < a.frames[f].depthMm.size(); ++i)
            EXPECT_EQ(a.frames[f].depthMm[i], b.frames[f].depthMm[i]);
    }
}

TEST(Generator, DifferentSeedsDifferentNoise)
{
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 1;
    spec.seed = 1;
    const Sequence a = generateSequence(spec);
    spec.seed = 2;
    const Sequence b = generateSequence(spec);
    size_t diff = 0;
    for (size_t i = 0; i < a.frames[0].depthMm.size(); ++i)
        diff += a.frames[0].depthMm[i] != b.frames[0].depthMm[i];
    EXPECT_GT(diff, a.frames[0].depthMm.size() / 10);
}

TEST(Generator, NoiseFreeModeIsClean)
{
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 1;
    spec.sensorNoise = false;
    const Sequence a = generateSequence(spec);
    const Sequence b = generateSequence(spec);
    for (size_t i = 0; i < a.frames[0].depthMm.size(); ++i)
        EXPECT_EQ(a.frames[0].depthMm[i], b.frames[0].depthMm[i]);
}

TEST(Generator, OfficeSceneRenders)
{
    SequenceSpec spec;
    spec.scene = SceneId::Office;
    spec.trajectory = TrajectoryPreset::SweepB;
    spec.width = 32;
    spec.height = 24;
    spec.numFrames = 2;
    const Sequence seq = generateSequence(spec);
    size_t valid = 0;
    for (size_t i = 0; i < seq.frames[0].depthMm.size(); ++i)
        valid += seq.frames[0].depthMm[i] > 0;
    EXPECT_GT(valid, seq.frames[0].depthMm.size() / 2);
}

TEST(RawIo, RoundTripPreservesEverything)
{
    SequenceSpec spec;
    spec.width = 24;
    spec.height = 18;
    spec.numFrames = 3;
    spec.renderRgb = true;
    const Sequence original = generateSequence(spec);

    const std::string path = "/tmp/sb_test_seq.raw";
    ASSERT_TRUE(saveSequenceRaw(original, path));

    Sequence loaded;
    ASSERT_TRUE(loadSequenceRaw(path, loaded));
    ASSERT_EQ(loaded.frames.size(), original.frames.size());
    EXPECT_EQ(loaded.intrinsics.width, original.intrinsics.width);
    EXPECT_FLOAT_EQ(loaded.intrinsics.fx, original.intrinsics.fx);
    for (size_t f = 0; f < original.frames.size(); ++f) {
        const auto &a = original.frames[f];
        const auto &b = loaded.frames[f];
        EXPECT_DOUBLE_EQ(a.timestamp, b.timestamp);
        for (size_t i = 0; i < a.depthMm.size(); ++i)
            ASSERT_EQ(a.depthMm[i], b.depthMm[i]);
        for (size_t i = 0; i < a.rgb.size(); ++i)
            ASSERT_EQ(a.rgb[i], b.rgb[i]);
        EXPECT_NEAR((original.groundTruth.pose(f).translationPart() -
                     loaded.groundTruth.pose(f).translationPart())
                        .norm(),
                    0.0f, 0.0f);
    }
    std::filesystem::remove(path);
}

TEST(RawIo, DepthOnlySequences)
{
    SequenceSpec spec;
    spec.width = 16;
    spec.height = 12;
    spec.numFrames = 2;
    spec.renderRgb = false;
    const Sequence original = generateSequence(spec);
    const std::string path = "/tmp/sb_test_seq_d.raw";
    ASSERT_TRUE(saveSequenceRaw(original, path));
    Sequence loaded;
    ASSERT_TRUE(loadSequenceRaw(path, loaded));
    EXPECT_TRUE(loaded.frames[0].rgb.empty());
    EXPECT_EQ(loaded.frames[0].depthMm.size(), 16u * 12u);
    std::filesystem::remove(path);
}

TEST(RawIo, RejectsGarbageAndMissingFiles)
{
    Sequence loaded;
    EXPECT_FALSE(loadSequenceRaw("/tmp/does_not_exist.raw", loaded));
    const std::string path = "/tmp/sb_test_garbage.raw";
    {
        std::ofstream out(path, std::ios::binary);
        out << "not a sequence";
    }
    EXPECT_FALSE(loadSequenceRaw(path, loaded));
    std::filesystem::remove(path);
}

TEST(RawIo, RejectsTruncatedFiles)
{
    SequenceSpec spec;
    spec.width = 16;
    spec.height = 12;
    spec.numFrames = 2;
    spec.renderRgb = false;
    const Sequence original = generateSequence(spec);
    const std::string path = "/tmp/sb_test_trunc.raw";
    ASSERT_TRUE(saveSequenceRaw(original, path));
    // Truncate in the middle of the second frame.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 100);
    Sequence loaded;
    EXPECT_FALSE(loadSequenceRaw(path, loaded));
    std::filesystem::remove(path);
}

TEST(RawIo, RejectsOversizedHeader)
{
    SequenceSpec spec;
    spec.width = 16;
    spec.height = 12;
    spec.numFrames = 2;
    spec.renderRgb = false;
    const Sequence original = generateSequence(spec);
    const std::string path =
        (std::filesystem::temp_directory_path() / "sb_test_oversized.raw")
            .string();
    // Header fields after the 8-byte magic: u32 width, height, frames.
    // A loader that trusted them would try to allocate terabytes.
    const auto patch = [&path](uint32_t w, uint32_t h, uint32_t frames) {
        std::fstream io(path, std::ios::binary | std::ios::in |
                                  std::ios::out);
        io.seekp(8);
        for (uint32_t v : {w, h, frames})
            io.write(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    ASSERT_TRUE(saveSequenceRaw(original, path));
    Sequence loaded;
    patch(16, 12, 0xFFFFFFFFu);
    EXPECT_FALSE(loadSequenceRaw(path, loaded));
    patch(0xFFFFFFFFu, 0xFFFFFFFFu, 1);
    EXPECT_FALSE(loadSequenceRaw(path, loaded));
    // The untouched header still loads.
    patch(16, 12, 2);
    EXPECT_TRUE(loadSequenceRaw(path, loaded));
    std::filesystem::remove(path);
}

TEST(Generator, RgbRenderedWhenRequested)
{
    SequenceSpec spec;
    spec.width = 32;
    spec.height = 24;
    spec.numFrames = 1;
    spec.renderRgb = true;
    const Sequence seq = generateSequence(spec);
    EXPECT_EQ(seq.frames[0].rgb.size(), 32u * 24u);
    spec.renderRgb = false;
    const Sequence no_rgb = generateSequence(spec);
    EXPECT_TRUE(no_rgb.frames[0].rgb.empty());
}

} // namespace
