/**
 * @file
 * Tests for the image-domain preprocessing kernels, including the
 * Sequential-vs-Threaded equivalence property.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "kfusion/backend.hpp"
#include "kfusion/kernels.hpp"
#include "support/rng.hpp"

namespace {

using namespace slambench::kfusion;
using slambench::math::CameraIntrinsics;
using slambench::math::Vec3f;
using slambench::support::Image;
using slambench::support::Rng;
using slambench::support::ThreadPool;

Image<uint16_t>
randomDepthMm(size_t w, size_t h, uint64_t seed, double hole_rate = 0.1)
{
    Rng rng(seed);
    Image<uint16_t> img(w, h);
    for (size_t i = 0; i < img.size(); ++i) {
        img[i] = rng.bernoulli(hole_rate)
                     ? 0
                     : static_cast<uint16_t>(
                           rng.uniformInt(int64_t{500}, int64_t{4000}));
    }
    return img;
}

// --- mm2meters ---

TEST(Mm2Meters, ConvertsUnits)
{
    Image<uint16_t> in(4, 4, uint16_t{1500});
    Image<float> out;
    mm2metersKernel(out, in, 1, nullptr);
    ASSERT_EQ(out.width(), 4u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out[i], 1.5f);
}

TEST(Mm2Meters, SubsamplesByRatio)
{
    Image<uint16_t> in(8, 8);
    for (size_t y = 0; y < 8; ++y)
        for (size_t x = 0; x < 8; ++x)
            in(x, y) = static_cast<uint16_t>(1000 + 10 * x + 100 * y);
    Image<float> out;
    mm2metersKernel(out, in, 2, nullptr);
    ASSERT_EQ(out.width(), 4u);
    ASSERT_EQ(out.height(), 4u);
    // Pixel (1,1) of the output samples input (2,2).
    EXPECT_FLOAT_EQ(out(1, 1), (1000 + 20 + 200) / 1000.0f);
}

TEST(Mm2Meters, ZeroStaysInvalid)
{
    Image<uint16_t> in(2, 2, uint16_t{0});
    Image<float> out;
    mm2metersKernel(out, in, 1, nullptr);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out[i], 0.0f);
}

// --- bilateral filter ---

TEST(Bilateral, SmoothsGaussianNoise)
{
    Rng rng(1);
    Image<float> in(64, 64);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = 2.0f + static_cast<float>(rng.normal(0.0, 0.01));
    Image<float> out;
    bilateralFilterKernel(out, in, 2, 4.0f, 0.1f, nullptr);

    double var_in = 0.0, var_out = 0.0;
    for (size_t i = 0; i < in.size(); ++i) {
        var_in += (in[i] - 2.0f) * (in[i] - 2.0f);
        var_out += (out[i] - 2.0f) * (out[i] - 2.0f);
    }
    EXPECT_LT(var_out, var_in / 3.0);
}

TEST(Bilateral, PreservesSharpEdges)
{
    // Step edge: left half 1 m, right half 3 m (>> e_delta).
    Image<float> in(32, 8);
    for (size_t y = 0; y < 8; ++y)
        for (size_t x = 0; x < 32; ++x)
            in(x, y) = x < 16 ? 1.0f : 3.0f;
    Image<float> out;
    bilateralFilterKernel(out, in, 2, 4.0f, 0.1f, nullptr);
    EXPECT_NEAR(out(15, 4), 1.0f, 1e-4f);
    EXPECT_NEAR(out(16, 4), 3.0f, 1e-4f);
}

TEST(Bilateral, InvalidPixelsStayInvalidAndDoNotBleed)
{
    Image<float> in(16, 16, 2.0f);
    in(8, 8) = 0.0f;
    Image<float> out;
    bilateralFilterKernel(out, in, 2, 4.0f, 0.1f, nullptr);
    EXPECT_FLOAT_EQ(out(8, 8), 0.0f);
    // Neighbors should remain exactly 2 (hole contributes nothing).
    EXPECT_NEAR(out(7, 8), 2.0f, 1e-5f);
}

TEST(Bilateral, RadiusZeroIsIdentity)
{
    Rng rng(2);
    Image<float> in(8, 8);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<float>(rng.uniform(1.0, 3.0));
    Image<float> out;
    bilateralFilterKernel(out, in, 0, 4.0f, 0.1f, nullptr);
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_FLOAT_EQ(out[i], in[i]);
}

// --- half sample ---

TEST(HalfSample, HalvesDimensions)
{
    Image<float> in(16, 12, 2.0f);
    Image<float> out;
    halfSampleRobustKernel(out, in, 0.3f, nullptr);
    EXPECT_EQ(out.width(), 8u);
    EXPECT_EQ(out.height(), 6u);
    EXPECT_FLOAT_EQ(out(3, 3), 2.0f);
}

TEST(HalfSample, RejectsOutliersInBlock)
{
    Image<float> in(4, 4, 2.0f);
    in(1, 1) = 10.0f; // outlier within block (0,0)
    Image<float> out;
    halfSampleRobustKernel(out, in, 0.3f, nullptr);
    // The outlier is farther than e_delta from the reference (2.0),
    // so the block average excludes it.
    EXPECT_NEAR(out(0, 0), 2.0f, 1e-5f);
}

TEST(HalfSample, InvalidReferenceGivesInvalidOutput)
{
    Image<float> in(4, 4, 2.0f);
    in(0, 0) = 0.0f;
    Image<float> out;
    halfSampleRobustKernel(out, in, 0.3f, nullptr);
    EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
}

// --- depth2vertex ---

TEST(Depth2Vertex, BackProjectsCenterPixel)
{
    const auto k = CameraIntrinsics::fromFov(64, 48, 1.0f);
    Image<float> depth(64, 48, 2.0f);
    Image<Vec3f> vertex;
    depth2vertexKernel(vertex, depth, k, nullptr);
    // Pixel at the principal point back-projects onto the optical
    // axis.
    const Vec3f center = vertex(31, 23); // +0.5 offset ~ cx,cy
    EXPECT_NEAR(center.z, 2.0f, 1e-5f);
    EXPECT_NEAR(center.x, 0.0f, 0.05f);
}

TEST(Depth2Vertex, InvalidDepthGivesZeroVertex)
{
    const auto k = CameraIntrinsics::fromFov(8, 8, 1.0f);
    Image<float> depth(8, 8, 0.0f);
    Image<Vec3f> vertex;
    depth2vertexKernel(vertex, depth, k, nullptr);
    for (size_t i = 0; i < vertex.size(); ++i)
        EXPECT_EQ(vertex[i].squaredNorm(), 0.0f);
}

// --- vertex2normal ---

TEST(Vertex2Normal, FlatPlaneGivesConstantNormal)
{
    // A fronto-parallel plane at z=2: normals must be (0,0,-1)
    // (toward the camera).
    const auto k = CameraIntrinsics::fromFov(32, 32, 1.0f);
    Image<float> depth(32, 32, 2.0f);
    Image<Vec3f> vertex, normal;
    depth2vertexKernel(vertex, depth, k, nullptr);
    vertex2normalKernel(normal, vertex, nullptr);
    for (size_t y = 4; y < 28; ++y) {
        for (size_t x = 4; x < 28; ++x) {
            const Vec3f n = normal(x, y);
            EXPECT_NEAR(n.z, -1.0f, 1e-3f);
            EXPECT_NEAR(n.norm(), 1.0f, 1e-5f);
        }
    }
}

TEST(Vertex2Normal, BorderAndInvalidAreZero)
{
    const auto k = CameraIntrinsics::fromFov(8, 8, 1.0f);
    Image<float> depth(8, 8, 2.0f);
    depth(3, 3) = 0.0f;
    Image<Vec3f> vertex, normal;
    depth2vertexKernel(vertex, depth, k, nullptr);
    vertex2normalKernel(normal, vertex, nullptr);
    EXPECT_EQ(normal(7, 7).squaredNorm(), 0.0f); // border
    EXPECT_EQ(normal(3, 3).squaredNorm(), 0.0f); // invalid center
    EXPECT_EQ(normal(2, 3).squaredNorm(), 0.0f); // neighbor of hole
}

// --- Sequential == Threaded (property over kernels) ---

class ImplEquivalence : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ImplEquivalence, AllKernelsMatch)
{
    const uint64_t seed = GetParam();
    ThreadPool pool(3);
    const auto k = CameraIntrinsics::fromFov(40, 30, 1.0f);
    const Image<uint16_t> raw = randomDepthMm(40, 30, seed);

    Image<float> d_seq, d_par;
    mm2metersKernel(d_seq, raw, 1, nullptr);
    mm2metersKernel(d_par, raw, 1, &pool);
    for (size_t i = 0; i < d_seq.size(); ++i)
        ASSERT_FLOAT_EQ(d_seq[i], d_par[i]);

    Image<float> f_seq, f_par;
    bilateralFilterKernel(f_seq, d_seq, 2, 4.0f, 0.1f, nullptr);
    bilateralFilterKernel(f_par, d_seq, 2, 4.0f, 0.1f, &pool);
    for (size_t i = 0; i < f_seq.size(); ++i)
        ASSERT_FLOAT_EQ(f_seq[i], f_par[i]);

    Image<float> h_seq, h_par;
    halfSampleRobustKernel(h_seq, f_seq, 0.3f, nullptr);
    halfSampleRobustKernel(h_par, f_seq, 0.3f, &pool);
    for (size_t i = 0; i < h_seq.size(); ++i)
        ASSERT_FLOAT_EQ(h_seq[i], h_par[i]);

    Image<Vec3f> v_seq, v_par;
    depth2vertexKernel(v_seq, f_seq, k, nullptr);
    depth2vertexKernel(v_par, f_seq, k, &pool);
    for (size_t i = 0; i < v_seq.size(); ++i)
        ASSERT_EQ(v_seq[i], v_par[i]);

    Image<Vec3f> n_seq, n_par;
    vertex2normalKernel(n_seq, v_seq, nullptr);
    vertex2normalKernel(n_par, v_seq, &pool);
    for (size_t i = 0; i < n_seq.size(); ++i)
        ASSERT_EQ(n_seq[i], n_par[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 17, 23));

TEST(WorkHelpers, BilateralItemsPerPixel)
{
    EXPECT_DOUBLE_EQ(bilateralItemsPerPixel(2), 25.0);
    EXPECT_DOUBLE_EQ(bilateralItemsPerPixel(0), 1.0);
}

// A registerable backend that forwards everything to the scalar
// reference; only its name differs. Registered instances must
// outlive the process (the registry stores raw pointers), hence the
// static storage in the tests below.
class ForwardingBackend : public KernelBackend
{
  public:
    explicit ForwardingBackend(const char *name) : name_(name) {}

    const char *name() const override { return name_; }
    const char *description() const override
    {
        return "scalar forwarder (test)";
    }
    NearBricks integrateColumn(const IntegrateContext &ctx,
                               Voxel *column, int z_begin, int z_end,
                               Vec3f pos) const override
    {
        return scalarKernelBackend().integrateColumn(ctx, column,
                                                     z_begin, z_end, pos);
    }
    Vec3f grad(const TsdfVolume &volume,
                     const Vec3f &p) const override
    {
        return scalarKernelBackend().grad(volume, p);
    }
    void castRays(const TsdfVolume &volume, const Vec3f &origin,
                  const Vec3f *dirs, size_t count,
                  const RaycastParams &params,
                  RayHit *hits) const override
    {
        scalarKernelBackend().castRays(volume, origin, dirs, count,
                                       params, hits);
    }
    ReductionResult
    reduceRange(const Image<TrackData> &track_data,
                size_t begin, size_t end) const override
    {
        return scalarKernelBackend().reduceRange(track_data, begin,
                                                 end);
    }

  private:
    const char *name_;
};

TEST(BackendRegistry, BuiltinsAreRegistered)
{
    const std::vector<std::string> names = kernelBackendNames();
    ASSERT_GE(names.size(), 3u);
    EXPECT_EQ(names[0], "scalar");
    EXPECT_EQ(names[1], "simd");
    EXPECT_EQ(names[2], "mixed");
    EXPECT_EQ(findKernelBackend("scalar"), &scalarKernelBackend());
    EXPECT_NE(findKernelBackend("simd"), nullptr);
    EXPECT_NE(findKernelBackend("mixed"), nullptr);
}

TEST(BackendRegistry, RejectsInvalidRegistrations)
{
    EXPECT_FALSE(registerKernelBackend(nullptr));

    static const ForwardingBackend empty_name("");
    EXPECT_FALSE(registerKernelBackend(&empty_name));

    // "auto" is a resolver keyword, never a registered name.
    static const ForwardingBackend reserved("auto");
    EXPECT_FALSE(registerKernelBackend(&reserved));
    EXPECT_EQ(findKernelBackend("auto"), nullptr);

    // Duplicates of a built-in are rejected, not replaced.
    static const ForwardingBackend shadow("scalar");
    EXPECT_FALSE(registerKernelBackend(&shadow));
    EXPECT_EQ(findKernelBackend("scalar"), &scalarKernelBackend());
}

TEST(BackendRegistry, RegistersAndRejectsDuplicateOfNewBackend)
{
    static const ForwardingBackend first("test-forwarder");
    static const ForwardingBackend second("test-forwarder");
    ASSERT_TRUE(registerKernelBackend(&first));
    EXPECT_FALSE(registerKernelBackend(&second));
    EXPECT_EQ(findKernelBackend("test-forwarder"), &first);

    // Registered names become valid --backend values immediately.
    std::string error;
    EXPECT_EQ(resolveKernelBackend("test-forwarder", &error), &first);
    const std::vector<std::string> names = kernelBackendNames();
    EXPECT_NE(std::find(names.begin(), names.end(),
                        std::string("test-forwarder")),
              names.end());
}

TEST(BackendRegistry, UnknownBackendErrorsCleanly)
{
    std::string error;
    EXPECT_EQ(resolveKernelBackend("no-such-backend", &error),
              nullptr);
    EXPECT_NE(error.find("no-such-backend"), std::string::npos);
    // The message lists every valid choice.
    EXPECT_NE(error.find("auto"), std::string::npos);
    EXPECT_NE(error.find("scalar"), std::string::npos);
    EXPECT_NE(error.find("simd"), std::string::npos);
}

TEST(BackendRegistry, AutoResolvesDeterministically)
{
    const KernelBackend *first = resolveKernelBackend("auto");
    const KernelBackend *second = resolveKernelBackend("auto");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first, second);

    // "auto" dispatches by CPUID: the per-kernel mixed composition
    // iff the AVX2 flavor actually runs on this host (the pure simd
    // backend is slower than scalar at integrate), scalar otherwise.
    const char *expected =
        simdBackendIsAccelerated() ? "mixed" : "scalar";
    EXPECT_STREQ(first->name(), expected);
    EXPECT_EQ(first, findKernelBackend(expected));
}

TEST(BackendRegistry, MixedBackendDispatchesPerKernel)
{
    const KernelBackend *mixed = findKernelBackend("mixed");
    const KernelBackend *simd = findKernelBackend("simd");
    ASSERT_NE(mixed, nullptr);
    ASSERT_NE(simd, nullptr);
    const KernelBackend &scalar = scalarKernelBackend();

    // The composition picks, per kernel, the constituent with the
    // larger modelSpeedup; its own modelSpeedup reports the pick.
    for (KernelId id :
         {KernelId::Integrate, KernelId::Raycast,
          KernelId::RenderVolume, KernelId::Reduce}) {
        const double best = std::max(scalar.modelSpeedup(id),
                                     simd->modelSpeedup(id));
        EXPECT_EQ(mixed->modelSpeedup(id), best)
            << "kernel id " << static_cast<int>(id);
    }

    if (simdBackendIsAccelerated()) {
        // On AVX2 hosts the simd integrate models a slowdown (0.80),
        // so mixed must fall back to the scalar column sweep while
        // keeping the vector speedups everywhere else.
        EXPECT_LT(simd->modelSpeedup(KernelId::Integrate), 1.0);
        EXPECT_EQ(mixed->modelSpeedup(KernelId::Integrate), 1.0);
        EXPECT_GT(mixed->modelSpeedup(KernelId::Raycast), 1.0);
        EXPECT_GT(mixed->modelSpeedup(KernelId::Reduce), 1.0);
    } else {
        // Portable fallback: both constituents model 1.0 everywhere.
        EXPECT_EQ(mixed->modelSpeedup(KernelId::Integrate), 1.0);
        EXPECT_EQ(mixed->modelSpeedup(KernelId::Raycast), 1.0);
    }
}

TEST(BackendRegistry, OrdinalRoundTrip)
{
    EXPECT_EQ(kernelBackendOrdinal("scalar"), 0.0);
    EXPECT_EQ(kernelBackendOrdinal("simd"), 1.0);
    EXPECT_EQ(kernelBackendOrdinal("mixed"), 2.0);
    EXPECT_STREQ(kernelBackendFromOrdinal(0.0), "scalar");
    EXPECT_STREQ(kernelBackendFromOrdinal(1.0), "simd");
    EXPECT_STREQ(kernelBackendFromOrdinal(2.0), "mixed");
    // Unknown ordinals decode to the scalar reference so a stray DSE
    // point can never crash a run.
    EXPECT_STREQ(kernelBackendFromOrdinal(7.0), "scalar");
    for (const std::string name : {"scalar", "simd", "mixed"})
        EXPECT_EQ(kernelBackendFromOrdinal(kernelBackendOrdinal(name)),
                  name);
}

} // namespace
