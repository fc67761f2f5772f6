#ifndef SLAMBENCH_KFUSION_BACKEND_HPP
#define SLAMBENCH_KFUSION_BACKEND_HPP

/**
 * @file
 * Pluggable kernel-backend registry: named implementations of the
 * four hot kernels of the frame loop.
 *
 * SLAMBench's founding idea is comparing multiple implementations of
 * the same kernels (C++, OpenMP, OpenCL, CUDA) under one
 * accuracy/performance harness. This registry reproduces that
 * implementation axis for the kernels PR 4 isolated as the hot path:
 *
 *  1. the per-column TSDF integrate sweep
 *     (KernelBackend::integrateColumn),
 *  2. the fused TSDF gradient (KernelBackend::grad),
 *  3. the shared marchImage ray-march core, vectorized as ray
 *     packets (KernelBackend::castRays),
 *  4. the ICP reduction over a pixel range
 *     (KernelBackend::reduceRange).
 *
 * Three backends are built in:
 *
 *  - "scalar": the reference implementation, byte-for-byte the loops
 *    the kernels have always run. Every other backend is tested
 *    against it.
 *  - "simd": explicitly vectorized variants — AVX2 intrinsics when
 *    the build and the CPU support them, otherwise a portable,
 *    intrinsic-free fallback (`#pragma omp simd` hinted) with the
 *    same lane structure.
 *  - "mixed": per-kernel composition of the two — each hot kernel
 *    dispatches to whichever constituent models faster for it
 *    (modelSpeedup). On AVX2 hosts that is the scalar integrate
 *    (the vector integrate's gathers lose to the scalar early-outs)
 *    plus the simd gradient/ray-march/reduction.
 *
 * The special name "auto" is resolved at runtime by CPUID: it picks
 * "mixed" when the host actually provides AVX2 acceleration and
 * "scalar" otherwise, deterministically for a given machine.
 *
 * Numerical-parity contract (docs/ARCHITECTURE.md): all four simd
 * kernels are bit-exact against scalar by construction. Each vector
 * lane replays the scalar operation sequence of exactly one work
 * item (one voxel, one sample, one ray), and the ICP reduction is
 * vectorized across its 28 accumulator slots rather than across
 * pixels, so no floating-point operation is reassociated anywhere.
 * tests/kfusion_parity_test.cpp enforces the contract for every
 * registered backend.
 */

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "kfusion/raycast.hpp"
#include "kfusion/tracking.hpp"
#include "kfusion/volume.hpp"
#include "kfusion/work_counters.hpp"
#include "math/camera.hpp"
#include "math/vec.hpp"
#include "support/image.hpp"

namespace slambench::kfusion {

/** Maximum rays per KernelBackend::castRays packet. */
inline constexpr size_t kRayPacketWidth = 8;

/**
 * Read-only context shared by every column of one integrate call
 * (the loop invariants TsdfVolume::integrateImpl hoists).
 */
struct IntegrateContext
{
    const float *depth = nullptr; ///< Metric depth image, row-major.
    size_t width = 0;             ///< Depth image width, pixels.
    size_t height = 0;            ///< Depth image height, pixels.
    const float *lambda = nullptr; ///< Per-pixel lambda table.
    math::CameraIntrinsics intrinsics; ///< Depth image intrinsics.
    float mu = 0.1f;              ///< Truncation band, meters.
    float invMu = 10.0f;          ///< 1 / mu (hoisted).
    float maxWeight = 100.0f;     ///< Weight saturation bound.
    math::Vec3f step;             ///< Camera-frame z step per voxel.
};

/**
 * One named implementation of the four hot kernels.
 *
 * Implementations must be stateless (safe to call concurrently from
 * the thread pool) and live for the whole process — the registry
 * stores raw pointers.
 */
class KernelBackend
{
  public:
    virtual ~KernelBackend() = default;

    /** @return the registry name (e.g. "scalar", "simd"). */
    virtual const char *name() const = 0;

    /**
     * @return a one-line human-readable description, including the
     * active flavor (e.g. "simd (avx2)" vs "simd (portable)").
     */
    virtual const char *description() const = 0;

    /**
     * Fuse one voxel column's z range into the volume (the inner
     * loop of TsdfVolume::integrateImpl).
     *
     * @param ctx Loop invariants of this integrate call.
     * @param column Voxel column base (z-contiguous storage).
     * @param z_begin First z index to visit (inclusive).
     * @param z_end Last z index to visit (exclusive).
     * @param pos Camera-frame position of voxel @p z_begin, produced
     *            by the caller's incremental `pos += step` sweep.
     * @return the z bricks of every voxel this call stored with
     *         tsdf < kFreeTsdf or NaN (may over-approximate), which
     *         the caller flags (see TsdfVolume).
     */
    virtual NearBricks integrateColumn(const IntegrateContext &ctx,
                                      Voxel *column, int z_begin,
                                      int z_end,
                                      math::Vec3f pos) const = 0;

    /**
     * Fused TSDF gradient at world point @p p; must match
     * TsdfVolume::grad bit-for-bit (see the parity contract).
     */
    virtual math::Vec3f grad(const TsdfVolume &volume,
                             const math::Vec3f &p) const = 0;

    /**
     * Cast a packet of up to kRayPacketWidth rays (the per-pixel core
     * of marchImage); each lane must match castRay bit-for-bit.
     *
     * @param volume Fused TSDF volume.
     * @param origin Shared ray origin (world).
     * @param dirs Unit ray directions, @p count entries.
     * @param count Rays in the packet (1..kRayPacketWidth).
     * @param params Stepping parameters.
     * @param[out] hits Per-ray results, @p count entries written.
     */
    virtual void castRays(const TsdfVolume &volume,
                          const math::Vec3f &origin,
                          const math::Vec3f *dirs, size_t count,
                          const RaycastParams &params,
                          RayHit *hits) const = 0;

    /**
     * Sum the ICP normal equations over pixels [begin, end) of
     * @p track_data (one chunk of reduceKernel).
     */
    virtual ReductionResult
    reduceRange(const support::Image<TrackData> &track_data,
                size_t begin, size_t end) const = 0;

    /**
     * Speedup factor the analytic device models apply to kernel
     * @p id's items/second rate when a pipeline runs on this backend
     * (the DSE's implementation axis; see docs/ARCHITECTURE.md).
     * The scalar reference returns 1.0 everywhere.
     */
    virtual double modelSpeedup(KernelId id) const;
};

/**
 * Register @p backend under backend->name().
 *
 * The registry keeps the pointer for the process lifetime.
 *
 * @return true on success; false when the name is already taken
 * (duplicate registrations are rejected, not replaced).
 */
bool registerKernelBackend(const KernelBackend *backend);

/**
 * Look up a registered backend by exact name ("auto" is not a
 * registered name; see resolveKernelBackend).
 *
 * @return the backend, or nullptr when unknown.
 */
const KernelBackend *findKernelBackend(std::string_view name);

/**
 * Resolve a user-facing `--backend` value.
 *
 * Accepts every registered name plus "auto", which dispatches by
 * CPUID: "mixed" when the host provides real SIMD acceleration
 * (AVX2 compiled in and supported), else "scalar". Resolution is
 * deterministic on a given machine.
 *
 * @param name Requested backend name.
 * @param[out] error When non-null and resolution fails, receives a
 *             one-line message listing the valid names.
 * @return the backend, or nullptr when @p name is unknown.
 */
const KernelBackend *resolveKernelBackend(std::string_view name,
                                          std::string *error = nullptr);

/** @return registered backend names in registration order. */
std::vector<std::string> kernelBackendNames();

/** @return the built-in scalar reference backend. */
const KernelBackend &scalarKernelBackend();

/** @return true when the CPU supports AVX2 (runtime CPUID check). */
bool cpuSupportsAvx2();

/**
 * @return true when the "simd" backend runs its AVX2 flavor on this
 * host (compiled in and CPU-supported); false means the portable
 * fallback is active.
 */
bool simdBackendIsAccelerated();

/**
 * Map a backend name to its ordinal value in the DSE's
 * "implementation" dimension (0 = scalar, 1 = simd, 2 = mixed);
 * "auto" maps to its resolved backend.
 *
 * @return the ordinal, or 0 when the name is unknown.
 */
double kernelBackendOrdinal(std::string_view name);

/**
 * Inverse of kernelBackendOrdinal.
 *
 * @return the backend name for @p ordinal ("scalar" for 0 or any
 * unknown value, "simd" for 1, "mixed" for 2).
 */
const char *kernelBackendFromOrdinal(double ordinal);

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_BACKEND_HPP
