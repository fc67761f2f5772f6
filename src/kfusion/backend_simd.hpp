#ifndef SLAMBENCH_KFUSION_BACKEND_SIMD_HPP
#define SLAMBENCH_KFUSION_BACKEND_SIMD_HPP

/**
 * @file
 * Internal interface between the kernel-backend registry
 * (backend.cpp) and the AVX2 translation unit (backend_avx2.cpp),
 * which is the only file compiled with -mavx2. Not part of the
 * public backend API — include backend.hpp instead.
 */

#include "kfusion/backend.hpp"

namespace slambench::kfusion::detail {

/**
 * @return true when backend_avx2.cpp was compiled with AVX2 code
 * generation (the build found a working -mavx2); pair with
 * cpuSupportsAvx2() before calling any *Avx2 function below.
 */
bool avx2CompiledIn();

/** AVX2 flavor of KernelBackend::integrateColumn (bit-exact). */
NearBricks integrateColumnAvx2(const IntegrateContext &ctx,
                               Voxel *column, int z_begin, int z_end,
                               math::Vec3f pos);

/** AVX2 flavor of KernelBackend::grad (bit-exact). */
math::Vec3f gradAvx2(const TsdfVolume &volume, const math::Vec3f &p);

/** AVX2 flavor of KernelBackend::castRays (bit-exact per lane). */
void castRaysAvx2(const TsdfVolume &volume, const math::Vec3f &origin,
                  const math::Vec3f *dirs, size_t count,
                  const RaycastParams &params, RayHit *hits);

/** AVX2 flavor of KernelBackend::reduceRange (bit-exact). */
ReductionResult
reduceRangeAvx2(const support::Image<TrackData> &track_data,
                size_t begin, size_t end);

} // namespace slambench::kfusion::detail

#endif // SLAMBENCH_KFUSION_BACKEND_SIMD_HPP
