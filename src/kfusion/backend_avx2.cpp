/**
 * @file
 * AVX2 implementations of the four hot kernels, behind the "simd"
 * backend. This is the only translation unit compiled with -mavx2;
 * everything else in the tree stays at the baseline ISA, and the
 * registry only dispatches here after a runtime CPUID check.
 *
 * Bit-exactness strategy (the parity contract in
 * docs/ARCHITECTURE.md): every vector lane replays the scalar
 * kernel's operation sequence for exactly one work item, in the same
 * order, with the same rounding — no FMA contraction (the baseline
 * build has none, and no FMA intrinsics are used), no reassociation,
 * and compare/min semantics chosen to match the scalar expressions
 * including their NaN behavior. The ICP reduction is vectorized
 * across its accumulator slots rather than across pixels, so each
 * slot sees the identical sequential sum.
 */

#include "kfusion/backend_simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "math/aabb.hpp"

namespace slambench::kfusion::detail {

using math::Vec3f;

bool
avx2CompiledIn()
{
    return true;
}

namespace {

/**
 * Trilinear TSDF sample of up to 8 world points (one per lane), each
 * lane replaying TsdfVolume::sampleTrilinear exactly — including,
 * when @p brick_flags is given, TsdfVolume::marchSample's elision of
 * unflagged bricks.
 *
 * @param voxels Volume storage viewed as interleaved {tsdf, weight}
 *               float pairs.
 * @param res Volume resolution (voxels per edge).
 * @param origin Volume origin, broadcast per component.
 * @param inv_vs The scalar kernel's single-rounded 1 / voxelSize().
 * @param px,py,pz Sample positions, one point per lane.
 * @param active Lanes to sample (sign-bit mask); inactive lanes
 *               perform no memory access and return 1.0f/invalid.
 * @param brick_flags TsdfVolume::brickFlags(), or nullptr to fetch
 *                    every in-bounds lane.
 * @param bricks TsdfVolume::bricks() (ignored without flags).
 * @param[out] valid_out Per-lane validity (bounds && any observed,
 *                       or elided).
 * @return per-lane interpolated TSDF (1.0f when invalid, kFreeSample
 *         when elided).
 */
__m256
sampleTrilinear8(const float *voxels, int res, const Vec3f &origin,
                 float inv_vs, __m256 px, __m256 py, __m256 pz,
                 __m256 active, const uint8_t *brick_flags, int bricks,
                 __m256 &valid_out)
{
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 s = _mm256_set1_ps(inv_vs);

    // local = (p - origin) * (1 / vs) - 0.5, per component.
    const __m256 lx = _mm256_sub_ps(
        _mm256_mul_ps(_mm256_sub_ps(px, _mm256_set1_ps(origin.x)), s),
        half);
    const __m256 ly = _mm256_sub_ps(
        _mm256_mul_ps(_mm256_sub_ps(py, _mm256_set1_ps(origin.y)), s),
        half);
    const __m256 lz = _mm256_sub_ps(
        _mm256_mul_ps(_mm256_sub_ps(pz, _mm256_set1_ps(origin.z)), s),
        half);

    // x0 = (int)floor(local.x); out-of-range converts saturate to
    // INT_MIN and fail the bounds check below, like the scalar path.
    const __m256 fx0 = _mm256_floor_ps(lx);
    const __m256 fy0 = _mm256_floor_ps(ly);
    const __m256 fz0 = _mm256_floor_ps(lz);
    const __m256i x0 = _mm256_cvttps_epi32(fx0);
    const __m256i y0 = _mm256_cvttps_epi32(fy0);
    const __m256i z0 = _mm256_cvttps_epi32(fz0);

    // Valid iff 0 <= c0 and c0 + 1 < res on every axis.
    const __m256i minus1 = _mm256_set1_epi32(-1);
    const __m256i resm1 = _mm256_set1_epi32(res - 1);
    __m256i inb = _mm256_and_si256(
        _mm256_and_si256(_mm256_cmpgt_epi32(x0, minus1),
                         _mm256_cmpgt_epi32(y0, minus1)),
        _mm256_cmpgt_epi32(z0, minus1));
    inb = _mm256_and_si256(
        inb, _mm256_and_si256(
                 _mm256_and_si256(_mm256_cmpgt_epi32(resm1, x0),
                                  _mm256_cmpgt_epi32(resm1, y0)),
                 _mm256_cmpgt_epi32(resm1, z0)));
    __m256 gather_mask =
        _mm256_and_ps(_mm256_castsi256_ps(inb), active);

    // Elided lanes: in bounds, base voxel's brick not flagged. The
    // flag is the low byte of a 32-bit gather at its byte offset
    // (brickFlags() is padded for it).
    __m256 elided = _mm256_setzero_ps();
    if (brick_flags && !_mm256_testz_ps(gather_mask, gather_mask)) {
        const __m256i bv = _mm256_set1_epi32(bricks);
        const __m256i brick = _mm256_add_epi32(
            _mm256_mullo_epi32(
                _mm256_add_epi32(
                    _mm256_mullo_epi32(
                        _mm256_srai_epi32(x0, kBrickShift), bv),
                    _mm256_srai_epi32(y0, kBrickShift)),
                bv),
            _mm256_srai_epi32(z0, kBrickShift));
        const __m256i zero_i = _mm256_setzero_si256();
        const __m256i flag = _mm256_and_si256(
            _mm256_mask_i32gather_epi32(
                zero_i, reinterpret_cast<const int *>(brick_flags),
                brick, _mm256_castps_si256(gather_mask), 1),
            _mm256_set1_epi32(0xff));
        elided = _mm256_and_ps(
            gather_mask,
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(flag, zero_i)));
        gather_mask = _mm256_andnot_ps(elided, gather_mask);
    }

    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 free_sample = _mm256_set1_ps(kFreeSample);
    if (_mm256_testz_ps(gather_mask, gather_mask)) {
        valid_out = elided;
        return _mm256_blendv_ps(one, free_sample, elided);
    }

    // Fractional offsets and the eight corner weights, exactly the
    // scalar expressions (int -> float conversion is exact here).
    const __m256 fx = _mm256_sub_ps(lx, _mm256_cvtepi32_ps(x0));
    const __m256 fy = _mm256_sub_ps(ly, _mm256_cvtepi32_ps(y0));
    const __m256 fz = _mm256_sub_ps(lz, _mm256_cvtepi32_ps(z0));
    const __m256 wx0 = _mm256_sub_ps(one, fx), wx1 = fx;
    const __m256 wy0 = _mm256_sub_ps(one, fy), wy1 = fy;
    const __m256 wz0 = _mm256_sub_ps(one, fz), wz1 = fz;

    // base = (x0 * res + y0) * res + z0, in voxels; the float pair
    // index is 2 * voxel index (max 2 * res^3 < 2^31 for res <= 1024).
    const __m256i resv = _mm256_set1_epi32(res);
    const __m256i base = _mm256_add_epi32(
        _mm256_mullo_epi32(
            _mm256_add_epi32(_mm256_mullo_epi32(x0, resv), y0), resv),
        z0);

    const int sy = res;
    const int sx = res * res;
    // Corner order 000,100,010,110,001,101,011,111 — the scalar
    // accumulation order.
    const int corner_off[8] = {0,      sx,     sy,     sx + sy,
                               1,      sx + 1, sy + 1, sx + sy + 1};
    const __m256 wxc[8] = {wx0, wx1, wx0, wx1, wx0, wx1, wx0, wx1};
    const __m256 wyc[8] = {wy0, wy0, wy1, wy1, wy0, wy0, wy1, wy1};
    const __m256 wzc[8] = {wz0, wz0, wz0, wz0, wz1, wz1, wz1, wz1};

    const __m256 zero = _mm256_setzero_ps();
    __m256 value = zero;
    __m256 observed = zero; // accumulated as a sign-bit mask
    for (int c = 0; c < 8; ++c) {
        const __m256i vidx = _mm256_slli_epi32(
            _mm256_add_epi32(base,
                             _mm256_set1_epi32(corner_off[c])),
            1);
        const __m256 tsdf = _mm256_mask_i32gather_ps(
            zero, voxels, vidx, gather_mask, 4);
        const __m256 weight = _mm256_mask_i32gather_ps(
            zero, voxels + 1, vidx, gather_mask, 4);
        observed = _mm256_or_ps(
            observed, _mm256_cmp_ps(weight, zero, _CMP_GT_OQ));
        // value += tsdf * wx * wy * wz with the scalar's left-to-
        // right products; starting from +0.0 preserves signed-zero
        // behavior of the scalar `value = 0.0f; value += ...`.
        value = _mm256_add_ps(
            value,
            _mm256_mul_ps(
                _mm256_mul_ps(_mm256_mul_ps(tsdf, wxc[c]), wyc[c]),
                wzc[c]));
    }

    const __m256 fetched = _mm256_and_ps(gather_mask, observed);
    valid_out = _mm256_or_ps(fetched, elided);
    return _mm256_blendv_ps(_mm256_blendv_ps(one, value, fetched),
                            free_sample, elided);
}

/** @return lane l of a float vector. */
float
lane(__m256 v, int l)
{
    alignas(32) float out[8];
    _mm256_store_ps(out, v);
    return out[l];
}

/** @return lane l of an int vector. */
int
lanei(__m256i v, int l)
{
    alignas(32) int out[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(out), v);
    return out[l];
}

} // namespace

NearBricks
integrateColumnAvx2(const IntegrateContext &ctx, Voxel *column,
                    int z_begin, int z_end, Vec3f pos)
{
    NearBricks near;
    const __m256 free_tsdf = _mm256_set1_ps(kFreeTsdf);
    const __m256 fx = _mm256_set1_ps(ctx.intrinsics.fx);
    const __m256 fy = _mm256_set1_ps(ctx.intrinsics.fy);
    const __m256 cx = _mm256_set1_ps(ctx.intrinsics.cx);
    const __m256 cy = _mm256_set1_ps(ctx.intrinsics.cy);
    const __m256 zmin = _mm256_set1_ps(0.001f);
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 neg_mu = _mm256_set1_ps(-ctx.mu);
    const __m256 inv_mu = _mm256_set1_ps(ctx.invMu);
    const __m256 max_weight = _mm256_set1_ps(ctx.maxWeight);
    const __m256i widthv =
        _mm256_set1_epi32(static_cast<int>(ctx.width));
    const __m256i heightv =
        _mm256_set1_epi32(static_cast<int>(ctx.height));
    const __m256i minus1 = _mm256_set1_epi32(-1);

    int z = z_begin;
    for (; z_end - z >= 8; z += 8) {
        // Replay the scalar `pos += step` sweep serially so every
        // lane sees the bit-identical accumulated position.
        alignas(32) float posx[8], posy[8], posz[8];
        for (int l = 0; l < 8; ++l) {
            posx[l] = pos.x;
            posy[l] = pos.y;
            posz[l] = pos.z;
            pos += ctx.step;
        }
        const __m256 pxv = _mm256_load_ps(posx);
        const __m256 pyv = _mm256_load_ps(posy);
        const __m256 pzv = _mm256_load_ps(posz);

        // keep: !(pos.z <= 0.001f) — NLE matches the scalar branch
        // for NaN too.
        __m256 keep = _mm256_cmp_ps(pzv, zmin, _CMP_NLE_UQ);

        // pix = (fx * p.x / p.z + cx, fy * p.y / p.z + cy), truncated
        // toward zero exactly like static_cast<int>.
        const __m256i ipx = _mm256_cvttps_epi32(_mm256_add_ps(
            _mm256_div_ps(_mm256_mul_ps(fx, pxv), pzv), cx));
        const __m256i ipy = _mm256_cvttps_epi32(_mm256_add_ps(
            _mm256_div_ps(_mm256_mul_ps(fy, pyv), pzv), cy));

        const __m256i inb = _mm256_and_si256(
            _mm256_and_si256(_mm256_cmpgt_epi32(ipx, minus1),
                             _mm256_cmpgt_epi32(ipy, minus1)),
            _mm256_and_si256(_mm256_cmpgt_epi32(widthv, ipx),
                             _mm256_cmpgt_epi32(heightv, ipy)));
        keep = _mm256_and_ps(keep, _mm256_castsi256_ps(inb));

        const __m256i pix_idx = _mm256_add_epi32(
            _mm256_mullo_epi32(ipy, widthv), ipx);
        const __m256 measured = _mm256_mask_i32gather_ps(
            zero, ctx.depth, pix_idx, keep, 4);
        // keep: !(measured <= 0).
        keep = _mm256_and_ps(
            keep, _mm256_cmp_ps(measured, zero, _CMP_NLE_UQ));

        const __m256 lam = _mm256_mask_i32gather_ps(
            zero, ctx.lambda, pix_idx, keep, 4);
        const __m256 sdf =
            _mm256_mul_ps(_mm256_sub_ps(measured, pzv), lam);
        // keep: !(sdf < -mu).
        keep = _mm256_and_ps(
            keep, _mm256_cmp_ps(sdf, neg_mu, _CMP_NLT_UQ));
        if (_mm256_testz_ps(keep, keep))
            continue;

        // tsdf = min(1.0f, sdf / mu); min(x, 1) matches std::min's
        // operand order (NaN and equal cases included).
        const __m256 tsdf =
            _mm256_min_ps(_mm256_mul_ps(sdf, inv_mu), one);

        // Load 8 interleaved {tsdf, weight} voxels and deinterleave.
        const float *vf = reinterpret_cast<const float *>(column + z);
        const __m256 v01 = _mm256_loadu_ps(vf);
        const __m256 v23 = _mm256_loadu_ps(vf + 8);
        const __m256 tmix = _mm256_shuffle_ps(v01, v23,
                                              _MM_SHUFFLE(2, 0, 2, 0));
        const __m256 wmix = _mm256_shuffle_ps(v01, v23,
                                              _MM_SHUFFLE(3, 1, 3, 1));
        const __m256 vt = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(tmix), _MM_SHUFFLE(3, 1, 2, 0)));
        const __m256 vw = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(wmix), _MM_SHUFFLE(3, 1, 2, 0)));

        // v.tsdf = (v.tsdf * w + tsdf) / (w + 1);
        // v.weight = min(w + 1, max_weight).
        const __m256 wp1 = _mm256_add_ps(vw, one);
        const __m256 nt = _mm256_div_ps(
            _mm256_add_ps(_mm256_mul_ps(vt, vw), tsdf), wp1);
        const __m256 nw = _mm256_min_ps(wp1, max_weight);

        const __m256 bt = _mm256_blendv_ps(vt, nt, keep);
        const __m256 bw = _mm256_blendv_ps(vw, nw, keep);

        // Stored near lanes: !(tsdf >= kFreeTsdf), NaN included.
        const int near_lanes = _mm256_movemask_ps(_mm256_and_ps(
            keep, _mm256_cmp_ps(nt, free_tsdf, _CMP_NGE_UQ)));
        if (near_lanes) {
            const auto lanes = static_cast<unsigned>(near_lanes);
            near.addVoxels(z + std::countr_zero(lanes),
                           z + 31 - std::countl_zero(lanes));
        }

        // Re-interleave (the 64-bit permute is an involution) and
        // store; skipped lanes write back their original bytes.
        const __m256 tp = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(bt), _MM_SHUFFLE(3, 1, 2, 0)));
        const __m256 wp = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(bw), _MM_SHUFFLE(3, 1, 2, 0)));
        float *out = reinterpret_cast<float *>(column + z);
        _mm256_storeu_ps(out, _mm256_unpacklo_ps(tp, wp));
        _mm256_storeu_ps(out + 8, _mm256_unpackhi_ps(tp, wp));
    }

    // Scalar tail, byte-for-byte the reference loop.
    for (; z < z_end; ++z, pos += ctx.step) {
        if (pos.z <= 0.001f)
            continue;
        const math::Vec2f pix = ctx.intrinsics.project(pos);
        const int px = static_cast<int>(pix.x);
        const int py = static_cast<int>(pix.y);
        if (px < 0 || py < 0 || px >= static_cast<int>(ctx.width) ||
            py >= static_cast<int>(ctx.height))
            continue;
        const float measured =
            ctx.depth[static_cast<size_t>(py) * ctx.width +
                      static_cast<size_t>(px)];
        if (measured <= 0.0f)
            continue;
        const float lambda =
            ctx.lambda[static_cast<size_t>(py) * ctx.width +
                       static_cast<size_t>(px)];
        const float sdf = (measured - pos.z) * lambda;
        if (sdf < -ctx.mu)
            continue;
        const float tsdf = std::min(1.0f, sdf * ctx.invMu);
        Voxel &v = column[z];
        const float weight = v.weight;
        v.tsdf = (v.tsdf * weight + tsdf) / (weight + 1.0f);
        v.weight = std::min(weight + 1.0f, ctx.maxWeight);
        if (!(v.tsdf >= kFreeTsdf))
            near.addVoxels(z, z);
    }
    return near;
}

Vec3f
gradAvx2(const TsdfVolume &volume, const Vec3f &p)
{
    const float step = volume.voxelSize();
    const float inv_vs = 1.0f / volume.voxelSize();
    const float *voxels =
        reinterpret_cast<const float *>(&volume.at(0, 0, 0));

    // Six central-difference sample points in lanes 0..5, ordered
    // xp, xm, yp, ym, zp, zm like the scalar kernel.
    const __m256 px = _mm256_setr_ps(p.x + step, p.x - step, p.x, p.x,
                                     p.x, p.x, p.x, p.x);
    const __m256 py = _mm256_setr_ps(p.y, p.y, p.y + step, p.y - step,
                                     p.y, p.y, p.y, p.y);
    const __m256 pz = _mm256_setr_ps(p.z, p.z, p.z, p.z, p.z + step,
                                     p.z - step, p.z, p.z);
    const __m256 active = _mm256_castsi256_ps(_mm256_setr_epi32(
        -1, -1, -1, -1, -1, -1, 0, 0));

    __m256 valid;
    const __m256 v = sampleTrilinear8(voxels, volume.resolution(),
                                      volume.origin(), inv_vs, px, py,
                                      pz, active, nullptr, 0, valid);
    const int ok = _mm256_movemask_ps(valid);

    // Per-axis early-outs in the scalar order: both samples of an
    // axis invalid -> zero gradient.
    if ((ok & 0x03) == 0)
        return Vec3f{};
    if ((ok & 0x0c) == 0)
        return Vec3f{};
    if ((ok & 0x30) == 0)
        return Vec3f{};
    alignas(32) float s[8];
    _mm256_store_ps(s, v);
    return {s[0] - s[1], s[2] - s[3], s[4] - s[5]};
}

void
castRaysAvx2(const TsdfVolume &volume, const Vec3f &origin,
             const Vec3f *dirs, size_t count,
             const RaycastParams &params, RayHit *hits)
{
    const float inv_vs = 1.0f / volume.voxelSize();
    const float *voxels =
        reinterpret_cast<const float *>(&volume.at(0, 0, 0));
    const math::Aabb box{volume.origin(),
                         volume.origin() +
                             Vec3f::all(volume.size())};

    // Per-lane setup replays the scalar castRay prologue: AABB clip,
    // t/t_end clamping, and the miss-before-marching cases.
    alignas(32) float dx[8]{}, dy[8]{}, dz[8]{};
    alignas(32) float t0[8]{}, tend[8]{};
    alignas(32) int run0[8]{};
    for (size_t l = 0; l < count; ++l) {
        hits[l] = RayHit{};
        dx[l] = dirs[l].x;
        dy[l] = dirs[l].y;
        dz[l] = dirs[l].z;
        tend[l] = -1e30f; // keeps padded/missed lanes inactive
        float t_near, t_far;
        if (!math::intersectRayAabb(box, origin, dirs[l], t_near,
                                    t_far))
            continue;
        const float t = std::max(t_near, params.nearPlane);
        const float t_end = std::min(t_far, params.farPlane);
        if (t >= t_end)
            continue;
        t0[l] = t;
        tend[l] = t_end;
        run0[l] = -1;
    }

    __m256 t = _mm256_load_ps(t0);
    const __m256 t_end = _mm256_load_ps(tend);
    __m256 running = _mm256_castsi256_ps(_mm256_load_si256(
        reinterpret_cast<const __m256i *>(run0)));
    if (_mm256_testz_ps(running, running))
        return;

    const __m256 ox = _mm256_set1_ps(origin.x);
    const __m256 oy = _mm256_set1_ps(origin.y);
    const __m256 oz = _mm256_set1_ps(origin.z);
    const __m256 dxv = _mm256_load_ps(dx);
    const __m256 dyv = _mm256_load_ps(dy);
    const __m256 dzv = _mm256_load_ps(dz);
    const __m256 large = _mm256_set1_ps(params.largeStep);
    const __m256 fine = _mm256_set1_ps(params.step);
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 band = _mm256_set1_ps(kFineStepBand);
    const __m256 eps = _mm256_set1_ps(1e-12f);
    const __m256 free_sample = _mm256_set1_ps(kFreeSample);
    const int res = volume.resolution();
    const Vec3f &vorigin = volume.origin();
    const uint8_t *flags = volume.brickFlags();
    const int bricks = volume.bricks();

    const auto point_at = [&](__m256 tv, __m256 &px, __m256 &py,
                              __m256 &pz) {
        // origin + dir * t, per component: mul then add.
        px = _mm256_add_ps(ox, _mm256_mul_ps(dxv, tv));
        py = _mm256_add_ps(oy, _mm256_mul_ps(dyv, tv));
        pz = _mm256_add_ps(oz, _mm256_mul_ps(dzv, tv));
    };

    // Initial sample: f_t = interp(origin + dir * t); lanes that
    // start inside the surface (valid && f_t < 0) miss immediately.
    __m256 px, py, pz, valid;
    point_at(t, px, py, pz);
    __m256 f_t = sampleTrilinear8(voxels, res, vorigin, inv_vs, px,
                                  py, pz, running, flags, bricks,
                                  valid);
    running = _mm256_andnot_ps(
        _mm256_and_ps(valid, _mm256_cmp_ps(f_t, zero, _CMP_LT_OQ)),
        running);

    __m256 stepsize = large;
    __m256i steps = _mm256_setzero_si256();
    __m256i free_steps = _mm256_setzero_si256();
    __m256 found = zero;
    __m256 hitx = zero, hity = zero, hitz = zero;

    while (true) {
        // Loop condition per lane: t < t_end; lanes failing it leave
        // the march as misses.
        running = _mm256_and_ps(
            running, _mm256_cmp_ps(t, t_end, _CMP_LT_OQ));
        if (_mm256_testz_ps(running, running))
            break;

        // ++steps; t += stepsize (active lanes only).
        steps = _mm256_sub_epi32(steps,
                                 _mm256_castps_si256(running));
        const __m256 t_prev = t;
        t = _mm256_blendv_ps(t, _mm256_add_ps(t, stepsize), running);

        point_at(t, px, py, pz);
        const __m256 f_tt =
            sampleTrilinear8(voxels, res, vorigin, inv_vs, px, py, pz,
                             running, flags, bricks, valid);

        // Unknown space: f_t = 1, back to the coarse step, continue.
        const __m256 invalid = _mm256_andnot_ps(valid, running);
        f_t = _mm256_blendv_ps(f_t, one, invalid);
        stepsize = _mm256_blendv_ps(stepsize, large, invalid);

        const __m256 sampled = _mm256_and_ps(running, valid);
        // Zero crossing: linear refinement between samples, exactly
        // the scalar t + stepsize * f_tt / denom operation order.
        const __m256 crossing = _mm256_and_ps(
            sampled, _mm256_cmp_ps(f_tt, zero, _CMP_LT_OQ));
        if (!_mm256_testz_ps(crossing, crossing)) {
            // A crossing right after an elided sample fetches that
            // sample now, at its own t (castRayCore's rule).
            const __m256 refetch = _mm256_and_ps(
                crossing, _mm256_cmp_ps(f_t, free_sample, _CMP_EQ_OQ));
            if (!_mm256_testz_ps(refetch, refetch)) {
                __m256 qx, qy, qz, refetch_valid;
                point_at(t_prev, qx, qy, qz);
                f_t = _mm256_blendv_ps(
                    f_t,
                    sampleTrilinear8(voxels, res, vorigin, inv_vs, qx,
                                     qy, qz, refetch, nullptr, 0,
                                     refetch_valid),
                    refetch);
            }
            const __m256 denom = _mm256_sub_ps(f_t, f_tt);
            const __m256 refine =
                _mm256_cmp_ps(denom, eps, _CMP_GT_OQ);
            const __m256 t_star = _mm256_blendv_ps(
                t,
                _mm256_add_ps(
                    t, _mm256_div_ps(_mm256_mul_ps(stepsize, f_tt),
                                     denom)),
                refine);
            __m256 hx, hy, hz;
            point_at(t_star, hx, hy, hz);
            hitx = _mm256_blendv_ps(hitx, hx, crossing);
            hity = _mm256_blendv_ps(hity, hy, crossing);
            hitz = _mm256_blendv_ps(hitz, hz, crossing);
            found = _mm256_or_ps(found, crossing);
            running = _mm256_andnot_ps(crossing, running);
        }

        // Near the surface: drop to the fine step.
        const __m256 marching = _mm256_andnot_ps(crossing, sampled);
        free_steps = _mm256_sub_epi32(
            free_steps,
            _mm256_castps_si256(_mm256_and_ps(
                marching,
                _mm256_cmp_ps(f_tt, free_sample, _CMP_EQ_OQ))));
        const __m256 next_step = _mm256_blendv_ps(
            large, fine, _mm256_cmp_ps(f_tt, band, _CMP_LT_OQ));
        stepsize = _mm256_blendv_ps(stepsize, next_step, marching);
        f_t = _mm256_blendv_ps(f_t, f_tt, marching);
    }

    const int found_bits = _mm256_movemask_ps(found);
    for (size_t l = 0; l < count; ++l) {
        hits[l].steps = lanei(steps, static_cast<int>(l));
        hits[l].freeSteps = lanei(free_steps, static_cast<int>(l));
        if (found_bits & (1 << l)) {
            hits[l].found = true;
            hits[l].hit = {lane(hitx, static_cast<int>(l)),
                           lane(hity, static_cast<int>(l)),
                           lane(hitz, static_cast<int>(l))};
        }
    }
}

ReductionResult
reduceRangeAvx2(const support::Image<TrackData> &track_data,
                size_t begin, size_t end)
{
    // Slot-per-lane: the 6x8 products jac[r] * {j0..j5, e, 0} cover
    // the full J^T J (row-major) and J^T e in 12 register-resident
    // accumulators. Each slot accumulates sequentially over pixels,
    // so no sum is reassociated; float x float products are exact in
    // double, making every slot bit-identical to the scalar kernel.
    __m256d acc_lo[6], acc_hi[6];
    for (int r = 0; r < 6; ++r) {
        acc_lo[r] = _mm256_setzero_pd();
        acc_hi[r] = _mm256_setzero_pd();
    }
    double error_sq = 0.0;
    size_t valid_count = 0;

    for (size_t i = begin; i < end; ++i) {
        const TrackData &row = track_data[i];
        if (row.result != TrackResult::Ok)
            continue;
        ++valid_count;
        error_sq += static_cast<double>(row.error) * row.error;
        const __m256d dlo =
            _mm256_cvtps_pd(_mm_loadu_ps(row.jacobian.data()));
        const __m256d dhi = _mm256_cvtps_pd(
            _mm_setr_ps(row.jacobian[4], row.jacobian[5], row.error,
                        0.0f));
        for (int r = 0; r < 6; ++r) {
            const __m256d jr = _mm256_set1_pd(
                static_cast<double>(row.jacobian[r]));
            acc_lo[r] = _mm256_add_pd(acc_lo[r],
                                      _mm256_mul_pd(jr, dlo));
            acc_hi[r] = _mm256_add_pd(acc_hi[r],
                                      _mm256_mul_pd(jr, dhi));
        }
    }

    ReductionResult out;
    out.errorSq = error_sq;
    out.validCount = valid_count;
    size_t tslot = 0;
    for (int r = 0; r < 6; ++r) {
        alignas(32) double full[8];
        _mm256_store_pd(full, acc_lo[r]);
        _mm256_store_pd(full + 4, acc_hi[r]);
        for (int c = r; c < 6; ++c, ++tslot)
            out.jtj[tslot] = full[c];
        out.jte[static_cast<size_t>(r)] = full[6];
    }
    return out;
}

} // namespace slambench::kfusion::detail

#else // !defined(__AVX2__)

#include "support/logging.hpp"

namespace slambench::kfusion::detail {

// Fallback stubs: the registry never dispatches here unless
// avx2CompiledIn() returned true, so these only exist to keep the
// build linking when the compiler has no -mavx2.

bool
avx2CompiledIn()
{
    return false;
}

NearBricks
integrateColumnAvx2(const IntegrateContext &, Voxel *, int, int,
                    math::Vec3f)
{
    support::fatal("integrateColumnAvx2: AVX2 not compiled in");
}

math::Vec3f
gradAvx2(const TsdfVolume &, const math::Vec3f &)
{
    support::fatal("gradAvx2: AVX2 not compiled in");
}

void
castRaysAvx2(const TsdfVolume &, const math::Vec3f &,
             const math::Vec3f *, size_t, const RaycastParams &,
             RayHit *)
{
    support::fatal("castRaysAvx2: AVX2 not compiled in");
}

ReductionResult
reduceRangeAvx2(const support::Image<TrackData> &, size_t, size_t)
{
    support::fatal("reduceRangeAvx2: AVX2 not compiled in");
}

} // namespace slambench::kfusion::detail

#endif // defined(__AVX2__)
