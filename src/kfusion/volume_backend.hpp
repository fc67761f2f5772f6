#ifndef SLAMBENCH_KFUSION_VOLUME_BACKEND_HPP
#define SLAMBENCH_KFUSION_VOLUME_BACKEND_HPP

/**
 * @file
 * The common interface the pipeline drives every TSDF map
 * representation through, and the factory that selects one by name.
 *
 * Two backends are built in:
 *
 *  - "dense": the z-major TsdfVolume — O(resolution^3) memory, the
 *    numerical reference.
 *  - "sparse": the hashed-voxel-block SparseTsdfVolume — memory
 *    proportional to the observed surface, bit-identical to "dense"
 *    at every voxel the dense volume observed.
 *
 * The volume backend (map data structure) is orthogonal to the
 * kernel backend (scalar/simd/mixed instruction flavor): both volume
 * backends fuse columns through the selected KernelBackend, while
 * ray marching runs the dense backend's packet caster or the sparse
 * backend's block-cached scalar sampler — all combinations are
 * bit-exact against each other by the parity contract.
 */

#include <memory>
#include <string>

#include "kfusion/mesh.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/sparse_volume.hpp"
#include "kfusion/volume.hpp"

namespace slambench::kfusion {

/**
 * Abstract TSDF map the KinectFusion pipeline integrates into,
 * raycasts from, and extracts meshes out of. Implementations wrap a
 * concrete volume; the concrete types remain directly usable (and
 * are what the kernel benchmarks and parity tests drive).
 */
class VolumeBackend
{
  public:
    virtual ~VolumeBackend() = default;

    /** @return backend name: "dense" or "sparse". */
    virtual const char *kind() const = 0;
    /** @return voxels per edge. */
    virtual int resolution() const = 0;
    /** @return edge length, meters. */
    virtual float size() const = 0;
    /** @return world position of the minimum corner. */
    virtual const Vec3f &origin() const = 0;
    /** @return voxel edge length, meters. */
    float voxelSize() const { return size() / resolution(); }

    /**
     * Reset every voxel to unobserved (the dense volume fills on the
     * pool it was made with).
     */
    virtual void reset() = 0;

    /**
     * Select the kernel backend integrate() fuses with (and, for the
     * dense volume, raycasts with); nullptr = scalar reference.
     */
    virtual void setKernelBackend(const KernelBackend *backend) = 0;

    /** @return true when @p p (world) lies inside the volume. */
    virtual bool contains(const Vec3f &p) const = 0;
    /** Trilinear TSDF sample (see TsdfVolume::interp). */
    virtual float interp(const Vec3f &p, bool &valid) const = 0;
    /** Fused TSDF gradient (see TsdfVolume::grad). */
    virtual Vec3f grad(const Vec3f &p) const = 0;
    /** Voxel copy; unobserved voxels read as Voxel{+1, 0}. */
    virtual Voxel voxelAt(int x, int y, int z) const = 0;

    /** Fuse one depth map (see TsdfVolume::integrate). */
    virtual void integrate(const support::Image<float> &depth,
                           const CameraIntrinsics &intrinsics,
                           const Mat4f &camera_to_world, float mu,
                           float max_weight, WorkCounts &counts,
                           support::ThreadPool *pool) = 0;

    /** Raycast model vertex/normal maps (see raycastKernel). */
    virtual void raycast(support::Image<Vec3f> &vertex_out,
                         support::Image<Vec3f> &normal_out,
                         const CameraIntrinsics &intrinsics,
                         const Mat4f &camera_to_world,
                         const RaycastParams &params,
                         WorkCounts &counts,
                         support::ThreadPool *pool) const = 0;

    /** Shaded model render (see renderVolumeKernel). */
    virtual void renderVolume(support::Image<support::Rgb8> &out,
                              const CameraIntrinsics &intrinsics,
                              const Mat4f &camera_to_world,
                              const RaycastParams &params,
                              WorkCounts &counts,
                              support::ThreadPool *pool) const = 0;

    /** Marching-tetrahedra surface extraction (see mesh.hpp). */
    virtual TriangleMesh extractMesh() const = 0;

    /** Resident-memory snapshot (volume.blocks.* source of truth). */
    virtual VolumeMemoryStats memoryStats() const = 0;

    /** @return the dense volume, or nullptr for other backends. */
    virtual const TsdfVolume *dense() const { return nullptr; }
    /** @return the sparse volume, or nullptr for other backends. */
    virtual const SparseTsdfVolume *sparse() const { return nullptr; }
};

/** @return true when @p name names a built-in volume backend. */
bool volumeBackendNameValid(const std::string &name);

/** Registered volume backend names ("dense", "sparse"). */
const std::vector<std::string> &volumeBackendNames();

/**
 * DSE ordinal encoding of the volume backend ("volume" dimension):
 * dense = 0, sparse = 1.
 */
int volumeBackendOrdinal(const std::string &name);

/** Inverse of volumeBackendOrdinal (out-of-range maps to "dense"). */
std::string volumeBackendFromOrdinal(int ordinal);

/**
 * Construct a volume backend by name.
 *
 * @param name "dense" or "sparse" (fatal otherwise).
 * @param resolution Voxels per edge.
 * @param size_m Edge length, meters.
 * @param origin World position of the minimum corner.
 * @param block_size Sparse only: voxels per block edge (8 or 16).
 * @param pool_capacity Sparse only: max resident blocks (0 =
 *                      unbounded).
 * @param pool Dense only: worker pool that first-touches the voxel
 *             array and refills it on reset() (nullptr: the calling
 *             thread). It must outlive the volume.
 */
std::unique_ptr<VolumeBackend>
makeVolumeBackend(const std::string &name, int resolution,
                  float size_m, const Vec3f &origin, int block_size,
                  size_t pool_capacity,
                  support::ThreadPool *pool = nullptr);

/**
 * Free-function extraction over the interface, so call sites written
 * against `extractMesh(pipeline.volume())` work for every backend.
 */
inline TriangleMesh
extractMesh(const VolumeBackend &volume)
{
    return volume.extractMesh();
}

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_VOLUME_BACKEND_HPP
