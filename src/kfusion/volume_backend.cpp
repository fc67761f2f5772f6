#include "kfusion/volume_backend.hpp"

#include "support/logging.hpp"
#include "support/metrics.hpp"

namespace slambench::kfusion {

namespace {

/** Dense z-major TsdfVolume behind the common interface. */
class DenseVolume final : public VolumeBackend
{
  public:
    DenseVolume(int resolution, float size_m, const Vec3f &origin,
                support::ThreadPool *pool)
        : volume_(resolution, size_m, origin, pool), pool_(pool)
    {
    }

    const char *kind() const override { return "dense"; }
    int resolution() const override { return volume_.resolution(); }
    float size() const override { return volume_.size(); }
    const Vec3f &origin() const override { return volume_.origin(); }

    void reset() override { volume_.reset(pool_); }

    void
    setKernelBackend(const KernelBackend *backend) override
    {
        backend_ = backend;
        volume_.setBackend(backend);
    }

    bool
    contains(const Vec3f &p) const override
    {
        return volume_.contains(p);
    }

    float
    interp(const Vec3f &p, bool &valid) const override
    {
        return volume_.interp(p, valid);
    }

    Vec3f grad(const Vec3f &p) const override
    {
        return volume_.grad(p);
    }

    Voxel
    voxelAt(int x, int y, int z) const override
    {
        return volume_.voxelAt(x, y, z);
    }

    void
    integrate(const support::Image<float> &depth,
              const CameraIntrinsics &intrinsics,
              const Mat4f &camera_to_world, float mu,
              float max_weight, WorkCounts &counts,
              support::ThreadPool *pool) override
    {
        volume_.integrate(depth, intrinsics, camera_to_world, mu,
                          max_weight, counts, pool);
        // Mirror the sparse backend's residency gauges so run
        // reports and bench_compare's volume-bytes gate read the
        // same series for either backend: the dense volume has no
        // blocks, it is simply always fully resident.
        const VolumeMemoryStats stats = memoryStats();
        namespace sm = support::metrics;
        static sm::Gauge &allocated_gauge =
            sm::Registry::instance().gauge("volume.blocks.allocated");
        static sm::Gauge &bytes_gauge =
            sm::Registry::instance().gauge("volume.blocks.bytes");
        allocated_gauge.set(
            static_cast<double>(stats.allocatedBlocks));
        bytes_gauge.set(static_cast<double>(stats.bytes));
    }

    void
    raycast(support::Image<Vec3f> &vertex_out,
            support::Image<Vec3f> &normal_out,
            const CameraIntrinsics &intrinsics,
            const Mat4f &camera_to_world, const RaycastParams &params,
            WorkCounts &counts,
            support::ThreadPool *pool) const override
    {
        raycastKernel(vertex_out, normal_out, volume_, intrinsics,
                      camera_to_world, params, counts, pool,
                      backend_);
    }

    void
    renderVolume(support::Image<support::Rgb8> &out,
                 const CameraIntrinsics &intrinsics,
                 const Mat4f &camera_to_world,
                 const RaycastParams &params, WorkCounts &counts,
                 support::ThreadPool *pool) const override
    {
        renderVolumeKernel(out, volume_, intrinsics, camera_to_world,
                           params, counts, pool, backend_);
    }

    TriangleMesh
    extractMesh() const override
    {
        return kfusion::extractMesh(volume_);
    }

    VolumeMemoryStats
    memoryStats() const override
    {
        VolumeMemoryStats stats;
        stats.bytes = static_cast<uint64_t>(volume_.voxelCount()) *
                      sizeof(Voxel);
        return stats;
    }

    const TsdfVolume *dense() const override { return &volume_; }

  private:
    TsdfVolume volume_;
    support::ThreadPool *pool_;
    const KernelBackend *backend_ = nullptr;
};

/** Hashed-voxel-block SparseTsdfVolume behind the common interface. */
class SparseVolume final : public VolumeBackend
{
  public:
    SparseVolume(int resolution, float size_m, const Vec3f &origin,
                 int block_size, size_t pool_capacity)
        : volume_(resolution, size_m, origin, block_size,
                  pool_capacity)
    {
    }

    const char *kind() const override { return "sparse"; }
    int resolution() const override { return volume_.resolution(); }
    float size() const override { return volume_.size(); }
    const Vec3f &origin() const override { return volume_.origin(); }

    void reset() override { volume_.reset(); }

    void
    setKernelBackend(const KernelBackend *backend) override
    {
        volume_.setBackend(backend);
    }

    bool
    contains(const Vec3f &p) const override
    {
        return volume_.contains(p);
    }

    float
    interp(const Vec3f &p, bool &valid) const override
    {
        return volume_.interp(p, valid);
    }

    Vec3f grad(const Vec3f &p) const override
    {
        return volume_.grad(p);
    }

    Voxel
    voxelAt(int x, int y, int z) const override
    {
        return volume_.voxelAt(x, y, z);
    }

    void
    integrate(const support::Image<float> &depth,
              const CameraIntrinsics &intrinsics,
              const Mat4f &camera_to_world, float mu,
              float max_weight, WorkCounts &counts,
              support::ThreadPool *pool) override
    {
        volume_.integrate(depth, intrinsics, camera_to_world, mu,
                          max_weight, counts, pool);
    }

    void
    raycast(support::Image<Vec3f> &vertex_out,
            support::Image<Vec3f> &normal_out,
            const CameraIntrinsics &intrinsics,
            const Mat4f &camera_to_world, const RaycastParams &params,
            WorkCounts &counts,
            support::ThreadPool *pool) const override
    {
        raycastKernel(vertex_out, normal_out, volume_, intrinsics,
                      camera_to_world, params, counts, pool);
    }

    void
    renderVolume(support::Image<support::Rgb8> &out,
                 const CameraIntrinsics &intrinsics,
                 const Mat4f &camera_to_world,
                 const RaycastParams &params, WorkCounts &counts,
                 support::ThreadPool *pool) const override
    {
        renderVolumeKernel(out, volume_, intrinsics, camera_to_world,
                           params, counts, pool);
    }

    TriangleMesh
    extractMesh() const override
    {
        return kfusion::extractMesh(volume_);
    }

    VolumeMemoryStats
    memoryStats() const override
    {
        return volume_.memoryStats();
    }

    const SparseTsdfVolume *sparse() const override
    {
        return &volume_;
    }

  private:
    SparseTsdfVolume volume_;
};

} // namespace

bool
volumeBackendNameValid(const std::string &name)
{
    return name == "dense" || name == "sparse";
}

const std::vector<std::string> &
volumeBackendNames()
{
    static const std::vector<std::string> names{"dense", "sparse"};
    return names;
}

int
volumeBackendOrdinal(const std::string &name)
{
    return name == "sparse" ? 1 : 0;
}

std::string
volumeBackendFromOrdinal(int ordinal)
{
    return ordinal == 1 ? "sparse" : "dense";
}

std::unique_ptr<VolumeBackend>
makeVolumeBackend(const std::string &name, int resolution,
                  float size_m, const Vec3f &origin, int block_size,
                  size_t pool_capacity, support::ThreadPool *pool)
{
    if (name == "dense")
        return std::make_unique<DenseVolume>(resolution, size_m,
                                             origin, pool);
    if (name == "sparse")
        return std::make_unique<SparseVolume>(
            resolution, size_m, origin, block_size, pool_capacity);
    support::fatal("makeVolumeBackend: unknown volume backend \"" +
                   name + "\" (expected dense or sparse)");
}

} // namespace slambench::kfusion
