#include "dataset/sdf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace slambench::dataset {

namespace {

/** Rotate @p v by -yaw about Y (world -> primitive-local). */
Vec3f
toLocal(const Primitive &prim, const Vec3f &p)
{
    const Vec3f d = p - prim.center;
    if (prim.yaw == 0.0f)
        return d;
    const float c = std::cos(-prim.yaw);
    const float s = std::sin(-prim.yaw);
    return {c * d.x + s * d.z, d.y, -s * d.x + c * d.z};
}

float
sdBox(const Vec3f &p, const Vec3f &half, float rounding)
{
    const Vec3f q{std::abs(p.x) - half.x, std::abs(p.y) - half.y,
                  std::abs(p.z) - half.z};
    const Vec3f q_pos{std::max(q.x, 0.0f), std::max(q.y, 0.0f),
                      std::max(q.z, 0.0f)};
    const float outside = q_pos.norm();
    const float inside = std::min(std::max(q.x, std::max(q.y, q.z)), 0.0f);
    return outside + inside - rounding;
}

float
sdCylinderY(const Vec3f &p, float radius, float half_height)
{
    const float dxz = std::sqrt(p.x * p.x + p.z * p.z) - radius;
    const float dy = std::abs(p.y) - half_height;
    const float ox = std::max(dxz, 0.0f);
    const float oy = std::max(dy, 0.0f);
    const float outside = std::sqrt(ox * ox + oy * oy);
    const float inside = std::min(std::max(dxz, dy), 0.0f);
    return outside + inside;
}

/**
 * Slack added to every bound before culling, meters: three orders of
 * magnitude above float error at room scale, so a skipped primitive's
 * computed distance is strictly above the running minimum.
 */
constexpr float kCullMargin = 1e-3f;

/** Radius about prim.center of a ball containing the primitive. */
float
boundingRadius(const Primitive &prim)
{
    switch (prim.kind) {
      case PrimitiveKind::Sphere:
        return prim.params.x;
      case PrimitiveKind::Box: // yaw does not change the norm
        return prim.params.norm() + prim.rounding;
      case PrimitiveKind::Cylinder:
        return std::sqrt(prim.params.x * prim.params.x +
                         prim.params.y * prim.params.y);
      case PrimitiveKind::InvertedBox:
      case PrimitiveKind::Plane:
        break;
    }
    return std::numeric_limits<float>::infinity();
}

/**
 * @return true when a primitive centered at @p center inside radius
 * @p bound cannot have a distance below @p best at @p p.
 */
bool
culled(const Vec3f &p, const Vec3f &center, float bound, float best)
{
    const float reach = best + bound + kCullMargin;
    return reach <= 0.0f || (p - center).squaredNorm() > reach * reach;
}

} // namespace

float
primitiveDistance(const Primitive &prim, const Vec3f &p)
{
    switch (prim.kind) {
      case PrimitiveKind::Sphere: {
        return (p - prim.center).norm() - prim.params.x;
      }
      case PrimitiveKind::Box: {
        return sdBox(toLocal(prim, p), prim.params, prim.rounding);
      }
      case PrimitiveKind::InvertedBox: {
        return -sdBox(toLocal(prim, p), prim.params, prim.rounding);
      }
      case PrimitiveKind::Cylinder: {
        const Vec3f local = toLocal(prim, p);
        return sdCylinderY(local, prim.params.x, prim.params.y);
      }
      case PrimitiveKind::Plane: {
        return p.dot(prim.params.normalized()) - prim.rounding;
      }
    }
    return prim.center.norm(); // unreachable
}

int
Scene::add(const Primitive &p)
{
    primitives_.push_back(p);
    bounds_.push_back(boundingRadius(p));
    return static_cast<int>(primitives_.size()) - 1;
}

SdfSample
Scene::evaluate(const Vec3f &p) const
{
    SdfSample best;
    best.distance = farClip_;
    for (size_t i = 0; i < primitives_.size(); ++i) {
        if (culled(p, primitives_[i].center, bounds_[i], best.distance))
            continue;
        const float d = primitiveDistance(primitives_[i], p);
        if (d < best.distance) {
            best.distance = d;
            best.primitive = static_cast<int>(i);
        }
    }
    return best;
}

float
Scene::distance(const Vec3f &p) const
{
    float best = farClip_;
    for (size_t i = 0; i < primitives_.size(); ++i) {
        if (!culled(p, primitives_[i].center, bounds_[i], best))
            best = std::min(best, primitiveDistance(primitives_[i], p));
    }
    return best;
}

Vec3f
Scene::normal(const Vec3f &p, float eps) const
{
    const float dx = distance({p.x + eps, p.y, p.z}) -
                     distance({p.x - eps, p.y, p.z});
    const float dy = distance({p.x, p.y + eps, p.z}) -
                     distance({p.x, p.y - eps, p.z});
    const float dz = distance({p.x, p.y, p.z + eps}) -
                     distance({p.x, p.y, p.z - eps});
    return Vec3f{dx, dy, dz}.normalized();
}

} // namespace slambench::dataset
