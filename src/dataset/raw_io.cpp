#include "dataset/raw_io.hpp"

#include <cstring>
#include <fstream>

#include "support/logging.hpp"

namespace slambench::dataset {

namespace {

constexpr char kMagic[8] = {'S', 'B', 'R', 'A', 'W', '0', '0', '1'};

template <typename T>
void
writeValue(std::ofstream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
bool
readValue(std::ifstream &in, T &value)
{
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    return static_cast<bool>(in);
}

} // namespace

bool
saveSequenceRaw(const Sequence &sequence, const std::string &path)
{
    const size_t w = sequence.intrinsics.width;
    const size_t h = sequence.intrinsics.height;
    if (sequence.frames.empty() ||
        sequence.groundTruth.size() != sequence.frames.size())
        return false;

    bool has_rgb = true;
    for (const Frame &frame : sequence.frames) {
        if (frame.depthMm.width() != w || frame.depthMm.height() != h)
            return false;
        has_rgb &= frame.rgb.size() == w * h;
    }

    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;

    out.write(kMagic, sizeof(kMagic));
    writeValue(out, static_cast<uint32_t>(w));
    writeValue(out, static_cast<uint32_t>(h));
    writeValue(out, static_cast<uint32_t>(sequence.frames.size()));
    writeValue(out, sequence.spec.fps);
    writeValue(out, sequence.intrinsics.fx);
    writeValue(out, sequence.intrinsics.fy);
    writeValue(out, sequence.intrinsics.cx);
    writeValue(out, sequence.intrinsics.cy);
    writeValue(out, static_cast<uint8_t>(has_rgb ? 1 : 0));

    for (size_t f = 0; f < sequence.frames.size(); ++f) {
        const Frame &frame = sequence.frames[f];
        writeValue(out, frame.timestamp);
        const math::Mat4f &pose = sequence.groundTruth.pose(f);
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                writeValue(out, pose(static_cast<size_t>(r),
                                     static_cast<size_t>(c)));
        out.write(
            reinterpret_cast<const char *>(frame.depthMm.data()),
            static_cast<std::streamsize>(w * h * sizeof(uint16_t)));
        if (has_rgb) {
            out.write(
                reinterpret_cast<const char *>(frame.rgb.data()),
                static_cast<std::streamsize>(w * h * 3));
        }
    }
    return static_cast<bool>(out);
}

bool
loadSequenceRaw(const std::string &path, Sequence &sequence)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;

    char magic[8];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return false;

    uint32_t w = 0, h = 0, frames = 0;
    double fps = 0.0;
    float fx, fy, cx, cy;
    uint8_t has_rgb = 0;
    if (!readValue(in, w) || !readValue(in, h) ||
        !readValue(in, frames) || !readValue(in, fps) ||
        !readValue(in, fx) || !readValue(in, fy) ||
        !readValue(in, cx) || !readValue(in, cy) ||
        !readValue(in, has_rgb))
        return false;
    if (w == 0 || h == 0 || frames == 0)
        return false;

    // The header's claimed payload must fit in what the file still
    // holds, checked before anything is sized from it: a corrupt count
    // or resolution would otherwise ask for terabytes. 128-bit
    // arithmetic cannot overflow (< 2^32 * (72 + 5 * 2^64)).
    const std::streampos body = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff left = in.tellg() - body;
    in.seekg(body);
    if (!in || left < 0)
        return false;
    using u128 = unsigned __int128;
    // Per frame: f64 timestamp, f32 pose[16], u16 depth, rgb8.
    const u128 pixel_bytes = has_rgb ? 5 : 2;
    const u128 frame_bytes = sizeof(double) + 16 * sizeof(float) +
                             u128{w} * h * pixel_bytes;
    if (u128{frames} * frame_bytes > static_cast<u128>(left))
        return false;

    sequence = Sequence{};
    sequence.spec.width = w;
    sequence.spec.height = h;
    sequence.spec.numFrames = frames;
    sequence.spec.fps = fps;
    sequence.spec.name = path;
    sequence.intrinsics.width = w;
    sequence.intrinsics.height = h;
    sequence.intrinsics.fx = fx;
    sequence.intrinsics.fy = fy;
    sequence.intrinsics.cx = cx;
    sequence.intrinsics.cy = cy;

    sequence.frames.reserve(frames);
    for (uint32_t f = 0; f < frames; ++f) {
        Frame frame;
        if (!readValue(in, frame.timestamp))
            return false;
        math::Mat4f pose;
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                float v;
                if (!readValue(in, v))
                    return false;
                pose(static_cast<size_t>(r),
                     static_cast<size_t>(c)) = v;
            }
        }
        frame.depthMm.resize(w, h);
        in.read(reinterpret_cast<char *>(frame.depthMm.data()),
                static_cast<std::streamsize>(w * h *
                                             sizeof(uint16_t)));
        if (!in)
            return false;
        if (has_rgb) {
            frame.rgb.resize(w, h);
            in.read(reinterpret_cast<char *>(frame.rgb.data()),
                    static_cast<std::streamsize>(w * h * 3));
            if (!in)
                return false;
        }
        sequence.groundTruth.append(pose, frame.timestamp);
        sequence.frames.push_back(std::move(frame));
    }
    return true;
}

} // namespace slambench::dataset
