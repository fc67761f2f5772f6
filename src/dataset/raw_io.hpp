#ifndef SLAMBENCH_DATASET_RAW_IO_HPP
#define SLAMBENCH_DATASET_RAW_IO_HPP

/**
 * @file
 * Binary sequence files.
 *
 * SLAMBench distributes datasets as preprocessed binary `.raw` files
 * so that runs do not depend on image codecs. This module plays the
 * same role: a generated Sequence (frames, intrinsics, ground truth)
 * can be saved once and reloaded byte-exactly, so expensive renders
 * are amortized across experiments and external tools can consume
 * the data.
 *
 * Format (little-endian, documented for external readers):
 *   magic   "SBRAW001"                                    8 bytes
 *   u32     width, height, frame count                   12 bytes
 *   f64     fps                                           8 bytes
 *   f32     fx, fy, cx, cy                               16 bytes
 *   u8      has_rgb                                       1 byte
 *   per frame:
 *     f64   timestamp
 *     f32   pose[16]        ground-truth camera-to-world, row-major
 *     u16   depth[w*h]      millimeters, 0 = invalid
 *     u8    rgb[w*h*3]      only when has_rgb
 */

#include <string>

#include "dataset/generator.hpp"

namespace slambench::dataset {

/**
 * Write a sequence to a binary file.
 *
 * @param sequence Sequence to save (all frames must share the
 *                 sequence's resolution; RGB is written only when
 *                 every frame has it).
 * @param path Destination file.
 * @return true on success.
 */
bool saveSequenceRaw(const Sequence &sequence, const std::string &path);

/**
 * Read a sequence written by saveSequenceRaw().
 *
 * @param path Source file.
 * @param[out] sequence Replaced on success. The spec field holds
 *             only what the format stores (dimensions/frames/fps).
 * @return true when the file parsed completely; false, before any
 *         frame is allocated, when the header claims more frame data
 *         than the file holds.
 */
bool loadSequenceRaw(const std::string &path, Sequence &sequence);

} // namespace slambench::dataset

#endif // SLAMBENCH_DATASET_RAW_IO_HPP
