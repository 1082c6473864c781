/// \file strip_plane.h
/// \brief Strip-major edge plane: W 64-sample blocks interleaved per edge.
///
/// StripReachabilityWorkspace consumes edge activity as W consecutive words
/// per edge — word `words[(s*num_edges + e)*W + w]` is edge e's activity
/// across the 64 samples of block s·W+w (bit t = sample t of that block).
/// The layout is built by *interleaving* the per-block edge-major planes the
/// SampleBank already holds — no bit-level transpose is needed, just a word
/// gather. Blocks past
/// the bank's last 64-row block (a ragged tail strip) stay zero, and the
/// per-strip lane masks carry the valid-lane words so dead lanes never
/// propagate.
///
/// Planes are immutable after construction and published by shared_ptr
/// swap (BankGeneration::AcquireStripPlane): readers that acquired a plane
/// keep replaying it across concurrent bank refreshes, mirroring the
/// generation RCU discipline.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/bit_transpose.h"

namespace infoflow {

/// \brief Immutable strip-major plane over `num_blocks` 64-sample blocks
/// grouped into strips of `width` words (see file comment).
struct StripPlane {
  unsigned width = 1;          ///< W: 64-lane blocks per strip.
  std::size_t num_edges = 0;   ///< Words per block row of a strip.
  std::size_t num_blocks = 0;  ///< 64-sample blocks covered.
  std::size_t num_strips = 0;  ///< ceil(num_blocks / width).
  /// num_strips · num_edges · width words, strip-major.
  std::vector<std::uint64_t> words;
  /// num_strips · width valid-lane words (zero past num_blocks).
  std::vector<std::uint64_t> lane_masks;

  const std::uint64_t* StripWords(std::size_t s) const {
    return words.data() + s * num_edges * width;
  }
  const std::uint64_t* StripLaneMask(std::size_t s) const {
    return lane_masks.data() + s * width;
  }
  /// 64-lane blocks actually covered by strip s (width, except possibly
  /// fewer for the last strip).
  unsigned StripBlocks(std::size_t s) const {
    const std::size_t first = s * width;
    const std::size_t left = num_blocks - first;
    return left < width ? static_cast<unsigned>(left) : width;
  }
};

/// \brief Builds the strip-major plane by interleaving per-block edge-major
/// planes. `block_words(b)` must return block b's `num_edges`-word plane and
/// `block_lane_mask(b)` its valid-lane word, for b < num_blocks.
template <typename BlockWordsFn, typename BlockLaneMaskFn>
StripPlane BuildStripPlane(unsigned width, std::size_t num_edges,
                           std::size_t num_blocks, BlockWordsFn&& block_words,
                           BlockLaneMaskFn&& block_lane_mask) {
  StripPlane plane;
  plane.width = width;
  plane.num_edges = num_edges;
  plane.num_blocks = num_blocks;
  plane.num_strips = (num_blocks + width - 1) / width;
  plane.words.assign(plane.num_strips * num_edges * width, 0);
  plane.lane_masks.assign(plane.num_strips * width, 0);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t s = b / width;
    const unsigned w = static_cast<unsigned>(b % width);
    ScatterBlockIntoStrip(block_words(b), num_edges, width, w,
                          plane.words.data() + s * num_edges * width);
    plane.lane_masks[s * width + w] = block_lane_mask(b);
  }
  return plane;
}

}  // namespace infoflow
