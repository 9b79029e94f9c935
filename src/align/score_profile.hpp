// Query score profiles: the per-window pre-expansion of the substitution
// matrix that turns the ungapped kernel's two-level gather
//
//     matrix[ s0[k] ][ s1[k] ]      (row select, then column select)
//
// into a single indexed byte load
//
//     profile[ k ][ s1[k] ]
//
// For each position k of an IL0 window the profile stores the full
// substitution row score(s0[k], .) as 32 contiguous int8 cells (24
// alphabet codes padded to a power-of-two stride). This is the software
// analogue of a PE's substitution ROM after the query residue has been
// latched: the hardware burns s0 into the ROM address high bits once per
// window, and every IL1 residue needs only the low-bits lookup. The SIMD
// kernel additionally exploits that a 32-entry int8 row fits in two
// 128-bit registers, so the lookup becomes a pair of in-register shuffles
// instead of a memory gather.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bio/substitution_matrix.hpp"

namespace psc::align {

class ScoreProfile {
 public:
  /// Row stride in bytes: the 24-letter alphabet padded to 32 so rows stay
  /// register-aligned and the lookup index needs no bounds check for any
  /// encoded residue.
  static constexpr std::size_t kStride = 32;

  /// True when every score of `matrix` fits the profile's int8 cells
  /// (BLOSUM-family matrices span [-4, 11]; only exotic custom matrices
  /// fail, and those fall back to the scalar kernels).
  static bool representable(const bio::SubstitutionMatrix& matrix) noexcept;

  /// Rebuilds the profile for `window` (reuses storage across calls):
  /// one 32-byte row copy per position from a padded row table that is
  /// rebuilt only when the matrix's scores change. Requires
  /// representable(matrix); residues beyond the alphabet clamp to X,
  /// matching SubstitutionMatrix::score.
  void build(std::span<const std::uint8_t> window,
             const bio::SubstitutionMatrix& matrix);

  std::size_t length() const noexcept { return length_; }

  /// 32-byte substitution row for window position k.
  const std::int8_t* row(std::size_t k) const noexcept {
    return cells_.data() + k * kStride;
  }

  const std::vector<std::int8_t>& cells() const noexcept { return cells_; }

 private:
  using MatrixCells = std::array<bio::SubstitutionMatrix::Score,
                                 bio::kProteinAlphabetSize *
                                     bio::kProteinAlphabetSize>;

  std::size_t length_ = 0;
  std::vector<std::int8_t> cells_;
  /// The matrix the row table was built from (empty until the first build).
  std::optional<MatrixCells> table_matrix_;
  /// Padded row of every alphabet code: row_table_[a * kStride + c].
  std::array<std::int8_t, bio::kProteinAlphabetSize * kStride> row_table_{};
};

}  // namespace psc::align
