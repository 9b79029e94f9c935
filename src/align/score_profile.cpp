#include "align/score_profile.hpp"

#include <cstring>
#include <stdexcept>

namespace psc::align {

bool ScoreProfile::representable(
    const bio::SubstitutionMatrix& matrix) noexcept {
  return matrix.min_score() >= -128 && matrix.max_score() <= 127;
}

void ScoreProfile::build(std::span<const std::uint8_t> window,
                         const bio::SubstitutionMatrix& matrix) {
  if (!table_matrix_ || *table_matrix_ != matrix.cells()) {
    if (!representable(matrix)) {
      throw std::invalid_argument(
          "ScoreProfile::build: matrix scores exceed int8 range");
    }
    for (std::size_t a = 0; a < bio::kProteinAlphabetSize; ++a) {
      std::int8_t* row = row_table_.data() + a * kStride;
      const auto ra = static_cast<bio::Residue>(a);
      for (std::size_t c = 0; c < bio::kProteinAlphabetSize; ++c) {
        row[c] = static_cast<std::int8_t>(
            matrix.score(ra, static_cast<bio::Residue>(c)));
      }
      // Padding columns clamp to X, mirroring SubstitutionMatrix::score
      // for out-of-alphabet codes.
      const auto x_score =
          static_cast<std::int8_t>(matrix.score(ra, bio::kUnknownX));
      for (std::size_t c = bio::kProteinAlphabetSize; c < kStride; ++c) {
        row[c] = x_score;
      }
    }
    table_matrix_ = matrix.cells();
  }
  length_ = window.size();
  cells_.resize(length_ * kStride);
  for (std::size_t k = 0; k < length_; ++k) {
    const std::uint8_t a = window[k];
    const std::size_t r = a < bio::kProteinAlphabetSize ? a : bio::kUnknownX;
    std::memcpy(cells_.data() + k * kStride, row_table_.data() + r * kStride,
                kStride);
  }
}

}  // namespace psc::align
