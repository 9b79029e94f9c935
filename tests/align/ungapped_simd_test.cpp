// Property tests for the vectorized step-2 kernel layer: the score
// profile, the striped window transpose, and bit-for-bit equivalence of
// the scalar, blocked, and SIMD kernels across X-padding, boundary
// flanks, all-negative and saturation-adjacent configurations.
#include "align/ungapped_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "align/ungapped.hpp"
#include "sim/protein_generator.hpp"
#include "util/rng.hpp"

namespace psc::align {
namespace {

/// Runs every kernel implementation over `one` against the windows of
/// `list` in `bank` and asserts the scores agree bit-for-bit with the
/// scalar reference.
void expect_all_kernels_agree(const index::WindowBatch& one,
                              const bio::SequenceBank& bank,
                              std::span<const index::Occurrence> list,
                              const index::WindowShape& shape,
                              const bio::SubstitutionMatrix& m,
                              const char* label) {
  index::WindowBatch batch(shape.length());
  index::extract_windows(bank, list, shape, batch);
  std::vector<int> scalar, blocked, portable, dispatched;
  ungapped_score_one_vs_many(one.window(0), batch, m, scalar);
  ungapped_score_one_vs_many_blocked(one.window(0), batch, m, blocked);

  ScoreProfile profile;
  profile.build(one.window(0), m);
  index::StripedWindows striped;
  striped.assign(bank, list, shape);
  ungapped_score_profile_vs_striped_portable(profile, striped, portable);
  ungapped_score_profile_vs_striped(profile, striped, dispatched);

  EXPECT_EQ(scalar, blocked) << label;
  EXPECT_EQ(scalar, portable) << label;
  EXPECT_EQ(scalar, dispatched) << label;
  if (ungapped_avx2_available()) {
    std::vector<int> avx2;
    ungapped_score_profile_vs_striped_avx2(profile, striped, avx2);
    EXPECT_EQ(scalar, avx2) << label;
  }
}

TEST(ScoreProfile, RowsMatchMatrixWithXPaddedColumns) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  util::Xoshiro256 rng(3);
  std::vector<std::uint8_t> window(17);
  for (auto& r : window) {
    r = static_cast<std::uint8_t>(rng.bounded(bio::kProteinAlphabetSize));
  }
  ScoreProfile profile;
  profile.build(window, m);
  ASSERT_EQ(profile.length(), window.size());
  for (std::size_t k = 0; k < window.size(); ++k) {
    const std::int8_t* row = profile.row(k);
    for (std::size_t c = 0; c < bio::kProteinAlphabetSize; ++c) {
      EXPECT_EQ(row[c], m.score(window[k], static_cast<bio::Residue>(c)));
    }
    for (std::size_t c = bio::kProteinAlphabetSize; c < ScoreProfile::kStride;
         ++c) {
      EXPECT_EQ(row[c], m.score(window[k], bio::kUnknownX));
    }
  }
}

TEST(ScoreProfile, RowsFollowTheMatrixPassedToEachBuild) {
  // One profile object reused across matrices, including one edited in
  // place between builds: every build must reflect the scores it was
  // given, never rows kept from an earlier matrix.
  const std::vector<std::uint8_t> window = {0, 5, bio::kUnknownX, 30};
  bio::SubstitutionMatrix edited = bio::SubstitutionMatrix::identity(3, -2);
  ScoreProfile profile;
  const auto expect_rows = [&](const bio::SubstitutionMatrix& m) {
    for (std::size_t k = 0; k < window.size(); ++k) {
      for (std::size_t c = 0; c < ScoreProfile::kStride; ++c) {
        EXPECT_EQ(profile.row(k)[c],
                  m.score(window[k], static_cast<bio::Residue>(c)))
            << "k=" << k << " c=" << c;
      }
    }
  };
  profile.build(window, bio::SubstitutionMatrix::blosum62());
  expect_rows(bio::SubstitutionMatrix::blosum62());
  profile.build(window, edited);
  expect_rows(edited);
  edited.set_score(5, 0, 9);
  profile.build(window, edited);
  expect_rows(edited);
  EXPECT_EQ(profile.row(1)[0], 9);
}

TEST(ScoreProfile, RepresentabilityBounds) {
  EXPECT_TRUE(ScoreProfile::representable(bio::SubstitutionMatrix::blosum62()));
  EXPECT_TRUE(
      ScoreProfile::representable(bio::SubstitutionMatrix::identity(127, -128)));
  bio::SubstitutionMatrix wide = bio::SubstitutionMatrix::identity(1, -1);
  wide.set_score(0, 0, 200);
  EXPECT_FALSE(ScoreProfile::representable(wide));
  ScoreProfile profile;
  const std::vector<std::uint8_t> window(4, 0);
  EXPECT_THROW(profile.build(window, wide), std::invalid_argument);
}

TEST(StripedWindows, TransposesAndPadsWithX) {
  util::Xoshiro256 rng(11);
  const index::WindowShape shape{4, 3};
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("p", 80, rng));
  std::vector<index::Occurrence> list;
  for (std::uint32_t i = 0; i < 5; ++i) list.push_back({0, 3 + 7 * i});
  index::WindowBatch batch(shape.length());
  index::extract_windows(bank, list, shape, batch);
  index::StripedWindows striped;
  striped.assign(bank, list, shape);
  EXPECT_EQ(striped.size(), batch.size());
  EXPECT_EQ(striped.window_length(), batch.window_length());
  EXPECT_EQ(striped.padded_size() % index::StripedWindows::kLaneWidth, 0u);
  EXPECT_GE(striped.padded_size(), striped.size());
  for (std::size_t k = 0; k < striped.window_length(); ++k) {
    const std::uint8_t* position = striped.position(k);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(position[i], batch.window(i)[k]) << "k=" << k << " i=" << i;
    }
    for (std::size_t i = batch.size(); i < striped.padded_size(); ++i) {
      EXPECT_EQ(position[i], bio::kUnknownX);
    }
  }
}

TEST(UngappedSimd, EmptyBatchYieldsNoScores) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const bio::SequenceBank bank(bio::SequenceKind::kProtein);
  index::StripedWindows striped;
  striped.assign(bank, {}, index::WindowShape{4, 2});
  ScoreProfile profile;
  profile.build(std::vector<std::uint8_t>(8, 0), m);
  std::vector<int> scores{1, 2, 3};
  ungapped_score_profile_vs_striped(profile, striped, scores);
  EXPECT_TRUE(scores.empty());
}

TEST(UngappedSimd, LengthMismatchThrows) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const bio::SequenceBank bank(bio::SequenceKind::kProtein);
  index::StripedWindows striped;
  striped.assign(bank, {}, index::WindowShape{4, 2});
  ScoreProfile profile;
  profile.build(std::vector<std::uint8_t>(10, 0), m);
  std::vector<int> scores;
  EXPECT_THROW(ungapped_score_profile_vs_striped(profile, striped, scores),
               std::invalid_argument);
}

TEST(UngappedSimd, RandomWindowsWithBoundaryFlanksAgree) {
  // Occurrences near both sequence ends produce X-padded flanks; batch
  // sizes straddle the 16-lane groups so padded lanes are exercised.
  util::Xoshiro256 rng(21);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t flank = 2 + rng.bounded(30);
    const index::WindowShape shape{4, flank};
    bio::SequenceBank bank(bio::SequenceKind::kProtein);
    const std::size_t seq_len = shape.length() + 40;
    bank.add(sim::generate_protein("p", seq_len, rng));
    const std::size_t count = 1 + rng.bounded(40);
    std::vector<index::Occurrence> list;
    for (std::size_t i = 0; i < count; ++i) {
      // Offsets 0 and end-of-sequence force maximal X padding.
      const std::uint32_t offset =
          i % 3 == 0 ? 0
                     : static_cast<std::uint32_t>(rng.bounded(seq_len - 1));
      list.push_back({0, offset});
    }
    index::WindowBatch one(shape.length());
    one.append(bank, index::Occurrence{0, static_cast<std::uint32_t>(
                                              rng.bounded(seq_len - 1))},
               shape);
    expect_all_kernels_agree(one, bank, list, shape, m, "boundary flanks");
  }
}

TEST(UngappedSimd, AllNegativeWindowsScoreZero) {
  // Tryptophan vs glycine scores -2 under BLOSUM62 at every position: the
  // running maximum never leaves zero in any lane.
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const index::WindowShape shape{4, 6};
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(bio::Sequence::protein_from_letters("w", std::string(64, 'W')));
  bank.add(bio::Sequence::protein_from_letters("g", std::string(64, 'G')));
  index::WindowBatch one(shape.length());
  one.append(bank, index::Occurrence{0, 20}, shape);
  std::vector<index::Occurrence> list;
  for (std::uint32_t i = 0; i < 19; ++i) list.push_back({1, 10 + i});
  expect_all_kernels_agree(one, bank, list, shape, m, "all negative");

  ScoreProfile profile;
  profile.build(one.window(0), m);
  index::StripedWindows striped;
  striped.assign(bank, list, shape);
  std::vector<int> scores;
  ungapped_score_profile_vs_striped(profile, striped, scores);
  for (const int s : scores) EXPECT_EQ(s, 0);
}

TEST(UngappedSimd, SaturationAdjacentScoresStayExact) {
  // match=+100 over a 300-residue identical window peaks at 30000 --
  // within 10% of int16 saturation; all kernels must still agree exactly.
  const bio::SubstitutionMatrix m = bio::SubstitutionMatrix::identity(100, -100);
  const std::size_t len = 300;
  ASSERT_TRUE(simd_kernel_applicable(m, len));
  const index::WindowShape shape{4, (len - 4) / 2};
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  util::Xoshiro256 rng(5);
  bank.add(sim::generate_protein("p", 2 * len, rng));
  index::WindowBatch one(shape.length());
  one.append(bank, index::Occurrence{0, len}, shape);
  std::vector<index::Occurrence> list = {{0, len}};  // identical: peak
  for (std::uint32_t i = 0; i < 17; ++i) list.push_back({0, 30 + 11 * i});
  expect_all_kernels_agree(one, bank, list, shape, m, "saturation adjacent");

  ScoreProfile profile;
  profile.build(one.window(0), m);
  index::StripedWindows striped;
  striped.assign(bank, list, shape);
  std::vector<int> scores;
  ungapped_score_profile_vs_striped(profile, striped, scores);
  EXPECT_EQ(scores[0], 100 * static_cast<int>(len));
}

TEST(UngappedSimd, ApplicabilityGuardsSaturationAndProfileRange) {
  const auto& blosum = bio::SubstitutionMatrix::blosum62();
  EXPECT_TRUE(simd_kernel_applicable(blosum, 64));
  // 64-residue windows under BLOSUM62 peak at 704 << 32767.
  EXPECT_FALSE(simd_kernel_applicable(
      bio::SubstitutionMatrix::identity(120, -120), 300));  // 36000 > 32767
  bio::SubstitutionMatrix wide = bio::SubstitutionMatrix::identity(1, -1);
  wide.set_score(0, 0, 200);
  EXPECT_FALSE(simd_kernel_applicable(wide, 4));
}

TEST(UngappedSimd, KernelResolutionAndNames) {
  const auto& blosum = bio::SubstitutionMatrix::blosum62();
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kAuto, blosum, 64),
            UngappedKernel::kSimd);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kScalar, blosum, 64),
            UngappedKernel::kScalar);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kBlocked, blosum, 64),
            UngappedKernel::kBlocked);
  const bio::SubstitutionMatrix hot = bio::SubstitutionMatrix::identity(120, -120);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kSimd, hot, 300),
            UngappedKernel::kBlocked);

  for (const UngappedKernel kernel :
       {UngappedKernel::kAuto, UngappedKernel::kScalar, UngappedKernel::kBlocked,
        UngappedKernel::kSimd}) {
    const auto parsed = parse_ungapped_kernel(ungapped_kernel_name(kernel));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kernel);
  }
  EXPECT_FALSE(parse_ungapped_kernel("fpga").has_value());
}

TEST(CpuFeatures, TierIsConsistentWithFeatures) {
  const SimdTier tier = best_simd_tier();
  EXPECT_STRNE(simd_tier_name(tier), "unknown");
  if (ungapped_avx2_available()) {
    EXPECT_EQ(tier, SimdTier::kAvx2);
  } else {
    EXPECT_NE(tier, SimdTier::kAvx2);
  }
}

}  // namespace
}  // namespace psc::align
