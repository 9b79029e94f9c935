#include "index/neighborhood.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace psc::index {
namespace {

bio::SequenceBank one_protein(const char* letters) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(bio::Sequence::protein_from_letters("p", letters));
  return bank;
}

TEST(WindowShape, LengthFormula) {
  EXPECT_EQ((WindowShape{4, 30}).length(), 64u);
  EXPECT_EQ((WindowShape{3, 0}).length(), 3u);
  EXPECT_EQ((WindowShape{1, 5}).length(), 11u);
}

TEST(WindowBatch, CentersSeedInWindow) {
  const auto bank = one_protein("ARNDCQEGHILKMFPSTWYV");
  const WindowShape shape{4, 2};  // length 8
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 5}, shape);
  ASSERT_EQ(batch.size(), 1u);
  const auto window = batch.window(0);
  // Window = positions 3..10 of the sequence.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(window[i], bank[0][3 + i]);
  }
}

TEST(WindowBatch, PadsLeftBoundaryWithX) {
  const auto bank = one_protein("MKVLARND");
  const WindowShape shape{4, 3};  // length 10, seed at 0 -> 3 pads left
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 0}, shape);
  const auto window = batch.window(0);
  EXPECT_EQ(window[0], bio::kUnknownX);
  EXPECT_EQ(window[1], bio::kUnknownX);
  EXPECT_EQ(window[2], bio::kUnknownX);
  EXPECT_EQ(window[3], bank[0][0]);
}

TEST(WindowBatch, PadsRightBoundaryWithX) {
  const auto bank = one_protein("MKVLARND");  // length 8
  const WindowShape shape{4, 3};
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 4}, shape);  // seed 4..8, right flank past end
  const auto window = batch.window(0);
  // Window covers sequence positions [1, 11); positions 8..10 are pads.
  EXPECT_EQ(window[9], bio::kUnknownX);
  EXPECT_EQ(window[8], bio::kUnknownX);
  EXPECT_EQ(window[7], bio::kUnknownX);
  EXPECT_EQ(window[6], bank[0][7]);
}

TEST(WindowBatch, SourceTagsPreserved) {
  const auto bank = one_protein("MKVLARND");
  const WindowShape shape{4, 1};
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 2}, shape);
  batch.append(bank, Occurrence{0, 3}, shape);
  EXPECT_EQ(batch.source(0).offset, 2u);
  EXPECT_EQ(batch.source(1).offset, 3u);
}

TEST(WindowBatch, ShapeMismatchThrows) {
  const auto bank = one_protein("MKVLARND");
  WindowBatch batch(10);
  EXPECT_THROW(batch.append(bank, Occurrence{0, 0}, WindowShape{4, 1}),
               std::invalid_argument);
}

TEST(WindowBatch, ClearResets) {
  const auto bank = one_protein("MKVLARND");
  const WindowShape shape{4, 0};
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 0}, shape);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.flat().size(), 0u);
}

TEST(ExtractWindows, ExtractsAllOccurrences) {
  const auto bank = one_protein("MKVLARNDMKVLARND");
  const WindowShape shape{4, 2};
  const std::vector<Occurrence> list = {{0, 0}, {0, 8}, {0, 12}};
  WindowBatch batch(shape.length());
  extract_windows(bank, list, shape, batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.flat().size(), 3u * shape.length());
}

TEST(ExtractWindows, IdenticalContextsGiveIdenticalWindows) {
  const auto bank = one_protein("AAMKVLAANDAAMKVLAAND");
  const WindowShape shape{4, 2};
  const std::vector<Occurrence> list = {{0, 2}, {0, 12}};
  WindowBatch batch(shape.length());
  extract_windows(bank, list, shape, batch);
  const auto w0 = batch.window(0);
  const auto w1 = batch.window(1);
  EXPECT_TRUE(std::equal(w0.begin(), w0.end(), w1.begin()));
}

TEST(ExtractWindows, TinySequenceIsAllPadsAroundSeed) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(bio::Sequence::protein_from_letters("tiny", "MKVL"));
  const WindowShape shape{4, 5};  // length 14, sequence only 4 residues
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 0}, shape);
  const auto window = batch.window(0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(window[i], bio::kUnknownX);
  for (std::size_t i = 9; i < 14; ++i) EXPECT_EQ(window[i], bio::kUnknownX);
  EXPECT_EQ(window[5], bank[0][0]);
  EXPECT_EQ(window[8], bank[0][3]);
}

// ---- bank-direct builders vs a per-residue reference -----------------

/// Window of `occ` built one residue at a time: X wherever the window
/// position falls outside the sequence.
std::vector<std::uint8_t> reference_window(const bio::SequenceBank& bank,
                                           const Occurrence& occ,
                                           const WindowShape& shape) {
  const bio::Sequence& seq = bank[occ.sequence];
  std::vector<std::uint8_t> window(shape.length(), bio::kUnknownX);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const auto p = static_cast<std::int64_t>(occ.offset) -
                   static_cast<std::int64_t>(shape.flank) +
                   static_cast<std::int64_t>(i);
    if (p >= 0 && p < static_cast<std::int64_t>(seq.size())) {
      window[i] = seq[static_cast<std::size_t>(p)];
    }
  }
  return window;
}

/// The reference windows back to back (the WindowBatch layout).
std::vector<std::uint8_t> reference_flat(const bio::SequenceBank& bank,
                                         const std::vector<Occurrence>& list,
                                         const WindowShape& shape) {
  std::vector<std::uint8_t> flat;
  for (const Occurrence& occ : list) {
    const auto window = reference_window(bank, occ, shape);
    flat.insert(flat.end(), window.begin(), window.end());
  }
  return flat;
}

/// The reference windows transposed to position-major order, padded to a
/// whole number of lane groups with X.
std::vector<std::uint8_t> reference_striped(
    const bio::SequenceBank& bank, const std::vector<Occurrence>& list,
    const WindowShape& shape) {
  constexpr std::size_t kLanes = StripedWindows::kLaneWidth;
  const std::size_t stride = (list.size() + kLanes - 1) / kLanes * kLanes;
  std::vector<std::uint8_t> image(shape.length() * stride, bio::kUnknownX);
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto window = reference_window(bank, list[i], shape);
    for (std::size_t k = 0; k < window.size(); ++k) {
      image[k * stride + i] = window[k];
    }
  }
  return image;
}

/// A long, a medium and a 5-residue sequence (shorter than every window
/// below, so its windows are clipped at both ends).
bio::SequenceBank edge_bank() {
  util::Xoshiro256 rng(17);
  const std::string letters = "ARNDCQEGHILKMFPSTWYV";
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  for (const std::size_t len : {200u, 40u, 5u}) {
    std::string s(len, 'A');
    for (char& c : s) c = letters[rng.bounded(letters.size())];
    bank.add(bio::Sequence::protein_from_letters(
        "s" + std::to_string(len), s));
  }
  return bank;
}

/// `count` occurrences cycling through left-clipped, interior,
/// right-clipped and both-ends-clipped windows.
std::vector<Occurrence> edge_list(const bio::SequenceBank& bank,
                                  std::size_t count, const WindowShape& shape) {
  std::vector<Occurrence> list;
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::uint32_t>(i);
    const auto last = [&](std::uint32_t s) {
      return static_cast<std::uint32_t>(bank[s].size() - shape.seed_width);
    };
    switch (i % 5) {
      case 0: list.push_back({0, j % 3}); break;                  // left
      case 1: list.push_back({0, 60 + 7 * j}); break;             // inside
      case 2: list.push_back({0, last(0) - j % 4}); break;        // right
      case 3: list.push_back({2, j % 2}); break;                  // both
      default: list.push_back({1, (11 * j) % last(1)}); break;    // any
    }
  }
  return list;
}

TEST(StripedWindows, BankImageMatchesPerResidueReference) {
  const auto bank = edge_bank();
  StripedWindows striped;  // reused across calls, as in step 2
  for (const WindowShape shape :
       {WindowShape{4, 5}, WindowShape{3, 7}, WindowShape{4, 30}}) {
    for (const std::size_t count : {0u, 1u, 15u, 16u, 17u, 33u}) {
      const auto list = edge_list(bank, count, shape);
      striped.assign(bank, list, shape);
      const auto expected = reference_striped(bank, list, shape);
      ASSERT_EQ(striped.size(), count);
      ASSERT_EQ(striped.window_length(), shape.length());
      ASSERT_EQ(striped.padded_size() * shape.length(), expected.size());
      const std::vector<std::uint8_t> image(
          striped.position(0), striped.position(0) + expected.size());
      EXPECT_EQ(image, expected)
          << "length " << shape.length() << ", " << count << " windows";
    }
  }
}

TEST(ExtractWindows, MatchesPerResidueReference) {
  const auto bank = edge_bank();
  for (const WindowShape shape :
       {WindowShape{4, 5}, WindowShape{3, 7}, WindowShape{4, 30}}) {
    WindowBatch batch(shape.length());
    WindowBatch appended(shape.length());
    for (const std::size_t count : {0u, 1u, 15u, 16u, 17u, 33u}) {
      const auto list = edge_list(bank, count, shape);
      const auto expected = reference_flat(bank, list, shape);
      extract_windows(bank, list, shape, batch);
      EXPECT_EQ(batch.flat(), expected)
          << "length " << shape.length() << ", " << count << " windows";
      ASSERT_EQ(batch.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(batch.source(i), list[i]);
      }
      appended.clear();
      for (const Occurrence& occ : list) appended.append(bank, occ, shape);
      EXPECT_EQ(appended.flat(), expected);
    }
  }
}

TEST(ExtractWindows, ShapeMismatchThrows) {
  const auto bank = one_protein("MKVLARND");
  WindowBatch batch(10);
  const std::vector<Occurrence> list = {{0, 0}};
  EXPECT_THROW(extract_windows(bank, list, WindowShape{4, 1}, batch),
               std::invalid_argument);
}

}  // namespace
}  // namespace psc::index
