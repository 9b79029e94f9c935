#include "index/neighborhood.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

namespace psc::index {

namespace {

void check_length(std::size_t window_length, const WindowShape& shape,
                  const char* where) {
  if (shape.length() != window_length) {
    throw std::invalid_argument(std::string(where) +
                                ": shape/window length mismatch");
  }
}

/// Writes the shape.length() residues of the window centred on `occ`'s
/// seed to `out`: one memcpy of the part inside the sequence, X only where
/// the window runs off either end.
void copy_window(const bio::SequenceBank& bank, const Occurrence& occ,
                 const WindowShape& shape, std::uint8_t* out) {
  const bio::Sequence& seq = bank[occ.sequence];
  const std::size_t length = shape.length();
  // The window covers sequence positions [offset - flank, ... + length);
  // `lead` of them fall before position 0 (lead <= flank <= length).
  const std::size_t offset = occ.offset;
  const std::size_t lead = offset < shape.flank ? shape.flank - offset : 0;
  const std::size_t start = offset - (shape.flank - lead);
  const std::size_t avail = start < seq.size() ? seq.size() - start : 0;
  const std::size_t body = std::min(length - lead, avail);
  std::memset(out, bio::kUnknownX, lead);
  if (body != 0) std::memcpy(out + lead, seq.data() + start, body);
  std::memset(out + lead + body, bio::kUnknownX, length - lead - body);
}

constexpr std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

/// Transposes one lane group: `tile` holds kLaneWidth windows, window i at
/// tile + i * tile_row (tile_row a multiple of kLaneWidth, columns past
/// `length` ignored); position k of window i goes to out[k * stride + i].
void transpose_group(const std::uint8_t* tile, std::size_t tile_row,
                     std::size_t length, std::uint8_t* out,
                     std::size_t stride) {
  constexpr std::size_t kLanes = StripedWindows::kLaneWidth;
#if defined(__x86_64__)
  // 16x16 byte transpose in four unpack rounds (8-, 16-, 32-, 64-bit
  // interleaves); SSE2 is baseline on x86-64, so no dispatch is needed.
  static_assert(kLanes == 16, "SSE2 transpose moves 16x16 byte blocks");
  for (std::size_t k0 = 0; k0 < length; k0 += kLanes) {
    __m128i a[16];
    __m128i b[16];
    for (std::size_t i = 0; i < 16; ++i) {
      a[i] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(tile + i * tile_row + k0));
    }
    // Round 1: rows (2j, 2j+1) -> byte pairs, columns 0-7 and 8-15.
    for (std::size_t j = 0; j < 8; ++j) {
      b[2 * j] = _mm_unpacklo_epi8(a[2 * j], a[2 * j + 1]);
      b[2 * j + 1] = _mm_unpackhi_epi8(a[2 * j], a[2 * j + 1]);
    }
    // Round 2: quads of rows 4q..4q+3, four columns per register.
    for (std::size_t q = 0; q < 4; ++q) {
      const __m128i* t = b + 4 * q;
      a[4 * q] = _mm_unpacklo_epi16(t[0], t[2]);
      a[4 * q + 1] = _mm_unpackhi_epi16(t[0], t[2]);
      a[4 * q + 2] = _mm_unpacklo_epi16(t[1], t[3]);
      a[4 * q + 3] = _mm_unpackhi_epi16(t[1], t[3]);
    }
    // Round 3: rows 0-7 and 8-15, two columns per register; b[h * 8 + c]
    // holds columns 2c and 2c+1 of row half h.
    for (std::size_t h = 0; h < 2; ++h) {
      const __m128i* u = a + 8 * h;
      for (std::size_t c = 0; c < 4; ++c) {
        b[8 * h + 2 * c] = _mm_unpacklo_epi32(u[c], u[c + 4]);
        b[8 * h + 2 * c + 1] = _mm_unpackhi_epi32(u[c], u[c + 4]);
      }
    }
    // Round 4: join the two row halves into whole columns.
    for (std::size_t c = 0; c < 8; ++c) {
      a[2 * c] = _mm_unpacklo_epi64(b[c], b[c + 8]);
      a[2 * c + 1] = _mm_unpackhi_epi64(b[c], b[c + 8]);
    }
    const std::size_t rows = std::min(kLanes, length - k0);
    for (std::size_t k = 0; k < rows; ++k) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + (k0 + k) * stride),
                       a[k]);
    }
  }
#else
  for (std::size_t k = 0; k < length; ++k) {
    std::uint8_t* position = out + k * stride;
    for (std::size_t i = 0; i < kLanes; ++i) {
      position[i] = tile[i * tile_row + k];
    }
  }
#endif
}

}  // namespace

void WindowBatch::append(const bio::SequenceBank& bank, const Occurrence& occ,
                         const WindowShape& shape) {
  check_length(window_length_, shape, "WindowBatch::append");
  const std::size_t base = residues_.size();
  residues_.resize(base + window_length_);
  copy_window(bank, occ, shape, residues_.data() + base);
  sources_.push_back(occ);
}

void extract_windows(const bio::SequenceBank& bank,
                     std::span<const Occurrence> list,
                     const WindowShape& shape, WindowBatch& out) {
  check_length(out.window_length_, shape, "extract_windows");
  out.residues_.resize(list.size() * out.window_length_);
  std::uint8_t* dst = out.residues_.data();
  for (const Occurrence& occ : list) {
    copy_window(bank, occ, shape, dst);
    dst += out.window_length_;
  }
  out.sources_.assign(list.begin(), list.end());
}

void StripedWindows::assign(const bio::SequenceBank& bank,
                            std::span<const Occurrence> list,
                            const WindowShape& shape) {
  window_length_ = shape.length();
  count_ = list.size();
  stride_ = round_up(count_, kLaneWidth);
  // Every byte of the image is written below, pad lanes included.
  residues_.resize(window_length_ * stride_);
  const std::size_t tile_row = round_up(window_length_, kLaneWidth);
  tile_.resize(kLaneWidth * tile_row);
  for (std::size_t g = 0; g < count_; g += kLaneWidth) {
    const std::size_t lanes = std::min(kLaneWidth, count_ - g);
    for (std::size_t i = 0; i < lanes; ++i) {
      copy_window(bank, list[g + i], shape, tile_.data() + i * tile_row);
    }
    std::memset(tile_.data() + lanes * tile_row, bio::kUnknownX,
                (kLaneWidth - lanes) * tile_row);
    transpose_group(tile_.data(), tile_row, window_length_,
                    residues_.data() + g, stride_);
  }
}

}  // namespace psc::index
