#include "align/gapped.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "bio/alphabet.hpp"

namespace psc::align {

namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

/// Gap of length L costs open + L * extend; first gapped residue therefore
/// costs open + extend.
int gap_first(const GapParams& p) { return p.open + p.extend; }

/// Traceback state codes for the affine DP.
enum : std::uint8_t {
  kFromDiag = 0,   // H came from H(i-1,j-1) + s
  kFromE = 1,      // H came from E(i,j)
  kFromF = 2,      // H came from F(i,j)
  kFromStart = 3,  // H is a fresh local start (score 0 cell)
  kEOpen = 0x10,   // E opened from H(i,j-1)
  kFOpen = 0x20,   // F opened from H(i-1,j)
};

struct TracebackDP {
  // Full-matrix affine DP. `local` selects Smith-Waterman (clamp at 0,
  // free ends) versus global-start anchored alignment with free end.
  TracebackDP(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
              const bio::SubstitutionMatrix& matrix, const GapParams& params,
              bool local) {
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    h.assign((n + 1) * (m + 1), kNegInf);
    e.assign((n + 1) * (m + 1), kNegInf);
    f.assign((n + 1) * (m + 1), kNegInf);
    from.assign((n + 1) * (m + 1), kFromStart);
    cols = m + 1;

    at(h, 0, 0) = 0;
    for (std::size_t j = 1; j <= m; ++j) {
      const int open_score = at(h, 0, j - 1) - gap_first(params);
      const int ext_score = at(e, 0, j - 1) - params.extend;
      at(e, 0, j) = std::max(open_score, ext_score);
      at(h, 0, j) = local ? 0 : at(e, 0, j);
      std::uint8_t flags = local ? kFromStart : kFromE;
      if (open_score >= ext_score) flags |= kEOpen;
      at(from, 0, j) = flags;
    }
    for (std::size_t i = 1; i <= n; ++i) {
      const int open_score = at(h, i - 1, 0) - gap_first(params);
      const int ext_score = at(f, i - 1, 0) - params.extend;
      at(f, i, 0) = std::max(open_score, ext_score);
      at(h, i, 0) = local ? 0 : at(f, i, 0);
      std::uint8_t flags = local ? kFromStart : kFromF;
      if (open_score >= ext_score) flags |= kFOpen;
      at(from, i, 0) = flags;
    }

    best = 0;
    best_i = 0;
    best_j = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      for (std::size_t j = 1; j <= m; ++j) {
        const int e_open = at(h, i, j - 1) - gap_first(params);
        const int e_ext = at(e, i, j - 1) - params.extend;
        at(e, i, j) = std::max(e_open, e_ext);
        const int f_open = at(h, i - 1, j) - gap_first(params);
        const int f_ext = at(f, i - 1, j) - params.extend;
        at(f, i, j) = std::max(f_open, f_ext);

        const int diag =
            at(h, i - 1, j - 1) + matrix.score(a[i - 1], b[j - 1]);
        int value = diag;
        std::uint8_t source = kFromDiag;
        if (at(e, i, j) > value) {
          value = at(e, i, j);
          source = kFromE;
        }
        if (at(f, i, j) > value) {
          value = at(f, i, j);
          source = kFromF;
        }
        if (local && value < 0) {
          value = 0;
          source = kFromStart;
        }
        at(h, i, j) = value;
        std::uint8_t flags = source;
        if (e_open >= e_ext) flags |= kEOpen;
        if (f_open >= f_ext) flags |= kFOpen;
        at(from, i, j) = flags;

        if (local && value > best) {
          best = value;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (!local) {
      // Free-end anchored mode: best over the whole matrix.
      best = 0;
      best_i = 0;
      best_j = 0;
      for (std::size_t i = 0; i <= n; ++i) {
        for (std::size_t j = 0; j <= m; ++j) {
          if (at(h, i, j) > best) {
            best = at(h, i, j);
            best_i = i;
            best_j = j;
          }
        }
      }
    }
  }

  template <typename T>
  T& at(std::vector<T>& v, std::size_t i, std::size_t j) {
    return v[i * cols + j];
  }
  template <typename T>
  const T& at(const std::vector<T>& v, std::size_t i, std::size_t j) const {
    return v[i * cols + j];
  }

  /// Walks back from (best_i, best_j) producing ops (reversed into order).
  Alignment traceback(bool local) const {
    Alignment out;
    out.score = best;
    std::size_t i = best_i;
    std::size_t j = best_j;
    std::vector<Op> ops;
    // State machine: 'H' main, 'E' gap run in sequence 0, 'F' gap run in
    // sequence 1.
    char state = 'H';
    while (i > 0 || j > 0) {
      if (state == 'H') {
        const std::uint8_t source = at(from, i, j) & 0x3;
        if (local && (source == kFromStart || at(h, i, j) == 0)) break;
        if (source == kFromDiag) {
          ops.push_back(Op::kMatch);
          --i;
          --j;
        } else if (source == kFromE) {
          state = 'E';
        } else if (source == kFromF) {
          state = 'F';
        } else {
          break;  // anchored start reached
        }
      } else if (state == 'E') {
        ops.push_back(Op::kInsert1);
        const bool opened = (at(from, i, j) & kEOpen) != 0;
        --j;
        if (opened) state = 'H';
      } else {  // 'F'
        ops.push_back(Op::kInsert0);
        const bool opened = (at(from, i, j) & kFOpen) != 0;
        --i;
        if (opened) state = 'H';
      }
    }
    out.begin0 = i;
    out.begin1 = j;
    out.end0 = best_i;
    out.end1 = best_j;
    std::reverse(ops.begin(), ops.end());
    out.ops = std::move(ops);
    return out;
  }

  std::vector<int> h, e, f;
  std::vector<std::uint8_t> from;
  std::size_t cols = 0;
  int best = 0;
  std::size_t best_i = 0, best_j = 0;
};

}  // namespace

double Alignment::identity(std::span<const std::uint8_t> s0,
                           std::span<const std::uint8_t> s1) const {
  std::size_t i = begin0;
  std::size_t j = begin1;
  std::size_t matches = 0;
  std::size_t columns = 0;
  for (Op op : ops) {
    switch (op) {
      case Op::kMatch:
        if (s0[i] == s1[j]) ++matches;
        ++columns;
        ++i;
        ++j;
        break;
      case Op::kInsert0: ++i; break;
      case Op::kInsert1: ++j; break;
    }
  }
  return columns == 0 ? 0.0 : static_cast<double>(matches) / static_cast<double>(columns);
}

std::array<std::string, 3> Alignment::render(
    std::span<const std::uint8_t> s0, std::span<const std::uint8_t> s1) const {
  std::array<std::string, 3> rows;
  std::size_t i = begin0;
  std::size_t j = begin1;
  for (Op op : ops) {
    switch (op) {
      case Op::kMatch: {
        const char c0 = bio::decode_protein(s0[i]);
        const char c1 = bio::decode_protein(s1[j]);
        rows[0].push_back(c0);
        rows[1].push_back(c0 == c1 ? '|' : (bio::SubstitutionMatrix::blosum62()
                                                        .score(s0[i], s1[j]) > 0
                                                ? '+'
                                                : ' '));
        rows[2].push_back(c1);
        ++i;
        ++j;
        break;
      }
      case Op::kInsert0:
        rows[0].push_back(bio::decode_protein(s0[i]));
        rows[1].push_back(' ');
        rows[2].push_back('-');
        ++i;
        break;
      case Op::kInsert1:
        rows[0].push_back('-');
        rows[1].push_back(' ');
        rows[2].push_back(bio::decode_protein(s1[j]));
        ++j;
        break;
    }
  }
  return rows;
}

Alignment smith_waterman(std::span<const std::uint8_t> s0,
                         std::span<const std::uint8_t> s1,
                         const bio::SubstitutionMatrix& matrix,
                         const GapParams& params) {
  TracebackDP dp(s0, s1, matrix, params, /*local=*/true);
  return dp.traceback(/*local=*/true);
}

HalfExtension xdrop_gapped_half(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b,
                                const bio::SubstitutionMatrix& matrix,
                                const GapParams& params) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  HalfExtension out;
  if (n == 0 || m == 0) return out;  // empty alignment, score 0

  std::vector<int> h_prev(m + 1, kNegInf), f_prev(m + 1, kNegInf);
  std::vector<int> h_cur(m + 1, kNegInf), f_cur(m + 1, kNegInf);

  int best = 0;
  std::size_t best_i = 0, best_j = 0;

  // Row 0: gaps in sequence a only.
  std::size_t lo = 0, hi = 0;
  h_prev[0] = 0;
  {
    int e = kNegInf;
    for (std::size_t j = 1; j <= m; ++j) {
      const int open_score = h_prev[j - 1] - gap_first(params);
      e = std::max(open_score, e - params.extend);
      h_prev[j] = e;
      if (h_prev[j] < best - params.x_drop) break;
      hi = j;
    }
  }

  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(h_cur.begin(), h_cur.end(), kNegInf);
    std::fill(f_cur.begin(), f_cur.end(), kNegInf);
    const std::size_t row_lo = lo;
    const std::size_t row_hi = std::min(hi + 1, m);  // band may grow by one
    // One matrix row per a-residue: the inner loop indexes it directly
    // instead of re-deriving the row base from a[i-1] per cell.
    const bio::Residue ra = a[i - 1] < bio::kProteinAlphabetSize
                                ? a[i - 1]
                                : bio::kUnknownX;
    const auto* row = matrix.cells().data() + ra * bio::kProteinAlphabetSize;
    int e = kNegInf;
    std::size_t new_lo = row_hi + 1;
    std::size_t new_hi = 0;
    bool any_live = false;
    for (std::size_t j = row_lo; j <= row_hi; ++j) {
      // F: gap in sequence b (consume a_i).
      const int f_open = h_prev[j] - gap_first(params);
      const int f_ext = f_prev[j] - params.extend;
      f_cur[j] = std::max(f_open, f_ext);

      int value = f_cur[j];
      if (j > 0) {
        const int e_open = h_cur[j - 1] - gap_first(params);
        e = std::max(e_open, e - params.extend);
        value = std::max(value, e);
        if (h_prev[j - 1] > kNegInf / 2) {
          const bio::Residue rb = b[j - 1] < bio::kProteinAlphabetSize
                                      ? b[j - 1]
                                      : bio::kUnknownX;
          value = std::max(value, h_prev[j - 1] + row[rb]);
        }
      }
      if (value < best - params.x_drop) {
        h_cur[j] = kNegInf;
        continue;
      }
      h_cur[j] = value;
      any_live = true;
      new_lo = std::min(new_lo, j);
      new_hi = std::max(new_hi, j);
      if (value > best) {
        best = value;
        best_i = i;
        best_j = j;
      }
    }
    if (!any_live) break;
    lo = new_lo;
    hi = new_hi;
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }

  out.score = best;
  out.end0 = best_i;
  out.end1 = best_j;
  return out;
}

Alignment xdrop_gapped_extend(std::span<const std::uint8_t> s0,
                              std::span<const std::uint8_t> s1,
                              std::size_t anchor0, std::size_t anchor1,
                              std::size_t seed_width,
                              const bio::SubstitutionMatrix& matrix,
                              const GapParams& params, bool with_traceback) {
  if (anchor0 + seed_width > s0.size() || anchor1 + seed_width > s1.size()) {
    throw std::out_of_range("xdrop_gapped_extend: anchor outside sequences");
  }

  int seed_score = 0;
  for (std::size_t k = 0; k < seed_width; ++k) {
    seed_score += matrix.score(s0[anchor0 + k], s1[anchor1 + k]);
  }

  // Backward half on reversed prefixes.
  std::vector<std::uint8_t> rev0(s0.begin(), s0.begin() + static_cast<std::ptrdiff_t>(anchor0));
  std::vector<std::uint8_t> rev1(s1.begin(), s1.begin() + static_cast<std::ptrdiff_t>(anchor1));
  std::reverse(rev0.begin(), rev0.end());
  std::reverse(rev1.begin(), rev1.end());
  const HalfExtension back = xdrop_gapped_half(rev0, rev1, matrix, params);

  // Forward half on suffixes past the seed.
  const HalfExtension fwd = xdrop_gapped_half(
      s0.subspan(anchor0 + seed_width), s1.subspan(anchor1 + seed_width),
      matrix, params);

  Alignment out;
  out.score = back.score + seed_score + fwd.score;
  out.begin0 = anchor0 - back.end0;
  out.begin1 = anchor1 - back.end1;
  out.end0 = anchor0 + seed_width + fwd.end0;
  out.end1 = anchor1 + seed_width + fwd.end1;

  if (with_traceback) {
    // Re-align the discovered region with a full anchored DP to recover
    // the operation list (and possibly a slightly better score, since the
    // X-drop halves prune conservatively).
    const auto a = s0.subspan(out.begin0, out.end0 - out.begin0);
    const auto b = s1.subspan(out.begin1, out.end1 - out.begin1);
    TracebackDP dp(a, b, matrix, params, /*local=*/true);
    Alignment inner = dp.traceback(/*local=*/true);
    out.score = std::max(out.score, inner.score);
    out.ops = std::move(inner.ops);
    const std::size_t b0 = out.begin0;
    const std::size_t b1 = out.begin1;
    out.begin0 = b0 + inner.begin0;
    out.begin1 = b1 + inner.begin1;
    out.end0 = b0 + inner.end0;
    out.end1 = b1 + inner.end1;
  }
  return out;
}

}  // namespace psc::align
