#include "core/step2_host.hpp"

#include <algorithm>

#include "align/ungapped.hpp"
#include "index/neighborhood.hpp"
#include "util/executor.hpp"

namespace psc::core {

namespace {

/// Initial capacity for each chunk's private hit vector: skips the
/// first few growth doublings on every chunk of every query without
/// committing meaningful memory (a hit is a few dozen bytes).
constexpr std::size_t kStep2PartialReserve = 256;

/// Per-worker kernel state: window batches, the SIMD path's striped image
/// and score profile, and the score buffer. One instance is owned by each
/// engine thread and threaded through process_key, so kernel scratch
/// ownership is explicit (no function-local TLS) and the hot loop
/// performs no allocation once the buffers have grown to steady state.
struct Step2Scratch {
  index::WindowBatch batch0;
  index::WindowBatch batch1;
  index::StripedWindows striped1;
  align::ScoreProfile profile;
  std::vector<int> scores;

  explicit Step2Scratch(std::size_t window_length)
      : batch0(window_length), batch1(window_length) {}
};

/// Processes one seed key with the resolved kernel, appending hits.
std::uint64_t process_key(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, align::UngappedKernel kernel, index::SeedKey key,
    Step2Scratch& scratch, std::vector<align::SeedPairHit>& hits) {
  const auto list0 = table0.occurrences(key);
  const auto list1 = table1.occurrences(key);
  if (list0.empty() || list1.empty()) return 0;

  // The striped image and per-IL0 profile build only pay off once the IL1
  // list fills a couple of lane groups; below that the blocked kernel
  // wins, and since the kernels agree bit-for-bit (enforced by
  // resolve_ungapped_kernel and the align property tests) the per-key
  // switch cannot change the hit set. SIMD keys stripe IL1 straight from
  // the bank; the others score a flat IL1 batch.
  constexpr std::size_t kSimdMinBatch = 2 * index::StripedWindows::kLaneWidth;
  align::UngappedKernel key_kernel = kernel;
  if (kernel == align::UngappedKernel::kSimd) {
    if (list1.size() >= kSimdMinBatch) {
      scratch.striped1.assign(bank1, list1, shape);
    } else {
      key_kernel = align::UngappedKernel::kBlocked;
    }
  }
  if (key_kernel != align::UngappedKernel::kSimd) {
    index::extract_windows(bank1, list1, shape, scratch.batch1);
  }
  index::extract_windows(bank0, list0, shape, scratch.batch0);

  // One IL0 window against the whole IL1 list per kernel invocation --
  // the software mirror of a PE's duty in the array.
  const index::WindowBatch& batch0 = scratch.batch0;
  const index::WindowBatch& batch1 = scratch.batch1;
  std::vector<int>& scores = scratch.scores;
  for (std::size_t i0 = 0; i0 < batch0.size(); ++i0) {
    switch (key_kernel) {
      case align::UngappedKernel::kSimd:
        scratch.profile.build(batch0.window(i0), matrix);
        align::ungapped_score_profile_vs_striped(scratch.profile,
                                                 scratch.striped1, scores);
        break;
      case align::UngappedKernel::kScalar:
        align::ungapped_score_one_vs_many(batch0.window(i0), batch1, matrix,
                                          scores);
        break;
      default:
        align::ungapped_score_one_vs_many_blocked(batch0.window(i0), batch1,
                                                  matrix, scores);
        break;
    }
    for (std::size_t i1 = 0; i1 < scores.size(); ++i1) {
      if (scores[i1] >= threshold) {
        hits.push_back(
            align::SeedPairHit{list0[i0], list1[i1], scores[i1]});
      }
    }
  }
  return static_cast<std::uint64_t>(list0.size()) * list1.size();
}

/// Scores `keys` in the given order, appending hits in that order;
/// returns the window pairs scored. Every host step-2 walker runs
/// through here over a list of occupied keys, never the dense key space.
std::uint64_t process_keys(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, align::UngappedKernel kernel,
    std::span<const index::SeedKey> keys, Step2Scratch& scratch,
    std::vector<align::SeedPairHit>& hits) {
  std::uint64_t pairs = 0;
  for (const index::SeedKey key : keys) {
    pairs += process_key(bank0, table0, bank1, table1, matrix, shape,
                         threshold, kernel, key, scratch, hits);
  }
  return pairs;
}

}  // namespace

void normalize_step2_hits(std::vector<align::SeedPairHit>& hits) {
  std::sort(hits.begin(), hits.end(), [](const align::SeedPairHit& a,
                                         const align::SeedPairHit& b) {
    if (a.bank0.sequence != b.bank0.sequence) {
      return a.bank0.sequence < b.bank0.sequence;
    }
    if (a.bank1.sequence != b.bank1.sequence) {
      return a.bank1.sequence < b.bank1.sequence;
    }
    if (a.bank0.offset != b.bank0.offset) return a.bank0.offset < b.bank0.offset;
    if (a.bank1.offset != b.bank1.offset) return a.bank1.offset < b.bank1.offset;
    return a.score < b.score;
  });
}

std::vector<std::pair<std::size_t, std::size_t>> cost_aware_key_chunks(
    const index::IndexTable& table0, const index::IndexTable& table1,
    std::span<const index::SeedKey> keys, std::size_t parts) {
  const std::size_t count = keys.size();
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (count == 0) return chunks;
  if (parts == 0) parts = 1;
  const auto cost = [&](index::SeedKey key) {
    return static_cast<std::uint64_t>(table0.list_length(key)) *
           table1.list_length(key);
  };
  std::uint64_t total = 0;
  for (const index::SeedKey key : keys) total += cost(key);
  // All-zero costs degrade to equal-count blocks so the keys still spread
  // across workers.
  if (total == 0) return util::blocks(0, count, parts);
  const std::uint64_t target = (total + parts - 1) / parts;
  chunks.reserve(parts);
  std::size_t begin = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    acc += cost(keys[i]);
    if (acc >= target && chunks.size() + 1 < parts) {
      chunks.emplace_back(begin, i + 1);
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < count) chunks.emplace_back(begin, count);
  return chunks;
}

HostStep2Result run_step2_host(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, align::UngappedKernel kernel) {
  HostStep2Result out;
  out.kernel = align::resolve_ungapped_kernel(kernel, matrix, shape.length());
  Step2Scratch scratch(shape.length());
  out.pairs = process_keys(bank0, table0, bank1, table1, matrix, shape,
                           threshold, out.kernel, table0.occupied_keys(),
                           scratch, out.hits);
  out.cells = out.pairs * shape.length();
  return out;
}

HostStep2Result run_step2_host_keys(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, std::span<const index::SeedKey> keys, std::size_t threads,
    align::UngappedKernel kernel, Step2Schedule schedule,
    util::Executor* executor) {
  HostStep2Result out;
  out.kernel = align::resolve_ungapped_kernel(kernel, matrix, shape.length());
  if (keys.empty()) return out;
  const std::size_t workers =
      threads == 0 ? util::default_thread_count() : threads;
  if (workers <= 1) {
    Step2Scratch scratch(shape.length());
    out.pairs = process_keys(bank0, table0, bank1, table1, matrix, shape,
                             threshold, out.kernel, keys, scratch, out.hits);
    out.cells = out.pairs * shape.length();
    normalize_step2_hits(out.hits);
    return out;
  }

  const auto chunks =
      schedule == Step2Schedule::kCostAware
          ? cost_aware_key_chunks(table0, table1, keys,
                                  workers * kStep2ChunksPerWorker)
          : util::blocks(0, keys.size(), workers);
  util::Executor& exec = executor ? *executor : util::Executor::shared();
  util::Executor::TaskGroup group(exec, workers);
  std::vector<HostStep2Result> partial(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    group.run([&, c, kernel_used = out.kernel] {
      Step2Scratch scratch(shape.length());
      partial[c].hits.reserve(kStep2PartialReserve);
      partial[c].pairs = process_keys(
          bank0, table0, bank1, table1, matrix, shape, threshold,
          kernel_used,
          keys.subspan(chunks[c].first, chunks[c].second - chunks[c].first),
          scratch, partial[c].hits);
    });
  }
  group.wait();
  std::size_t total_hits = 0;
  for (const auto& p : partial) total_hits += p.hits.size();
  out.hits.reserve(total_hits);
  for (auto& p : partial) {
    out.pairs += p.pairs;
    out.hits.insert(out.hits.end(), p.hits.begin(), p.hits.end());
  }
  out.cells = out.pairs * shape.length();
  normalize_step2_hits(out.hits);
  return out;
}

HostStep2Result run_step2_host_parallel(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, std::size_t threads, align::UngappedKernel kernel,
    Step2Schedule schedule, util::Executor* executor) {
  return run_step2_host_keys(bank0, table0, bank1, table1, matrix, shape,
                             threshold, table0.occupied_keys(), threads,
                             kernel, schedule, executor);
}

struct Step2KeyScorer::Impl {
  const bio::SequenceBank& bank0;
  const index::IndexTable& table0;
  const bio::SequenceBank& bank1;
  const index::IndexTable& table1;
  const bio::SubstitutionMatrix& matrix;
  index::WindowShape shape;
  int threshold;
  align::UngappedKernel kernel;
  Step2Scratch scratch;

  Impl(const bio::SequenceBank& b0, const index::IndexTable& t0,
       const bio::SequenceBank& b1, const index::IndexTable& t1,
       const bio::SubstitutionMatrix& m, const index::WindowShape& s,
       int threshold_in, align::UngappedKernel k)
      : bank0(b0),
        table0(t0),
        bank1(b1),
        table1(t1),
        matrix(m),
        shape(s),
        threshold(threshold_in),
        kernel(align::resolve_ungapped_kernel(k, m, s.length())),
        scratch(s.length()) {}
};

Step2KeyScorer::Step2KeyScorer(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, align::UngappedKernel kernel)
    : impl_(std::make_unique<Impl>(bank0, table0, bank1, table1, matrix,
                                   shape, threshold, kernel)) {}

Step2KeyScorer::~Step2KeyScorer() = default;

align::UngappedKernel Step2KeyScorer::kernel() const { return impl_->kernel; }

std::uint64_t Step2KeyScorer::score_keys(
    std::span<const index::SeedKey> keys,
    std::vector<align::SeedPairHit>& hits) {
  return process_keys(impl_->bank0, impl_->table0, impl_->bank1,
                      impl_->table1, impl_->matrix, impl_->shape,
                      impl_->threshold, impl_->kernel, keys, impl_->scratch,
                      hits);
}

}  // namespace psc::core
