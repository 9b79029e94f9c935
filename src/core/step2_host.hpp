// Step 2 on the host: the nested-loop ungapped extension of section 2.1
//
//   for k = 1 to key_space
//     for i = 1 to len(IL0k)
//       for j = 1 to len(IL1k)
//         ungapped_extension(IL0k[i], IL1k[j])
//
// executed either sequentially (the paper's software baseline structure)
// or across a thread pool partitioned by seed key. The outer loop runs
// over T0's occupied keys only: a key with an empty IL0k scores nothing,
// so skipping it changes no hit and no hit's position in key order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "align/hit.hpp"
#include "align/ungapped_simd.hpp"
#include "bio/substitution_matrix.hpp"
#include "core/options.hpp"
#include "index/index_table.hpp"

namespace psc::util {
class Executor;
}  // namespace psc::util

namespace psc::core {

/// Cost-aware chunks per worker: fine enough that the TaskGroup's
/// dynamic dispatch smooths residual skew, coarse enough that per-chunk
/// scratch setup stays noise.
inline constexpr std::size_t kStep2ChunksPerWorker = 8;

/// Greedy contiguous partition of a key list into at most `parts` chunks
/// of approximately equal estimated work, where a key's cost is
/// |IL0k| * |IL1k| (the window pairs step 2 will score for it). Ranges
/// are half-open [first, last) indices into `keys` and cover it exactly;
/// all-zero costs fall back to equal-count blocks.
std::vector<std::pair<std::size_t, std::size_t>> cost_aware_key_chunks(
    const index::IndexTable& table0, const index::IndexTable& table1,
    std::span<const index::SeedKey> keys, std::size_t parts);

struct HostStep2Result {
  std::vector<align::SeedPairHit> hits;
  std::uint64_t pairs = 0;  ///< window pairs scored
  std::uint64_t cells = 0;  ///< substitution cells evaluated (pairs * len)
  /// Kernel the engine actually ran (the resolution of the request
  /// against the matrix/window configuration and the host CPU).
  align::UngappedKernel kernel = align::UngappedKernel::kScalar;
};

/// Sequential engine: walks table0.occupied_keys() in ascending order,
/// so hits come out in key order. `table0` must own its arrays (a
/// from_raw_spans view records no occupied keys and throws).
HostStep2Result run_step2_host(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold,
    align::UngappedKernel kernel = align::UngappedKernel::kAuto);

/// Parallel engine: run_step2_host_keys over table0.occupied_keys().
/// `threads == 0` uses hardware concurrency (the TaskGroup caps occupancy
/// at `threads` even when the executor is wider). Hit order is normalized
/// (sorted) so results are deterministic regardless of scheduling.
/// `executor` nullptr = util::Executor::shared().
HostStep2Result run_step2_host_parallel(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, std::size_t threads,
    align::UngappedKernel kernel = align::UngappedKernel::kAuto,
    Step2Schedule schedule = Step2Schedule::kCostAware,
    util::Executor* executor = nullptr);

/// Processes only the given seed keys, chunked across `threads` workers
/// by `schedule`; hit order is normalized. The host/FPGA dispatch
/// extension runs it over its share of the occupied keys.
HostStep2Result run_step2_host_keys(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, std::span<const index::SeedKey> keys,
    std::size_t threads = 1,
    align::UngappedKernel kernel = align::UngappedKernel::kAuto,
    Step2Schedule schedule = Step2Schedule::kCostAware,
    util::Executor* executor = nullptr);

/// Normalizes hit order (sort by sequence pair, then offsets, then
/// score) -- what the parallel engines apply before returning, exposed
/// so other drivers can produce the identical ordering.
void normalize_step2_hits(std::vector<align::SeedPairHit>& hits);

/// Reusable single-thread scorer: wraps kernel resolution and per-thread
/// scratch so run_steps23_overlapped can score chunks of the occupied-key
/// list between extension bursts without re-allocating kernel state.
class Step2KeyScorer {
 public:
  Step2KeyScorer(const bio::SequenceBank& bank0,
                 const index::IndexTable& table0,
                 const bio::SequenceBank& bank1,
                 const index::IndexTable& table1,
                 const bio::SubstitutionMatrix& matrix,
                 const index::WindowShape& shape, int threshold,
                 align::UngappedKernel kernel);
  ~Step2KeyScorer();
  Step2KeyScorer(const Step2KeyScorer&) = delete;
  Step2KeyScorer& operator=(const Step2KeyScorer&) = delete;

  /// The resolved kernel this scorer runs.
  align::UngappedKernel kernel() const;

  /// Scores `keys` in order, appending hits in that order; returns the
  /// number of window pairs scored.
  std::uint64_t score_keys(std::span<const index::SeedKey> keys,
                           std::vector<align::SeedPairHit>& hits);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace psc::core
