#include "core/step23_overlap.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <unordered_map>
#include <utility>

#include "align/karlin.hpp"
#include "core/step2_host.hpp"
#include "core/step3_gapped.hpp"
#include "util/channel.hpp"
#include "util/executor.hpp"
#include "util/timer.hpp"

namespace psc::core {

namespace {

/// A hit with its eagerly computed gapped extension. `computed` false
/// means the worker's coverage filter skipped it; the replay recomputes
/// on demand (extend_seed_hit is pure, so a skip can never change the
/// output, only shift the work to the sequential tail).
struct ExtendedHit {
  align::SeedPairHit hit;
  align::Alignment alignment;
  bool computed = false;
};

/// Per-worker mirror of step 3's coverage suppression: the rectangles
/// of accepted alignments this worker has already computed, per
/// sequence pair. Workers don't share state, so dense hit clusters cost
/// at most `workers` redundant extensions instead of one per hit --
/// without it, a high-hit-rate workload extends everything eagerly and
/// the overlap loses by orders of magnitude exactly where the barrier
/// path's skip rate is highest.
class CoverageFilter {
 public:
  bool covers(const align::SeedPairHit& hit) const {
    const auto it = rects_.find(key(hit));
    if (it == rects_.end()) return false;
    return std::any_of(it->second.begin(), it->second.end(),
                       [&](const Rect& r) {
                         return hit.bank0.offset >= r.begin0 &&
                                hit.bank0.offset < r.end0 &&
                                hit.bank1.offset >= r.begin1 &&
                                hit.bank1.offset < r.end1;
                       });
  }

  void add(const align::SeedPairHit& hit, const align::Alignment& alignment) {
    rects_[key(hit)].push_back({alignment.begin0, alignment.end0,
                                alignment.begin1, alignment.end1});
  }

 private:
  struct Rect {
    std::size_t begin0, end0, begin1, end1;
  };

  static std::uint64_t key(const align::SeedPairHit& hit) {
    return (static_cast<std::uint64_t>(hit.bank0.sequence) << 32) |
           hit.bank1.sequence;
  }

  std::unordered_map<std::uint64_t, std::vector<Rect>> rects_;
};

}  // namespace

OverlapOutcome run_steps23_overlapped(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const PipelineOptions& options,
    std::size_t workers) {
  OverlapOutcome out;
  out.kernel = align::resolve_ungapped_kernel(options.step2_kernel, matrix,
                                              options.shape.length());
  // One extender shared read-only by every worker and the replay: all
  // kernels are bit-identical, so eager and replayed extensions may
  // freely mix tiers (an overflow fallback in one never shows).
  const align::GappedExtender extender(matrix, options.gap,
                                       options.step3_kernel);
  out.gapped_kernel = extender.kernel();
  if (workers < 2) workers = 2;

  const std::span<const index::SeedKey> keys = table0.occupied_keys();
  const auto chunks =
      options.step2_schedule == Step2Schedule::kCostAware
          ? cost_aware_key_chunks(table0, table1, keys,
                                  workers * kStep2ChunksPerWorker)
          : util::blocks(0, keys.size(), workers);

  util::Timer timer;
  // Drain-first workers keep the queue length around `workers`; the
  // slack above that means the blocking push is a safety net, not a
  // steady-state throttle.
  util::BoundedChannel<std::vector<align::SeedPairHit>> channel(
      4 * workers + 4);
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> chunks_left{chunks.size()};
  std::atomic<std::uint64_t> pairs{0};
  std::atomic<double> step2_seconds{0.0};
  std::vector<std::vector<ExtendedHit>> extended(workers);
  // No occupied key (a query shorter than W, or all words holding an X)
  // leaves no chunk whose completion closes the stream: close it now.
  if (chunks.empty()) channel.close();

  const double total_bank1_residues =
      options.search_space_residues > 0.0
          ? options.search_space_residues
          : static_cast<double>(bank1.total_residues());
  Step3StatsCache stats(bank0, matrix, options);

  // Strongest seeds first (the step-3 walk order) so the coverage
  // filter sees the widest alignments early and skips their shadows.
  const auto extend_batch = [&](std::vector<align::SeedPairHit>& batch,
                                std::vector<ExtendedHit>& mine,
                                CoverageFilter& coverage) {
    std::sort(batch.begin(), batch.end(), step3_hit_order);
    mine.reserve(mine.size() + batch.size());
    for (const align::SeedPairHit& hit : batch) {
      if (coverage.covers(hit)) {
        mine.push_back({hit, {}, false});
        continue;
      }
      ExtendedHit e{hit, extend_seed_hit(bank0, bank1, hit, extender, options),
                    true};
      // Mirror the replay's acceptance test: only alignments that pass
      // the E-value cutoff suppress later seeds there, so only those
      // earn a coverage rectangle here.
      const bio::Sequence& s0 = bank0[hit.bank0.sequence];
      const double e_val = align::e_value(
          e.alignment.score, static_cast<double>(s0.size()),
          total_bank1_residues, stats.for_query(hit.bank0.sequence));
      if (e_val <= options.e_value_cutoff) coverage.add(hit, e.alignment);
      mine.push_back(std::move(e));
    }
  };

  util::Executor& exec =
      options.executor ? *options.executor : util::Executor::shared();
  {
    util::Executor::TaskGroup group(exec, workers);
    for (std::size_t w = 0; w < workers; ++w) {
      group.run([&, w] {
        Step2KeyScorer scorer(bank0, table0, bank1, table1, matrix,
                              options.shape, options.ungapped_threshold,
                              options.step2_kernel);
        std::vector<ExtendedHit>& mine = extended[w];
        CoverageFilter coverage;
        std::vector<align::SeedPairHit> popped;
        for (;;) {
          // Extension before production: hits age the moment they are
          // scored, and draining first is also what bounds the channel.
          if (channel.try_pop(popped)) {
            extend_batch(popped, mine, coverage);
            continue;
          }
          const std::size_t c =
              next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (c < chunks.size()) {
            std::vector<align::SeedPairHit> batch;
            pairs.fetch_add(
                scorer.score_keys(keys.subspan(chunks[c].first,
                                               chunks[c].second -
                                                   chunks[c].first),
                                  batch),
                std::memory_order_relaxed);
            if (!batch.empty()) channel.push(std::move(batch));
            // Push strictly before the close decision: the last chunk's
            // hits must be in the channel when consumers see it closed.
            if (chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
              step2_seconds.store(timer.seconds(),
                                  std::memory_order_relaxed);
              channel.close();
            }
            continue;
          }
          // No chunk left to claim: block on the tail of the stream.
          auto item = channel.pop();
          if (!item) break;
          extend_batch(*item, mine, coverage);
        }
      });
    }
    group.wait();
  }

  out.pairs = pairs.load();
  out.cells = out.pairs * options.shape.length();
  out.step2_seconds = step2_seconds.load();

  // ---- deterministic replay ---------------------------------------------
  // Everything below is exactly the sequential step-3 walk, with the
  // aligner replaced by a lookup into the eager results. step3_hit_order
  // is total, so the sorted sequence -- and with it every coverage
  // decision -- is independent of which worker extended what, when.
  std::vector<ExtendedHit> all;
  for (auto& part : extended) {
    for (const ExtendedHit& e : part) {
      if (e.computed) ++out.eager_extensions;
    }
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
    part.clear();
  }
  out.hits = all.size();
  std::sort(all.begin(), all.end(),
            [](const ExtendedHit& a, const ExtendedHit& b) {
              return step3_hit_order(a.hit, b.hit);
            });

  std::vector<align::SeedPairHit> hits;
  hits.reserve(all.size());
  for (const ExtendedHit& e : all) hits.push_back(e.hit);

  for (const auto& [begin, end] : pair_group_ranges(hits)) {
    out.extensions += extend_pair_group(
        bank0, {hits.data() + begin, end - begin},
        [&, begin = begin](std::size_t i) {
          ExtendedHit& e = all[begin + i];
          if (!e.computed) {
            // Eagerly skipped but not covered in the replay's order:
            // compute it now (pure, so identical to an eager result).
            ++out.eager_extensions;
            return extend_seed_hit(bank0, bank1, e.hit, extender, options);
          }
          return std::move(e.alignment);
        },
        options, stats.for_query(hits[begin].bank0.sequence),
        total_bank1_residues, out.matches);
  }
  finalize_matches(out.matches);
  out.total_seconds = timer.seconds();
  return out;
}

}  // namespace psc::core
