// Full-system integration: paper-shaped workload through the complete
// RASC pipeline, checking the qualitative claims the evaluation tables
// rest on (step-2 dominance in software, utilization growth with bank
// size, quality-benchmark plumbing).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/pipeline.hpp"
#include "eval/average_precision.hpp"
#include "eval/benchmark_set.hpp"
#include "eval/compare_hits.hpp"
#include "eval/roc.hpp"
#include "sim/mutation.hpp"
#include "sim/workload.hpp"

namespace psc {
namespace {

sim::PaperWorkload tiny_workload() {
  sim::ScaledWorkloadConfig config;
  config.scale = 0.0004;  // ~88 knt genome; banks up to ~12 proteins
  config.seed = 31;
  return sim::build_paper_workload(config);
}

TEST(EndToEnd, SoftwareProfileIsStep2Dominated) {
  // Table 1's premise: ungapped extension dominates the software run.
  // Like the table benches, the coarse seed keeps index-list depth (and
  // hence the step-2 share) in the paper's regime at this tiny scale.
  const sim::PaperWorkload workload = tiny_workload();
  core::PipelineOptions options;
  options.seed_model = core::SeedModelKind::kSubsetW4Coarse;
  options.backend = core::Step2Backend::kHostSequential;
  // Each step's time is the fastest of three runs, so one preemption of
  // a loaded test host cannot invert the ratio.
  constexpr double kNever = std::numeric_limits<double>::infinity();
  double step1 = kNever, step2 = kNever, step3 = kNever;
  for (int run = 0; run < 3; ++run) {
    const core::PipelineResult result = core::run_pipeline(
        workload.banks.back().proteins, workload.genome_bank, options);
    step1 = std::min(step1, result.times.step1_index);
    step2 = std::min(step2, result.times.step2_ungapped);
    step3 = std::min(step3, result.times.step3_gapped);
  }
  EXPECT_GT(step2, step1 + step3);
}

TEST(EndToEnd, UtilizationGrowsWithBankSize) {
  // Table 2's explanation: small banks cannot fill the PE array.
  const sim::PaperWorkload workload = tiny_workload();
  core::PipelineOptions options;
  options.backend = core::Step2Backend::kRasc;
  options.rasc.psc.num_pes = 192;

  const core::PipelineResult small = core::run_pipeline(
      workload.banks.front().proteins, workload.genome_bank, options);
  const core::PipelineResult large = core::run_pipeline(
      workload.banks.back().proteins, workload.genome_bank, options);
  EXPECT_GT(large.operator_stats.utilization(),
            small.operator_stats.utilization());
}

TEST(EndToEnd, RascStep2BeatsHostWhenArrayIsFilled) {
  // The core speedup claim, at model level. A fully utilized 192-PE array
  // at 100 MHz evaluates 192 window cells per cycle (19.2e9 cells/s) --
  // well beyond a scalar host core. Underutilized arrays (tiny banks) do
  // NOT beat a modern host; that is exactly the paper's small-bank trend,
  // so this test builds a bank with deep IL0 lists (100 copies of one
  // protein) to fill the array.
  // Deep index lists on BOTH sides: 100 copies of one protein in bank 0
  // (fills the PE array) and 100 diverged copies in bank 1 (long IL1
  // streams, so loading amortizes -- with short IL1 lists the per-round
  // shift-register loads dominate and even a full array loses to a 2026
  // host core, the same under-fill story as Table 2's small banks).
  const sim::PaperWorkload workload = tiny_workload();
  const auto& source = workload.banks.back().proteins[0];
  bio::SequenceBank dense(bio::SequenceKind::kProtein);
  bio::SequenceBank targets(bio::SequenceKind::kProtein);
  util::Xoshiro256 rng(4242);
  sim::MutationConfig divergence;
  divergence.substitution_rate = 0.2;
  for (int copy = 0; copy < 100; ++copy) {
    dense.add(bio::Sequence("c" + std::to_string(copy),
                            bio::SequenceKind::kProtein,
                            std::vector<std::uint8_t>(source.residues())));
    targets.add(sim::mutate_protein(source, divergence, rng));
  }

  core::PipelineOptions host;
  host.backend = core::Step2Backend::kHostSequential;
  core::PipelineOptions rasc;
  rasc.backend = core::Step2Backend::kRasc;
  rasc.rasc.psc.num_pes = 192;

  const core::PipelineResult host_result =
      core::run_pipeline(dense, targets, host);
  const core::PipelineResult rasc_result =
      core::run_pipeline(dense, targets, rasc);
  // Identical work and findings...
  EXPECT_EQ(host_result.counters.step2_pairs,
            rasc_result.counters.step2_pairs);
  EXPECT_EQ(host_result.counters.step2_hits,
            rasc_result.counters.step2_hits);
  ASSERT_EQ(host_result.matches.size(), rasc_result.matches.size());
  // ...high array utilization by construction...
  EXPECT_GT(rasc_result.operator_stats.utilization(), 0.5);
  // ...and modeled compute time beating the measured host kernel.
  EXPECT_LT(rasc_result.fpga_reports[0].compute_seconds,
            host_result.times.step2_ungapped);
}

TEST(EndToEnd, QualityBenchmarkProducesRankableResults) {
  // Table 6 plumbing: run the pipeline on a small family benchmark and
  // compute ROC50 / AP-Mean end to end.
  eval::QualityBenchmarkConfig config;
  config.family.families = 5;
  config.family.members_per_family = 4;
  config.family.ancestor_length = 150;
  config.family.divergence.substitution_rate = 0.15;
  config.queries_per_family = 2;
  config.genome_length = 80000;
  const eval::QualityBenchmark benchmark =
      eval::build_quality_benchmark(config);

  core::PipelineOptions options;
  const core::PipelineResult result =
      core::run_pipeline(benchmark.queries, benchmark.genome_bank, options);
  ASSERT_FALSE(result.matches.empty());

  const auto labels =
      benchmark.per_query_labels(eval::to_generic(result.matches), 100);
  std::vector<double> roc_scores;
  std::vector<double> ap_scores;
  for (std::size_t q = 0; q < benchmark.queries.size(); ++q) {
    roc_scores.push_back(eval::roc50(
        labels[q], benchmark.positives_per_family[benchmark.query_family[q]]));
    ap_scores.push_back(eval::average_precision(labels[q], 50));
  }
  // With 85%-identity families and planted targets, the pipeline must rank
  // true family members well above noise.
  EXPECT_GT(eval::mean(roc_scores), 0.5);
  EXPECT_GT(eval::mean(ap_scores), 0.5);
}

TEST(EndToEnd, RaisedThresholdCutsResultTraffic) {
  // The Table 3 story: raising the ungapped threshold thins the result
  // stream (bytes back to the host) without changing the comparisons.
  const sim::PaperWorkload workload = tiny_workload();
  core::PipelineOptions low;
  low.backend = core::Step2Backend::kRasc;
  low.ungapped_threshold = 30;
  core::PipelineOptions high = low;
  high.ungapped_threshold = 50;

  const core::PipelineResult a = core::run_pipeline(
      workload.banks.back().proteins, workload.genome_bank, low);
  const core::PipelineResult b = core::run_pipeline(
      workload.banks.back().proteins, workload.genome_bank, high);
  EXPECT_EQ(a.counters.step2_pairs, b.counters.step2_pairs);
  EXPECT_GT(a.counters.step2_hits, b.counters.step2_hits);
}

}  // namespace
}  // namespace psc
