#include "core/step2_host.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "align/ungapped.hpp"
#include "core/step23_overlap.hpp"
#include "core/step3_gapped.hpp"
#include "index/neighborhood.hpp"
#include "sim/protein_generator.hpp"
#include "util/executor.hpp"

namespace psc::core {
namespace {

struct TestBanks {
  bio::SequenceBank bank0{bio::SequenceKind::kProtein};
  bio::SequenceBank bank1{bio::SequenceKind::kProtein};
  index::SeedModel model = index::SeedModel::subset_w4();
  index::WindowShape shape{4, 6};

  explicit TestBanks(std::uint64_t seed, std::size_t n0 = 4, std::size_t n1 = 6) {
    util::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < n0; ++i) {
      bank0.add(sim::generate_protein("a" + std::to_string(i), 100, rng));
    }
    for (std::size_t i = 0; i < n1; ++i) {
      bank1.add(sim::generate_protein("b" + std::to_string(i), 130, rng));
    }
    // Guarantee a strong shared region.
    bio::Sequence& target = bank1.mutable_sequence(0);
    for (std::size_t k = 0; k < 30; ++k) {
      target.mutable_residues()[40 + k] = bank0[0][20 + k];
    }
  }
};

std::vector<align::SeedPairHit> sorted(std::vector<align::SeedPairHit> hits) {
  std::sort(hits.begin(), hits.end(), [](const align::SeedPairHit& a,
                                         const align::SeedPairHit& b) {
    return std::tuple(a.bank0.sequence, a.bank0.offset, a.bank1.sequence,
                      a.bank1.offset, a.score) <
           std::tuple(b.bank0.sequence, b.bank0.offset, b.bank1.sequence,
                      b.bank1.offset, b.score);
  });
  return hits;
}

TEST(HostStep2, FindsSharedRegion) {
  const TestBanks banks(1);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  const HostStep2Result result =
      run_step2_host(banks.bank0, t0, banks.bank1, t1,
                     bio::SubstitutionMatrix::blosum62(), banks.shape, 30);
  ASSERT_FALSE(result.hits.empty());
  bool found = false;
  for (const auto& hit : result.hits) {
    if (hit.bank0.sequence == 0 && hit.bank1.sequence == 0) found = true;
    EXPECT_GE(hit.score, 30);
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(result.pairs, index::IndexTable::pair_count(t0, t1));
}

TEST(HostStep2, HitsMatchDirectKernelEvaluation) {
  const TestBanks banks(2, 2, 3);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const int threshold = 25;
  const HostStep2Result result = run_step2_host(
      banks.bank0, t0, banks.bank1, t1, m, banks.shape, threshold);

  // Recompute by brute force over keys.
  std::vector<align::SeedPairHit> expected;
  index::WindowBatch b0(banks.shape.length());
  index::WindowBatch b1(banks.shape.length());
  for (std::size_t k = 0; k < t0.key_space(); ++k) {
    const auto key = static_cast<index::SeedKey>(k);
    if (t0.list_length(key) == 0 || t1.list_length(key) == 0) continue;
    index::extract_windows(banks.bank0, t0.occurrences(key), banks.shape, b0);
    index::extract_windows(banks.bank1, t1.occurrences(key), banks.shape, b1);
    for (std::size_t i = 0; i < b0.size(); ++i) {
      for (std::size_t j = 0; j < b1.size(); ++j) {
        const int score =
            align::ungapped_window_score(b0.window(i), b1.window(j), m);
        if (score >= threshold) {
          expected.push_back(
              align::SeedPairHit{b0.source(i), b1.source(j), score});
        }
      }
    }
  }
  EXPECT_EQ(sorted(result.hits), sorted(expected));
}

TEST(HostStep2, ParallelMatchesSequential) {
  const TestBanks banks(3);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const HostStep2Result seq =
      run_step2_host(banks.bank0, t0, banks.bank1, t1, m, banks.shape, 28);
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    const HostStep2Result par = run_step2_host_parallel(
        banks.bank0, t0, banks.bank1, t1, m, banks.shape, 28, threads);
    EXPECT_EQ(par.pairs, seq.pairs) << threads;
    EXPECT_EQ(sorted(par.hits), sorted(seq.hits)) << threads;
  }
}

TEST(HostStep2, AllKernelsProduceIdenticalHitSets) {
  const TestBanks banks(6);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const HostStep2Result scalar =
      run_step2_host(banks.bank0, t0, banks.bank1, t1, m, banks.shape, 26,
                     align::UngappedKernel::kScalar);
  EXPECT_EQ(scalar.kernel, align::UngappedKernel::kScalar);
  EXPECT_EQ(scalar.cells, scalar.pairs * banks.shape.length());
  ASSERT_FALSE(scalar.hits.empty());
  for (const auto kernel :
       {align::UngappedKernel::kAuto, align::UngappedKernel::kBlocked,
        align::UngappedKernel::kSimd}) {
    const HostStep2Result other = run_step2_host(
        banks.bank0, t0, banks.bank1, t1, m, banks.shape, 26, kernel);
    EXPECT_EQ(sorted(other.hits), sorted(scalar.hits))
        << align::ungapped_kernel_name(kernel);
    EXPECT_EQ(other.pairs, scalar.pairs);
    const HostStep2Result parallel =
        run_step2_host_parallel(banks.bank0, t0, banks.bank1, t1, m,
                                banks.shape, 26, 3, kernel);
    EXPECT_EQ(sorted(parallel.hits), sorted(scalar.hits))
        << align::ungapped_kernel_name(kernel);
  }
}

TEST(HostStep2, ThresholdMonotonicity) {
  const TestBanks banks(4);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const auto loose =
      run_step2_host(banks.bank0, t0, banks.bank1, t1, m, banks.shape, 20);
  const auto tight =
      run_step2_host(banks.bank0, t0, banks.bank1, t1, m, banks.shape, 40);
  EXPECT_GE(loose.hits.size(), tight.hits.size());
  EXPECT_EQ(loose.pairs, tight.pairs);  // same work, different filter
}

TEST(HostStep2, EmptyBanksNoHits) {
  bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable t_empty(empty, model);
  const TestBanks banks(5, 1, 1);
  const index::IndexTable t1(banks.bank1, model);
  const HostStep2Result result =
      run_step2_host(empty, t_empty, banks.bank1, t1,
                     bio::SubstitutionMatrix::blosum62(), banks.shape, 10);
  EXPECT_TRUE(result.hits.empty());
  EXPECT_EQ(result.pairs, 0u);
}

TEST(HostStep2, CostAwareChunksPartitionKeySpace) {
  const TestBanks banks(6);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  for (const std::size_t parts : {1u, 2u, 5u, 16u}) {
    const auto chunks = cost_aware_key_chunks(t0, t1, parts);
    ASSERT_FALSE(chunks.empty());
    EXPECT_LE(chunks.size(), parts);
    // Contiguous, non-overlapping, exhaustive cover of [0, key_space).
    EXPECT_EQ(chunks.front().first, 0u);
    for (std::size_t i = 1; i < chunks.size(); ++i) {
      EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
      EXPECT_LT(chunks[i].first, chunks[i].second);
    }
    EXPECT_EQ(chunks.back().second, t0.key_space());
  }
}

TEST(HostStep2, CostAwareChunksBalanceWork) {
  const TestBanks banks(7);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  auto chunk_cost = [&](std::size_t first, std::size_t last) {
    std::uint64_t cost = 0;
    for (std::size_t k = first; k < last; ++k) {
      const auto key = static_cast<index::SeedKey>(k);
      cost += static_cast<std::uint64_t>(t0.list_length(key)) *
              t1.list_length(key);
    }
    return cost;
  };
  const std::uint64_t total = chunk_cost(0, t0.key_space());
  ASSERT_GT(total, 0u);
  const std::size_t parts = 4;
  const auto chunks = cost_aware_key_chunks(t0, t1, parts);
  const std::uint64_t target = (total + parts - 1) / parts;
  // The greedy cut closes a chunk at the first key crossing the target,
  // so no chunk exceeds target by more than one key's cost -- and no
  // key's cost can exceed the total.
  for (const auto& [first, last] : chunks) {
    EXPECT_LE(chunk_cost(first, last), 2 * target + total / parts);
  }
}

TEST(HostStep2, EmptyTablesFallBackToStaticChunks) {
  bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable t_empty(empty, model);
  const auto chunks = cost_aware_key_chunks(t_empty, t_empty, 4);
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, t_empty.key_space());
}

TEST(HostStep2, SchedulesProduceIdenticalHits) {
  const TestBanks banks(8);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const HostStep2Result fixed = run_step2_host_parallel(
      banks.bank0, t0, banks.bank1, t1, m, banks.shape, 26, 3,
      align::UngappedKernel::kAuto, Step2Schedule::kStatic);
  const HostStep2Result balanced = run_step2_host_parallel(
      banks.bank0, t0, banks.bank1, t1, m, banks.shape, 26, 3,
      align::UngappedKernel::kAuto, Step2Schedule::kCostAware);
  EXPECT_EQ(fixed.hits, balanced.hits);  // both normalized
  EXPECT_EQ(fixed.pairs, balanced.pairs);
  EXPECT_EQ(fixed.cells, balanced.cells);
}

TEST(HostStep2, RunsOnPrivateExecutor) {
  const TestBanks banks(9);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const HostStep2Result reference =
      run_step2_host(banks.bank0, t0, banks.bank1, t1, m, banks.shape, 26);
  util::Executor executor(2);
  const HostStep2Result result = run_step2_host_parallel(
      banks.bank0, t0, banks.bank1, t1, m, banks.shape, 26, 2,
      align::UngappedKernel::kAuto, Step2Schedule::kCostAware, &executor);
  EXPECT_EQ(sorted(result.hits), sorted(reference.hits));
}

TEST(HostStep2, HitSetsIdenticalAcrossSimdThreshold) {
  // Every bank-1 sequence starts with q0's first 12 residues and ends
  // with its last 12, so the keys of those words have IL1 lists of 40
  // windows clipped at a sequence edge (the SIMD path, fed straight from
  // the bank), while the random remainder leaves every other key with a
  // list shorter than two lane groups (the blocked fallback).
  util::Xoshiro256 rng(12);
  bio::SequenceBank bank0(bio::SequenceKind::kProtein);
  bio::SequenceBank bank1(bio::SequenceKind::kProtein);
  for (int i = 0; i < 3; ++i) {
    bank0.add(sim::generate_protein("q" + std::to_string(i), 120, rng));
  }
  for (int i = 0; i < 40; ++i) {
    bank1.add(sim::generate_protein("t" + std::to_string(i), 80, rng));
    auto& target = bank1.mutable_sequence(bank1.size() - 1).mutable_residues();
    for (std::size_t k = 0; k < 12; ++k) {
      target[k] = bank0[0][k];
      target[68 + k] = bank0[0][108 + k];
    }
  }
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable t0(bank0, model);
  const index::IndexTable t1(bank1, model);
  const index::WindowShape shape{4, 7};  // 18: not a whole lane group
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const int threshold = 30;

  std::vector<index::SeedKey> keys;
  bool deep = false;
  bool shallow = false;
  for (std::size_t k = 0; k < t0.key_space(); ++k) {
    const auto key = static_cast<index::SeedKey>(k);
    if (t0.list_length(key) == 0 || t1.list_length(key) == 0) continue;
    keys.push_back(key);
    if (t1.list_length(key) >= 2 * index::StripedWindows::kLaneWidth) {
      deep = true;
    } else {
      shallow = true;
    }
  }
  ASSERT_TRUE(deep);
  ASSERT_TRUE(shallow);

  const HostStep2Result ref = run_step2_host(
      bank0, t0, bank1, t1, m, shape, threshold, align::UngappedKernel::kScalar);
  ASSERT_FALSE(ref.hits.empty());
  const auto expected = sorted(ref.hits);
  for (const auto kernel :
       {align::UngappedKernel::kScalar, align::UngappedKernel::kBlocked,
        align::UngappedKernel::kSimd}) {
    const std::string name = align::ungapped_kernel_name(kernel);
    const HostStep2Result seq =
        run_step2_host(bank0, t0, bank1, t1, m, shape, threshold, kernel);
    EXPECT_EQ(sorted(seq.hits), expected) << name;
    EXPECT_EQ(seq.pairs, ref.pairs) << name;
    for (const std::size_t threads : {1u, 3u}) {
      const HostStep2Result par = run_step2_host_parallel(
          bank0, t0, bank1, t1, m, shape, threshold, threads, kernel);
      EXPECT_EQ(sorted(par.hits), expected) << name << " x" << threads;
      const HostStep2Result by_keys = run_step2_host_keys(
          bank0, t0, bank1, t1, m, shape, threshold, keys, threads, kernel);
      EXPECT_EQ(sorted(by_keys.hits), expected) << name << " x" << threads;
      EXPECT_EQ(by_keys.pairs, ref.pairs) << name << " x" << threads;
    }
  }

  // The overlapped step-2/3 driver scores the same hits and so extends
  // them into the same matches.
  PipelineOptions options;
  options.shape = shape;
  options.ungapped_threshold = threshold;
  const Step3Result step3 = run_step3(bank0, bank1, ref.hits, m, options);
  ASSERT_FALSE(step3.matches.empty());
  for (const auto kernel :
       {align::UngappedKernel::kScalar, align::UngappedKernel::kBlocked,
        align::UngappedKernel::kSimd}) {
    const std::string name = align::ungapped_kernel_name(kernel);
    options.step2_kernel = kernel;
    const OverlapOutcome outcome =
        run_steps23_overlapped(bank0, t0, bank1, t1, m, options, 3);
    EXPECT_EQ(outcome.hits, ref.hits.size()) << name;
    EXPECT_EQ(outcome.pairs, ref.pairs) << name;
    ASSERT_EQ(outcome.matches.size(), step3.matches.size()) << name;
    for (std::size_t i = 0; i < step3.matches.size(); ++i) {
      const Match& a = outcome.matches[i];
      const Match& b = step3.matches[i];
      EXPECT_EQ(std::tie(a.bank0_sequence, a.bank1_sequence, a.alignment.score,
                         a.alignment.begin0, a.alignment.begin1, a.e_value),
                std::tie(b.bank0_sequence, b.bank1_sequence, b.alignment.score,
                         b.alignment.begin0, b.alignment.begin1, b.e_value))
          << name << " #" << i;
    }
  }
}

}  // namespace
}  // namespace psc::core
