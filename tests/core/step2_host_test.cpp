#include "core/step2_host.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "align/ungapped.hpp"
#include "core/dispatch.hpp"
#include "core/step23_overlap.hpp"
#include "core/step3_gapped.hpp"
#include "index/neighborhood.hpp"
#include "rasc/rasc_backend.hpp"
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

TEST(HostStep2, CostAwareChunksPartitionKeyList) {
  const TestBanks banks(6);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  const auto keys = t0.occupied_keys();
  ASSERT_FALSE(keys.empty());
  for (const std::size_t parts : {1u, 2u, 5u, 16u}) {
    const auto chunks = cost_aware_key_chunks(t0, t1, keys, parts);
    ASSERT_FALSE(chunks.empty());
    EXPECT_LE(chunks.size(), parts);
    // Contiguous, non-overlapping, exhaustive cover of [0, keys.size()).
    EXPECT_EQ(chunks.front().first, 0u);
    for (std::size_t i = 1; i < chunks.size(); ++i) {
      EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
      EXPECT_LT(chunks[i].first, chunks[i].second);
    }
    EXPECT_EQ(chunks.back().second, keys.size());
  }
}

TEST(HostStep2, CostAwareChunksBalanceWork) {
  const TestBanks banks(7);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t1(banks.bank1, banks.model);
  const auto keys = t0.occupied_keys();
  auto chunk_cost = [&](std::size_t first, std::size_t last) {
    std::uint64_t cost = 0;
    for (std::size_t i = first; i < last; ++i) {
      cost += static_cast<std::uint64_t>(t0.list_length(keys[i])) *
              t1.list_length(keys[i]);
    }
    return cost;
  };
  const std::uint64_t total = chunk_cost(0, keys.size());
  ASSERT_GT(total, 0u);
  const std::size_t parts = 4;
  const auto chunks = cost_aware_key_chunks(t0, t1, keys, parts);
  const std::uint64_t target = (total + parts - 1) / parts;
  // The greedy cut closes a chunk at the first key crossing the target,
  // so no chunk exceeds target by more than one key's cost -- and no
  // key's cost can exceed the total.
  for (const auto& [first, last] : chunks) {
    EXPECT_LE(chunk_cost(first, last), 2 * target + total / parts);
  }
}

TEST(HostStep2, EmptyTablesFallBackToStaticChunks) {
  // Every key costs nothing against an empty subject, so the cut falls
  // back to equal-count blocks of the list.
  const TestBanks banks(10);
  bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const index::IndexTable t0(banks.bank0, banks.model);
  const index::IndexTable t_empty(empty, banks.model);
  const auto keys = t0.occupied_keys();
  ASSERT_GT(keys.size(), 4u);
  const auto chunks = cost_aware_key_chunks(t0, t_empty, keys, 4);
  EXPECT_EQ(chunks, util::blocks(0, keys.size(), 4));
  EXPECT_TRUE(cost_aware_key_chunks(t_empty, t_empty,
                                    t_empty.occupied_keys(), 4)
                  .empty());
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

// A one-protein query against a larger subject: the query occupies a few
// hundred keys, the subject thousands. Every step-2 walker iterates the
// query's occupied keys, and each must give exactly what a brute-force
// walk of the whole key space gives.
TEST(OccupiedKeyWalk, EveryWalkerMatchesDenseReference) {
  util::Xoshiro256 rng(31);
  bio::SequenceBank bank0(bio::SequenceKind::kProtein);
  bio::SequenceBank bank1(bio::SequenceKind::kProtein);
  bank0.add(sim::generate_protein("q", 160, rng));
  for (int i = 0; i < 60; ++i) {
    bank1.add(sim::generate_protein("t" + std::to_string(i), 150, rng));
  }
  for (std::size_t k = 0; k < 40; ++k) {
    bank1.mutable_sequence(3).mutable_residues()[50 + k] = bank0[0][20 + k];
    bank1.mutable_sequence(17).mutable_residues()[10 + k] = bank0[0][100 + k];
  }
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable t0(bank0, model);
  const index::IndexTable t1(bank1, model);
  ASSERT_LT(10 * t0.occupied_keys().size(), t1.occupied_keys().size());
  const auto& m = bio::SubstitutionMatrix::blosum62();
  PipelineOptions options;
  const index::WindowShape& shape = options.shape;
  const int threshold = options.ungapped_threshold;

  // The reference: every key of the key space, IL0 outer, IL1 inner.
  std::vector<align::SeedPairHit> reference;
  std::uint64_t reference_pairs = 0;
  index::WindowBatch b0(shape.length());
  index::WindowBatch b1(shape.length());
  for (std::size_t k = 0; k < t0.key_space(); ++k) {
    const auto key = static_cast<index::SeedKey>(k);
    index::extract_windows(bank0, t0.occurrences(key), shape, b0);
    index::extract_windows(bank1, t1.occurrences(key), shape, b1);
    reference_pairs += static_cast<std::uint64_t>(b0.size()) * b1.size();
    for (std::size_t i = 0; i < b0.size(); ++i) {
      for (std::size_t j = 0; j < b1.size(); ++j) {
        const int score =
            align::ungapped_window_score(b0.window(i), b1.window(j), m);
        if (score >= threshold) {
          reference.push_back(
              align::SeedPairHit{b0.source(i), b1.source(j), score});
        }
      }
    }
  }
  ASSERT_FALSE(reference.empty());
  std::vector<align::SeedPairHit> normalized = reference;
  normalize_step2_hits(normalized);
  const std::vector<Match> reference_matches =
      run_step3(bank0, bank1, reference, m, options).matches;
  ASSERT_FALSE(reference_matches.empty());

  const auto expect_matches = [&](const std::vector<Match>& got,
                                  const std::string& name) {
    ASSERT_EQ(got.size(), reference_matches.size()) << name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Match& a = got[i];
      const Match& b = reference_matches[i];
      EXPECT_EQ(std::tie(a.bank0_sequence, a.bank1_sequence, a.alignment.score,
                         a.alignment.begin0, a.alignment.end0,
                         a.alignment.begin1, a.alignment.end1, a.e_value),
                std::tie(b.bank0_sequence, b.bank1_sequence, b.alignment.score,
                         b.alignment.begin0, b.alignment.end0,
                         b.alignment.begin1, b.alignment.end1, b.e_value))
          << name << " #" << i;
    }
  };
  const auto expect_step3 = [&](const std::vector<align::SeedPairHit>& hits,
                                const std::string& name) {
    expect_matches(run_step3(bank0, bank1, hits, m, options).matches, name);
  };

  // Sequential: the same hits in the same (key) order.
  const HostStep2Result seq =
      run_step2_host(bank0, t0, bank1, t1, m, shape, threshold);
  EXPECT_EQ(seq.hits, reference);
  EXPECT_EQ(seq.pairs, reference_pairs);
  expect_step3(seq.hits, "sequential");

  for (const Step2Schedule schedule :
       {Step2Schedule::kStatic, Step2Schedule::kCostAware}) {
    const std::string name = step2_schedule_name(schedule);
    for (const std::size_t threads : {1u, 3u}) {
      const HostStep2Result par = run_step2_host_parallel(
          bank0, t0, bank1, t1, m, shape, threshold, threads,
          align::UngappedKernel::kAuto, schedule);
      EXPECT_EQ(par.hits, normalized) << name << " x" << threads;
      EXPECT_EQ(par.pairs, reference_pairs) << name << " x" << threads;
    }
    options.step2_schedule = schedule;
    const OverlapOutcome outcome =
        run_steps23_overlapped(bank0, t0, bank1, t1, m, options, 3);
    EXPECT_EQ(outcome.hits, reference.size()) << name;
    EXPECT_EQ(outcome.pairs, reference_pairs) << name;
    expect_matches(outcome.matches, "overlapped " + name);
  }

  rasc::RascStep2Config rasc_config;
  rasc_config.psc.num_pes = 32;
  rasc_config.psc.window_length = shape.length();
  rasc_config.psc.threshold = threshold;
  rasc_config.shape = shape;
  rasc_config.num_fpgas = 2;
  for (const double fraction : {0.0, 0.5, 1.0}) {
    DispatchConfig config;
    config.host_fraction = fraction;
    config.host_threads = 2;
    config.shape = shape;
    config.threshold = threshold;
    config.rasc = rasc_config;
    const DispatchResult result =
        run_step2_dispatch(bank0, t0, bank1, t1, m, config);
    EXPECT_EQ(result.pairs, reference_pairs) << fraction;
    EXPECT_EQ(sorted(result.hits), sorted(reference)) << fraction;
    expect_step3(result.hits, "dispatch " + std::to_string(fraction));
  }

  // RASC: the occupied-key call partitions, scores and models exactly
  // what the dense-key call does.
  std::vector<index::SeedKey> every_key(t0.key_space());
  for (std::size_t k = 0; k < every_key.size(); ++k) {
    every_key[k] = static_cast<index::SeedKey>(k);
  }
  const rasc::RascStep2Result accel =
      rasc::run_rasc_step2(bank0, t0, bank1, t1, m, rasc_config);
  const rasc::RascStep2Result dense = rasc::run_rasc_step2_keys(
      bank0, t0, bank1, t1, m, rasc_config, every_key);
  EXPECT_EQ(sorted(accel.hits), sorted(reference));
  EXPECT_EQ(accel.hits, dense.hits);
  EXPECT_EQ(accel.stats.comparisons, reference_pairs);
  expect_step3(accel.hits, "rasc");
  EXPECT_EQ(accel.modeled_seconds, dense.modeled_seconds);
  ASSERT_EQ(accel.fpgas.size(), dense.fpgas.size());
  for (std::size_t f = 0; f < accel.fpgas.size(); ++f) {
    const rasc::FpgaRunReport& a = accel.fpgas[f];
    const rasc::FpgaRunReport& b = dense.fpgas[f];
    EXPECT_EQ(std::tie(a.stats.cycles_load, a.stats.cycles_compute,
                       a.stats.cycles_stall, a.stats.cycles_drain,
                       a.stats.comparisons, a.stats.hits, a.stats.rounds,
                       a.stats.keys, a.stats.pe_ticks_busy,
                       a.stats.pe_ticks_total, a.bitstream_loads),
              std::tie(b.stats.cycles_load, b.stats.cycles_compute,
                       b.stats.cycles_stall, b.stats.cycles_drain,
                       b.stats.comparisons, b.stats.hits, b.stats.rounds,
                       b.stats.keys, b.stats.pe_ticks_busy,
                       b.stats.pe_ticks_total, b.bitstream_loads))
        << "fpga " << f;
    EXPECT_EQ(a.compute_seconds, b.compute_seconds) << "fpga " << f;
    EXPECT_EQ(a.transfer_seconds, b.transfer_seconds) << "fpga " << f;
    EXPECT_EQ(a.overhead_seconds, b.overhead_seconds) << "fpga " << f;
  }
}

TEST(OccupiedKeyWalk, QueryWithNoOccupiedKeyFinishesEmptyEverywhere) {
  // A query shorter than W, and one whose every word holds an X, index
  // no word: the occupied-key list is empty, and every walker must come
  // back with nothing rather than wait for a key that never comes.
  util::Xoshiro256 rng(32);
  bio::SequenceBank bank1(bio::SequenceKind::kProtein);
  for (int i = 0; i < 20; ++i) {
    bank1.add(sim::generate_protein("t" + std::to_string(i), 120, rng));
  }
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable t1(bank1, model);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  PipelineOptions options;
  const index::WindowShape& shape = options.shape;
  const int threshold = options.ungapped_threshold;
  rasc::RascStep2Config rasc_config;
  rasc_config.psc.num_pes = 32;
  rasc_config.psc.window_length = shape.length();
  rasc_config.psc.threshold = threshold;
  rasc_config.shape = shape;
  rasc_config.num_fpgas = 2;

  for (const char* letters : {"MKV", "MKXLAXKVXW"}) {
    bio::SequenceBank bank0(bio::SequenceKind::kProtein);
    bank0.add(bio::Sequence::protein_from_letters("q", letters));
    const index::IndexTable t0(bank0, model);
    ASSERT_TRUE(t0.occupied_keys().empty()) << letters;

    const HostStep2Result seq =
        run_step2_host(bank0, t0, bank1, t1, m, shape, threshold);
    EXPECT_TRUE(seq.hits.empty()) << letters;
    EXPECT_EQ(seq.pairs, 0u) << letters;
    for (const Step2Schedule schedule :
         {Step2Schedule::kStatic, Step2Schedule::kCostAware}) {
      const std::string name =
          std::string(letters) + " " + step2_schedule_name(schedule);
      const HostStep2Result par = run_step2_host_parallel(
          bank0, t0, bank1, t1, m, shape, threshold, 3,
          align::UngappedKernel::kAuto, schedule);
      EXPECT_TRUE(par.hits.empty()) << name;
      EXPECT_EQ(par.pairs, 0u) << name;
      options.step2_schedule = schedule;
      const OverlapOutcome outcome =
          run_steps23_overlapped(bank0, t0, bank1, t1, m, options, 3);
      EXPECT_EQ(outcome.hits, 0u) << name;
      EXPECT_EQ(outcome.pairs, 0u) << name;
      EXPECT_TRUE(outcome.matches.empty()) << name;
    }
    for (const double fraction : {0.0, 0.5, 1.0}) {
      DispatchConfig config;
      config.host_fraction = fraction;
      config.host_threads = 2;
      config.shape = shape;
      config.threshold = threshold;
      config.rasc = rasc_config;
      const DispatchResult result =
          run_step2_dispatch(bank0, t0, bank1, t1, m, config);
      EXPECT_TRUE(result.hits.empty()) << letters << " " << fraction;
      EXPECT_EQ(result.pairs, 0u) << letters << " " << fraction;
    }
    const rasc::RascStep2Result accel =
        rasc::run_rasc_step2(bank0, t0, bank1, t1, m, rasc_config);
    EXPECT_TRUE(accel.hits.empty()) << letters;
    EXPECT_EQ(accel.stats.comparisons, 0u) << letters;
  }
}

}  // namespace
}  // namespace psc::core
