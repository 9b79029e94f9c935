// Google-benchmark microkernels for the library's hot paths: the
// ungapped window kernel (the PE datapath), index construction, the
// X-drop extensions, six-frame translation and the two simulator engines.
//
// The custom main() additionally runs a calibrated scalar/blocked/SIMD
// step-2 kernel shoot-out and writes BENCH_step2_kernels.json
// (cells/sec and speedup vs scalar) for machine consumption.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "align/gapped.hpp"
#include "align/ungapped.hpp"
#include "align/ungapped_simd.hpp"
#include "align/xdrop.hpp"
#include "bio/translate.hpp"
#include "index/index_table.hpp"
#include "index/neighborhood.hpp"
#include "rasc/psc_operator.hpp"
#include "sim/genome_generator.hpp"
#include "sim/protein_generator.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace psc;

std::vector<std::uint8_t> random_residues(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& r : out) r = static_cast<std::uint8_t>(rng.bounded(20));
  return out;
}

void BM_UngappedWindowScore(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  const auto a = random_residues(length, 1);
  const auto b = random_residues(length, 2);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::ungapped_window_score(a, b, m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_UngappedWindowScore)->Arg(16)->Arg(64)->Arg(128);

void BM_UngappedBlockedOneVsMany(benchmark::State& state) {
  const std::size_t length = 64;
  util::Xoshiro256 rng(21);
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("pool", 2000, rng));
  const index::WindowShape shape{4, 30};
  index::WindowBatch batch(length);
  for (std::uint32_t i = 0; i < 64; ++i) {
    batch.append(bank, index::Occurrence{0, 40 + 13 * i}, shape);
  }
  index::WindowBatch one(length);
  one.append(bank, index::Occurrence{0, 500}, shape);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  std::vector<int> scores;
  const bool blocked = state.range(0) != 0;
  for (auto _ : state) {
    if (blocked) {
      align::ungapped_score_one_vs_many_blocked(one.window(0), batch, m,
                                                scores);
    } else {
      align::ungapped_score_one_vs_many(one.window(0), batch, m, scores);
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_UngappedBlockedOneVsMany)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("blocked");

void BM_PeComputeWindow(benchmark::State& state) {
  const std::size_t length = 64;
  const auto a = random_residues(length, 3);
  const auto b = random_residues(length, 4);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  rasc::ProcessingElement pe(length, m);
  for (std::size_t i = 0; i < length; ++i) pe.load_residue(a[i], 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pe.compute_window(b.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_PeComputeWindow);

void BM_XdropUngapped(benchmark::State& state) {
  const auto a = random_residues(400, 5);
  auto b = a;  // homologous: extension actually runs
  util::Xoshiro256 rng(6);
  for (int k = 0; k < 80; ++k) {
    b[rng.bounded(b.size())] = static_cast<std::uint8_t>(rng.bounded(20));
  }
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::xdrop_ungapped_extend(a, b, 200, 200, 4, m, 16));
  }
}
BENCHMARK(BM_XdropUngapped);

void BM_XdropGapped(benchmark::State& state) {
  const auto a = random_residues(400, 7);
  auto b = a;
  util::Xoshiro256 rng(8);
  for (int k = 0; k < 80; ++k) {
    b[rng.bounded(b.size())] = static_cast<std::uint8_t>(rng.bounded(20));
  }
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const align::GapParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::xdrop_gapped_extend(a, b, 200, 200, 4, m, params));
  }
}
BENCHMARK(BM_XdropGapped);

void BM_SmithWaterman(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_residues(n, 9);
  const auto b = random_residues(n, 10);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const align::GapParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::smith_waterman(a, b, m, params));
  }
}
BENCHMARK(BM_SmithWaterman)->Arg(100)->Arg(300);

void BM_IndexBuild(benchmark::State& state) {
  sim::ProteinBankConfig config;
  config.count = static_cast<std::size_t>(state.range(0));
  config.seed = 11;
  const bio::SequenceBank bank = sim::generate_protein_bank(config);
  const index::SeedModel model = index::SeedModel::subset_w4();
  for (auto _ : state) {
    index::IndexTable table(bank, model);
    benchmark::DoNotOptimize(table.total_occurrences());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bank.total_residues()));
}
BENCHMARK(BM_IndexBuild)->Arg(50)->Arg(200);

void BM_SixFrameTranslation(benchmark::State& state) {
  sim::GenomeConfig config;
  config.length = 100'000;
  config.seed = 12;
  const bio::Sequence genome = sim::generate_genome(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::translate_six_frames(genome).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(genome.size()));
}
BENCHMARK(BM_SixFrameTranslation);

/// The two simulator engines on one seed key: cost of cycle exactness.
template <bool kCycleExact>
void BM_OperatorEngine(benchmark::State& state) {
  util::Xoshiro256 rng(13);
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("pool", 4000, rng));
  const index::WindowShape shape{4, 30};
  index::WindowBatch il0(shape.length());
  index::WindowBatch il1(shape.length());
  for (std::uint32_t i = 0; i < 32; ++i) {
    il0.append(bank, index::Occurrence{0, 40 + 17 * i}, shape);
    il1.append(bank, index::Occurrence{0, 41 + 13 * i}, shape);
  }
  rasc::PscConfig config;
  config.num_pes = 32;
  config.window_length = shape.length();
  config.threshold = 40;
  rasc::PscOperator op(config, bio::SubstitutionMatrix::blosum62());
  std::vector<rasc::ResultRecord> sink;
  for (auto _ : state) {
    sink.clear();
    if constexpr (kCycleExact) {
      op.run_key_cycle_exact(il0, il1, sink);
    } else {
      op.run_key(il0, il1, sink);
    }
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          32 * static_cast<std::int64_t>(shape.length()));
}
BENCHMARK(BM_OperatorEngine<false>)->Name("BM_OperatorBatch");
BENCHMARK(BM_OperatorEngine<true>)->Name("BM_OperatorCycleExact");

// ---- step-2 kernel shoot-out --------------------------------------------
// Direct calibrated timing of the three host kernels on the same
// many-vs-one workload the step-2 engines run per seed key: one IL0
// window scored against a batch of IL1 windows. The SIMD rows include
// the per-IL0 score-profile build, matching the integrated cost; the
// striped image is built once outside their timed loop, so they are
// kernel-only rates. The "build+simd" row prices what step 2 pays for a
// key with a one-window IL0 list: the striped image built from the bank
// and occurrence list, then the profile and kernel, every call.

struct KernelTiming {
  const char* name;
  double cells_per_sec = 0.0;
};

template <typename Fn>
double calibrated_cells_per_sec(std::size_t cells_per_call, Fn&& call) {
  // Warm up, then grow the repetition count until the run is long enough
  // for the steady-state rate to dominate timer overhead.
  call();
  std::size_t reps = 16;
  for (;;) {
    util::Timer timer;
    for (std::size_t r = 0; r < reps; ++r) call();
    const double seconds = timer.seconds();
    if (seconds >= 0.2) {
      return static_cast<double>(reps * cells_per_call) / seconds;
    }
    reps *= 4;
  }
}

void run_step2_kernel_shootout() {
  const index::WindowShape shape{4, 30};
  const std::size_t length = shape.length();
  const std::size_t count = 512;
  util::Xoshiro256 rng(31);
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("pool", 8000, rng));
  std::vector<index::Occurrence> list;
  for (std::uint32_t i = 0; i < count; ++i) list.push_back({0, 40 + 13 * i});
  index::WindowBatch batch(length);
  index::extract_windows(bank, list, shape, batch);
  index::WindowBatch one(length);
  one.append(bank, index::Occurrence{0, 500}, shape);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const std::size_t cells = count * length;

  index::StripedWindows striped;
  striped.assign(bank, list, shape);
  std::vector<int> scores;
  align::ScoreProfile profile;

  KernelTiming timings[] = {
      {"scalar"}, {"blocked"}, {"simd-portable"}, {"simd"}, {"build+simd"}};
  constexpr std::size_t kRows = std::size(timings);
  timings[0].cells_per_sec = calibrated_cells_per_sec(cells, [&] {
    align::ungapped_score_one_vs_many(one.window(0), batch, m, scores);
    benchmark::DoNotOptimize(scores.data());
  });
  timings[1].cells_per_sec = calibrated_cells_per_sec(cells, [&] {
    align::ungapped_score_one_vs_many_blocked(one.window(0), batch, m, scores);
    benchmark::DoNotOptimize(scores.data());
  });
  timings[2].cells_per_sec = calibrated_cells_per_sec(cells, [&] {
    profile.build(one.window(0), m);
    align::ungapped_score_profile_vs_striped_portable(profile, striped,
                                                      scores);
    benchmark::DoNotOptimize(scores.data());
  });
  timings[3].cells_per_sec = calibrated_cells_per_sec(cells, [&] {
    profile.build(one.window(0), m);
    align::ungapped_score_profile_vs_striped(profile, striped, scores);
    benchmark::DoNotOptimize(scores.data());
  });
  index::StripedWindows rebuilt;
  timings[4].cells_per_sec = calibrated_cells_per_sec(cells, [&] {
    rebuilt.assign(bank, list, shape);
    profile.build(one.window(0), m);
    align::ungapped_score_profile_vs_striped(profile, rebuilt, scores);
    benchmark::DoNotOptimize(scores.data());
  });

  const double scalar_rate = timings[0].cells_per_sec;
  const char* tier = align::simd_tier_name(align::best_simd_tier());
  std::fprintf(stderr, "\n=== step-2 kernel shoot-out (tier %s) ===\n", tier);
  std::ofstream json("BENCH_step2_kernels.json");
  json << "{\n  \"window_length\": " << length
       << ",\n  \"windows\": " << count << ",\n  \"simd_tier\": \"" << tier
       << "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < kRows; ++i) {
    const double speedup = timings[i].cells_per_sec / scalar_rate;
    std::fprintf(stderr, "  %-14s %8.1f Mcells/s  %5.2fx vs scalar\n",
                 timings[i].name, timings[i].cells_per_sec / 1e6, speedup);
    json << "    {\"kernel\": \"" << timings[i].name
         << "\", \"cells_per_sec\": " << timings[i].cells_per_sec
         << ", \"speedup_vs_scalar\": " << speedup << "}"
         << (i + 1 < kRows ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::fprintf(stderr, "wrote BENCH_step2_kernels.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_step2_kernel_shootout();
  return 0;
}
