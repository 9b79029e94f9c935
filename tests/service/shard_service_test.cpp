#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bio/translate.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "service/search_service.hpp"
#include "service/shard_query.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "store/bank_store.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "store/shard_store.hpp"
#include "util/rng.hpp"

namespace psc::service {
namespace {

/// One reference workload saved in several shardings: the unsharded
/// .pscbank/.pscidx pair plus a sharded store per requested cap.
/// Removes every file on destruction.
struct ShardedWorkload {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::SequenceBank genome_bank{bio::SequenceKind::kProtein};
  std::string plain_prefix;
  std::vector<std::string> sharded_prefixes;
  std::vector<std::size_t> shard_counts;

  ShardedWorkload(std::uint64_t seed, const std::string& name,
                  const std::vector<std::uint64_t>& caps) {
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < 5; ++i) {
      proteins.add(sim::generate_protein("p" + std::to_string(i), 100, rng));
    }
    sim::GenomeConfig config;
    config.length = 20000;
    config.seed = seed;
    bio::Sequence genome = sim::generate_genome(config);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.15;
    divergence.indel_rate = 0.0;
    sim::plant_gene(genome, sim::mutate_protein(proteins[0], divergence, rng),
                    3000, true, rng);
    sim::plant_gene(genome, sim::mutate_protein(proteins[2], divergence, rng),
                    9001, false, rng);
    genome_bank = bio::frames_to_bank(bio::translate_six_frames(genome));

    const index::SeedModel model = index::SeedModel::subset_w4();
    plain_prefix = ::testing::TempDir() + "/" + name;
    const index::IndexTable table(genome_bank, model);
    const std::uint64_t checksum =
        store::save_bank(plain_prefix + ".pscbank", genome_bank);
    store::save_index(plain_prefix + ".pscidx", table, model, checksum);

    for (std::size_t i = 0; i < caps.size(); ++i) {
      const std::string prefix =
          plain_prefix + "_cap" + std::to_string(i);
      const store::ShardManifest manifest =
          store::write_sharded_store(prefix, genome_bank, model, caps[i]);
      sharded_prefixes.push_back(prefix);
      shard_counts.push_back(manifest.shards.size());
    }
  }

  ~ShardedWorkload() {
    std::remove((plain_prefix + ".pscbank").c_str());
    std::remove((plain_prefix + ".pscidx").c_str());
    for (std::size_t i = 0; i < sharded_prefixes.size(); ++i) {
      std::remove(store::manifest_path(sharded_prefixes[i]).c_str());
      for (std::size_t s = 0; s < shard_counts[i]; ++s) {
        const std::string pair = store::shard_prefix(sharded_prefixes[i], s);
        std::remove((pair + ".pscbank").c_str());
        std::remove((pair + ".pscidx").c_str());
      }
    }
  }

  bio::SequenceBank query(std::size_t i) const {
    bio::SequenceBank bank(bio::SequenceKind::kProtein);
    bank.add(proteins[i]);
    return bank;
  }
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ShardQuery, FanOutIsBitIdenticalToUnshardedAcrossShardCounts) {
  // The tentpole's acceptance bar, at the library level: for shard
  // counts including 1, the merged fan-out encodes byte-for-byte
  // identical to the unsharded store's result.
  const ShardedWorkload workload(40, "shardq_identity", {0, 4096, 600});
  ASSERT_EQ(workload.shard_counts[0], 1u);
  ASSERT_GT(workload.shard_counts[1], 1u);
  ASSERT_GT(workload.shard_counts[2], workload.shard_counts[1]);

  const index::SeedModel model = index::SeedModel::subset_w4();
  core::PipelineOptions options;
  options.with_traceback = true;

  const LoadedBankSet plain =
      load_bank_set(workload.plain_prefix, model, true);
  EXPECT_FALSE(plain.sharded);
  ASSERT_EQ(plain.shard_count(), 1u);
  const core::PipelineResult reference = run_query_over_set(
      workload.proteins, plain, options, bio::SubstitutionMatrix::blosum62());
  ASSERT_FALSE(reference.matches.empty());
  const std::vector<std::uint8_t> reference_bytes =
      core::encode_matches(reference.matches);

  // The unsharded set path must itself equal a direct pipeline run.
  const core::PipelineResult direct = core::run_pipeline(
      workload.proteins, workload.genome_bank, options,
      bio::SubstitutionMatrix::blosum62());
  EXPECT_EQ(core::encode_matches(direct.matches), reference_bytes);

  for (std::size_t i = 0; i < workload.sharded_prefixes.size(); ++i) {
    const LoadedBankSet set =
        load_bank_set(workload.sharded_prefixes[i], model, true);
    EXPECT_TRUE(set.sharded);
    ASSERT_EQ(set.shard_count(), workload.shard_counts[i]);
    EXPECT_EQ(set.total_sequences, workload.genome_bank.size());
    EXPECT_EQ(set.total_residues, workload.genome_bank.total_residues());
    const core::PipelineResult fanned =
        run_query_over_set(workload.proteins, set, options,
                           bio::SubstitutionMatrix::blosum62());
    EXPECT_EQ(core::encode_matches(fanned.matches), reference_bytes)
        << "shards=" << workload.shard_counts[i];
    // Per-pair work partitions across shards, so the summed counters
    // must reproduce the unsharded totals exactly.
    EXPECT_EQ(fanned.counters.step2_pairs, reference.counters.step2_pairs);
    EXPECT_EQ(fanned.counters.step2_hits, reference.counters.step2_hits);
    EXPECT_EQ(fanned.counters.step3_extensions,
              reference.counters.step3_extensions);
    EXPECT_EQ(fanned.counters.bank1_occurrences,
              reference.counters.bank1_occurrences);
  }
}

/// The smallest shard cap whose plan splits `bank` into at most `shards`
/// pieces (plan_shards' count only falls as the cap grows).
std::uint64_t cap_for_shards(const bio::SequenceBank& bank,
                             std::size_t shards) {
  std::uint64_t lo = 1;
  std::uint64_t hi = std::uint64_t{1} << 32;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (store::plan_shards(bank, mid).size() <= shards) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TEST(ShardQuery, OneProteinQueryIsBitIdenticalAtEveryShardCount) {
  // A one-protein query occupies a few hundred seed keys of each shard
  // pass; step 2 walks only those, at every shard count.
  ShardedWorkload workload(45, "shardq_one_protein", {});
  const index::SeedModel model = index::SeedModel::subset_w4();
  for (const std::size_t shards : {1u, 6u, 17u}) {
    const std::uint64_t cap =
        shards == 1 ? 0 : cap_for_shards(workload.genome_bank, shards);
    const std::string prefix =
        workload.plain_prefix + "_n" + std::to_string(shards);
    const store::ShardManifest manifest =
        store::write_sharded_store(prefix, workload.genome_bank, model, cap);
    workload.sharded_prefixes.push_back(prefix);
    workload.shard_counts.push_back(manifest.shards.size());
    ASSERT_EQ(manifest.shards.size(), shards);
  }

  core::PipelineOptions options;
  options.with_traceback = true;
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const LoadedBankSet plain =
      load_bank_set(workload.plain_prefix, model, true);
  for (const std::size_t q : {0u, 2u}) {
    const bio::SequenceBank query = workload.query(q);
    const core::PipelineResult reference =
        run_query_over_set(query, plain, options, matrix);
    ASSERT_FALSE(reference.matches.empty()) << "query " << q;
    const std::vector<std::uint8_t> reference_bytes =
        core::encode_matches(reference.matches);
    for (std::size_t i = 0; i < workload.sharded_prefixes.size(); ++i) {
      const LoadedBankSet set =
          load_bank_set(workload.sharded_prefixes[i], model, true);
      ASSERT_EQ(set.shard_count(), workload.shard_counts[i]);
      const core::PipelineResult fanned =
          run_query_over_set(query, set, options, matrix);
      EXPECT_EQ(core::encode_matches(fanned.matches), reference_bytes)
          << "query " << q << " shards=" << workload.shard_counts[i];
      EXPECT_EQ(fanned.counters.step2_pairs, reference.counters.step2_pairs);
      EXPECT_EQ(fanned.counters.step2_hits, reference.counters.step2_hits);
    }
  }
}

TEST(ShardService, ShardedBankAnswersIdenticallyThroughService) {
  const ShardedWorkload workload(41, "shardq_service", {800});
  ASSERT_GT(workload.shard_counts[0], 1u);
  ServiceConfig config;
  config.max_resident = 1 + workload.shard_counts[0];
  SearchService service(config);

  const QueryResult plain =
      service.submit(workload.proteins, workload.plain_prefix).get();
  const QueryResult sharded =
      service.submit(workload.proteins, workload.sharded_prefixes[0]).get();
  ASSERT_FALSE(plain.matches.empty());
  EXPECT_EQ(core::encode_matches(sharded.matches),
            core::encode_matches(plain.matches));

  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.resident_banks, 2u);
  EXPECT_EQ(stats.resident_shards, 1u + workload.shard_counts[0]);
}

TEST(ShardService, LruEvictsWholeSetsNeverPartialOnes) {
  const ShardedWorkload a(42, "shardq_lru_a", {700});
  const ShardedWorkload b(43, "shardq_lru_b", {});
  const ShardedWorkload c(44, "shardq_lru_c", {});
  const std::size_t a_shards = a.shard_counts[0];
  ASSERT_GE(a_shards, 3u);

  ServiceConfig config;
  config.max_resident = a_shards + 1;
  SearchService service(config);

  service.submit(a.query(0), a.sharded_prefixes[0]).get();  // set resident
  service.submit(b.query(0), b.plain_prefix).get();  // fills the cap
  ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.resident_banks, 2u);
  EXPECT_EQ(stats.resident_shards, a_shards + 1);
  EXPECT_EQ(stats.evictions, 0u);

  // One more plain bank does not fit; the whole shard set (the oldest
  // entry) goes at once -- never some of its shards.
  service.submit(c.query(0), c.plain_prefix).get();
  stats = service.snapshot();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_banks, 2u);
  EXPECT_EQ(stats.resident_shards, 2u);

  EXPECT_TRUE(service.submit(b.query(1), b.plain_prefix)
                  .get()
                  .bank_was_resident);
  EXPECT_FALSE(service.submit(a.query(1), a.sharded_prefixes[0])
                   .get()
                   .bank_was_resident);
}

TEST(ShardService, SetLargerThanCapIsServedTransiently) {
  const ShardedWorkload big(45, "shardq_big", {700});
  const ShardedWorkload small(46, "shardq_small", {});
  ASSERT_GT(big.shard_counts[0], 2u);
  ServiceConfig config;
  config.max_resident = 2;
  SearchService service(config);

  service.submit(small.query(0), small.plain_prefix).get();
  // The oversized set is answered correctly but cached nowhere, and it
  // does not push the resident plain bank out to make room it could
  // never use.
  const QueryResult reply =
      service.submit(big.proteins, big.sharded_prefixes[0]).get();
  EXPECT_FALSE(reply.matches.empty());
  ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_banks, 1u);
  EXPECT_EQ(stats.resident_shards, 1u);
  EXPECT_TRUE(service.submit(small.query(0), small.plain_prefix)
                  .get()
                  .bank_was_resident);
  EXPECT_FALSE(service.submit(big.query(0), big.sharded_prefixes[0])
                   .get()
                   .bank_was_resident);
}

TEST(ShardService, RefreshAdoptsAppendedGenerationByteIdentically) {
  // The live-ingest acceptance bar at the service level: an appended
  // generation is invisible until refresh_manifest (the serving
  // generation is pinned by revision), and after the refresh the answer
  // is byte-identical to a from-scratch rebuild of the combined bank.
  const ShardedWorkload workload(51, "shardq_refresh", {800});
  const std::string prefix = workload.sharded_prefixes[0];
  const std::size_t base_shards = workload.shard_counts[0];
  ASSERT_GT(base_shards, 1u);
  const index::SeedModel model = index::SeedModel::subset_w4();

  ServiceConfig config;
  config.max_resident = 4 * base_shards + 8;
  SearchService service(config);

  const QueryResult before = service.submit(workload.proteins, prefix).get();
  ASSERT_FALSE(before.matches.empty());

  // The delta: a second planted genome's translated fragments, so the
  // next generation genuinely answers differently (bigger search space
  // shifts E-values; new fragments add matches).
  util::Xoshiro256 rng(52);
  sim::GenomeConfig gconfig;
  gconfig.length = 8000;
  gconfig.seed = 52;
  bio::Sequence genome2 = sim::generate_genome(gconfig);
  sim::MutationConfig divergence;
  divergence.substitution_rate = 0.1;
  divergence.indel_rate = 0.0;
  sim::plant_gene(genome2,
                  sim::mutate_protein(workload.proteins[1], divergence, rng),
                  2000, true, rng);
  const bio::SequenceBank delta =
      bio::frames_to_bank(bio::translate_six_frames(genome2));
  const store::ShardManifest extended =
      store::append_sharded_store(prefix, delta, model);
  EXPECT_EQ(extended.revision, 2u);

  // Un-refreshed: the pinned generation still answers exactly as before,
  // from residency.
  const QueryResult pinned = service.submit(workload.proteins, prefix).get();
  EXPECT_TRUE(pinned.bank_was_resident);
  EXPECT_EQ(core::encode_matches(pinned.matches),
            core::encode_matches(before.matches));

  // Refresh: the service adopts revision 2 and the next pass runs over
  // the extended set.
  EXPECT_EQ(service.refresh_manifest(prefix), 2u);
  const QueryResult after = service.submit(workload.proteins, prefix).get();
  EXPECT_FALSE(after.bank_was_resident);
  EXPECT_NE(core::encode_matches(after.matches),
            core::encode_matches(before.matches));

  // The proof: a from-scratch full rebuild of the combined bank (with
  // its own shard boundaries) answers byte-for-byte the same.
  bio::SequenceBank combined(bio::SequenceKind::kProtein);
  for (const bio::Sequence& s : workload.genome_bank) combined.add(s);
  for (const bio::Sequence& s : delta) combined.add(s);
  const std::string rebuilt = ::testing::TempDir() + "/shardq_refresh_rebuilt";
  const store::ShardManifest rebuilt_manifest =
      store::write_sharded_store(rebuilt, combined, model, 800);
  const QueryResult reference =
      service.submit(workload.proteins, rebuilt).get();
  EXPECT_EQ(core::encode_matches(after.matches),
            core::encode_matches(reference.matches));

  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.manifest_refreshes, 1u);
  // Loading generation 2 adopted every still-valid shard from the
  // resident generation 1 instead of re-reading it from disk.
  EXPECT_EQ(stats.refresh_shards_reused, base_shards);
  EXPECT_EQ(stats.store_revision, 2u);

  const std::string tail =
      store::shard_prefix(prefix, extended.shards.size() - 1);
  std::remove((tail + ".pscbank").c_str());
  std::remove((tail + ".pscidx").c_str());
  std::remove(store::manifest_path(rebuilt).c_str());
  for (std::size_t s = 0; s < rebuilt_manifest.shards.size(); ++s) {
    const std::string pair = store::shard_prefix(rebuilt, s);
    std::remove((pair + ".pscbank").c_str());
    std::remove((pair + ".pscidx").c_str());
  }
}

TEST(ShardService, EvictionKeysGenerationsByRevisionNotPrefix) {
  // The satellite-2 regression: with two generations of one prefix
  // resident (pre- and post-refresh), whole-set eviction must take
  // exactly the stale generation -- pins are keyed by manifest revision,
  // not by prefix alone. A prefix-keyed eviction would tear shards out
  // from under the other generation (ASan catches the use-after-free).
  const ShardedWorkload a(53, "shardq_gen_a", {700});
  const ShardedWorkload b(54, "shardq_gen_b", {});
  const std::size_t n = a.shard_counts[0];
  ASSERT_GE(n, 2u);
  const index::SeedModel model = index::SeedModel::subset_w4();

  ServiceConfig config;
  config.max_resident = 2 * n + 1;  // both generations, nothing more
  SearchService service(config);

  const QueryResult gen1 = service.submit(a.proteins, a.sharded_prefixes[0]).get();

  // An empty delta is the smallest legal ingest tick: revision 2, one
  // empty tail shard, same content.
  const bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const store::ShardManifest extended =
      store::append_sharded_store(a.sharded_prefixes[0], empty, model);
  EXPECT_EQ(service.refresh_manifest(a.sharded_prefixes[0]), 2u);

  const QueryResult gen2 = service.submit(a.proteins, a.sharded_prefixes[0]).get();
  EXPECT_EQ(core::encode_matches(gen2.matches),
            core::encode_matches(gen1.matches));
  ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.resident_banks, 2u);  // both generations, same prefix
  EXPECT_EQ(stats.resident_shards, n + (n + 1));
  EXPECT_EQ(stats.refresh_shards_reused, n);

  // A plain bank overflows the cap: the stale generation (the LRU
  // entry) goes as a whole; the serving generation keeps every shard.
  service.submit(b.query(0), b.plain_prefix).get();
  stats = service.snapshot();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_banks, 2u);
  EXPECT_EQ(stats.resident_shards, (n + 1) + 1);
  const QueryResult still_resident =
      service.submit(a.proteins, a.sharded_prefixes[0]).get();
  EXPECT_TRUE(still_resident.bank_was_resident);
  EXPECT_EQ(core::encode_matches(still_resident.matches),
            core::encode_matches(gen1.matches));

  const std::string tail =
      store::shard_prefix(a.sharded_prefixes[0], extended.shards.size() - 1);
  std::remove((tail + ".pscbank").c_str());
  std::remove((tail + ".pscidx").c_str());
}

TEST(ShardService, EvictedPinReloadsAtTheOnDiskRevisionConsistently) {
  // A revision pin is only as durable as residency: once the pinned
  // generation is evicted, the superseding append has already replaced
  // the manifest on disk, so the reload can only produce the new
  // revision. The regression: the entry must be KEYED by what was
  // actually loaded (and the pin moved forward), or a revision-1 key
  // caches revision-2 data -- the later refresh_manifest(2) then misses
  // its own resident set and reloads a generation it already holds.
  const ShardedWorkload a(55, "shardq_pin_a", {700});
  const ShardedWorkload b(56, "shardq_pin_b", {400});
  const std::size_t n = a.shard_counts[0];
  const std::size_t m = b.shard_counts[0];
  ASSERT_GE(n, 2u);
  ASSERT_GE(m, 2u);
  const index::SeedModel model = index::SeedModel::subset_w4();

  ServiceConfig config;
  // Either set fits alone, never both: loading `b` must EVICT `a`'s
  // pinned generation (not serve transiently past the cap).
  config.max_resident = n + m - 1;
  SearchService service(config);

  const QueryResult gen1 = service.submit(a.proteins, a.sharded_prefixes[0]).get();

  // `b`'s set overflows the cap and evicts `a`'s pinned generation.
  service.submit(b.proteins, b.sharded_prefixes[0]).get();
  EXPECT_EQ(service.snapshot().evictions, 1u);

  // The append lands while nothing of `a` is resident.
  const bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const store::ShardManifest extended =
      store::append_sharded_store(a.sharded_prefixes[0], empty, model);
  EXPECT_EQ(extended.revision, 2u);

  // Un-refreshed query: the reload adopts the on-disk revision 2 (the
  // empty delta keeps the answer identical) and the stats say so.
  const QueryResult reloaded =
      service.submit(a.proteins, a.sharded_prefixes[0]).get();
  EXPECT_FALSE(reloaded.bank_was_resident);
  EXPECT_EQ(core::encode_matches(reloaded.matches),
            core::encode_matches(gen1.matches));
  EXPECT_EQ(service.snapshot().store_revision, 2u);

  // The refresh is now a no-op for residency: the set loaded above was
  // keyed at revision 2, so the next pass HITS instead of reloading.
  EXPECT_EQ(service.refresh_manifest(a.sharded_prefixes[0]), 2u);
  const QueryResult after = service.submit(a.proteins, a.sharded_prefixes[0]).get();
  EXPECT_TRUE(after.bank_was_resident);
  EXPECT_EQ(core::encode_matches(after.matches),
            core::encode_matches(gen1.matches));

  const std::string tail =
      store::shard_prefix(a.sharded_prefixes[0], extended.shards.size() - 1);
  std::remove((tail + ".pscbank").c_str());
  std::remove((tail + ".pscidx").c_str());
}

TEST(ShardService, CompressedStoreAnswersByteIdentically) {
  // Cold-shard compression is a storage decision, not a semantic one:
  // the same bank saved compressed answers byte-for-byte identically,
  // and the v6 gauge reports the resident compressed shards.
  const ShardedWorkload workload(55, "shardq_cmp", {800});
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string packed = ::testing::TempDir() + "/shardq_cmp_packed";
  const store::ShardManifest packed_manifest = store::write_sharded_store(
      packed, workload.genome_bank, model, 800, /*threads=*/0,
      /*serial_index=*/false, /*compress=*/true);
  EXPECT_EQ(packed_manifest.shards.size(), workload.shard_counts[0]);

  ServiceConfig config;
  config.max_resident = 2 * workload.shard_counts[0] + 2;
  SearchService service(config);
  const QueryResult plain =
      service.submit(workload.proteins, workload.sharded_prefixes[0]).get();
  const QueryResult compressed =
      service.submit(workload.proteins, packed).get();
  ASSERT_FALSE(plain.matches.empty());
  EXPECT_EQ(core::encode_matches(compressed.matches),
            core::encode_matches(plain.matches));

  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.resident_compressed_shards, packed_manifest.shards.size());

  std::remove(store::manifest_path(packed).c_str());
  for (std::size_t s = 0; s < packed_manifest.shards.size(); ++s) {
    const std::string pair = store::shard_prefix(packed, s);
    std::remove((pair + ".pscbank").c_str());
    std::remove((pair + ".pscidx").c_str());
  }
}

TEST(ShardService, ShardSwappedForAnotherBankIsRejected) {
  // Two self-consistent sharded stores; grafting one store's shard pair
  // into the other passes every per-file check and must still die on the
  // manifest's recorded bank checksum, as a typed error on the future.
  const ShardedWorkload a(47, "shardq_swap_a", {700});
  const ShardedWorkload b(48, "shardq_swap_b", {700});
  ASSERT_GE(a.shard_counts[0], 2u);
  ASSERT_GE(b.shard_counts[0], 2u);

  const std::string a0 = store::shard_prefix(a.sharded_prefixes[0], 0);
  const std::string b0 = store::shard_prefix(b.sharded_prefixes[0], 0);
  const std::vector<char> original_bank = slurp(a0 + ".pscbank");
  const std::vector<char> original_index = slurp(a0 + ".pscidx");
  spit(a0 + ".pscbank", slurp(b0 + ".pscbank"));
  spit(a0 + ".pscidx", slurp(b0 + ".pscidx"));

  SearchService service;
  auto poisoned = service.submit(a.query(0), a.sharded_prefixes[0]);
  EXPECT_THROW(
      {
        try {
          poisoned.get();
        } catch (const store::StoreError& e) {
          EXPECT_EQ(e.code(), store::StoreErrorCode::kBankMismatch);
          throw;
        }
      },
      store::StoreError);

  // Restoring the real shard restores service.
  spit(a0 + ".pscbank", original_bank);
  spit(a0 + ".pscidx", original_index);
  EXPECT_FALSE(
      service.submit(a.proteins, a.sharded_prefixes[0]).get().matches.empty());
}

TEST(ShardService, IndexFromAnotherBankIsRejectedUnsharded) {
  // The plain-pair variant of the same defense: a v2 index recording
  // bank A's checksum must refuse to load over bank B even though both
  // files are individually intact.
  const ShardedWorkload a(49, "shardq_cross_a", {});
  const ShardedWorkload b(50, "shardq_cross_b", {});
  const std::vector<char> original = slurp(a.plain_prefix + ".pscidx");
  spit(a.plain_prefix + ".pscidx", slurp(b.plain_prefix + ".pscidx"));

  SearchService service;
  auto poisoned = service.submit(a.query(0), a.plain_prefix);
  EXPECT_THROW(
      {
        try {
          poisoned.get();
        } catch (const store::StoreError& e) {
          EXPECT_EQ(e.code(), store::StoreErrorCode::kBankMismatch);
          throw;
        }
      },
      store::StoreError);
  spit(a.plain_prefix + ".pscidx", original);
}

}  // namespace
}  // namespace psc::service
