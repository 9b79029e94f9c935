#include "service/search_service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "bio/translate.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "store/bank_store.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "util/rng.hpp"

namespace psc::service {
namespace {

/// A saved reference bank: proteins planted into a genome, translated,
/// indexed and written to <prefix>.pscbank/.pscidx for the service to
/// load. Removes the files on destruction.
struct SavedBank {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::SequenceBank genome_bank{bio::SequenceKind::kProtein};
  std::string prefix;

  explicit SavedBank(std::uint64_t seed, const std::string& name) {
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

    prefix = ::testing::TempDir() + "/" + name;
    const index::SeedModel model = index::SeedModel::subset_w4();
    const index::IndexTable table(genome_bank, model);
    store::save_bank(prefix + ".pscbank", genome_bank);
    store::save_index(prefix + ".pscidx", table, model);
  }

  ~SavedBank() {
    std::remove((prefix + ".pscbank").c_str());
    std::remove((prefix + ".pscidx").c_str());
  }

  /// A single-protein query bank around member `i`.
  bio::SequenceBank query(std::size_t i) const {
    bio::SequenceBank bank(bio::SequenceKind::kProtein);
    bank.add(proteins[i]);
    return bank;
  }
};

TEST(SearchService, MatchesDirectPipelineRun) {
  const SavedBank saved(1, "svc_direct");
  ServiceConfig config;
  SearchService service(config);
  const QueryResult reply = service.submit(saved.proteins, saved.prefix).get();

  core::PipelineResult direct = core::run_pipeline(
      saved.proteins, saved.genome_bank, config.options, config.matrix);
  ASSERT_FALSE(reply.matches.empty());
  ASSERT_EQ(reply.matches.size(), direct.matches.size());
  for (std::size_t i = 0; i < reply.matches.size(); ++i) {
    EXPECT_EQ(reply.matches[i].bank0_sequence,
              direct.matches[i].bank0_sequence);
    EXPECT_EQ(reply.matches[i].bank1_sequence,
              direct.matches[i].bank1_sequence);
    EXPECT_EQ(reply.matches[i].alignment.score,
              direct.matches[i].alignment.score);
  }
  EXPECT_GT(reply.latency_seconds, 0.0);
  EXPECT_EQ(reply.batch_size, 1u);
  EXPECT_FALSE(reply.bank_was_resident);
}

TEST(SearchService, CacheHitsOnRepeatQueries) {
  const SavedBank saved(2, "svc_cache");
  SearchService service;
  const QueryResult first = service.submit(saved.query(0), saved.prefix).get();
  const QueryResult second = service.submit(saved.query(2), saved.prefix).get();
  EXPECT_FALSE(first.bank_was_resident);
  EXPECT_TRUE(second.bank_was_resident);

  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.queries_submitted, 2u);
  EXPECT_EQ(stats.queries_completed, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.resident_banks, 1u);
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_GT(stats.total_latency_seconds, 0.0);
}

TEST(SearchService, CoalescesBatchedQueriesIntoOnePass) {
  const SavedBank saved(3, "svc_batch");
  SearchService service;
  // Warm the cache so the batch below is one clean coalesced pass.
  service.submit(saved.query(1), saved.prefix).get();

  std::vector<bio::SequenceBank> queries;
  for (const std::size_t i : {0u, 2u, 4u}) queries.push_back(saved.query(i));
  auto futures = service.submit_batch(std::move(queries), saved.prefix);
  ASSERT_EQ(futures.size(), 3u);

  // Each coalesced reply must equal its own individual search.
  const std::size_t members[] = {0, 2, 4};
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const QueryResult reply = futures[q].get();
    EXPECT_EQ(reply.batch_size, 3u);
    EXPECT_TRUE(reply.bank_was_resident);
    const QueryResult solo = service.submit(saved.query(members[q]), saved.prefix).get();
    ASSERT_EQ(reply.matches.size(), solo.matches.size());
    for (std::size_t m = 0; m < reply.matches.size(); ++m) {
      EXPECT_EQ(reply.matches[m].bank0_sequence, 0u);
      EXPECT_EQ(reply.matches[m].bank1_sequence,
                solo.matches[m].bank1_sequence);
      EXPECT_EQ(reply.matches[m].alignment.score,
                solo.matches[m].alignment.score);
    }
  }

  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.max_batch, 3u);
  // 1 warmup + 1 coalesced + 3 solo = 5 passes, 7 queries.
  EXPECT_EQ(stats.batches, 5u);
  EXPECT_EQ(stats.queries_completed, 7u);
}

TEST(SearchService, LruEvictsLeastRecentlyUsedBank) {
  const SavedBank a(4, "svc_lru_a");
  const SavedBank b(5, "svc_lru_b");
  const SavedBank c(6, "svc_lru_c");
  ServiceConfig config;
  config.max_resident = 2;
  SearchService service(config);

  service.submit(a.query(0), a.prefix).get();  // miss, cache {a}
  service.submit(b.query(0), b.prefix).get();  // miss, cache {a,b}
  service.submit(a.query(1), a.prefix).get();  // hit, a freshened
  service.submit(c.query(0), c.prefix).get();  // miss, evicts b
  const QueryResult again_a = service.submit(a.query(2), a.prefix).get();  // hit
  EXPECT_TRUE(again_a.bank_was_resident);
  const QueryResult again_b = service.submit(b.query(1), b.prefix).get();  // miss
  EXPECT_FALSE(again_b.bank_was_resident);

  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_banks, 2u);
}

TEST(SearchService, CapacityZeroNeverCaches) {
  const SavedBank saved(7, "svc_nocache");
  ServiceConfig config;
  config.max_resident = 0;
  SearchService service(config);
  service.submit(saved.query(0), saved.prefix).get();
  const QueryResult second = service.submit(saved.query(0), saved.prefix).get();
  EXPECT_FALSE(second.bank_was_resident);
  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.resident_banks, 0u);
}

TEST(SearchService, MissingBankFailsThatQueryOnly) {
  const SavedBank saved(8, "svc_missing");
  SearchService service;
  auto bad = service.submit(saved.query(0), saved.prefix + "_nonexistent");
  EXPECT_THROW(
      {
        try {
          bad.get();
        } catch (const store::StoreError& e) {
          EXPECT_EQ(e.code(), store::StoreErrorCode::kIo);
          throw;
        }
      },
      store::StoreError);
  // The service keeps serving after a failed load.
  const QueryResult good = service.submit(saved.proteins, saved.prefix).get();
  EXPECT_FALSE(good.matches.empty());
  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.queries_failed, 1u);
  EXPECT_EQ(stats.queries_completed, 1u);
}

TEST(SearchService, QueriesIndexingNoWordAreAnsweredEmpty) {
  // Shorter than W, and every word holding an X: no seed key is
  // occupied, and the default host-parallel overlapped pass must still
  // answer -- and leave the worker free for the next query.
  const SavedBank saved(11, "svc_no_words");
  SearchService service;
  for (const char* letters : {"MKV", "MKXLAXKVXW"}) {
    bio::SequenceBank query(bio::SequenceKind::kProtein);
    query.add(bio::Sequence::protein_from_letters("q", letters));
    const QueryResult reply = service.submit(query, saved.prefix).get();
    EXPECT_TRUE(reply.matches.empty()) << letters;
  }
  const QueryResult good = service.submit(saved.query(0), saved.prefix).get();
  EXPECT_FALSE(good.matches.empty());
  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.queries_completed, 3u);
  EXPECT_EQ(stats.queries_failed, 0u);
}

TEST(SearchService, RejectsNonProteinQueries) {
  SearchService service;
  bio::SequenceBank dna(bio::SequenceKind::kDna);
  dna.add(bio::Sequence::dna_from_letters("g", "ACGT"));
  EXPECT_THROW(service.submit(dna, "anything"), std::invalid_argument);
}

TEST(SearchService, TracksPerBatchLatency) {
  const SavedBank saved(10, "svc_latency");
  SearchService service;
  service.submit(saved.query(0), saved.prefix).get();
  ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_GT(stats.total_batch_latency_seconds, 0.0);
  EXPECT_GT(stats.max_batch_latency_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_batch_latency_seconds,
                   stats.total_batch_latency_seconds);
  // A batch's latency is its slowest member's, so the per-batch total can
  // never exceed the per-query total.
  EXPECT_LE(stats.total_batch_latency_seconds,
            stats.total_latency_seconds + 1e-12);

  service.submit(saved.query(1), saved.prefix).get();
  stats = service.snapshot();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_NEAR(stats.mean_batch_latency_seconds,
              stats.total_batch_latency_seconds / 2.0, 1e-12);
  EXPECT_GE(stats.max_batch_latency_seconds,
            stats.mean_batch_latency_seconds);
  EXPECT_LE(stats.max_batch_latency_seconds,
            stats.total_batch_latency_seconds + 1e-12);
}

TEST(SearchService, RequestsWithDifferingOptionsDoNotCoalesce) {
  const SavedBank saved(11, "svc_opts_split");
  SearchService service;
  service.submit(saved.query(0), saved.prefix).get();  // warm the cache

  std::vector<ServiceRequest> requests(2);
  for (ServiceRequest& request : requests) {
    request.query = saved.query(0);
    request.bank_prefix = saved.prefix;
    request.options = service.default_query_options();
  }
  requests[1].options.e_value_cutoff *= 10.0;
  auto futures = service.submit_batch(std::move(requests));
  EXPECT_EQ(futures[0].get().batch_size, 1u);
  EXPECT_EQ(futures[1].get().batch_size, 1u);
  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.batches, 3u);  // warm-up pass + one per option group
  EXPECT_EQ(stats.queries_completed, 3u);
}

TEST(SearchService, PerQueryOptionsControlTraceback) {
  const SavedBank saved(12, "svc_opts_tb");
  SearchService service;
  ServiceRequest with;
  with.query = saved.proteins;
  with.bank_prefix = saved.prefix;
  with.options = service.default_query_options();
  with.options.with_traceback = true;
  ServiceRequest without = with;
  without.query = saved.proteins;
  without.options.with_traceback = false;

  const QueryResult traced = service.submit(std::move(with)).get();
  const QueryResult plain = service.submit(std::move(without)).get();
  ASSERT_FALSE(traced.matches.empty());
  ASSERT_EQ(traced.matches.size(), plain.matches.size());
  EXPECT_FALSE(traced.matches.front().alignment.ops.empty());
  for (const core::Match& match : plain.matches) {
    EXPECT_TRUE(match.alignment.ops.empty());
  }
}

TEST(QueryOptions, FingerprintSeparatesEveryField) {
  const QueryOptions base;
  QueryOptions traceback = base;
  traceback.with_traceback = true;
  QueryOptions composition = base;
  composition.composition_based_stats = true;
  QueryOptions cutoff = base;
  cutoff.e_value_cutoff = 10.0;

  EXPECT_EQ(base.fingerprint(), QueryOptions{}.fingerprint());
  EXPECT_NE(base.fingerprint(), traceback.fingerprint());
  EXPECT_NE(base.fingerprint(), composition.fingerprint());
  EXPECT_NE(base.fingerprint(), cutoff.fingerprint());
  EXPECT_NE(traceback.fingerprint(), composition.fingerprint());
}

TEST(QueryOptions, GroupKeySeparatesTheFullOptionGrid) {
  // The grouping key must keep every distinct option set apart -- the
  // property the coalescer relies on. Walk the whole grid: a spread of
  // cutoffs (including denormal, huge and sign-of-zero cases) crossed
  // with every flag combination.
  const double cutoffs[] = {1e-300, 1e-12,  1e-6, 1e-3, 0.5,
                            1.0,    10.0,   1e6,  1e300, 5e-324,
                            0.0,    -0.0};
  const double spaces[] = {0.0, 1.0, 2.5e7};
  std::vector<CoalesceKey> keys;
  for (const double cutoff : cutoffs) {
    for (const double space : spaces) {
      for (const bool traceback : {false, true}) {
        for (const bool composition : {false, true}) {
          QueryOptions options;
          options.e_value_cutoff = cutoff;
          options.search_space_residues = space;
          options.with_traceback = traceback;
          options.composition_based_stats = composition;
          keys.push_back(options.group_key());
        }
      }
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << "grid entries " << i << " and " << j
                                  << " coalesced";
    }
  }
}

/// Two *distinct* option sets engineered to share a fingerprint: with
/// fp = (bits * K) ^ flags and K odd (so invertible mod 2^64), picking
/// bits' = ((bits * K) ^ 1) * K^-1 and flipping with_traceback collides
/// exactly. The worker must still keep them in separate passes.
std::pair<QueryOptions, QueryOptions> colliding_options() {
  constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ull;
  std::uint64_t inverse = kMultiplier;  // Newton: doubles correct bits
  for (int i = 0; i < 6; ++i) {
    inverse *= 2 - kMultiplier * inverse;
  }
  QueryOptions a;
  a.e_value_cutoff = 1e-3;
  a.with_traceback = false;
  std::uint64_t a_bits = 0;
  std::memcpy(&a_bits, &a.e_value_cutoff, sizeof(a_bits));
  QueryOptions b;
  const std::uint64_t b_bits = ((a_bits * kMultiplier) ^ 1u) * inverse;
  std::memcpy(&b.e_value_cutoff, &b_bits, sizeof(b_bits));
  b.with_traceback = true;
  return {a, b};
}

TEST(QueryOptions, EngineeredFingerprintCollisionKeepsDistinctGroupKeys) {
  const auto [a, b] = colliding_options();
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.group_key(), b.group_key());
}

TEST(SearchService, FingerprintCollisionDoesNotCoalescePasses) {
  // The regression the exact grouping key exists for: were the worker to
  // group by fingerprint(), these two requests would share one pass and
  // one of them would be answered under the other's cutoff.
  const SavedBank saved(13, "svc_collision");
  SearchService service;
  service.submit(saved.query(0), saved.prefix).get();  // warm the cache

  const auto [a, b] = colliding_options();
  std::vector<ServiceRequest> requests(2);
  requests[0].query = saved.query(0);
  requests[0].bank_prefix = saved.prefix;
  requests[0].options = a;
  requests[1].query = saved.query(0);
  requests[1].bank_prefix = saved.prefix;
  requests[1].options = b;
  auto futures = service.submit_batch(std::move(requests));
  EXPECT_EQ(futures[0].get().batch_size, 1u);
  EXPECT_EQ(futures[1].get().batch_size, 1u);
  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.batches, 3u);  // warm-up + one per colliding option set
}

TEST(ServiceCodec, QueryResultRoundTrips) {
  QueryResult result;
  result.latency_seconds = 0.25;
  result.batch_size = 3;
  result.bank_was_resident = true;
  core::Match match;
  match.bank0_sequence = 1;
  match.bank1_sequence = 9;
  match.alignment.score = 77;
  match.alignment.begin0 = 4;
  match.alignment.end0 = 40;
  match.alignment.begin1 = 5;
  match.alignment.end1 = 41;
  match.alignment.ops = {align::Op::kMatch, align::Op::kInsert0,
                         align::Op::kInsert1, align::Op::kMatch};
  match.bit_score = 33.5;
  match.e_value = 1e-9;
  result.matches.push_back(match);

  const std::vector<std::uint8_t> bytes = encode_query_result(result);
  const QueryResult decoded = decode_query_result(bytes);
  EXPECT_EQ(decoded.batch_size, result.batch_size);
  EXPECT_EQ(decoded.bank_was_resident, result.bank_was_resident);
  EXPECT_DOUBLE_EQ(decoded.latency_seconds, result.latency_seconds);
  ASSERT_EQ(decoded.matches.size(), 1u);
  EXPECT_EQ(decoded.matches[0].bank1_sequence, 9u);
  EXPECT_EQ(decoded.matches[0].alignment.ops, match.alignment.ops);

  // Truncations and trailing garbage are typed errors, never crashes.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(decode_query_result(prefix), core::CodecError);
  }
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(decode_query_result(padded), core::CodecError);
}

TEST(ServiceCodec, ServiceStatsRoundTrips) {
  ServiceStats stats;
  stats.queries_submitted = 11;
  stats.queries_completed = 10;
  stats.queries_failed = 1;
  stats.batches = 4;
  stats.cache_hits = 3;
  stats.cache_misses = 1;
  stats.evictions = 2;
  stats.max_batch = 5;
  stats.total_latency_seconds = 1.5;
  stats.total_batch_latency_seconds = 0.9;
  stats.max_batch_latency_seconds = 0.5;
  stats.mean_batch_latency_seconds = 0.225;
  stats.queue_depth = 7;
  stats.resident_banks = 2;

  const std::vector<std::uint8_t> bytes = encode_service_stats(stats);
  const ServiceStats decoded = decode_service_stats(bytes);
  EXPECT_EQ(decoded.queries_submitted, stats.queries_submitted);
  EXPECT_EQ(decoded.queries_completed, stats.queries_completed);
  EXPECT_EQ(decoded.queries_failed, stats.queries_failed);
  EXPECT_EQ(decoded.batches, stats.batches);
  EXPECT_EQ(decoded.cache_hits, stats.cache_hits);
  EXPECT_EQ(decoded.cache_misses, stats.cache_misses);
  EXPECT_EQ(decoded.evictions, stats.evictions);
  EXPECT_EQ(decoded.max_batch, stats.max_batch);
  EXPECT_DOUBLE_EQ(decoded.total_latency_seconds,
                   stats.total_latency_seconds);
  EXPECT_DOUBLE_EQ(decoded.total_batch_latency_seconds,
                   stats.total_batch_latency_seconds);
  EXPECT_DOUBLE_EQ(decoded.max_batch_latency_seconds,
                   stats.max_batch_latency_seconds);
  EXPECT_DOUBLE_EQ(decoded.mean_batch_latency_seconds,
                   stats.mean_batch_latency_seconds);
  EXPECT_EQ(decoded.queue_depth, stats.queue_depth);
  EXPECT_EQ(decoded.resident_banks, stats.resident_banks);

  std::vector<std::uint8_t> skewed = bytes;
  skewed[0] = 0xff;  // version byte
  EXPECT_THROW(decode_service_stats(skewed), core::CodecError);
}

TEST(SearchService, FairSchedulerKeepsRepliesByteIdentical) {
  // The acceptance bar for tenancy: fairness and quotas may reorder or
  // reject, but an ADMITTED query's reply bytes never change. A skewed
  // two-tenant stream is run through a FIFO service and a weighted-fair
  // one; every reply must match byte for byte.
  const SavedBank saved(11, "svc_fair_bytes");
  const auto run = [&](bool fair) {
    ServiceConfig config;
    config.fair_scheduler = fair;
    config.fair_quantum = 64;  // tiny quantum: maximal reordering
    TenantPolicy heavy;
    heavy.weight = 10.0;
    config.tenants.tenants["heavy"] = heavy;
    SearchService service(config);

    std::vector<ServiceRequest> requests;
    for (const std::size_t i : {0u, 2u, 4u, 1u}) {
      ServiceRequest request;
      request.query = saved.query(i);
      request.bank_prefix = saved.prefix;
      request.options = service.default_query_options();
      request.tenant.name = i == 1u ? "light" : "heavy";
      requests.push_back(std::move(request));
    }
    std::vector<std::vector<std::uint8_t>> replies;
    for (auto& future : service.submit_batch(std::move(requests))) {
      replies.push_back(core::encode_matches(future.get().matches));
    }
    return replies;
  };

  const std::vector<std::vector<std::uint8_t>> fifo = run(false);
  const std::vector<std::vector<std::uint8_t>> fair = run(true);
  ASSERT_EQ(fifo.size(), fair.size());
  for (std::size_t i = 0; i < fifo.size(); ++i) {
    EXPECT_EQ(fifo[i], fair[i]) << "request " << i;
  }
}

TEST(SearchService, SnapshotCarriesTenantRowsAndFairFlag) {
  const SavedBank saved(12, "svc_tenant_rows");
  ServiceConfig config;
  config.fair_scheduler = true;
  SearchService service(config);

  ServiceRequest named;
  named.query = saved.query(0);
  named.bank_prefix = saved.prefix;
  named.options = service.default_query_options();
  named.tenant.name = "alice";
  service.submit(std::move(named)).get();
  // The convenience overload leaves the tenant empty -> default row.
  service.submit(saved.query(1), saved.prefix).get();

  const ServiceStats stats = service.snapshot();
  EXPECT_TRUE(stats.fair_scheduler);
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].name, "alice");
  EXPECT_EQ(stats.tenants[0].admitted, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 1u);
  EXPECT_GT(stats.tenants[0].query_residues, 0u);
  // The resident-bytes gauge settles with the request: nothing is in
  // flight at snapshot time, so nothing is charged.
  EXPECT_EQ(stats.tenants[0].resident_bytes, 0u);
  EXPECT_EQ(stats.tenants[0].queued, 0u);
  EXPECT_EQ(stats.tenants[1].name, kDefaultTenantName);
  EXPECT_EQ(stats.tenants[1].admitted, 1u);
}

TEST(SearchService, OverQuotaSubmitRejectsWithoutQueuing) {
  const SavedBank saved(13, "svc_quota");
  ServiceConfig config;
  config.tenants.default_policy.max_in_flight = 1;
  SearchService service(config);

  // A two-request batch cannot fit the single in-flight slot: admission
  // is all-or-nothing, so submit_batch throws AT SUBMIT (nothing is
  // queued, nothing runs) and rolls the first member's admit back.
  std::vector<ServiceRequest> batch;
  for (int i = 0; i < 2; ++i) {
    ServiceRequest request;
    request.query = saved.query(static_cast<std::size_t>(i));
    request.bank_prefix = saved.prefix;
    request.options = service.default_query_options();
    batch.push_back(std::move(request));
  }
  try {
    service.submit_batch(std::move(batch));
    FAIL() << "expected QuotaError";
  } catch (const QuotaError& e) {
    EXPECT_EQ(e.kind(), QuotaKind::kInFlight);
  }

  // The rollback released the slot: a single submit passes and runs.
  EXPECT_FALSE(service.submit(saved.query(2), saved.prefix).get()
                   .matches.empty());
  const ServiceStats stats = service.snapshot();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].rejected, 1u);
  EXPECT_EQ(stats.tenants[0].admitted, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 1u);
  EXPECT_EQ(stats.tenants[0].queued, 0u);
}

TEST(SearchService, DrainsPendingQueriesOnShutdown) {
  const SavedBank saved(9, "svc_drain");
  std::future<QueryResult> pending;
  {
    SearchService service;
    pending = service.submit(saved.query(0), saved.prefix);
  }  // destructor joins after draining
  const QueryResult reply = pending.get();
  EXPECT_EQ(reply.batch_size, 1u);
}

}  // namespace
}  // namespace psc::service
