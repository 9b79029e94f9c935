#include "index/index_table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/protein_generator.hpp"

namespace psc::index {
namespace {

bio::SequenceBank bank_of(std::initializer_list<const char*> proteins) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  int i = 0;
  for (const char* p : proteins) {
    bank.add(bio::Sequence::protein_from_letters("p" + std::to_string(i++), p));
  }
  return bank;
}

TEST(IndexTable, IndexesEveryWindow) {
  const auto bank = bank_of({"MKVLA"});  // 3 windows of width 3
  const SeedModel model = SeedModel::contiguous(3);
  const IndexTable table(bank, model);
  EXPECT_EQ(table.total_occurrences(), 3u);
  EXPECT_EQ(table.key_space(), model.key_space());
}

TEST(IndexTable, FindsOccurrenceAtRightPlace) {
  const auto bank = bank_of({"MKVLA", "AAMKV"});
  const SeedModel model = SeedModel::contiguous(3);
  const IndexTable table(bank, model);
  const std::vector<std::uint8_t> mkv = {
      bio::encode_protein('M'), bio::encode_protein('K'),
      bio::encode_protein('V')};
  const auto list = table.occurrences(model.key(mkv.data()));
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].sequence, 0u);
  EXPECT_EQ(list[0].offset, 0u);
  EXPECT_EQ(list[1].sequence, 1u);
  EXPECT_EQ(list[1].offset, 2u);
}

TEST(IndexTable, SkipsWordsWithNonStandardResidues) {
  const auto bank = bank_of({"MKXLA"});  // windows MKX, KXL, XLA all masked
  const IndexTable table(bank, SeedModel::contiguous(3));
  EXPECT_EQ(table.total_occurrences(), 0u);
}

TEST(IndexTable, ShortSequencesContributeNothing) {
  const auto bank = bank_of({"MK", "A", ""});
  const IndexTable table(bank, SeedModel::contiguous(3));
  EXPECT_EQ(table.total_occurrences(), 0u);
  EXPECT_EQ(table.occupied_keys().size(), 0u);
}

TEST(IndexTable, OccurrenceCountMatchesFormula) {
  // Every position with only standard residues is indexed.
  const auto bank = bank_of({"MKVLARNDCQ", "WYVH"});
  const IndexTable table(bank, SeedModel::contiguous(4));
  EXPECT_EQ(table.total_occurrences(), (10u - 3) + (4u - 3));
}

TEST(IndexTable, RepeatedWordsGroupUnderOneKey) {
  const auto bank = bank_of({"AAAAAA"});  // four AAA windows... width 3: 4
  const SeedModel model = SeedModel::contiguous(3);
  const IndexTable table(bank, model);
  EXPECT_EQ(table.occupied_keys().size(), 1u);
  EXPECT_EQ(table.max_list_length(), 4u);
}

TEST(IndexTable, SubsetSeedGroupsSimilarWords) {
  const auto bank = bank_of({"AIKA", "ALKA"});
  const IndexTable table(bank, SeedModel::subset_w4());
  // Both words share the subset key -> one populated key of length 2.
  EXPECT_EQ(table.occupied_keys().size(), 1u);
  EXPECT_EQ(table.max_list_length(), 2u);
}

TEST(IndexTable, PairCountIsProductPerKey) {
  const auto bank0 = bank_of({"AAAA"});  // two AAA windows
  const auto bank1 = bank_of({"AAAAA"});  // three AAA windows
  const SeedModel model = SeedModel::contiguous(3);
  const IndexTable t0(bank0, model);
  const IndexTable t1(bank1, model);
  EXPECT_EQ(IndexTable::pair_count(t0, t1), 6u);
}

TEST(IndexTable, PairCountMismatchedModelsThrows) {
  const auto bank = bank_of({"MKVLA"});
  const IndexTable t3(bank, SeedModel::contiguous(3));
  const IndexTable t4(bank, SeedModel::contiguous(4));
  EXPECT_THROW(IndexTable::pair_count(t3, t4), std::invalid_argument);
}

TEST(IndexTableParallel, IdenticalToSerialBuild) {
  sim::ProteinBankConfig config;
  config.count = 40;
  config.mean_length = 120;
  config.seed = 4242;
  const bio::SequenceBank bank = sim::generate_protein_bank(config);
  const SeedModel model = SeedModel::subset_w4();
  const IndexTable serial(bank, model);
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    const IndexTable parallel =
        IndexTable::build_parallel(bank, model, threads);
    ASSERT_EQ(parallel.total_occurrences(), serial.total_occurrences())
        << threads;
    for (std::size_t k = 0; k < model.key_space(); ++k) {
      const auto key = static_cast<SeedKey>(k);
      const auto a = serial.occurrences(key);
      const auto b = parallel.occurrences(key);
      ASSERT_EQ(a.size(), b.size()) << "key " << k;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "key " << k << " entry " << i;
      }
    }
  }
}

TEST(IndexTableParallel, EmptyBank) {
  const bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const IndexTable table =
      IndexTable::build_parallel(empty, SeedModel::contiguous(3), 4);
  EXPECT_EQ(table.total_occurrences(), 0u);
}

/// The reference the occupied-key list must equal: every key with a
/// non-empty list, found by walking the whole key space.
std::vector<SeedKey> dense_occupied(const IndexTable& table) {
  std::vector<SeedKey> keys;
  for (std::size_t k = 0; k < table.key_space(); ++k) {
    const auto key = static_cast<SeedKey>(k);
    if (table.list_length(key) > 0) keys.push_back(key);
  }
  return keys;
}

void expect_occupied_keys_exact(const bio::SequenceBank& bank,
                                const SeedModel& model) {
  const IndexTable serial(bank, model);
  const std::vector<SeedKey> expected = dense_occupied(serial);
  const auto got = serial.occupied_keys();
  EXPECT_EQ(std::vector<SeedKey>(got.begin(), got.end()), expected);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const IndexTable parallel = IndexTable::build_parallel(bank, model, threads);
    const auto keys = parallel.occupied_keys();
    EXPECT_EQ(std::vector<SeedKey>(keys.begin(), keys.end()), expected)
        << threads << " threads";
  }
}

TEST(IndexTableOccupiedKeys, EmptyBank) {
  const bio::SequenceBank empty(bio::SequenceKind::kProtein);
  expect_occupied_keys_exact(empty, SeedModel::subset_w4());
  EXPECT_TRUE(IndexTable(empty, SeedModel::subset_w4()).occupied_keys().empty());
}

TEST(IndexTableOccupiedKeys, SequencesShorterThanWidth) {
  const auto bank = bank_of({"MKV", "A", "", "WY"});
  expect_occupied_keys_exact(bank, SeedModel::subset_w4());
  EXPECT_TRUE(
      IndexTable(bank, SeedModel::subset_w4()).occupied_keys().empty());
}

TEST(IndexTableOccupiedKeys, EveryWordContainsX) {
  const auto bank = bank_of({"MKXLAXRNXD", "XXXX", "ACXDE"});
  expect_occupied_keys_exact(bank, SeedModel::contiguous(3));
  EXPECT_TRUE(
      IndexTable(bank, SeedModel::contiguous(3)).occupied_keys().empty());
}

TEST(IndexTableOccupiedKeys, RandomBank) {
  sim::ProteinBankConfig config;
  config.count = 30;
  config.mean_length = 90;
  config.seed = 17;
  const bio::SequenceBank bank = sim::generate_protein_bank(config);
  expect_occupied_keys_exact(bank, SeedModel::subset_w4());
  const IndexTable table(bank, SeedModel::subset_w4());
  EXPECT_GT(table.occupied_keys().size(), 0u);
  EXPECT_LT(table.occupied_keys().size(), table.key_space());
}

TEST(IndexTableOccupiedKeys, SurvivesCopyAndMove) {
  const auto bank = bank_of({"MKVLARNDCQ", "WYVHMKVL"});
  const IndexTable original(bank, SeedModel::contiguous(3));
  const std::vector<SeedKey> expected = dense_occupied(original);
  const IndexTable copy = original;
  EXPECT_EQ(std::vector<SeedKey>(copy.occupied_keys().begin(),
                                 copy.occupied_keys().end()),
            expected);
  IndexTable source = original;
  const IndexTable moved = std::move(source);
  EXPECT_EQ(std::vector<SeedKey>(moved.occupied_keys().begin(),
                                 moved.occupied_keys().end()),
            expected);
  IndexTable assigned(bank_of({}), SeedModel::contiguous(3));
  assigned = moved;
  EXPECT_EQ(assigned.occupied_keys().size(), expected.size());
}

TEST(IndexTableOccupiedKeys, ViewThrows) {
  // A from_raw_spans view must never pose as a query table with no keys.
  const auto bank = bank_of({"MKVLA"});
  const IndexTable owner(bank, SeedModel::contiguous(3));
  const IndexTable view =
      IndexTable::from_raw_spans(owner.starts(), owner.all_occurrences());
  ASSERT_TRUE(view.is_view());
  EXPECT_THROW(static_cast<void>(view.occupied_keys()), std::logic_error);
  const IndexTable view_copy = view;
  EXPECT_THROW(static_cast<void>(view_copy.occupied_keys()), std::logic_error);
}

TEST(IndexTable, CompletenessOnRandomBank) {
  // Property: sum of list lengths == total occurrences, and every
  // occurrence's word re-hashes to its key.
  sim::ProteinBankConfig config;
  config.count = 20;
  config.mean_length = 80;
  config.seed = 99;
  const bio::SequenceBank bank = sim::generate_protein_bank(config);
  const SeedModel model = SeedModel::subset_w4();
  const IndexTable table(bank, model);

  std::size_t total = 0;
  for (std::size_t k = 0; k < table.key_space(); ++k) {
    const auto key = static_cast<SeedKey>(k);
    for (const Occurrence& occ : table.occurrences(key)) {
      EXPECT_EQ(model.key(bank[occ.sequence].data() + occ.offset), key);
      ++total;
    }
  }
  EXPECT_EQ(total, table.total_occurrences());

  std::size_t expected = 0;
  for (const auto& seq : bank) {
    if (seq.size() >= model.width()) expected += seq.size() - model.width() + 1;
  }
  EXPECT_EQ(table.total_occurrences(), expected);  // no X in generated banks
}

}  // namespace
}  // namespace psc::index
