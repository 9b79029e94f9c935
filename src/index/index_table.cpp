#include "index/index_table.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "util/executor.hpp"

namespace psc::index {

namespace {

/// Records the occupied keys in a builder's prefix sum, which already
/// visits every key, without a branch: each key is written to the next
/// free slot and only an occupied one advances it. `bound` is at least
/// the number of occupied keys; one spare slot takes the last write.
class OccupiedKeyRecorder {
 public:
  explicit OccupiedKeyRecorder(std::size_t bound) : slots_(bound + 1) {}
  void visit(std::size_t key, bool occupied) {
    slots_[count_] = static_cast<SeedKey>(key);
    count_ += occupied;
  }
  /// The recorded keys, ascending, in a vector sized to exactly them.
  std::vector<SeedKey> keys() const {
    return {slots_.data(), slots_.data() + count_};
  }

 private:
  std::vector<SeedKey> slots_;
  std::size_t count_ = 0;
};

}  // namespace

void IndexTable::adopt_storage() {
  starts_ = starts_storage_;
  occurrences_ = occurrences_storage_;
}

IndexTable::IndexTable(const IndexTable& other)
    : starts_storage_(other.starts_storage_),
      occurrences_storage_(other.occurrences_storage_),
      occupied_keys_(other.occupied_keys_) {
  if (other.is_view()) {
    starts_ = other.starts_;
    occurrences_ = other.occurrences_;
  } else {
    adopt_storage();
  }
}

IndexTable& IndexTable::operator=(const IndexTable& other) {
  if (this == &other) return *this;
  starts_storage_ = other.starts_storage_;
  occurrences_storage_ = other.occurrences_storage_;
  occupied_keys_ = other.occupied_keys_;
  if (other.is_view()) {
    starts_ = other.starts_;
    occurrences_ = other.occurrences_;
  } else {
    adopt_storage();
  }
  return *this;
}

IndexTable::IndexTable(IndexTable&& other) noexcept {
  const bool view = other.is_view();
  starts_storage_ = std::move(other.starts_storage_);
  occurrences_storage_ = std::move(other.occurrences_storage_);
  occupied_keys_ = std::move(other.occupied_keys_);
  if (view) {
    starts_ = other.starts_;
    occurrences_ = other.occurrences_;
  } else {
    // Vector move transfers the heap buffer, so re-pointing at our own
    // storage lands on the same (still-live) data.
    adopt_storage();
  }
  other.starts_ = {};
  other.occurrences_ = {};
}

IndexTable& IndexTable::operator=(IndexTable&& other) noexcept {
  if (this == &other) return *this;
  const bool view = other.is_view();
  starts_storage_ = std::move(other.starts_storage_);
  occurrences_storage_ = std::move(other.occurrences_storage_);
  occupied_keys_ = std::move(other.occupied_keys_);
  if (view) {
    starts_ = other.starts_;
    occurrences_ = other.occurrences_;
  } else {
    adopt_storage();
  }
  other.starts_ = {};
  other.occurrences_ = {};
  return *this;
}

IndexTable IndexTable::from_raw_spans(std::span<const std::size_t> starts,
                                      std::span<const Occurrence> occurrences) {
  if (starts.empty()) {
    throw std::invalid_argument("IndexTable::from_raw_spans: empty starts");
  }
  if (starts.front() != 0) {
    throw std::invalid_argument(
        "IndexTable::from_raw_spans: starts[0] must be 0");
  }
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    if (starts[k] > starts[k + 1]) {
      throw std::invalid_argument(
          "IndexTable::from_raw_spans: starts not monotone");
    }
  }
  if (starts.back() != occurrences.size()) {
    throw std::invalid_argument(
        "IndexTable::from_raw_spans: starts.back() != occurrences.size()");
  }
  IndexTable table;
  table.starts_ = starts;
  table.occurrences_ = occurrences;
  return table;
}

bool IndexTable::consistent_with(const bio::SequenceBank& bank,
                                 std::size_t seed_width) const {
  // Precomputed "last valid offset + 1" per sequence keeps the hot loop
  // to two array reads and one compare -- this runs over every
  // occurrence of an mmap-loaded table on the store's trust boundary.
  if (bank.empty()) return occurrences_.empty();
  std::vector<std::uint32_t> offset_limits(bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const std::size_t length = bank[i].size();
    const std::size_t limit = length < seed_width ? 0 : length - seed_width + 1;
    offset_limits[i] =
        static_cast<std::uint32_t>(std::min<std::size_t>(limit, UINT32_MAX));
  }
  const auto count = static_cast<std::uint32_t>(offset_limits.size());
  bool ok = true;  // accumulated instead of early-exited so the loop unrolls
  for (const Occurrence& occ : occurrences_) {
    ok &= occ.sequence < count;
    ok &= occ.offset < offset_limits[occ.sequence < count ? occ.sequence : 0];
  }
  return ok;
}

IndexTable::IndexTable(const bio::SequenceBank& bank, const SeedModel& model) {
  const std::size_t w = model.width();
  const std::size_t keys = model.key_space();
  std::vector<std::size_t>& starts = starts_storage_;
  std::vector<Occurrence>& occurrences = occurrences_storage_;
  starts.assign(keys + 1, 0);

  // Pass 1: count occurrences per key.
  std::size_t words = 0;
  for (std::size_t s = 0; s < bank.size(); ++s) {
    const bio::Sequence& seq = bank[s];
    if (seq.size() < w) continue;
    const std::uint8_t* data = seq.data();
    const std::size_t last = seq.size() - w;
    for (std::size_t pos = 0; pos <= last; ++pos) {
      const SeedKey key = model.key(data + pos);
      if (key == kInvalidSeedKey) continue;
      ++starts[key];
      ++words;
    }
  }
  // Inclusive prefix sum: starts[k] becomes the end of key k's list. No
  // more keys can be occupied than words were indexed.
  OccupiedKeyRecorder occupied(std::min(keys, words));
  std::size_t running = 0;
  for (std::size_t k = 0; k < keys; ++k) {
    const std::size_t count = starts[k];
    occupied.visit(k, count != 0);
    running += count;
    starts[k] = running;
  }
  starts[keys] = running;
  occupied_keys_ = occupied.keys();

  // Pass 2: place occurrences back to front. Each key's end offset counts
  // down to its begin offset, and walking the bank in reverse keeps every
  // list in bank order, so no separate cursor array is needed.
  occurrences.resize(running);
  for (std::size_t s = bank.size(); s-- > 0;) {
    const bio::Sequence& seq = bank[s];
    if (seq.size() < w) continue;
    const std::uint8_t* data = seq.data();
    for (std::size_t pos = seq.size() - w + 1; pos-- > 0;) {
      const SeedKey key = model.key(data + pos);
      if (key == kInvalidSeedKey) continue;
      occurrences[--starts[key]] = Occurrence{
          static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(pos)};
    }
  }
  adopt_storage();
}

IndexTable IndexTable::build_parallel(const bio::SequenceBank& bank,
                                      const SeedModel& model,
                                      std::size_t threads) {
  const std::size_t workers =
      threads == 0 ? util::default_thread_count() : threads;
  const std::size_t w = model.width();
  const std::size_t keys = model.key_space();

  IndexTable table;
  table.starts_storage_.assign(keys + 1, 0);
  table.adopt_storage();

  const auto chunks = util::blocks(0, bank.size(), workers);
  if (chunks.empty()) return table;
  util::Executor::TaskGroup group(util::Executor::shared(), workers);

  // Pass 1: per-chunk histograms.
  std::vector<std::vector<std::size_t>> counts(
      chunks.size(), std::vector<std::size_t>(keys, 0));
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    group.run([&, c] {
      auto& local = counts[c];
      for (std::size_t s = chunks[c].first; s < chunks[c].second; ++s) {
        const bio::Sequence& seq = bank[s];
        if (seq.size() < w) continue;
        const std::uint8_t* data = seq.data();
        const std::size_t last = seq.size() - w;
        for (std::size_t pos = 0; pos <= last; ++pos) {
          const SeedKey key = model.key(data + pos);
          if (key != kInvalidSeedKey) ++local[key];
        }
      }
    });
  }
  group.wait();

  // Merge: global starts plus each chunk's base cursor per key, laid out
  // so chunk order within a key matches bank order (serial equivalence),
  // recording the occupied keys on the way as the serial build does.
  std::vector<std::vector<std::size_t>> cursors(
      chunks.size(), std::vector<std::size_t>(keys, 0));
  OccupiedKeyRecorder occupied(keys);
  std::size_t running = 0;
  for (std::size_t k = 0; k < keys; ++k) {
    table.starts_storage_[k] = running;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      cursors[c][k] = running;
      running += counts[c][k];
    }
    occupied.visit(k, running != table.starts_storage_[k]);
  }
  table.starts_storage_[keys] = running;
  table.occupied_keys_ = occupied.keys();
  table.occurrences_storage_.resize(running);

  // Pass 2: parallel placement through the per-chunk cursors.
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    group.run([&, c] {
      auto& cursor = cursors[c];
      for (std::size_t s = chunks[c].first; s < chunks[c].second; ++s) {
        const bio::Sequence& seq = bank[s];
        if (seq.size() < w) continue;
        const std::uint8_t* data = seq.data();
        const std::size_t last = seq.size() - w;
        for (std::size_t pos = 0; pos <= last; ++pos) {
          const SeedKey key = model.key(data + pos);
          if (key == kInvalidSeedKey) continue;
          table.occurrences_storage_[cursor[key]++] = Occurrence{
              static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(pos)};
        }
      }
    });
  }
  group.wait();
  table.adopt_storage();
  return table;
}

std::span<const SeedKey> IndexTable::occupied_keys() const {
  if (is_view()) {
    throw std::logic_error(
        "IndexTable::occupied_keys: a from_raw_spans view records no "
        "occupied keys");
  }
  return occupied_keys_;
}

std::size_t IndexTable::max_list_length() const {
  std::size_t best = 0;
  for (std::size_t k = 0; k + 1 < starts_.size(); ++k) {
    best = std::max(best, starts_[k + 1] - starts_[k]);
  }
  return best;
}

std::uint64_t IndexTable::pair_count(const IndexTable& t0,
                                     const IndexTable& t1) {
  if (t0.key_space() != t1.key_space()) {
    throw std::invalid_argument("pair_count: tables use different seed models");
  }
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < t0.key_space(); ++k) {
    total += static_cast<std::uint64_t>(t0.list_length(static_cast<SeedKey>(k))) *
             t1.list_length(static_cast<SeedKey>(k));
  }
  return total;
}

}  // namespace psc::index
