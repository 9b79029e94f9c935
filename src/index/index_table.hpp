// Step 1 of the paper's algorithm: the per-bank index tables T0 and T1.
//
// "we construct two W^alpha entry tables T0 and T1 (one for each bank)...
// Each entry k of the table points to an index list (ILk) of sequence
// offsets where such a word occurs." (section 2.1)
//
// Layout is a classic two-pass counting sort: one flat occurrence array
// sorted by key, plus a key -> [begin,end) offset table. That keeps every
// index list (IL) contiguous, which is exactly the streaming order the
// accelerator's input controllers consume.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/sequence.hpp"
#include "index/seed_model.hpp"

namespace psc::index {

/// One seed occurrence: sequence number within the bank and residue
/// offset of the word's first position.
struct Occurrence {
  std::uint32_t sequence = 0;
  std::uint32_t offset = 0;

  friend bool operator==(const Occurrence&, const Occurrence&) = default;
};

class IndexTable {
 public:
  /// Indexes every width-W word of every sequence in `bank` under `model`.
  /// Words containing non-standard residues are skipped.
  IndexTable(const bio::SequenceBank& bank, const SeedModel& model);

  /// Multi-threaded construction: sequences are partitioned across
  /// workers, each counts into a private histogram, and per-key
  /// per-worker base offsets make the final layout *identical* to the
  /// serial build (occurrences within a key stay in bank order).
  /// `threads == 0` uses hardware concurrency.
  static IndexTable build_parallel(const bio::SequenceBank& bank,
                                   const SeedModel& model,
                                   std::size_t threads = 0);

  /// Zero-copy construction over externally owned memory (the mmap-backed
  /// store reader, store/index_store.hpp): the table becomes a *view* and
  /// the caller must keep the backing memory alive and unchanged for the
  /// table's lifetime. Validates the layout invariants -- starts[0] == 0,
  /// monotone starts, starts.back() == occurrences.size() -- and throws
  /// std::invalid_argument on violation so a corrupt file cannot produce
  /// out-of-bounds list spans. A view records no occupied-key list (see
  /// occupied_keys()): views are store-loaded subject tables, and the
  /// list would grow every resident shard's memory.
  static IndexTable from_raw_spans(std::span<const std::size_t> starts,
                                   std::span<const Occurrence> occurrences);

  /// True when the table views external memory (from_raw_spans) rather
  /// than owning its arrays.
  bool is_view() const { return starts_storage_.empty() && !starts_.empty(); }

  // Copies/moves must re-point the spans at the destination's storage
  // when the source owns its arrays (views keep aliasing the external
  // memory, whose lifetime the caller manages).
  IndexTable(const IndexTable& other);
  IndexTable& operator=(const IndexTable& other);
  IndexTable(IndexTable&& other) noexcept;
  IndexTable& operator=(IndexTable&& other) noexcept;
  ~IndexTable() = default;

  std::size_t key_space() const { return starts_.size() - 1; }
  std::size_t total_occurrences() const { return occurrences_.size(); }

  /// The raw arrays (store writer + tests). `starts()` has key_space()+1
  /// entries; `all_occurrences()` is every list concatenated in key order.
  std::span<const std::size_t> starts() const { return starts_; }
  std::span<const Occurrence> all_occurrences() const { return occurrences_; }

  /// Checks every occurrence addresses a real word start in `bank`
  /// (sequence in range, offset + width within the sequence). Used by the
  /// store loader so a stale or corrupted index can never index out of
  /// bounds during step 2.
  bool consistent_with(const bio::SequenceBank& bank,
                       std::size_t seed_width) const;

  /// The index list IL_k for a key: all occurrences of words mapping to k.
  std::span<const Occurrence> occurrences(SeedKey key) const {
    return {occurrences_.data() + starts_[key],
            occurrences_.data() + starts_[key + 1]};
  }

  std::size_t list_length(SeedKey key) const {
    return starts_[key + 1] - starts_[key];
  }

  /// The keys with a non-empty index list, ascending -- the only keys a
  /// step-2 walk over this table as T0 can score. Recorded by the
  /// building prefix sum, so a one-protein query table lists a few
  /// hundred keys, not the whole key space. Throws std::logic_error on a
  /// view (from_raw_spans), which records no list.
  std::span<const SeedKey> occupied_keys() const;

  /// Length of the longest index list (drives accelerator batch sizing).
  std::size_t max_list_length() const;

  /// Sum over keys of |IL0_k| * |IL1_k| -- the number of ungapped
  /// extensions step 2 will perform between this table and `other`
  /// (the K0 x K1 product of section 2.1).
  static std::uint64_t pair_count(const IndexTable& t0, const IndexTable& t1);

 private:
  IndexTable() = default;  // for build_parallel / from_raw_spans

  /// Re-points the spans at the owned vectors after they are (re)filled.
  void adopt_storage();

  // The accessors above all go through these spans. An owning table
  // points them at the storage vectors below; a view (from_raw_spans)
  // points them at caller-owned memory and leaves the vectors empty.
  std::span<const std::size_t> starts_;      // key -> begin; size key_space+1
  std::span<const Occurrence> occurrences_;  // grouped by key

  std::vector<std::size_t> starts_storage_;
  std::vector<Occurrence> occurrences_storage_;
  std::vector<SeedKey> occupied_keys_;  // owning tables only; ascending
};

}  // namespace psc::index
