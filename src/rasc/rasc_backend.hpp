// The host-side driver that deports step 2 (ungapped extension) onto one
// or two simulated RASC-100 FPGAs: walks the two index tables key by key,
// extracts the neighbourhood windows, streams them through a PscOperator
// per FPGA, translates result records back into occurrences and composes
// the modeled accelerator time (cycles at 100 MHz + DMA transfers +
// driver overheads).
//
// With num_fpgas == 2 the key space is partitioned by estimated work and
// each partition runs on its own operator in its own thread -- the
// structure of the paper's pthread experiment (section 4.1, Table 3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/hit.hpp"
#include "bio/substitution_matrix.hpp"
#include "index/index_table.hpp"
#include "index/neighborhood.hpp"
#include "rasc/board_cache.hpp"
#include "rasc/platform_model.hpp"
#include "rasc/psc_operator.hpp"

namespace psc::rasc {

struct RascStep2Config {
  PscConfig psc;
  PlatformConfig platform;
  index::WindowShape shape;  ///< must satisfy shape.length() == psc.window_length
  std::size_t num_fpgas = 1; ///< 1 or 2 (the RASC-100 carries two Virtex-4)
  /// Run the cycle-exact engine instead of the batch engine (slow; for
  /// validation and traces).
  bool cycle_exact = false;
  /// Drive each FPGA from its own host thread (the pthread structure of
  /// section 4.1). Modeled time is unaffected; this exercises the
  /// concurrent driver path.
  bool threaded = true;
  /// Cross-run board state (board_cache.hpp). nullptr keeps the legacy
  /// stateless accounting: every run charges a bitstream load and
  /// streams both index lists over NUMAlink. With a cache, the board is
  /// modeled as stateful: the reference bank (bank1) is DMA'd into SRAM
  /// only when `bank_image_id` is not already resident on the FPGA, the
  /// bitstream is charged once per FPGA per process, and the per-run
  /// input DMA covers only the query-side (IL0) windows -- the IL1
  /// re-streams per round come out of board SRAM, already priced by the
  /// operator's compute cycles.
  BoardCache* board = nullptr;
  /// Stable identity of bank1's content for residency tracking (the
  /// store layer passes the bank payload checksum). Only meaningful when
  /// `board` is set.
  std::uint64_t bank_image_id = 0;
};

struct FpgaRunReport {
  OperatorStats stats;
  double compute_seconds = 0.0;   ///< cycles / clock
  double transfer_seconds = 0.0;  ///< DMA in + out (incl. bank upload)
  double overhead_seconds = 0.0;  ///< bitstream + invocations
  // Board-residency accounting (all zero under the legacy stateless
  // model except bitstream_loads, which legacy charges every run).
  std::uint64_t bitstream_loads = 0;      ///< configurations paid this run
  std::uint64_t bank_uploads = 0;         ///< bank DMAs paid this run
  std::uint64_t board_swaps = 0;          ///< uploads evicting an image
  std::uint64_t bank_uploads_skipped = 0; ///< served by a resident image
  double upload_seconds = 0.0;            ///< bank DMA charged this run
  double upload_seconds_saved = 0.0;      ///< bank DMA avoided by residency
  double total_seconds() const {
    return compute_seconds + transfer_seconds + overhead_seconds;
  }
};

struct RascStep2Result {
  std::vector<align::SeedPairHit> hits;
  std::vector<FpgaRunReport> fpgas;  ///< one per FPGA
  /// Modeled accelerator wall time: max over FPGAs (they run
  /// concurrently on the board).
  double modeled_seconds = 0.0;
  /// Aggregate operator statistics (summed over FPGAs).
  OperatorStats stats;
};

/// Runs step 2 on the simulated accelerator over table0's occupied keys
/// (an empty IL0 list programs no PE, so partition and modelled time equal
/// a whole-key-space walk). `table0`/`table1` must share a seed model;
/// `bank0`/`bank1` are the banks they index.
RascStep2Result run_rasc_step2(const bio::SequenceBank& bank0,
                               const index::IndexTable& table0,
                               const bio::SequenceBank& bank1,
                               const index::IndexTable& table1,
                               const bio::SubstitutionMatrix& matrix,
                               const RascStep2Config& config);

/// Restricted form: processes only the given seed keys. Used by the
/// host/FPGA dispatch extension, which splits the key space between the
/// host cores and the accelerator (the paper's closing question about
/// "how to dispatch the overall computation between cores and FPGA").
RascStep2Result run_rasc_step2_keys(const bio::SequenceBank& bank0,
                                    const index::IndexTable& table0,
                                    const bio::SequenceBank& bank1,
                                    const index::IndexTable& table1,
                                    const bio::SubstitutionMatrix& matrix,
                                    const RascStep2Config& config,
                                    std::span<const index::SeedKey> keys);

}  // namespace psc::rasc
