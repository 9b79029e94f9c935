#include "rasc/rasc_backend.hpp"

#include "rasc/sgi_core.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/executor.hpp"

namespace psc::rasc {

namespace {

/// Work done by one FPGA over its key partition.
struct FpgaTask {
  std::size_t fpga = 0;  ///< which board FPGA this partition drives
  std::vector<index::SeedKey> keys;
  std::vector<align::SeedPairHit> hits;
  FpgaRunReport report;
};

void run_partition(const bio::SequenceBank& bank0,
                   const index::IndexTable& table0,
                   const bio::SequenceBank& bank1,
                   const index::IndexTable& table1,
                   const bio::SubstitutionMatrix& matrix,
                   const RascStep2Config& config, FpgaTask& task) {
  PscOperator op(config.psc, matrix);
  PlatformModel platform(config.platform);

  // Residency: consult the shared board state when the caller models the
  // board as stateful; otherwise re-pay the full setup every run (the
  // paper's single-shot structure).
  const std::size_t bank_bytes =
      bank1.total_residues() * config.platform.residue_bytes;
  const double upload_seconds = platform.transfer_seconds(bank_bytes);
  BoardTouch touch;
  if (config.board != nullptr) {
    touch = config.board->touch(task.fpga, config.bank_image_id,
                                upload_seconds);
  } else {
    touch.load_bitstream = true;  // legacy: configuration charged per run
  }
  if (touch.load_bitstream) {
    platform.add_bitstream_load();
    task.report.bitstream_loads = 1;
  }
  if (config.board != nullptr && touch.upload_bank) {
    // The reference bank moves host -> board SRAM once per swap; queries
    // then stream past the resident image.
    platform.add_input_stream(bank1.total_residues());
    task.report.bank_uploads = 1;
    task.report.board_swaps = touch.swapped ? 1 : 0;
    task.report.upload_seconds = upload_seconds;
  } else if (config.board != nullptr) {
    task.report.bank_uploads_skipped = 1;
    task.report.upload_seconds_saved = upload_seconds;
  }

  index::WindowBatch batch0(config.shape.length());
  index::WindowBatch batch1(config.shape.length());
  std::vector<ResultRecord> records;

  std::uint64_t residues_streamed = 0;
  std::uint64_t results_returned = 0;

  for (const index::SeedKey key : task.keys) {
    const auto list0 = table0.occurrences(key);
    const auto list1 = table1.occurrences(key);
    if (list0.empty() || list1.empty()) continue;

    index::extract_windows(bank0, list0, config.shape, batch0);
    index::extract_windows(bank1, list1, config.shape, batch1);

    records.clear();
    if (config.cycle_exact) {
      op.run_key_cycle_exact(batch0, batch1, records);
    } else {
      op.run_key(batch0, batch1, records);
    }

    if (config.board != nullptr) {
      // Stateful board: only the query-side (IL0) windows cross
      // NUMAlink per run; the IL1 windows re-stream from the resident
      // SRAM image, a cost the operator's compute cycles already carry.
      residues_streamed += batch0.size() * config.shape.length();
    } else {
      // Legacy: every round streams the IL1 set once and its PE loads
      // once, all priced as host DMA.
      const std::size_t rounds =
          (batch0.size() + config.psc.num_pes - 1) / config.psc.num_pes;
      residues_streamed +=
          (batch0.size() + rounds * batch1.size()) * config.shape.length();
    }
    results_returned += records.size();

    for (const ResultRecord& record : records) {
      task.hits.push_back(align::SeedPairHit{
          batch0.source(record.il0_index), batch1.source(record.il1_index),
          record.score});
    }
  }

  // One DMA descriptor chain per SRAM-sized chunk of streamed input; each
  // chunk is one algorithm invocation programmed through the SGI core's
  // ADR interface (Figure 3): configuration registers, doorbell, status
  // poll, result readback. The count shares transfer_seconds' rounding
  // exactly: an empty partition programs nothing, and a stream landing
  // on an SRAM multiple takes bytes/sram invocations, not one more.
  platform.add_input_stream(residues_streamed);
  platform.add_result_stream(results_returned);
  const std::size_t invocations = platform.chunk_count(
      residues_streamed * config.platform.residue_bytes);

  SgiCore adr;
  if (invocations > 0) {
    adr.write_register(AdrRegister::kThreshold,
                       static_cast<std::uint64_t>(config.psc.threshold));
    adr.write_register(AdrRegister::kWindowLength, config.shape.length());
    for (std::size_t i = 0; i < invocations; ++i) {
      adr.write_register(AdrRegister::kIl0Count, op.stats().rounds);
      adr.write_register(AdrRegister::kIl1Count, op.stats().comparisons);
      adr.ring_doorbell();
      platform.add_invocation();
      adr.complete(results_returned, op.stats().cycles_total());
      adr.read_register(AdrRegister::kStatus);
    }
    adr.read_register(AdrRegister::kResultCount);
    adr.read_register(AdrRegister::kCycleCounter);
  }

  task.report.stats = op.stats();
  task.report.compute_seconds = op.modeled_seconds();
  task.report.transfer_seconds =
      platform.input_seconds() + platform.output_seconds();
  task.report.overhead_seconds =
      platform.overhead_seconds() + adr.mmio_seconds();
}

}  // namespace

RascStep2Result run_rasc_step2(const bio::SequenceBank& bank0,
                               const index::IndexTable& table0,
                               const bio::SequenceBank& bank1,
                               const index::IndexTable& table1,
                               const bio::SubstitutionMatrix& matrix,
                               const RascStep2Config& config) {
  return run_rasc_step2_keys(bank0, table0, bank1, table1, matrix, config,
                             table0.occupied_keys());
}

RascStep2Result run_rasc_step2_keys(const bio::SequenceBank& bank0,
                                    const index::IndexTable& table0,
                                    const bio::SequenceBank& bank1,
                                    const index::IndexTable& table1,
                                    const bio::SubstitutionMatrix& matrix,
                                    const RascStep2Config& config,
                                    std::span<const index::SeedKey> keys) {
  if (config.shape.length() != config.psc.window_length) {
    throw std::invalid_argument(
        "run_rasc_step2: shape length != operator window length");
  }
  if (config.num_fpgas == 0 || config.num_fpgas > 2) {
    throw std::invalid_argument("run_rasc_step2: RASC-100 has 1 or 2 FPGAs");
  }
  if (config.board != nullptr &&
      config.num_fpgas > config.board->num_fpgas()) {
    throw std::invalid_argument(
        "run_rasc_step2: board cache tracks fewer FPGAs than configured");
  }
  if (table0.key_space() != table1.key_space()) {
    throw std::invalid_argument("run_rasc_step2: seed-model mismatch");
  }

  // Partition keys by estimated cycles (greedy longest-processing-time):
  // est = rounds * |IL1| -- the compute-phase streaming cost.
  std::vector<FpgaTask> tasks(config.num_fpgas);
  for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i].fpga = i;
  {
    std::vector<std::pair<std::uint64_t, index::SeedKey>> weighted;
    for (const index::SeedKey key : keys) {
      const std::size_t k0 = table0.list_length(key);
      const std::size_t k1 = table1.list_length(key);
      if (k0 == 0 || k1 == 0) continue;
      const std::uint64_t rounds =
          (k0 + config.psc.num_pes - 1) / config.psc.num_pes;
      weighted.emplace_back(rounds * k1 + k0, key);
    }
    std::sort(weighted.begin(), weighted.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<std::uint64_t> load(config.num_fpgas, 0);
    for (const auto& [weight, key] : weighted) {
      const std::size_t target = static_cast<std::size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      tasks[target].keys.push_back(key);
      load[target] += weight;
    }
  }

  // Drive each FPGA concurrently when asked (the paper's pthread version
  // used one process per FPGA); the shared executor supplies the
  // concurrency instead of spawning throwaway threads per call.
  if (config.threaded && config.num_fpgas > 1) {
    util::Executor::TaskGroup group(util::Executor::shared(), tasks.size());
    for (auto& task : tasks) {
      group.run([&bank0, &table0, &bank1, &table1, &matrix, &config, &task] {
        run_partition(bank0, table0, bank1, table1, matrix, config, task);
      });
    }
    group.wait();
  } else {
    for (auto& task : tasks) {
      run_partition(bank0, table0, bank1, table1, matrix, config, task);
    }
  }

  RascStep2Result out;
  for (auto& task : tasks) {
    out.fpgas.push_back(task.report);
    out.stats += task.report.stats;
    out.modeled_seconds =
        std::max(out.modeled_seconds, task.report.total_seconds());
    out.hits.insert(out.hits.end(), task.hits.begin(), task.hits.end());
  }
  return out;
}

}  // namespace psc::rasc
