#include "core/dispatch.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/step2_host.hpp"
#include "rasc/rasc_backend.hpp"
#include "util/timer.hpp"

namespace psc::core {

DispatchResult run_step2_dispatch(const bio::SequenceBank& bank0,
                                  const index::IndexTable& table0,
                                  const bio::SequenceBank& bank1,
                                  const index::IndexTable& table1,
                                  const bio::SubstitutionMatrix& matrix,
                                  const DispatchConfig& config) {
  if (config.host_fraction < 0.0 || config.host_fraction > 1.0) {
    throw std::invalid_argument(
        "run_step2_dispatch: host_fraction must be in [0,1]");
  }

  // Weigh every key the query occupies by its pair count, heaviest
  // first, and give the host keys until its share of the total weight is
  // reached. Heavy keys favour the accelerator (they fill the PE array),
  // so the host's share is taken from the light end.
  std::vector<std::pair<std::uint64_t, index::SeedKey>> weighted;
  std::uint64_t total_weight = 0;
  for (const index::SeedKey key : table0.occupied_keys()) {
    const std::uint64_t weight =
        static_cast<std::uint64_t>(table0.list_length(key)) *
        table1.list_length(key);
    if (weight == 0) continue;
    weighted.emplace_back(weight, key);
    total_weight += weight;
  }
  std::sort(weighted.begin(), weighted.end());  // lightest first

  const auto host_target = static_cast<std::uint64_t>(
      config.host_fraction * static_cast<double>(total_weight));
  std::vector<index::SeedKey> host_keys;
  std::vector<index::SeedKey> accel_keys;
  std::uint64_t host_weight = 0;
  DispatchResult result;
  for (const auto& [weight, key] : weighted) {
    if (host_weight + weight <= host_target) {
      host_keys.push_back(key);
      host_weight += weight;
      result.host_pairs += weight;
    } else {
      accel_keys.push_back(key);
      result.accel_pairs += weight;
    }
  }
  result.pairs = result.host_pairs + result.accel_pairs;

  // Host half (measured).
  if (!host_keys.empty()) {
    util::Timer timer;
    HostStep2Result host = run_step2_host_keys(
        bank0, table0, bank1, table1, matrix, config.shape, config.threshold,
        host_keys, config.host_threads, config.kernel);
    result.host_seconds = timer.seconds();
    result.hits = std::move(host.hits);
  }

  // Accelerator half (modeled).
  if (!accel_keys.empty()) {
    rasc::RascStep2Config rasc_config = config.rasc;
    rasc_config.psc.window_length = config.shape.length();
    rasc_config.psc.threshold = config.threshold;
    rasc_config.shape = config.shape;
    rasc::RascStep2Result accel = rasc::run_rasc_step2_keys(
        bank0, table0, bank1, table1, matrix, rasc_config, accel_keys);
    result.accel_seconds = accel.modeled_seconds;
    result.fpga_reports = std::move(accel.fpgas);
    result.hits.insert(result.hits.end(), accel.hits.begin(),
                       accel.hits.end());
  }

  // Normalize the merged hit order so dispatch fraction does not change
  // downstream behaviour.
  std::sort(result.hits.begin(), result.hits.end(),
            [](const align::SeedPairHit& a, const align::SeedPairHit& b) {
              return std::tuple(a.bank0.sequence, a.bank0.offset,
                                a.bank1.sequence, a.bank1.offset, a.score) <
                     std::tuple(b.bank0.sequence, b.bank0.offset,
                                b.bank1.sequence, b.bank1.offset, b.score);
            });
  return result;
}

}  // namespace psc::core
