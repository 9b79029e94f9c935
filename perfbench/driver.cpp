// Serving benchmark driver: runs one workload in this process and prints
// its report. perfbench/run.py builds this binary and calls it twice per
// run -- first with --references-only to compute the reference replies
// in a process of their own, then to measure.
//
//   perfbench_driver --workload routed|batch|ingest --seed N --seconds S
//                    --trace 0|1 --work-dir DIR --refs FILE
//                    [--references-only] [--smoke] [--force-mismatch]
//                    [--git-sha SHA]
//
// Standard output ends with two lines: a metadata object (machine,
// build, thread counts, sample counts, fail_frac) and the result object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. The exit code is 0
// only when every operation succeeded with a reply byte-identical to its
// reference and every metric could be reported.
#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "fixture.hpp"

namespace {

using namespace perfbench;

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},       {"qps", "1/s"},      {"p50_ms", "ms"},
    {"p99_ms", "ms"},       {"visible_ms", "ms"}, {"peak_rss_mb", "MiB"},
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.seed = std::stoull(value());
    else if (flag == "--seconds") args.seconds = std::stod(value());
    else if (flag == "--trace") args.trace = value() == "1";
    else if (flag == "--work-dir") args.work_dir = value();
    else if (flag == "--refs") args.refs_path = value();
    else if (flag == "--git-sha") args.git_sha = value();
    else if (flag == "--references-only") args.references_only = true;
    else if (flag == "--smoke") args.smoke = true;
    else if (flag == "--force-mismatch") args.force_mismatch = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.workload != "routed" && args.workload != "batch" &&
      args.workload != "ingest") {
    throw std::invalid_argument("--workload must be routed, batch or ingest");
  }
  if (args.work_dir.empty() || args.refs_path.empty()) {
    throw std::invalid_argument("--work-dir and --refs are required");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

InputSpec spec_for(const Args& args) {
  if (args.workload == "routed") return routed_spec(args.smoke);
  if (args.workload == "batch") return batch_spec(args.smoke);
  return ingest_spec(args.smoke);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << error.what() << "\n";
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  if (args.references_only) {
    try {
      const InputSpec spec = spec_for(args);
      const Inputs inputs = make_inputs(spec, args.seed);
      const std::size_t threads =
          std::max(1u, std::thread::hardware_concurrency());
      save_references(args.refs_path,
                      compute_references(inputs, spec, args.work_dir, threads));
      return 0;
    } catch (const std::exception& error) {
      std::cerr << "perfbench_driver: references: " << error.what() << "\n";
      return 1;
    }
  }

  Report report;
  try {
    if (args.workload == "routed") report = run_routed(args);
    else if (args.workload == "batch") report = run_batch(args);
    else report = run_ingest(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << args.workload << ": " << error.what()
              << "\n";
    return 1;
  }

  // The result object carries exactly one family of metrics.
  std::vector<std::pair<std::string, std::string>> wanted = kEndToEnd;
  if (args.trace) wanted = layer_metric_names();
  std::set<std::string> missing;
  for (const auto& [name, unit] : wanted) missing.insert(name);
  std::ostringstream metrics;
  std::ostringstream samples;
  bool first = true;
  for (const Metric& metric : report.metrics) {
    if (!missing.count(metric.name) || !std::isfinite(metric.value)) continue;
    missing.erase(metric.name);
    metrics << (first ? "" : ", ") << "\"" << metric.name
            << "\": {\"value\": " << number(metric.value) << ", \"unit\": \""
            << metric.unit << "\"}";
    samples << (first ? "" : ", ") << "\"" << metric.name
            << "\": " << metric.samples;
    first = false;
    std::cerr << "  " << metric.name << " = " << number(metric.value) << " "
              << metric.unit
              << (metric.samples > 0
                      ? " (n=" + std::to_string(metric.samples) + ")"
                      : std::string())
              << "\n";
  }
  for (const std::string& name : missing) {
    std::cerr << "perfbench_driver: metric " << name << " was not measured";
    const auto note = report.meta.find(name);
    if (note != report.meta.end()) std::cerr << " (" << note->second << ")";
    std::cerr << "\n";
  }

  const double fail_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::cout << "{\"meta\": {";
  bool first_meta = true;
  for (const auto& [key, value] : report.meta) {
    std::cout << (first_meta ? "" : ", ") << "\"" << json_escape(key)
              << "\": \"" << json_escape(value) << "\"";
    first_meta = false;
  }
  std::cout << "}, \"samples\": {" << samples.str()
            << "}, \"fail_frac\": " << number(fail_frac)
            << ", \"mismatched\": " << report.mismatched << "}\n";

  const bool correct = report.attempted > 0 && report.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics.str() << "}}\n";
  std::cerr << "  fail_frac = " << number(fail_frac) << " ratio ("
            << report.failed << " of " << report.attempted << ")\n";
  const bool complete = missing.empty() || args.smoke;
  return correct && complete ? 0 : 1;
}
