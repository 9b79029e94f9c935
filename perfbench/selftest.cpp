// Self-tests of the benchmark's own arithmetic: percentiles and the
// "at least 10 samples beyond" rule, medians and quartiles (against
// values Python's statistics module gives), and span self times when
// child spans overlap. Exits 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

void expect(bool condition, const char* what) {
  if (!condition) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

void test_median_and_quartiles() {
  using perfbench::median;
  using perfbench::quartiles;
  expect_near(median({3.0, 1.0, 2.0}), 2.0, "median odd");
  expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median even");
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  auto q = quartiles(one_to(10));
  expect_near(q[0], 2.75, "q1 of 1..10");
  expect_near(q[1], 5.5, "q2 of 1..10");
  expect_near(q[2], 8.25, "q3 of 1..10");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = quartiles({2.0, 1.0});
  expect_near(q[0], 0.75, "q1 of two samples");
  expect_near(q[2], 2.25, "q3 of two samples");
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  q = quartiles(one_to(5));
  expect_near(q[0], 1.5, "q1 of 1..5");
  expect_near(q[1], 3.0, "q2 of 1..5");
  expect_near(q[2], 4.5, "q3 of 1..5");
}

void test_percentiles() {
  using perfbench::samples_beyond;
  using perfbench::samples_needed;
  using perfbench::tail_percentile;
  // Nearest rank: p99 of 1..1000 is the 990th value, with 10 beyond it.
  expect(samples_beyond(99.0, 1000) == 10, "1000 samples leave 10 beyond p99");
  const auto p99 = tail_percentile(one_to(1000), 99.0);
  expect(p99.has_value(), "p99 reported at 1000 samples");
  if (p99) expect_near(*p99, 990.0, "p99 of 1..1000");
  expect(!tail_percentile(one_to(999), 99.0).has_value(),
         "p99 refused at 999 samples");
  expect(samples_needed(99.0) == 1000, "p99 needs 1000 samples");
  expect(samples_needed(90.0) == 100, "p90 needs 100 samples");
  const auto p50 = tail_percentile(one_to(20), 50.0);
  expect(p50.has_value() && *p50 == 10.0, "p50 of 1..20 by nearest rank");
  expect(!tail_percentile({}, 50.0).has_value(), "no percentile of nothing");
}

void test_window_rate() {
  using perfbench::median_window_rate;
  // Windows of 1 s from t=0 hold 10, 10, 2 (a stall) and 10 events; the
  // partial fifth window is ignored. Median count 10 -> 10/s.
  std::vector<double> completions;
  for (int w : {0, 1, 3}) {
    for (int i = 0; i < 10; ++i) completions.push_back(w + i / 10.0);
  }
  completions.push_back(2.1);
  completions.push_back(2.2);
  completions.push_back(4.5);
  expect_near(median_window_rate(completions, 0.0, 4.6, 1.0), 10.0,
              "median window rate ignores a stalled window");
  // Under three whole windows: the plain overall rate.
  expect_near(median_window_rate({0.5, 1.0, 1.5}, 0.0, 2.0, 1.0), 1.5,
              "short spans use the overall rate");
}

void test_self_times() {
  using perfbench::Span;
  // Parent [0, 10) with children [1, 4), [2, 6) (overlapping) and
  // [8, 12) (sticking out past the parent): the children cover
  // [1, 6) + [8, 10) = 7, so the parent's self time is 3.
  std::vector<Span> spans = {
      {1, 0, 1, "cluster.fanout", 0.0, 10.0},
      {2, 1, 1, "cluster.leg", 1.0, 4.0},
      {3, 1, 1, "cluster.leg", 2.0, 6.0},
      {4, 1, 1, "net.search", 8.0, 12.0},
      {5, 3, 1, "core.pass", 3.0, 5.0},  // grandchild inside leg 3
  };
  const auto self = perfbench::span_self_times(spans);
  expect_near(self.at(1), 3.0, "parent self time with overlapping children");
  expect_near(self.at(2), 3.0, "leaf self time is its duration");
  expect_near(self.at(3), 2.0, "child minus its own child");
  expect_near(self.at(4), 4.0, "child past the parent keeps its duration");
  const auto layers = perfbench::layer_self_times(spans);
  expect_near(layers.at("cluster"), 3.0 + 3.0 + 2.0, "cluster layer self time");
  expect_near(layers.at("net"), 4.0, "net layer self time");
  expect_near(layers.at("core"), 2.0, "core layer self time");
  // Identical children count once.
  expect_near(perfbench::covered_length({{1.0, 3.0}, {1.0, 3.0}}, 0.0, 5.0),
              2.0, "duplicate intervals");
  // Nested children count once.
  expect_near(perfbench::covered_length({{1.0, 9.0}, {2.0, 3.0}}, 0.0, 5.0),
              4.0, "nested and clipped intervals");

  perfbench::Tracer off(false);
  expect(off.begin("net.search", 0, 1) == 0, "disabled tracer records nothing");
  expect(off.spans().empty(), "disabled tracer has no spans");
  perfbench::Tracer on(true);
  {
    perfbench::ScopedSpan outer(on, "gen.request", 0, 7);
    perfbench::ScopedSpan inner(on, "net.search", outer.id(), 7);
  }
  const auto recorded = on.spans();
  expect(recorded.size() == 2 && recorded[1].parent == recorded[0].id &&
             recorded[0].end >= recorded[1].end && recorded[1].request == 7,
         "scoped spans nest");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_percentiles();
  test_window_rate();
  test_self_times();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
