// Unit tests for src/obs: counter/gauge/histogram exactness under
// concurrency, histogram percentiles vs the order-statistic reference
// in util/stats, span nesting, the disabled-mode contract (no atomic
// writes, no allocation), registry identity rules, and byte-stable
// exporter output.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/alloc_counter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace seqge {
namespace {

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  obs::EnabledGuard on(true);
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetAddSub) {
  obs::EnabledGuard on(true);
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(3);
  g.sub(5);
  EXPECT_EQ(g.value(), 5);
  g.set(-2);
  EXPECT_EQ(g.value(), -2);
}

TEST(ObsHistogram, CountSumMaxMean) {
  obs::EnabledGuard on(true);
  obs::Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.5);
  EXPECT_DOUBLE_EQ(h.mean(), 34.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 0u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
}

TEST(ObsHistogram, RejectsNonAscendingBounds) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(ObsHistogram, PercentileMatchesOrderStatisticReference) {
  obs::EnabledGuard on(true);
  // Unit-wide buckets over the sample range keep the interpolation
  // error below one bucket width, so the histogram estimate must land
  // within ~1 of the exact order-statistic percentile.
  std::vector<double> bounds;
  for (int b = 1; b <= 200; ++b) bounds.push_back(static_cast<double>(b));
  obs::Histogram h(std::move(bounds));
  Rng rng(99);
  std::vector<double> samples;
  samples.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    const double v = static_cast<double>(rng.bounded(20000)) / 100.0;
    samples.push_back(v);
    h.observe(v);
  }
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    EXPECT_NEAR(h.percentile(q), percentile(samples, q), 1.5)
        << "q=" << q;
  }
}

TEST(ObsHistogram, PercentileNeverExceedsObservedMax) {
  obs::EnabledGuard on(true);
  obs::Histogram h({1.0, 1024.0});
  h.observe(600.0);  // alone in the wide (1, 1024] bucket
  // p99 would interpolate to ~1014 inside the bucket; the clamp caps
  // it at the observed max. p50 interpolates below the max and stays.
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 600.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 512.5);
  EXPECT_LE(h.percentile(0.95), 600.0);
}

TEST(ObsHistogram, ConcurrentObservesAreExact) {
  obs::EnabledGuard on(true);
  obs::Histogram h(obs::exponential_buckets(1.0, 2.0, 10));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  double expected_sum = 0.0;
  for (int i = 0; i < kPerThread; ++i) {
    expected_sum += static_cast<double>(i % 100);
  }
  expected_sum *= kThreads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Every observation is a small integer, so the atomic double
  // accumulation is exact — no tolerance needed.
  EXPECT_DOUBLE_EQ(h.sum(), expected_sum);
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
}

TEST(ObsBuckets, ExponentialValuesAndValidation) {
  const std::vector<double> b = obs::exponential_buckets(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  EXPECT_THROW(obs::exponential_buckets(0.0, 2.0, 4),
               std::invalid_argument);
  EXPECT_THROW(obs::exponential_buckets(1.0, 1.0, 4),
               std::invalid_argument);
  EXPECT_THROW(obs::exponential_buckets(1.0, 2.0, 0),
               std::invalid_argument);
  EXPECT_EQ(obs::default_latency_buckets_us().size(), 26u);
}

TEST(ObsRegistry, GetOrCreateReturnsStableIdentity) {
  obs::Registry reg;
  obs::Counter* a = reg.counter("x_total", {{"k", "1"}});
  obs::Counter* b = reg.counter("x_total", {{"k", "1"}});
  obs::Counter* other = reg.counter("x_total", {{"k", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.find_counter("x_total", {{"k", "1"}}), a);
  EXPECT_EQ(reg.find_counter("x_total", {{"k", "3"}}), nullptr);
  EXPECT_EQ(reg.find_histogram("x_total", {{"k", "1"}}), nullptr);
}

TEST(ObsRegistry, KindConflictThrows) {
  obs::Registry reg;
  reg.counter("clash");
  EXPECT_THROW(reg.gauge("clash"), std::logic_error);
  EXPECT_THROW(reg.histogram("clash", {1.0}), std::logic_error);
}

TEST(ObsRegistry, CollectPreservesRegistrationOrder) {
  obs::EnabledGuard on(true);
  obs::Registry reg;
  reg.counter("z_total")->add(2);
  reg.gauge("a_depth")->set(-4);
  reg.histogram("m_us", {1.0})->observe(0.5);
  const auto snaps = reg.collect();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "z_total");
  EXPECT_EQ(snaps[0].counter_value, 2u);
  EXPECT_EQ(snaps[1].name, "a_depth");
  EXPECT_EQ(snaps[1].gauge_value, -4);
  EXPECT_EQ(snaps[2].name, "m_us");
  EXPECT_EQ(snaps[2].hist.count, 1u);
}

#ifndef SEQGE_OBS_DISABLED

int span_depth_probe() {
  OBS_SPAN("obs_test_outer");
  const int outer = obs::current_span_depth();
  {
    OBS_SPAN("obs_test_inner");
    EXPECT_EQ(obs::current_span_depth(), outer + 1);
  }
  EXPECT_EQ(obs::current_span_depth(), outer);
  return outer;
}

TEST(ObsSpan, NestingBalancesAndRecords) {
  obs::EnabledGuard on(true);
  EXPECT_EQ(obs::current_span_depth(), 0);
  EXPECT_EQ(span_depth_probe(), 1);
  EXPECT_EQ(obs::current_span_depth(), 0);
  const obs::Histogram* wall = obs::Registry::global().find_histogram(
      "seqge_span_wall_us", {{"span", "obs_test_inner"}});
  ASSERT_NE(wall, nullptr);
  EXPECT_GE(wall->count(), 1u);
  const obs::Histogram* cpu = obs::Registry::global().find_histogram(
      "seqge_span_cpu_us", {{"span", "obs_test_inner"}});
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(cpu->count(), wall->count());
}

#else  // SEQGE_OBS_DISABLED

TEST(ObsSpan, CompiledOutSpansRegisterNothing) {
  obs::EnabledGuard on(true);
  OBS_SPAN("obs_test_compiled_out");
  EXPECT_EQ(obs::current_span_depth(), 0);
  EXPECT_EQ(obs::Registry::global().find_histogram(
                "seqge_span_wall_us", {{"span", "obs_test_compiled_out"}}),
            nullptr);
}

#endif  // SEQGE_OBS_DISABLED

TEST(ObsSpan, DisabledScopesKeepDepthAtZero) {
  obs::EnabledGuard off(false);
  OBS_SPAN("obs_test_disabled");
  EXPECT_EQ(obs::current_span_depth(), 0);
}

void span_alloc_probe() { OBS_SPAN("obs_test_alloc_probe"); }

TEST(ObsDisabled, RecordPathsWriteNothingAndAllocateNothing) {
  obs::Registry reg;
  obs::Counter* c;
  obs::Histogram* h;
  obs::Gauge* g;
  std::uint64_t warm_count;
  {
    // Warm every lazy path while enabled: registration, this thread's
    // stripe index, and the span site's static registration.
    obs::EnabledGuard on(true);
    c = reg.counter("warm_total");
    h = reg.histogram("warm_us", {1.0, 10.0});
    g = reg.gauge("warm_depth");
    c->add();
    h->observe(1.0);
    g->set(1);
    span_alloc_probe();
    warm_count = c->value();
  }
  obs::EnabledGuard off(false);
  const std::size_t allocs_before = test_support::heap_allocations();
  for (int i = 0; i < 10000; ++i) {
    c->add();
    h->observe(5.0);
    g->add(1);
    span_alloc_probe();
  }
  // Disabled means silent: no allocation and no recorded value moved.
  EXPECT_EQ(test_support::heap_allocations(), allocs_before);
  EXPECT_EQ(c->value(), warm_count);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(g->value(), 1);
}

TEST(ObsExport, PrometheusGolden) {
  obs::EnabledGuard on(true);
  obs::Registry reg;
  reg.counter("demo_requests_total", {{"path", "/q"}}, "Requests")->add(3);
  reg.gauge("demo_queue_depth")->set(2);
  obs::Histogram* h =
      reg.histogram("demo_latency_us", {1.0, 2.0, 4.0}, {}, "Latency");
  h->observe(0.5);
  h->observe(3.0);
  h->observe(100.0);
  const std::string expected =
      "# HELP demo_requests_total Requests\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total{path=\"/q\"} 3\n"
      "# TYPE demo_queue_depth gauge\n"
      "demo_queue_depth 2\n"
      "# HELP demo_latency_us Latency\n"
      "# TYPE demo_latency_us histogram\n"
      "demo_latency_us_bucket{le=\"1\"} 1\n"
      "demo_latency_us_bucket{le=\"2\"} 1\n"
      "demo_latency_us_bucket{le=\"4\"} 2\n"
      "demo_latency_us_bucket{le=\"+Inf\"} 3\n"
      "demo_latency_us_sum 103.5\n"
      "demo_latency_us_count 3\n";
  EXPECT_EQ(obs::render_prometheus(reg), expected);
}

TEST(ObsExport, JsonGolden) {
  obs::EnabledGuard on(true);
  obs::Registry reg;
  reg.counter("demo_requests_total", {{"path", "/q"}}, "Requests")->add(3);
  reg.gauge("demo_queue_depth")->set(2);
  obs::Histogram* h =
      reg.histogram("demo_latency_us", {1.0, 2.0, 4.0}, {}, "Latency");
  h->observe(0.5);
  h->observe(3.0);
  h->observe(100.0);
  const std::string expected =
      "{\n"
      "  \"schema\": \"seqge-metrics-v1\",\n"
      "  \"metrics\": [\n"
      "    {\"name\": \"demo_requests_total\", \"type\": \"counter\", "
      "\"labels\": {\"path\": \"/q\"}, \"value\": 3},\n"
      "    {\"name\": \"demo_queue_depth\", \"type\": \"gauge\", "
      "\"labels\": {}, \"value\": 2},\n"
      "    {\"name\": \"demo_latency_us\", \"type\": \"histogram\", "
      "\"labels\": {}, \"count\": 3, \"sum\": 103.5, \"max\": 100, "
      "\"p50\": 3, \"p95\": 100, \"p99\": 100, \"bounds\": [1, 2, 4], "
      "\"buckets\": [1, 0, 1, 1]}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(obs::render_json(reg), expected);
}

TEST(ObsExport, PeriodicDumperWritesFile) {
  obs::EnabledGuard on(true);
  obs::Registry::global().counter("obstest_dumper_total")->add();
  const std::string path = "test_obs_periodic_dump.json";
  std::remove(path.c_str());
  {
    obs::PeriodicDumper dumper(path, std::chrono::milliseconds(5));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }  // destructor stops and writes the final dump
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream body;
  body << f.rdbuf();
  EXPECT_NE(body.str().find("seqge-metrics-v1"), std::string::npos);
  EXPECT_NE(body.str().find("obstest_dumper_total"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seqge
