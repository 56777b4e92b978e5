// Unit tests for the observability spine (src/obs/): metrics registry
// and exporters, hot counter table, event journal, and the tracer's
// span storage/collection mechanics. Serving-tier wiring is covered by
// serve_observability_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pitex {
namespace obs {
namespace {

TEST(CounterTest, FoldsShardsExactlyAcrossThreads) {
  Counter counter;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Inc(42);
  EXPECT_EQ(counter.Value(), kThreads * kPerThread + 42);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.Value(), -3);
}

TEST(HistogramTest, BucketsAndSum) {
  Histogram histogram({1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket 0 (<= 1)
  histogram.Observe(1.0);    // bucket 0 (le is inclusive)
  histogram.Observe(5.0);    // bucket 1
  histogram.Observe(1000.0); // +Inf bucket
  const std::vector<uint64_t> counts = histogram.Counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(histogram.TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 1006.5);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentPerName) {
  MetricsRegistry registry;
  Counter* a = registry.RegisterCounter("pitex_test_total", "help");
  Counter* b = registry.RegisterCounter("pitex_test_total", "other help");
  EXPECT_EQ(a, b);  // same handle: a restarted component keeps counts
  a->Inc(3);
  EXPECT_EQ(registry.Snapshot().CounterValue("pitex_test_total"), 3u);
}

TEST(MetricsRegistryTest, HandlesStayStableAcrossRegistrations) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("pitex_first_total", "help");
  Gauge* gauge = registry.RegisterGauge("pitex_first", "help");
  Histogram* histogram =
      registry.RegisterHistogram("pitex_first_seconds", "help", {1.0});
  counter->Inc(2);
  gauge->Set(7);
  histogram->Observe(0.5);
  // Enough later registrations to grow the entry table several times.
  for (int i = 0; i < 100; ++i) {
    const std::string suffix = std::to_string(i);
    registry.RegisterCounter("pitex_more_total_" + suffix, "help")->Inc();
    registry.RegisterGauge("pitex_more_" + suffix, "help")->Set(i);
  }
  EXPECT_EQ(registry.RegisterCounter("pitex_first_total", "help"), counter);
  EXPECT_EQ(registry.RegisterGauge("pitex_first", "help"), gauge);
  EXPECT_EQ(registry.RegisterHistogram("pitex_first_seconds", "help", {1.0}),
            histogram);
  counter->Inc();
  gauge->Add(1);
  histogram->Observe(2.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("pitex_first_total"), 3u);
  EXPECT_EQ(snapshot.GaugeValue("pitex_first"), 8);
  EXPECT_EQ(snapshot.HistogramCount("pitex_first_seconds"), 2u);
  EXPECT_EQ(snapshot.GaugeValue("pitex_more_99"), 99);
}

TEST(MetricsRegistryTest, SnapshotRunsCollectorsFirst) {
  MetricsRegistry registry;
  Gauge* gauge = registry.RegisterGauge("pitex_test_gauge", "help");
  std::atomic<int64_t> source{0};
  registry.AddCollector([gauge, &source] {
    gauge->Set(source.load(std::memory_order_relaxed));
  });
  source.store(11);
  EXPECT_EQ(registry.Snapshot().GaugeValue("pitex_test_gauge"), 11);
  source.store(-4);
  EXPECT_EQ(registry.Snapshot().GaugeValue("pitex_test_gauge"), -4);
}

TEST(MetricsRegistryTest, FindReturnsNullOnUnknownName) {
  MetricsRegistry registry;
  registry.RegisterCounter("pitex_known_total", "help");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_NE(snapshot.Find("pitex_known_total"), nullptr);
  EXPECT_EQ(snapshot.Find("pitex_unknown_total"), nullptr);
}

TEST(MetricsRegistryTest, JsonExportShape) {
  MetricsRegistry registry;
  registry.RegisterCounter("pitex_c_total", "counter help")->Inc(5);
  registry.RegisterGauge("pitex_g", "gauge help")->Set(-2);
  registry.RegisterHistogram("pitex_h_seconds", "histogram help",
                             {0.5, 2.0})->Observe(1.0);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("{\"metrics\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"pitex_c_total\",\"type\":\"counter\","
                      "\"value\":5"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"pitex_g\",\"type\":\"gauge\",\"value\":-2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"type\":\"histogram\",\"count\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, PrometheusExportCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram* histogram =
      registry.RegisterHistogram("pitex_h_seconds", "h help", {1.0, 10.0});
  histogram->Observe(0.5);
  histogram->Observe(5.0);
  histogram->Observe(50.0);
  const std::string prom = registry.Snapshot().ToPrometheus();
  EXPECT_NE(prom.find("# HELP pitex_h_seconds h help"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE pitex_h_seconds histogram"), std::string::npos);
  // Cumulative: 1 at le=1, 2 at le=10, 3 at +Inf.
  EXPECT_NE(prom.find("pitex_h_seconds_bucket{le=\"1\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("pitex_h_seconds_bucket{le=\"10\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("pitex_h_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("pitex_h_seconds_count 3"), std::string::npos) << prom;
}

TEST(HotCounterTest, CountMacroHitsTheTable) {
  const uint64_t before =
      HotCounterRef(HotCounter::kSolveFrontierPops).Value();
  PITEX_COUNT(kSolveFrontierPops, 3);
  EXPECT_EQ(HotCounterRef(HotCounter::kSolveFrontierPops).Value(),
            before + 3);
  const MetricsSnapshot snapshot = HotCountersSnapshot();
  EXPECT_GE(snapshot.CounterValue("pitex_solve_frontier_pops_total"),
            before + 3);
  // Every table slot exports with a stable name.
  EXPECT_EQ(snapshot.metrics.size(),
            static_cast<size_t>(HotCounter::kHotCounterCount));
}

TEST(EventJournalTest, SnapshotOldestFirst) {
  EventJournal journal(16);
  EXPECT_EQ(journal.capacity(), 16u);
  journal.Record(EventKind::kShed, 1, 2);
  journal.Record(EventKind::kEpochSwap, 3, 4);
  journal.Record(EventKind::kWalFailure, 5);
  const std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kShed);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 2u);
  EXPECT_EQ(events[1].kind, EventKind::kEpochSwap);
  EXPECT_EQ(events[2].kind, EventKind::kWalFailure);
  EXPECT_LE(events[0].t_ns, events[2].t_ns);
  EXPECT_EQ(journal.total_recorded(), 3u);
}

TEST(EventJournalTest, OverwritesOldestWhenFull) {
  EventJournal journal(4);  // rounds to 4
  for (uint64_t i = 0; i < 10; ++i) {
    journal.Record(EventKind::kEpochSwap, i);
  }
  const std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The ring keeps the newest 4 (payloads 6..9), oldest-first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6u + i);
  }
  EXPECT_EQ(journal.total_recorded(), 10u);
}

TEST(EventJournalTest, CapacityRoundsUpToPowerOfTwo) {
  EventJournal journal(100);
  EXPECT_EQ(journal.capacity(), 128u);
}

TEST(EventJournalTest, ConcurrentRecordersNeverTearSnapshot) {
  EventJournal journal(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&journal, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        journal.Record(EventKind::kDegraded, t, i++);
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    const std::vector<Event> events = journal.Snapshot();
    EXPECT_LE(events.size(), journal.capacity());
    for (const Event& event : events) {
      // A torn slot would show a writer id the payload scheme never
      // produced together; the stamp re-check must have filtered it.
      EXPECT_EQ(event.kind, EventKind::kDegraded);
      EXPECT_LT(event.a, 4u);
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& writer : writers) writer.join();
}

TEST(EventJournalTest, DumpToRendersEveryEvent) {
  EventJournal journal(8);
  journal.Record(EventKind::kCheckpoint, 17, 3);
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  journal.DumpTo(tmp);
  std::rewind(tmp);
  char buffer[512] = {};
  const size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, tmp);
  std::fclose(tmp);
  const std::string text(buffer, read);
  EXPECT_NE(text.find("event journal (1 events"), std::string::npos) << text;
  EXPECT_NE(text.find("checkpoint a=17 b=3"), std::string::npos) << text;
}

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !PITEX_TRACING_ENABLED
    GTEST_SKIP() << "tracing compiled out (-DPITEX_TRACING=OFF)";
#endif
    Tracer::Instance().SetSampleEvery(1);
    Tracer::Instance().Clear();
  }
  void TearDown() override {
    Tracer::Instance().SetSampleEvery(0);
    Tracer::Instance().Clear();
  }
};

TEST_F(TracerTest, SamplingOffMeansUnsampledContexts) {
  Tracer::Instance().SetSampleEvery(0);
  const TraceContext context = TraceContext::Start();
  EXPECT_FALSE(context.sampled());
  EXPECT_EQ(context.id(), 0u);
  // Recording against id 0 is the no-op that makes unsampled queries
  // free: nothing lands in any buffer.
  context.Record(SpanKind::kSolve, 1, 2);
  EXPECT_TRUE(Tracer::Instance().CollectAll().empty());
}

TEST_F(TracerTest, CollectStitchesOneTraceAcrossThreads) {
  const TraceContext context = TraceContext::Start();
  ASSERT_TRUE(context.sampled());
  context.Record(SpanKind::kAdmission, 100, 200);
  std::thread worker([&context] {
    context.Record(SpanKind::kQueueWait, 150, 400);
    context.Record(SpanKind::kSolve, 400, 900);
  });
  worker.join();
  // Noise from another trace must not leak into the collection.
  const TraceContext other = TraceContext::Start();
  other.Record(SpanKind::kSolve, 0, 1);

  const std::vector<SpanRecord> spans =
      Tracer::Instance().Collect(context.id());
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].kind, SpanKind::kAdmission);  // sorted by start
  EXPECT_EQ(spans[1].kind, SpanKind::kQueueWait);
  EXPECT_EQ(spans[2].kind, SpanKind::kSolve);
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, context.id());
    EXPECT_GE(span.end_ns, span.start_ns);
  }
}

TEST_F(TracerTest, ScopedSpanAttributesToTheArmedTrace) {
  const TraceContext context = TraceContext::Start();
  {
    PITEX_TRACE_SCOPE(context.id());
    PITEX_SPAN(kSolve);
    {
      PITEX_SPAN(kCacheProbe);  // nests: both record against context
    }
  }
  {
    PITEX_SPAN(kSwap);  // no trace armed here: inert, no record
  }
  const std::vector<SpanRecord> spans =
      Tracer::Instance().Collect(context.id());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, SpanKind::kSolve);
  EXPECT_EQ(spans[1].kind, SpanKind::kCacheProbe);
  // Nested: the probe lies within the solve span.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_TRUE(Tracer::Instance().CollectAll().size() == 2);
}

TEST_F(TracerTest, SampleEveryNKeepsOneInN) {
  Tracer::Instance().SetSampleEvery(4);
  size_t sampled = 0;
  for (int i = 0; i < 40; ++i) {
    if (TraceContext::Start().sampled()) ++sampled;
  }
  EXPECT_EQ(sampled, 10u);
}

TEST_F(TracerTest, RingOverwriteCountsDrops) {
  const TraceContext context = TraceContext::Start();
  ASSERT_TRUE(context.sampled());
  for (size_t i = 0; i < kSpanBufferCapacity + 10; ++i) {
    context.Record(SpanKind::kSolve, static_cast<int64_t>(i),
                   static_cast<int64_t>(i + 1));
  }
  EXPECT_EQ(Tracer::Instance().dropped(), 10u);
  EXPECT_EQ(Tracer::Instance().Collect(context.id()).size(),
            kSpanBufferCapacity);
}

TEST_F(TracerTest, SpanKindNamesAreStable) {
  EXPECT_STREQ(SpanKindName(SpanKind::kAdmission), "admission");
  EXPECT_STREQ(SpanKindName(SpanKind::kQueueWait), "queue_wait");
  EXPECT_STREQ(SpanKindName(SpanKind::kSolve), "solve");
  EXPECT_STREQ(SpanKindName(SpanKind::kWalFsync), "wal_fsync");
  EXPECT_STREQ(SpanKindName(SpanKind::kPack), "pack");
}

}  // namespace
}  // namespace obs
}  // namespace pitex
