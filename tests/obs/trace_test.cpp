// TraceSink/TraceScope semantics (clocked spans, null-sink safety, the
// deterministic drop-new ring policy) and Chrome trace JSON
// well-formedness, checked with a small structural scanner.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace fnda::obs {
namespace {

/// Minimal JSON structural check: balanced braces/brackets outside
/// strings, legal escapes, nothing after the root value.  Enough to
/// guarantee chrome://tracing can lex the document.
bool well_formed_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool seen_root = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[':
        if (seen_root && depth == 0) return false;
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        if (depth == 0) seen_root = true;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string && seen_root;
}

TEST(TraceSink, ScopeRecordsSpanAgainstSinkClock) {
  TraceSink sink(3, 16);
  std::int64_t now = 100;
  sink.set_clock([&now] { return now; });
  {
    TraceScope scope(&sink, "work", "test");
    now = 250;
  }
  ASSERT_EQ(sink.events().size(), 1u);
  const TraceEvent& event = sink.events().front();
  EXPECT_STREQ(event.name, "work");
  EXPECT_EQ(event.ts_micros, 100);
  EXPECT_EQ(event.dur_micros, 150);
  EXPECT_EQ(event.tid, 3u);
}

TEST(TraceSink, NullSinkScopeIsANoOp) {
  TraceScope scope(nullptr, "free", "test");  // must not crash
}

TEST(TraceSink, RingKeepsFirstEventsAndCountsDrops) {
  TraceSink sink(0, 2);
  sink.record_span("a", "t", 1, 1);
  sink.record_span("b", "t", 2, 1);
  sink.record_span("c", "t", 3, 1);  // dropped: ring keeps the FIRST two
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_STREQ(sink.events()[0].name, "a");
  EXPECT_STREQ(sink.events()[1].name, "b");
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceLog, AppendConcatenatesSinksInOrder) {
  TraceSink driver(0, 8);
  TraceSink shard(1, 8);
  driver.record_span("epoch", "driver", 0, 10);
  shard.record_span("round", "server", 5, 5);

  TraceLog log;
  log.append(driver, "epoch-driver");
  log.append(shard, "shard-0");
  ASSERT_EQ(log.threads.size(), 2u);
  EXPECT_EQ(log.threads[0].name, "epoch-driver");
  ASSERT_EQ(log.events.size(), 2u);
  EXPECT_STREQ(log.events[0].name, "epoch");
  EXPECT_STREQ(log.events[1].name, "round");
}

TEST(ChromeTrace, OutputIsWellFormedJson) {
  TraceSink sink(1, 8);
  sink.record_span("span", "cat", 10, 20);
  TraceLog log;
  log.append(sink, "shard-0");

  std::ostringstream os;
  write_chrome_trace(os, log);
  const std::string text = os.str();
  EXPECT_TRUE(well_formed_json(text)) << text;
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"span\""), std::string::npos);
}

TEST(ChromeTrace, EscapesHostileThreadNames) {
  TraceSink sink(1, 8);
  TraceLog log;
  log.append(sink, "evil\"name\\with\nnoise");

  std::ostringstream os;
  write_chrome_trace(os, log);
  const std::string text = os.str();
  EXPECT_TRUE(well_formed_json(text)) << text;
  EXPECT_NE(text.find("evil\\\"name\\\\with\\nnoise"), std::string::npos);
}

TEST(ChromeTrace, EmptyLogStillProducesADocument) {
  std::ostringstream os;
  write_chrome_trace(os, TraceLog{});
  EXPECT_TRUE(well_formed_json(os.str())) << os.str();
}

}  // namespace
}  // namespace fnda::obs
