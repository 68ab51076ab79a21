#include "obs/trace.h"

#include <ostream>

#include "obs/export.h"

namespace fnda::obs {

void TraceLog::append(const TraceSink& sink, std::string thread_name) {
  threads.push_back(Thread{sink.tid(), std::move(thread_name)});
  events.insert(events.end(), sink.events().begin(), sink.events().end());
  dropped += sink.dropped();
}

void write_chrome_trace(std::ostream& os, const TraceLog& log) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceLog::Thread& thread : log.threads) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << thread.tid << ",\"args\":{\"name\":\"" << json_escape(thread.name)
       << "\"}}";
  }
  for (const TraceEvent& event : log.events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(event.name) << "\",\"cat\":\""
       << json_escape(event.category)
       << "\",\"ph\":\"X\",\"ts\":" << event.ts_micros
       << ",\"dur\":" << event.dur_micros << ",\"pid\":1,\"tid\":"
       << event.tid << '}';
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace fnda::obs
