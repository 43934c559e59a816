//===- obs/Obs.cpp - Self-observability for the profiling pipeline ------------===//

#include "obs/Obs.h"

#include "support/Env.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string_view>
#include <tuple>
#include <vector>

using namespace pp;
using namespace pp::obs;

namespace {

const char *const CounterNames[] = {
    "cache.disk_hits",        "cache.misses",
    "cache.stores",           "cache.corrupt_evictions",
    "cache.write_failures",
    "scheduler.submitted",    "scheduler.folded",
    "scheduler.executed",     "scheduler.failed",
    "vm.insts",
    "profdb.bytes_encoded",   "profdb.bytes_decoded",
    "profdb.merges",          "fault.reads_corrupted",
    "fault.writes_failed",    "fault.runs_failed",
    "acq.traps_delivered",    "acq.samples_recorded",
    "collectd.accepted",      "collectd.rejected",
    "collectd.queries",       "collectd.rate_limited",
    "collectd.windows_expired", "collectd.net.conns",
    "collectd.net.frames_in", "collectd.net.frames_out",
    "collectd.net.bytes_in",  "collectd.net.bytes_out",
    "collectd.net.protocol_errors", "collectd.net.idle_closed",
    "opt.functions_reordered", "opt.blocks_duplicated",
    "opt.sites_inlined",      "opt.profile_refusals",
};
static_assert(sizeof(CounterNames) / sizeof(CounterNames[0]) ==
                  static_cast<size_t>(Counter::NumCounters),
              "counter name table out of sync with the enum");

uint64_t hostNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One trace entry: a closed span or a gauge sample, with the lane of the
/// thread that recorded it.
struct Record {
  const char *Cat = "";
  const char *Name = "";
  char Label[64] = {0};
  uint64_t Work = 0;
  uint64_t Items = 0;
  uint64_t T0Ns = 0;
  uint64_t T1Ns = 0;
  int64_t GaugeValue = 0;
  unsigned Lane = 0;
  bool IsGauge = false;
};

struct SpanSum {
  uint64_t Count = 0;
  uint64_t Items = 0;
  uint64_t Work = 0;
};

/// The process-wide recorder: counters, the span table the JSON report
/// reads and the capped trace buffer the Chrome trace reads (Obs.h's file
/// comment gives the bounds). Recording sites are stage boundaries, so one
/// short critical section per record is cheap.
class Collector {
public:
  static Collector &instance() {
    static Collector C;
    return C;
  }

  Collector()
      : StartNs(hostNowNs()), TraceCapacity(configuredRingCapacity()) {
    // Recording defaults on; only a strict PP_OBS=0 disables it. A value
    // like PP_OBS=true warns and keeps the default instead of silently
    // reading as anything.
    Enabled.store(envBoolOr("PP_OBS", "pp-obs", true),
                  std::memory_order_relaxed);
    if (const char *Out = std::getenv("PP_OBS_OUT"))
      ReportPath = Out;
    if (const char *Trace = std::getenv("PP_OBS_TRACE"))
      TracePath = Trace;
  }

  ~Collector() {
    // Process exit: the scheduler (a function-local static constructed
    // after this collector, because its construction records counters)
    // has already been destroyed and its workers joined, so nothing
    // records any more.
    std::string Report, Trace;
    {
      std::lock_guard<std::mutex> Lock(PathMu);
      Report = ReportPath;
      Trace = TracePath;
    }
    if (!Report.empty())
      writeFile(Report, renderJson(), "report");
    if (!Trace.empty())
      writeFile(Trace, renderTrace(), "trace");
  }

  std::atomic<bool> Enabled{true};
  std::array<std::atomic<uint64_t>,
             static_cast<size_t>(Counter::NumCounters)>
      Counters{};
  uint64_t StartNs;

  void setReportPath(const std::string &Path) {
    std::lock_guard<std::mutex> Lock(PathMu);
    ReportPath = Path;
  }
  void setTracePath(const std::string &Path) {
    std::lock_guard<std::mutex> Lock(PathMu);
    TracePath = Path;
  }

  /// Adds a closed span to the span table (a gauge skips it) and appends
  /// \p R to the trace buffer, which grows on demand up to TraceCapacity
  /// and counts what it refuses past that.
  void record(Record R) {
    static std::atomic<unsigned> NextLane{0};
    thread_local const unsigned Lane =
        NextLane.fetch_add(1, std::memory_order_relaxed);
    R.Lane = Lane;
    std::lock_guard<std::mutex> Lock(RecordMu);
    if (!R.IsGauge) {
      // Looked up through views: a key already present allocates nothing.
      std::tuple<std::string_view, std::string_view, std::string_view> Key(
          R.Cat, R.Name, R.Label);
      auto It = Spans.lower_bound(Key);
      if (It == Spans.end() || Key < It->first)
        It = Spans.emplace_hint(It, Key, SpanSum{});
      ++It->second.Count;
      It->second.Items += R.Items;
      It->second.Work += R.Work;
    }
    if (Trace.size() == TraceCapacity) {
      ++Dropped;
      return;
    }
    if (Trace.size() == Trace.capacity())
      Trace.reserve(std::min(TraceCapacity, 2 * Trace.size() + 64));
    Trace.push_back(R);
  }

  void reset() {
    for (auto &C : Counters)
      C.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(RecordMu);
    Spans.clear();
    std::vector<Record>().swap(Trace);
    Dropped = 0;
  }

  std::string renderJson();
  std::string renderTrace();

private:
  static void writeFile(const std::string &Path, const std::string &Bytes,
                        const char *What) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    if (!Out) {
      std::fprintf(stderr, "pp-obs: warning: cannot write %s to '%s'\n",
                   What, Path.c_str());
      return;
    }
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  const size_t TraceCapacity;
  std::mutex RecordMu;
  /// Span sums by (category, name, label); iteration order is the
  /// report's sort.
  std::map<std::tuple<std::string, std::string, std::string>, SpanSum,
           std::less<>>
      Spans;
  std::vector<Record> Trace;
  uint64_t Dropped = 0;
  std::mutex PathMu;
  std::string ReportPath;
  std::string TracePath;
};

void jsonEscapeInto(std::string &Out, const char *Text) {
  for (const char *P = Text; *P; ++P) {
    unsigned char C = static_cast<unsigned char>(*P);
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
}

void appendUint(std::string &Out, uint64_t Value) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(Value));
  Out += Buf;
}

std::string Collector::renderJson() {
  std::lock_guard<std::mutex> Lock(RecordMu);
  std::string Out;
  Out += "{\n  \"pp_obs_version\": 1,\n  \"dropped_records\": ";
  appendUint(Out, Dropped);
  Out += ",\n  \"counters\": {\n";
  for (size_t Index = 0;
       Index != static_cast<size_t>(Counter::NumCounters); ++Index) {
    Out += "    \"";
    Out += CounterNames[Index];
    Out += "\": ";
    appendUint(Out, Counters[Index].load(std::memory_order_relaxed));
    Out += Index + 1 == static_cast<size_t>(Counter::NumCounters) ? "\n"
                                                                  : ",\n";
  }
  Out += "  },\n  \"spans\": [\n";
  // Virtual time: span sums laid end to end in sorted order, each
  // occupying exactly its work measure. No host clock anywhere.
  uint64_t Cursor = 0;
  size_t Emitted = 0;
  for (const auto &[Key, A] : Spans) {
    Out += "    {\"cat\": \"";
    jsonEscapeInto(Out, std::get<0>(Key).c_str());
    Out += "\", \"name\": \"";
    jsonEscapeInto(Out, std::get<1>(Key).c_str());
    Out += "\", \"label\": \"";
    jsonEscapeInto(Out, std::get<2>(Key).c_str());
    Out += "\", \"count\": ";
    appendUint(Out, A.Count);
    Out += ", \"items\": ";
    appendUint(Out, A.Items);
    Out += ", \"work\": ";
    appendUint(Out, A.Work);
    Out += ", \"vt0\": ";
    appendUint(Out, Cursor);
    Out += ", \"vt1\": ";
    appendUint(Out, Cursor + A.Work);
    Cursor += A.Work;
    Out += ++Emitted == Spans.size() ? "}\n" : "},\n";
  }
  Out += "  ]\n}\n";
  return Out;
}

std::string Collector::renderTrace() {
  std::string Out = "{\"traceEvents\": [\n";
  std::lock_guard<std::mutex> Lock(RecordMu);
  for (size_t Index = 0; Index != Trace.size(); ++Index) {
    const Record &R = Trace[Index];
    if (Index)
      Out += ",\n";
    char Head[160];
    if (R.IsGauge) {
      std::snprintf(Head, sizeof(Head),
                    "{\"ph\": \"C\", \"pid\": 1, \"tid\": %u, "
                    "\"ts\": %.3f, \"name\": \"",
                    R.Lane, double(R.T0Ns - StartNs) / 1e3);
      Out += Head;
      jsonEscapeInto(Out, R.Name);
      Out += "\", \"args\": {\"value\": ";
      char Val[32];
      std::snprintf(Val, sizeof(Val), "%lld",
                    static_cast<long long>(R.GaugeValue));
      Out += Val;
      Out += "}}";
      continue;
    }
    std::snprintf(Head, sizeof(Head),
                  "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"cat\": \"",
                  R.Lane, double(R.T0Ns - StartNs) / 1e3,
                  double(R.T1Ns - R.T0Ns) / 1e3);
    Out += Head;
    jsonEscapeInto(Out, R.Cat);
    Out += "\", \"name\": \"";
    jsonEscapeInto(Out, R.Name);
    Out += "\", \"args\": {\"label\": \"";
    jsonEscapeInto(Out, R.Label);
    Out += "\", \"work\": ";
    appendUint(Out, R.Work);
    Out += ", \"items\": ";
    appendUint(Out, R.Items);
    Out += "}}";
  }
  Out += "\n]}\n";
  return Out;
}

} // namespace

const char *obs::counterName(Counter C) {
  return CounterNames[static_cast<size_t>(C)];
}

size_t obs::configuredRingCapacity() {
  uint64_t Cap =
      envUint64Or("PP_OBS_RING_CAPACITY", "pp-obs", uint64_t(1) << 14);
  // Below 64 records the trace cannot hold even one run's spans; above
  // 2^20 (128 MiB of records) it would dwarf the work it traces.
  if (Cap < 64)
    Cap = 64;
  if (Cap > (uint64_t(1) << 20))
    Cap = uint64_t(1) << 20;
  return static_cast<size_t>(Cap);
}

bool obs::enabled() {
  return Collector::instance().Enabled.load(std::memory_order_relaxed);
}

void obs::setEnabled(bool On) {
  Collector::instance().Enabled.store(On, std::memory_order_relaxed);
}

void obs::add(Counter C, uint64_t Delta) {
  Collector &Coll = Collector::instance();
  if (!Coll.Enabled.load(std::memory_order_relaxed))
    return;
  Coll.Counters[static_cast<size_t>(C)].fetch_add(
      Delta, std::memory_order_relaxed);
}

uint64_t obs::counterValue(Counter C) {
  return Collector::instance().Counters[static_cast<size_t>(C)].load(
      std::memory_order_relaxed);
}

void obs::gauge(const char *Name, int64_t Value) {
  Collector &Coll = Collector::instance();
  if (!Coll.Enabled.load(std::memory_order_relaxed))
    return;
  Record R;
  R.Cat = "gauge";
  R.Name = Name;
  R.IsGauge = true;
  R.GaugeValue = Value;
  R.T0Ns = R.T1Ns = hostNowNs();
  Coll.record(R);
}

SpanScope::SpanScope(const char *Cat, const char *Name,
                     const std::string &Label, uint64_t Work, uint64_t Items)
    : Cat(Cat), Name(Name), Work(Work), Items(Items), T0Ns(0),
      Armed(obs::enabled()) {
  this->Label[0] = '\0';
  if (!Armed)
    return;
  std::strncpy(this->Label, Label.c_str(), sizeof(this->Label) - 1);
  this->Label[sizeof(this->Label) - 1] = '\0';
  T0Ns = hostNowNs();
}

SpanScope::~SpanScope() {
  if (!Armed)
    return;
  Record R;
  R.Cat = Cat;
  R.Name = Name;
  std::memcpy(R.Label, Label, sizeof(R.Label));
  R.Work = Work;
  R.Items = Items;
  R.T0Ns = T0Ns;
  R.T1Ns = hostNowNs();
  Collector::instance().record(R);
}

std::string obs::renderJsonReport() {
  return Collector::instance().renderJson();
}

std::string obs::renderChromeTrace() {
  return Collector::instance().renderTrace();
}

void obs::setReportPath(const std::string &Path) {
  Collector::instance().setReportPath(Path);
}

void obs::setTracePath(const std::string &Path) {
  Collector::instance().setTracePath(Path);
}

void obs::resetForTesting() { Collector::instance().reset(); }
