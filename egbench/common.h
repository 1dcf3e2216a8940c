// Shared measurement plumbing of the benchmark: timing samples, the
// in-memory span log of the traced run, the result report, and the
// environment probes (heap, allocation counter, CPU count).

#ifndef EGBENCH_COMMON_H_
#define EGBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace egbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// SplitMix64: derives the independent per-generator seeds from --seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// FNV-1a 64 over a byte string, chained through `h`.
uint64_t Fnv64(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ULL);

// A bag of measurements; percentiles interpolate linearly between ranks.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Sum() const {
    double sum = 0;
    for (double v : values_) {
      sum += v;
    }
    return sum;
  }
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> values_;
};

// Machine-speed calibration. On a shared machine the speed of this process
// drifts by up to 1.6x over seconds to minutes (other tenants on the same
// cores), so the same code measured in two runs differs by more than any
// bound worth gating on. Every run therefore times a fixed kernel (churn
// through a private allocator, see common.cc) every kEveryMs, and each
// timing is reported at nominal speed: the wall-clock value scaled by
// kNominalMs over the kernel time interpolated at the sample's midpoint.
// kNominalMs is a fixed constant, so a change that slows the library shows
// in full. The kernel calls no library code and never allocates: its memory
// is one mapping of its own, made and faulted in before its first timed
// run, so neither the library's allocator nor the state of the malloc heap
// moves it.
class Calibration {
 public:
  static constexpr double kNominalMs = 1.0;
  static constexpr double kEveryMs = 10.0;

  bool Due() const;
  void Run();
  // Kernel milliseconds at time `t`, interpolated between neighbouring runs.
  double KernelMsAt(Clock::time_point t) const;
  double MedianKernelMs() const;

 private:
  std::vector<std::pair<Clock::time_point, double>> points_;  // Ascending time.
};

// Samples of one timed quantity with the interval each was measured over;
// normalized to nominal speed once the run (and its calibration) is done.
class TimedSamples {
 public:
  void Add(Clock::time_point t0, Clock::time_point t1, double value) {
    entries_.push_back(Entry{t0 + (t1 - t0) / 2, value});
  }
  size_t size() const { return entries_.size(); }
  // Durations scale by kNominalMs / kernel ms; rates by the inverse. With
  // no calibration, the values as measured (wall clock).
  Samples Durations(const Calibration* calibration) const;
  Samples Rates(const Calibration* calibration) const;

 private:
  struct Entry {
    Clock::time_point mid;
    double value = 0;
  };
  std::vector<Entry> entries_;
};

// Times a set-up task at nominal machine speed. The task calls Step()
// between its steps; when the calibration kernel is due, Step() closes the
// current timed segment, runs the kernel outside it, and opens the next, so
// the calibration follows speed drift within a task of several seconds.
class NominalTimer {
 public:
  NominalTimer();
  void Step();
  // The segments' sum in seconds, each segment at nominal speed.
  double StopSeconds();

 private:
  Calibration calibration_;
  TimedSamples segments_;
  Clock::time_point t0_;
};

// Interleaves the phases of a run: each step runs one operation of the
// phase whose share of the elapsed time is furthest behind, so every
// phase's samples are spread over the whole run and a burst of outside load
// hits all of them alike instead of one phase's entire sample set. A
// phase's first `warmup` operations are untimed; the run ends once
// `seconds` have elapsed and every phase has `min_ops` timed operations.
// The calibration kernel runs between operations whenever it is due, and
// once before the first and after the last.
class Scheduler {
 public:
  // `op(timed)` runs one operation and records its own sample when timed.
  void Add(double share, int warmup, int min_ops, std::function<void(bool timed)> op);
  void Run(double seconds);
  const Calibration& calibration() const { return calibration_; }

 private:
  Calibration calibration_;
  struct Phase {
    double share = 0;
    int warmup = 0;
    int min_ops = 0;
    std::function<void(bool)> op;
    int done = 0;
    double used_ms = 0;
  };
  std::vector<Phase> phases_;
};

// The traced run's span log: kept in memory, written out at exit. Spans
// are recorded from the benchmark's own files around calls into the
// library's public functions; the library itself is not instrumented.
// Single-threaded: only the benchmark's main thread records spans.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;  // "<layer>.<call>", a string literal.
    uint32_t parent = kNone;     // Index of the enclosing span.
    uint32_t op = 0;             // Operation id (shared by one op's spans).
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };
  static constexpr uint32_t kNone = 0xffffffffu;

  SpanLog(bool enabled, std::string workload)
      : enabled_(enabled), workload_(std::move(workload)) {}
  bool enabled() const { return enabled_; }
  uint32_t NewOp() { return ++op_counter_; }

  // RAII span nested under the innermost open scope.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, uint32_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    uint32_t index_ = kNone;
  };

  // Records an already-timed interval under the innermost open scope.
  void Record(const char* name, uint32_t op, Clock::time_point t0, Clock::time_point t1);

  // Self time per layer (the name's prefix before the first '.'): each
  // span's duration minus the durations of its direct children, summed.
  std::map<std::string, double> SelfMsByLayer() const;

  // Writes every span as JSON (name, start/end in ns from the first span,
  // parent index, workload, op id). Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  uint64_t Ns(Clock::time_point t) const;
  bool enabled_;
  std::string workload_;
  uint32_t op_counter_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

// A measured interval.
struct Interval {
  Clock::time_point t0, t1;
  double ms() const { return MsBetween(t0, t1); }
};

// Times `fn` and, when the log is live, records the same interval as a span.
template <typename Fn>
Interval Timed(SpanLog& log, const char* name, uint32_t op, Fn&& fn) {
  Interval interval;
  interval.t0 = Clock::now();
  fn();
  interval.t1 = Clock::now();
  if (log.enabled()) {
    log.Record(name, op, interval.t0, interval.t1);
  }
  return interval;
}

template <typename Fn>
double TimedMs(SpanLog& log, const char* name, uint32_t op, Fn&& fn) {
  return Timed(log, name, op, fn).ms();
}

// The result of one run: metrics by name, plus every checked operation.
class Report {
 public:
  // A value that is not finite is reported as 0 and counted as a failed check.
  void Set(const std::string& name, double value, const std::string& unit);
  // Counts one checked operation; a failed one is described on stderr.
  bool Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // Prints every metric as a human-readable line, then the final JSON line.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Heap bytes in use per glibc (mallinfo2: arena chunks plus mmapped ones).
uint64_t HeapInUse();
// Pins malloc's mmap/trim thresholds for the whole run, so heap deltas
// repeat exactly. Every timed phase runs under the pin too: with glibc's
// dynamic mmap threshold, whether a large buffer is mmapped or reused from
// the heap depends on the allocation history, which the time-driven
// interleaving of phases makes differ between runs.
void PinMallocThresholds();
// Total allocations counted by the library's allocation tracker, or nullopt
// when no tracker is linked (the count does not move across an allocation).
std::optional<uint64_t> AllocationCount();
// CPUs this process may run on (what `nproc` prints).
int CpuCount();

// Reports `--seconds`-independent facts about the run on stdout.
void PrintEnvironment(const std::string& workload, uint64_t seed, int threads_used,
                      const std::string& git_sha);

}  // namespace egbench

#endif  // EGBENCH_COMMON_H_
