#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>

#if __has_include("util/memtrack.h")
#include "util/memtrack.h"
#define EGBENCH_HAVE_MEMTRACK 1
#endif

namespace egbench {

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv64(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) {
    return 0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

void Scheduler::Add(double share, int warmup, int min_ops, std::function<void(bool)> op) {
  if (share > 0) {
    phases_.push_back(Phase{share, warmup, min_ops, std::move(op)});
  }
}

namespace {

volatile uint64_t g_calibration_sink = 0;

// The calibration kernel: churn through a first-fit allocator with
// segregated free lists, block splitting and forward coalescing. Of the
// kernels tried side by side with the benchmark's operations over minutes of
// drift on a shared 4-vCPU VM, this branchy, pointer-chasing allocator code
// followed Doc::Load and Doc::LoadChain best (see README.md). It is private
// to the benchmark: its memory is one anonymous mapping, made and faulted
// in on first use, and it never calls malloc or operator new, so neither the
// library's allocator nor the state of the malloc heap can move it. What it
// still shares with the library is the machine (cores, caches, TLB, memory
// bandwidth), which is what it measures.
class KernelHeap {
 public:
  static constexpr size_t kArenaBytes = 4 << 20;
  static constexpr int kBins = 64;
  static constexpr size_t kLive = 512;

  static KernelHeap& Get() {
    static KernelHeap* heap = [] {
      void* p = mmap(nullptr, sizeof(KernelHeap), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) {
        std::perror("egbench: mmap of the calibration kernel's memory");
        std::abort();
      }
      std::memset(p, 0, sizeof(KernelHeap));  // Faults every page in now.
      return new (p) KernelHeap;
    }();
    return *heap;
  }

  // One round: `ops` frees and allocations of 16-215 bytes among kLive
  // slots, from an empty arena. The same every time.
  uint64_t Churn(int ops) {
    top_ = arena_;
    std::fill(bins_, bins_ + kBins, nullptr);
    std::fill(live_, live_ + kLive, nullptr);
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < ops; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      size_t slot = x % kLive;
      if (live_[slot] != nullptr) {
        Free(live_[slot]);
      }
      live_[slot] = Alloc(16 + (x >> 20) % 200);
      live_[slot][0] = static_cast<char>(i);
    }
    return static_cast<uint64_t>(top_ - arena_);
  }

 private:
  // A chunk starts with its size; the low bit marks it in use. A free
  // chunk links into its bin right after the header.
  struct Links {
    char* next;
    char* prev;
  };
  static constexpr size_t kHeader = 16;

  static uint64_t& Size(char* chunk) { return *reinterpret_cast<uint64_t*>(chunk); }
  static Links& LinksOf(char* chunk) { return *reinterpret_cast<Links*>(chunk + kHeader); }
  // Exact 16-byte classes below 512 bytes, then one bin per power of two.
  static int Bin(uint64_t size) {
    if (size < 512) {
      return static_cast<int>(size / 16);
    }
    return std::min(kBins - 1, 32 + static_cast<int>(std::bit_width(size)) - 10);
  }

  void Link(char* chunk) {
    char*& head = bins_[Bin(Size(chunk))];
    LinksOf(chunk) = Links{head, nullptr};
    if (head != nullptr) {
      LinksOf(head).prev = chunk;
    }
    head = chunk;
  }

  void Unlink(char* chunk) {
    Links& links = LinksOf(chunk);
    if (links.prev != nullptr) {
      LinksOf(links.prev).next = links.next;
    } else {
      bins_[Bin(Size(chunk))] = links.next;
    }
    if (links.next != nullptr) {
      LinksOf(links.next).prev = links.prev;
    }
  }

  char* Alloc(size_t bytes) {
    uint64_t need = std::max<uint64_t>(32, (bytes + kHeader + 15) & ~uint64_t{15});
    for (int b = Bin(need); b < kBins; ++b) {
      for (char* chunk = bins_[b]; chunk != nullptr; chunk = LinksOf(chunk).next) {
        uint64_t size = Size(chunk);
        if (size < need) {
          continue;  // Only in the power-of-two bins.
        }
        Unlink(chunk);
        if (size - need >= 32) {
          char* rest = chunk + need;
          Size(rest) = size - need;
          Link(rest);
          size = need;
        }
        Size(chunk) = size | 1;
        return chunk + kHeader;
      }
    }
    if (top_ + need > arena_ + kArenaBytes) {
      std::fprintf(stderr, "egbench: calibration kernel arena exhausted\n");
      std::abort();
    }
    char* chunk = top_;
    top_ += need;
    Size(chunk) = need | 1;
    return chunk + kHeader;
  }

  void Free(char* p) {
    char* chunk = p - kHeader;
    uint64_t size = Size(chunk) & ~uint64_t{1};
    for (char* next = chunk + size; next < top_ && (Size(next) & 1) == 0; next = chunk + size) {
      Unlink(next);
      size += Size(next);
    }
    Size(chunk) = size;
    if (chunk + size == top_) {
      top_ = chunk;
      return;
    }
    Link(chunk);
  }

  alignas(16) char arena_[kArenaBytes];
  char* top_;
  char* bins_[kBins];
  char* live_[kLive];
};

// Fixed work that no library change can touch: three rounds of churn.
void CalibrationKernel() {
  KernelHeap& heap = KernelHeap::Get();
  uint64_t acc = 0;
  for (int round = 0; round < 3; ++round) {
    acc += heap.Churn(8000);
  }
  g_calibration_sink = acc;
}

}  // namespace

bool Calibration::Due() const {
  return points_.empty() || MsBetween(points_.back().first, Clock::now()) >= kEveryMs;
}

void Calibration::Run() {
  KernelHeap::Get();  // The first call maps and faults in its memory: untimed.
  Clock::time_point t0 = Clock::now();
  CalibrationKernel();
  Clock::time_point t1 = Clock::now();
  points_.push_back({t0 + (t1 - t0) / 2, MsBetween(t0, t1)});
}

double Calibration::KernelMsAt(Clock::time_point t) const {
  if (points_.empty()) {
    return kNominalMs;
  }
  auto after = std::lower_bound(points_.begin(), points_.end(), t,
                                [](const auto& p, Clock::time_point v) { return p.first < v; });
  if (after == points_.begin()) {
    return after->second;
  }
  if (after == points_.end()) {
    return points_.back().second;
  }
  auto before = after - 1;
  double span = MsBetween(before->first, after->first);
  double w = span > 0 ? MsBetween(before->first, t) / span : 0;
  return before->second + (after->second - before->second) * w;
}

double Calibration::MedianKernelMs() const {
  Samples kernel;
  for (const auto& point : points_) {
    kernel.Add(point.second);
  }
  return kernel.Median();
}

Samples TimedSamples::Durations(const Calibration* calibration) const {
  Samples out;
  for (const Entry& e : entries_) {
    out.Add(calibration == nullptr
                ? e.value
                : e.value * Calibration::kNominalMs / calibration->KernelMsAt(e.mid));
  }
  return out;
}

Samples TimedSamples::Rates(const Calibration* calibration) const {
  Samples out;
  for (const Entry& e : entries_) {
    out.Add(calibration == nullptr
                ? e.value
                : e.value * calibration->KernelMsAt(e.mid) / Calibration::kNominalMs);
  }
  return out;
}

NominalTimer::NominalTimer() {
  calibration_.Run();
  t0_ = Clock::now();
}

void NominalTimer::Step() {
  if (!calibration_.Due()) {
    return;
  }
  Clock::time_point t1 = Clock::now();
  segments_.Add(t0_, t1, MsBetween(t0_, t1));
  calibration_.Run();
  t0_ = Clock::now();
}

double NominalTimer::StopSeconds() {
  Clock::time_point t1 = Clock::now();
  segments_.Add(t0_, t1, MsBetween(t0_, t1));
  calibration_.Run();
  return segments_.Durations(&calibration_).Sum() / 1000.0;
}

void Scheduler::Run(double seconds) {
  Clock::time_point start = Clock::now();
  calibration_.Run();
  for (;;) {
    if (calibration_.Due()) {
      calibration_.Run();
    }
    Phase* next = nullptr;
    bool short_of_samples = false;
    for (Phase& phase : phases_) {
      short_of_samples = short_of_samples || phase.done < phase.warmup + phase.min_ops;
      if (next == nullptr || phase.used_ms / phase.share < next->used_ms / next->share) {
        next = &phase;
      }
    }
    if (next == nullptr ||
        (!short_of_samples && MsBetween(start, Clock::now()) >= seconds * 1000.0)) {
      calibration_.Run();
      return;
    }
    Clock::time_point t0 = Clock::now();
    next->op(next->done >= next->warmup);
    next->used_ms += MsBetween(t0, Clock::now());
    ++next->done;
  }
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, uint32_t op) : log_(log) {
  if (!log_.enabled_) {
    return;
  }
  index_ = static_cast<uint32_t>(log_.spans_.size());
  Span span;
  span.name = name;
  span.parent = log_.open_.empty() ? kNone : log_.open_.back();
  span.op = op;
  log_.spans_.push_back(span);
  log_.open_.push_back(index_);
  log_.spans_.back().start_ns = log_.Ns(Clock::now());
}

SpanLog::Scope::~Scope() {
  if (index_ == kNone) {
    return;
  }
  log_.spans_[index_].end_ns = log_.Ns(Clock::now());
  log_.open_.pop_back();
}

void SpanLog::Record(const char* name, uint32_t op, Clock::time_point t0, Clock::time_point t1) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNone : open_.back();
  span.op = op;
  span.start_ns = Ns(t0);
  span.end_ns = Ns(t1);
  spans_.push_back(span);
}

uint64_t SpanLog::Ns(Clock::time_point t) const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count());
}

std::map<std::string, double> SpanLog::SelfMsByLayer() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    uint64_t dur = span.end_ns - span.start_ns;
    uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    std::string name(span.name);
    out[name.substr(0, name.find('.'))] += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    base = std::min(base, span.start_ns);
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [\n", workload_.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %lld, \"workload\": \"%s\", \"op\": %u}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns - base),
                 static_cast<unsigned long long>(s.end_ns - base),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent), workload_.c_str(),
                 s.op, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  // JSON has no NaN or inf, and a 0 in their place would read as the best
  // result of a lower-is-better metric: count it as a failed check.
  if (!std::isfinite(value)) {
    Check(false, name + " is not a finite number");
    value = 0;
  }
  for (auto& [key, entry] : metrics_) {
    if (key == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

bool Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  return ok;
}

void Report::Print() const {
  for (const auto& [key, entry] : metrics_) {
    std::printf("  %-40s %16.6g %s\n", key.c_str(), entry.first, entry.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].first.c_str(), metrics_[i].second.first,
                metrics_[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

uint64_t HeapInUse() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<uint64_t>(info.uordblks) + static_cast<uint64_t>(info.hblkhd);
}

void PinMallocThresholds() {
  // Setting either threshold turns off glibc's dynamic mmap threshold,
  // which otherwise moves after the first large free and makes the same
  // allocation land in a different place from one run to the next.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

std::optional<uint64_t> AllocationCount() {
#ifdef EGBENCH_HAVE_MEMTRACK
  static const bool linked = [] {
    size_t before = egwalker::memtrack::TotalAllocations();
    // A direct ::operator new call may not be elided, unlike a new-expression.
    void* volatile p = ::operator new(64);
    ::operator delete(p);
    return egwalker::memtrack::TotalAllocations() != before;
  }();
  if (linked) {
    return egwalker::memtrack::TotalAllocations();
  }
#endif
  return std::nullopt;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

void PrintEnvironment(const std::string& workload, uint64_t seed, int threads_used,
                      const std::string& git_sha) {
  std::printf(
      "env: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, \"threads_used\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"git_sha\": \"%s\"}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), CpuCount(), threads_used,
      EGBENCH_BUILD_TYPE, EGBENCH_COMPILER, git_sha.c_str());
}

}  // namespace egbench
