// ripple_perf — the end-to-end benchmark harness.
//
// One process runs one workload as a closed loop with one client: the next
// job starts after the previous one returns.  The first job after set-up
// is a warm-up and is not counted.  Every job's output is checked outside
// the timed region.  Usage:
//
//   ripple_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--commit <id>] [--spans <path>]
//
// --trace 0 measures the end-to-end metrics with no tracer and no layer
// decorators.  --trace 1 first repeats that untraced loop for half the
// time, then runs the same jobs again with the tracer and the kvstore/mq
// timing decorators attached, reports per-layer metrics per job, and
// checks that both halves produced identical output digests and
// identical ebsp.* counts (the decorators' transparency self-test).
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// The exit code is 1 when any output check failed, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "common/hash.h"
#include "common/random.h"
#include "ebsp/engine.h"
#include "graph/graph_gen.h"
#include "kvstore/log_store.h"
#include "kvstore/store_factory.h"
#include "layer_timing.h"
#include "matrix/summa.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#ifndef RIPPLE_PERF_BUILD_TYPE
#define RIPPLE_PERF_BUILD_TYPE "unknown"
#endif

using namespace ripple;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

/// Host-wide busy and stolen CPU ticks from /proc/stat (zeros when it is
/// unreadable).  Steal is time the hypervisor ran something else while
/// this machine's virtual CPUs wanted to run; it stretches wall times
/// without showing in CPU time, so runs report it to explain noise.
struct CpuTicks {
  double busy = 0;
  double steal = 0;
};

CpuTicks cpuTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  if (!(f >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal)) {
    return {};
  }
  return {user + nice + system + irq + softirq + steal, steal};
}

/// Linear interpolation between closest ranks (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t digestBytes(const void* data, std::size_t size) {
  return fnv1a64(BytesView(static_cast<const char*>(data), size));
}

/// The ebsp.* registry counters the self-test compares between the
/// untraced and traced halves.  ebsp.stolen_messages is left out: which
/// messages a no-sync worker steals depends on thread timing.
const char* const kEbspCounts[] = {
    "ebsp.steps",         "ebsp.barriers",           "ebsp.invocations",
    "ebsp.messages_sent", "ebsp.messages_delivered", "combine.in",
    "combine.out",        "ebsp.spills",             "ebsp.spill_bytes",
    "ebsp.state_reads",   "ebsp.state_writes",
};

/// Instruments shared by one set-up and the jobs run on it.  The
/// registry is attached in both modes (the engines fold their counters
/// into it once per run); the tracer and the decorators only when traced.
struct Probes {
  explicit Probes(bool traced) : traced(traced) {}

  bool traced;
  perf::StoreTiming store;
  perf::QueueTiming queue;
  obs::Tracer tracer;
  obs::MetricsRegistry registry;

  /// Set-up layer times (graph.generate_s, apps.load_s, ...).
  std::map<std::string, double> setupLayers;

  /// onStep intervals: each sample is the time since the previous step
  /// callback of the same job, or since the job started.
  std::vector<double> steps;
  Clock::time_point lastBoundary;

  void beginJob() { lastBoundary = Clock::now(); }
  void stepDone() {
    const Clock::time_point now = Clock::now();
    steps.push_back(std::chrono::duration<double>(now - lastBoundary).count());
    lastBoundary = now;
  }

  obs::Tracer* tracerOrNull() { return traced ? &tracer : nullptr; }
};

/// Times a set-up layer into Probes::setupLayers, with a harness span.
template <typename Fn>
auto timeLayer(Probes& p, const std::string& name, Fn&& fn) {
  obs::Tracer::Scoped span(p.tracerOrNull(), obs::Phase::kLoad);
  span->note = name;
  const Clock::time_point t0 = Clock::now();
  struct Record {
    Probes& p;
    const std::string& name;
    Clock::time_point t0;
    ~Record() { p.setupLayers[name] += secondsSince(t0); }
  } record{p, name, t0};
  return fn();
}

/// What the engine reports about one public call.
struct EngineShare {
  double runSeconds = 0;
  double virtualMakespan = 0;
};

/// One workload: set-up, a timed public call, and the output checks.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate inputs from the seed, build store and engine, load.
  virtual void setUp(Probes& p) = 0;
  /// Untimed preparation before a job.
  virtual void prepare() {}
  /// The timed call.
  virtual EngineShare job() = 0;
  /// Untimed output check of the job just run.  Returns false on a wrong
  /// output; `digest` receives the job's output digest (0 = none).
  virtual bool check(std::uint64_t& digest, std::string& why) = 0;
  /// End-of-loop check; `digest` receives the final state's digest.
  virtual bool finish(std::uint64_t& digest, std::string& why) {
    digest = 0;
    (void)why;
    return true;
  }
  /// Work units per job (see workUnit()).
  [[nodiscard]] virtual double workPerJob() const = 0;
  [[nodiscard]] virtual const char* workUnit() const = 0;
  [[nodiscard]] virtual const char* backend() const = 0;
  /// Input sizes and knobs, as JSON members.
  [[nodiscard]] virtual std::string sizes() const = 0;
};

int engineThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// The store a workload runs on; decorated when traced.
kv::KVStorePtr makeStore(kv::StoreBackend backend, std::uint32_t containers,
                         Probes& p) {
  kv::KVStorePtr inner = kv::makeStore(backend, containers);
  if (!p.traced) {
    return inner;
  }
  inner->metrics().bindRegistry(p.registry,
                                std::string("store.") + inner->backendName());
  if (auto* log = dynamic_cast<kv::LogStore*>(inner.get())) {
    log->bindLogMetrics(p.registry);
  }
  return perf::timeStore(std::move(inner), p.store);
}

std::unique_ptr<ebsp::Engine> makeEngine(const kv::KVStorePtr& store,
                                         Probes& p, ebsp::ExecutionMode mode) {
  ebsp::EngineOptions o;
  o.mode = mode;
  o.threads = engineThreads();
  o.metrics = &p.registry;
  o.tracer = p.tracerOrNull();
  if (p.traced) {
    o.queuing = std::make_shared<perf::TimedQueuing>(mq::makeMemQueuing(store),
                                                     p.queue);
  }
  o.onStep = [&p](int, std::uint64_t) { p.stepDone(); };
  return std::make_unique<ebsp::Engine>(store, std::move(o));
}

// --- PageRank -----------------------------------------------------------

class PageRankWorkload : public Workload {
 public:
  PageRankWorkload(std::uint64_t seed, bool mapReduce, kv::StoreBackend backend,
                   std::size_t vertices, std::uint64_t edges)
      : seed_(seed), mapReduce_(mapReduce), backend_(backend),
        vertices_(vertices), edges_(edges) {}

  void setUp(Probes& p) override {
    graph_ = timeLayer(p, "graph.generate_s", [&] {
      graph::PowerLawOptions gen;
      gen.vertices = vertices_;
      gen.edges = edges_;
      gen.seed = seed_;
      return graph::generatePowerLaw(gen);
    });
    timeLayer(p, "apps.load_s", [&] {
      store_ = makeStore(backend_, kParts, p);
      apps::loadPageRankGraph(*store_, kTable, graph_, kParts);
      engine_ = makeEngine(store_, p, ebsp::ExecutionMode::kAuto);
    });
    fresh_ = true;
  }

  void prepare() override {
    // The MapReduce variant starts its map step from the ranks in the
    // table, so every job needs the unranked graph reloaded.  The direct
    // variant reads only the structure and can rerun on the same table.
    if (mapReduce_ && !fresh_) {
      store_->dropTable(kTable);
      apps::loadPageRankGraph(*store_, kTable, graph_, kParts);
    }
    fresh_ = false;
    // On a durable store, commit between jobs: the commit deletes the
    // files of tables dropped since the last one (the previous job's
    // scratch tables and graph table) and flushes what the previous job
    // wrote, so every job starts from the same on-disk state instead of
    // competing with the previous jobs' write-back.
    if (auto* durable = dynamic_cast<kv::DurableStore*>(store_.get())) {
      durable->commitEpoch();
    }
  }

  EngineShare job() override {
    apps::PageRankOptions o;
    o.iterations = kIterations;
    o.graphTable = kTable;
    o.mapReduceVariant = mapReduce_;
    const apps::PageRankResult r = apps::runPageRank(*engine_, o);
    rankSum_ = r.rankSum;
    return {r.job.elapsedSeconds, r.job.virtualMakespan};
  }

  bool check(std::uint64_t& digest, std::string& why) override {
    const std::vector<double> ranks =
        apps::readRanks(*store_, kTable, graph_.vertexCount());
    digest = digestBytes(ranks.data(), ranks.size() * sizeof(double));
    if (std::abs(rankSum_ - 1.0) > 1e-6) {
      why = "rank sum " + std::to_string(rankSum_);
      return false;
    }
    if (!referenceChecked_) {
      referenceChecked_ = true;
      const std::vector<double> ref =
          apps::referencePageRank(graph_, 0.85, kIterations);
      for (std::size_t v = 0; v < ref.size(); ++v) {
        if (std::abs(ranks[v] - ref[v]) > 1e-9) {
          why = "rank of vertex " + std::to_string(v) + " differs from the "
                "reference by " + std::to_string(ranks[v] - ref[v]);
          return false;
        }
      }
    }
    return true;
  }

  [[nodiscard]] double workPerJob() const override {
    return static_cast<double>(graph_.edges) * kIterations;
  }
  [[nodiscard]] const char* workUnit() const override {
    return "edge-iterations";
  }
  [[nodiscard]] const char* backend() const override {
    return kv::storeBackendName(backend_);
  }
  [[nodiscard]] std::string sizes() const override {
    std::ostringstream s;
    s << "\"vertices\": " << vertices_ << ", \"edges\": " << graph_.edges
      << ", \"iterations\": " << kIterations << ", \"parts\": " << kParts
      << ", \"variant\": \"" << (mapReduce_ ? "mapreduce" : "direct") << "\"";
    return s.str();
  }

 private:
  static constexpr std::uint32_t kParts = 6;
  static constexpr int kIterations = 10;
  static constexpr const char* kTable = "pr_graph";

  std::uint64_t seed_;
  bool mapReduce_;
  kv::StoreBackend backend_;
  std::size_t vertices_;
  std::uint64_t edges_;
  graph::Graph graph_;
  kv::KVStorePtr store_;
  std::unique_ptr<ebsp::Engine> engine_;
  bool fresh_ = false;
  bool referenceChecked_ = false;
  double rankSum_ = 0;
};

// --- Incremental SSSP ---------------------------------------------------

class SsspWorkload : public Workload {
 public:
  explicit SsspWorkload(std::uint64_t seed) : seed_(seed), batchRng_(seed) {}

  void setUp(Probes& p) override {
    graph_ = timeLayer(p, "graph.generate_s", [&] {
      graph::PowerLawOptions gen;
      gen.vertices = kVertices;
      gen.edges = kEdges;
      gen.undirected = true;
      gen.seed = seed_;
      return graph::generatePowerLaw(gen);
    });
    mirror_ = graph_;
    timeLayer(p, "apps.load_s", [&] {
      store_ = makeStore(kv::StoreBackend::kPartitioned, kParts, p);
      engine_ = makeEngine(store_, p, ebsp::ExecutionMode::kAuto);
      apps::SsspOptions o;
      o.parts = kParts;
      o.selective = true;
      driver_ = std::make_unique<apps::SsspDriver>(*engine_, o);
      driver_->loadGraph(graph_);
    });
    timeLayer(p, "apps.init_s", [&] { driver_->initialize(); });
    // Batches are drawn from their own stream, so every set-up of one
    // seed applies the same sequence.
    batchRng_ = Rng(seed_ ^ 0x5eed5eed5eedULL);
  }

  void prepare() override {
    batch_ = graph::randomChangeBatch(kVertices, kChanges, kAlpha, batchRng_);
  }

  EngineShare job() override {
    const apps::SsspUpdateStats s = driver_->applyBatch(batch_);
    return {s.elapsedSeconds, s.virtualMakespan};
  }

  bool check(std::uint64_t& digest, std::string& why) override {
    // Distances are compared once, at the end of the loop; per batch the
    // reference graph only follows the changes.
    graph::applyChanges(mirror_, batch_);
    digest = 0;
    (void)why;
    return true;
  }

  bool finish(std::uint64_t& digest, std::string& why) override {
    const std::vector<std::int32_t> got = driver_->distances(kVertices);
    digest = digestBytes(got.data(), got.size() * sizeof(std::int32_t));
    const std::vector<std::int32_t> ref = graph::bfsDistances(mirror_, 0);
    for (std::size_t v = 0; v < ref.size(); ++v) {
      const std::int32_t want = ref[v] < 0 ? apps::kSsspInf : ref[v];
      if (got[v] != want) {
        why = "distance of vertex " + std::to_string(v) + " is " +
              std::to_string(got[v]) + ", BFS says " + std::to_string(want);
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] double workPerJob() const override { return kChanges; }
  [[nodiscard]] const char* workUnit() const override { return "changes"; }
  [[nodiscard]] const char* backend() const override { return "partitioned"; }
  [[nodiscard]] std::string sizes() const override {
    std::ostringstream s;
    s << "\"vertices\": " << kVertices << ", \"edges\": " << graph_.edges
      << ", \"batch_changes\": " << kChanges << ", \"alpha\": " << kAlpha
      << ", \"parts\": " << kParts << ", \"variant\": \"selective\"";
    return s.str();
  }

 private:
  static constexpr std::size_t kVertices = 25'000;
  static constexpr std::uint64_t kEdges = 450'000;
  static constexpr std::size_t kChanges = 1'000;
  static constexpr double kAlpha = 1.8;
  static constexpr std::uint32_t kParts = 6;

  std::uint64_t seed_;
  Rng batchRng_;
  graph::Graph graph_;
  graph::Graph mirror_;
  std::vector<graph::GraphChange> batch_;
  kv::KVStorePtr store_;
  std::unique_ptr<ebsp::Engine> engine_;
  std::unique_ptr<apps::SsspDriver> driver_;
};

// --- SUMMA without synchronization ----------------------------------------

class SummaWorkload : public Workload {
 public:
  explicit SummaWorkload(std::uint64_t seed) : seed_(seed) {}

  void setUp(Probes& p) override {
    timeLayer(p, "matrix.generate_s", [&] {
      Rng rng(seed_);
      a_ = matrix::BlockMatrix(kGrid, kBlock);
      b_ = matrix::BlockMatrix(kGrid, kBlock);
      a_.fillRandom(rng);
      b_.fillRandom(rng);
    });
    timeLayer(p, "apps.load_s", [&] {
      store_ = makeStore(kv::StoreBackend::kPartitioned, kGrid * kGrid, p);
      engine_ = makeEngine(store_, p, ebsp::ExecutionMode::kNoSync);
    });
  }

  EngineShare job() override {
    matrix::SummaOptions o;
    o.synchronized = false;
    o.parts = kGrid * kGrid;
    matrix::SummaResult r = matrix::runSumma(*engine_, a_, b_, o);
    c_ = std::move(r.c);
    return {r.job.elapsedSeconds, r.job.virtualMakespan};
  }

  bool check(std::uint64_t& digest, std::string& why) override {
    if (!expected_) {
      expected_ = matrix::BlockMatrix::multiplyReference(a_, b_);
    }
    digest = 0;
    for (std::size_t i = 0; i < kGrid; ++i) {
      for (std::size_t j = 0; j < kGrid; ++j) {
        const auto& d = c_.block(i, j).data();
        digest = mix64(digest ^ digestBytes(d.data(), d.size() * sizeof(double)));
      }
    }
    if (!c_.approxEqual(*expected_, 1e-9)) {
      why = "product differs from the serial reference";
      return false;
    }
    return true;
  }

  [[nodiscard]] double workPerJob() const override {
    const double n = static_cast<double>(kGrid * kBlock);
    return 2.0 * n * n * n;
  }
  [[nodiscard]] const char* workUnit() const override { return "flops"; }
  [[nodiscard]] const char* backend() const override { return "partitioned"; }
  [[nodiscard]] std::string sizes() const override {
    std::ostringstream s;
    s << "\"grid\": " << kGrid << ", \"block\": " << kBlock
      << ", \"n\": " << kGrid * kBlock << ", \"parts\": " << kGrid * kGrid
      << ", \"mode\": \"nosync\"";
    return s.str();
  }

 private:
  static constexpr std::size_t kGrid = 3;
  static constexpr std::size_t kBlock = 384;

  std::uint64_t seed_;
  matrix::BlockMatrix a_;
  matrix::BlockMatrix b_;
  matrix::BlockMatrix c_;
  std::optional<matrix::BlockMatrix> expected_;
  kv::KVStorePtr store_;
  std::unique_ptr<ebsp::Engine> engine_;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "pagerank-direct") {
    return std::make_unique<PageRankWorkload>(
        seed, false, kv::StoreBackend::kPartitioned, 26'200, 868'397);
  }
  if (name == "pagerank-mr-log") {
    return std::make_unique<PageRankWorkload>(
        seed, true, kv::StoreBackend::kLog, 13'100, 434'198);
  }
  if (name == "sssp-incremental") {
    return std::make_unique<SsspWorkload>(seed);
  }
  if (name == "summa-nosync") {
    return std::make_unique<SummaWorkload>(seed);
  }
  return nullptr;
}

// --- The closed loop ------------------------------------------------------

using Counts = std::map<std::string, double>;

/// "B" for byte counters, "count" for the rest.
const char* unitOf(const std::string& counter) {
  const std::string suffix = "bytes";
  return counter.size() >= suffix.size() &&
                 counter.compare(counter.size() - suffix.size(),
                                 suffix.size(), suffix) == 0
             ? "B"
             : "count";
}

double countOf(const Counts& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

/// Registry counters as doubles.
Counts registryCounts(const obs::MetricsRegistry& r) {
  Counts out;
  for (const auto& [name, value] : r.snapshot().counters) {
    out[name] = static_cast<double>(value);
  }
  return out;
}

Counts storeCounts(const perf::StoreTiming& t) {
  Counts out;
  const std::pair<const char*, const perf::OpStat*> ops[] = {
      {"get", &t.get},     {"put", &t.put},     {"erase", &t.erase},
      {"drain", &t.drain}, {"scan", &t.scan},   {"clear", &t.clear},
  };
  for (const auto& [name, stat] : ops) {
    const perf::OpCount c = perf::OpCount::of(*stat);
    const std::string base = std::string("kvstore.") + name;
    out[base + ".calls"] = static_cast<double>(c.calls);
    out[base + ".s"] = static_cast<double>(c.nanos) / 1e9;
    out[base + ".bytes"] = static_cast<double>(c.bytes);
  }
  out["kvstore.mobile.calls"] =
      static_cast<double>(t.mobileCalls.load(std::memory_order_relaxed));
  out["kvstore.tables_created"] =
      static_cast<double>(t.tablesCreated.load(std::memory_order_relaxed));
  return out;
}

Counts queueCounts(const perf::QueueTiming& t) {
  Counts out;
  const std::pair<const char*, const perf::OpStat*> ops[] = {
      {"put", &t.put}, {"read", &t.read}, {"steal", &t.steal}};
  for (const auto& [name, stat] : ops) {
    const perf::OpCount c = perf::OpCount::of(*stat);
    const std::string base = std::string("mq.") + name;
    out[base + ".calls"] = static_cast<double>(c.calls);
    out[base + ".s"] = static_cast<double>(c.nanos) / 1e9;
  }
  out["mq.read.hits"] =
      static_cast<double>(t.readHits.load(std::memory_order_relaxed));
  return out;
}

Counts allCounts(Probes& p) {
  Counts out = registryCounts(p.registry);
  if (p.traced) {
    out.merge(storeCounts(p.store));
    out.merge(queueCounts(p.queue));
  }
  return out;
}

/// Accumulate after - before into `sum`.
void addDelta(Counts& sum, const Counts& before, const Counts& after) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    sum[name] += value - (it == before.end() ? 0.0 : it->second);
  }
}

struct SpanTimes {
  double compute = 0;
  double collect = 0;
  double stepOther = 0;
};

/// Engine span sums for one job.  A step's wall time runs from its
/// compute span's start to the end of the matching collect span; what the
/// two spans do not cover is the step's remainder (spill bookkeeping,
/// barrier, aggregator merge, step hooks).
SpanTimes spanTimes(const std::vector<obs::Span>& spans) {
  SpanTimes t;
  const obs::Span* open = nullptr;
  for (const obs::Span& s : spans) {
    if (s.phase == obs::Phase::kCompute) {
      t.compute += s.duration;
      open = &s;
    } else if (s.phase == obs::Phase::kCollect) {
      t.collect += s.duration;
      if (open != nullptr && open->step == s.step) {
        const double wall = s.start + s.duration - open->start;
        t.stepOther += wall - open->duration - s.duration;
        open = nullptr;
      }
    }
  }
  return t;
}

struct LoopResult {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::vector<double> jobSeconds;
  std::vector<double> stepSeconds;
  double cpuSeconds = 0;
  double engineSeconds = 0;
  double virtualMakespan = 0;
  double verifySeconds = 0;
  SpanTimes spans;
  /// Per-job counter deltas summed over counted jobs.
  Counts counts;
  /// Per job (warm-up first): output digest and the self-test counts.
  std::vector<std::uint64_t> digests;
  std::vector<std::vector<double>> ebspCounts;
  std::uint64_t finalDigest = 0;
  std::vector<obs::Span> allSpans;
};

constexpr int kMinJobs = 3;

/// Run the warm-up job, then counted jobs until `seconds` of loop time have
/// passed (at least kMinJobs), or exactly `fixedJobs` when positive.
LoopResult runLoop(Workload& w, Probes& p, double seconds, int fixedJobs) {
  LoopResult r;
  const Clock::time_point loopStart = Clock::now();
  for (int k = 0;; ++k) {
    const bool warmUp = k == 0;
    const int counted = k - 1;
    if (!warmUp) {
      if (fixedJobs > 0 ? counted >= fixedJobs
                        : counted >= kMinJobs &&
                              secondsSince(loopStart) >= seconds) {
        break;
      }
    }
    ++r.attempted;
    std::string why;
    bool ok = true;
    std::uint64_t digest = 0;
    try {
      w.prepare();
      p.steps.clear();
      const Counts before = allCounts(p);
      const double cpu0 = cpuSeconds();
      p.beginJob();
      const Clock::time_point t0 = Clock::now();
      EngineShare share;
      {
        obs::Tracer::Scoped span(p.tracerOrNull(), obs::Phase::kRun);
        span->note = warmUp ? "warm-up job" : "job";
        share = w.job();
      }
      const double jobSeconds = secondsSince(t0);
      const double cpu = cpuSeconds() - cpu0;
      const Counts after = allCounts(p);
      std::vector<obs::Span> spans = p.tracer.spans();
      p.tracer.clear();

      std::vector<double> selfTest;
      for (const char* name : kEbspCounts) {
        selfTest.push_back(countOf(after, name) - countOf(before, name));
      }
      r.ebspCounts.push_back(std::move(selfTest));
      if (!warmUp) {
        r.jobSeconds.push_back(jobSeconds);
        r.stepSeconds.insert(r.stepSeconds.end(), p.steps.begin(),
                             p.steps.end());
        r.cpuSeconds += cpu;
        r.engineSeconds += share.runSeconds;
        r.virtualMakespan += share.virtualMakespan;
        addDelta(r.counts, before, after);
        const SpanTimes st = spanTimes(spans);
        r.spans.compute += st.compute;
        r.spans.collect += st.collect;
        r.spans.stepOther += st.stepOther;
      }
      r.allSpans.insert(r.allSpans.end(), spans.begin(), spans.end());

      const Clock::time_point v0 = Clock::now();
      ok = w.check(digest, why);
      r.verifySeconds += secondsSince(v0);
    } catch (const std::exception& e) {
      ok = false;
      why = std::string("exception: ") + e.what();
    }
    r.digests.push_back(digest);
    if (ok && k > 0 && digest != r.digests.front()) {
      ok = false;
      why = "output digest differs from the warm-up job's";
    }
    if (!ok) {
      ++r.failed;
      r.failures.push_back("job " + std::to_string(k) + ": " + why);
    }
  }
  try {
    std::string why;
    const Clock::time_point v0 = Clock::now();
    if (!w.finish(r.finalDigest, why)) {
      ++r.failed;
      r.failures.push_back("final check: " + why);
    }
    r.verifySeconds += secondsSince(v0);
  } catch (const std::exception& e) {
    ++r.failed;
    r.failures.push_back(std::string("final check: exception: ") + e.what());
  }
  return r;
}

// --- Reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string formatNumber(double v) {
  std::ostringstream s;
  s << std::setprecision(10) << v;
  return s.str();
}

std::string jsonEscape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void printMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(18) << formatNumber(m.value) << " " << m.unit
              << "\n";
  }
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream s;
  s << "{";
  bool first = true;
  for (const Metric& m : metrics) {
    s << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
      << formatNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  s << "}";
  return s.str();
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::vector<Metric> endToEnd(const LoopResult& r, double setupSeconds,
                             const Workload& w) {
  const double jobs = static_cast<double>(r.jobSeconds.size());
  const double p50 = quantile(r.jobSeconds, 0.5);
  return {
      {"setup_s", setupSeconds, "s"},
      {"job_s_p50", p50, "s"},
      {"job_s_p90", quantile(r.jobSeconds, 0.9), "s"},
      {"step_s_p50", quantile(r.stepSeconds, 0.5), "s"},
      {"step_s_p90", quantile(r.stepSeconds, 0.9), "s"},
      // Throughput of the median job: a closed loop of median jobs.
      {"work_per_s", w.workPerJob() / p50, "1/s"},
      {"cpu_s_per_job", r.cpuSeconds / jobs, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"error_rate",
       static_cast<double>(r.failed) / static_cast<double>(r.attempted),
       "ratio"},
  };
}

std::vector<Metric> perLayer(const LoopResult& r, const Probes& p,
                             double untracedP50) {
  const double jobs = static_cast<double>(r.jobSeconds.size());
  double timed = 0;
  for (const double s : r.jobSeconds) {
    timed += s;
  }
  const Counts& c = r.counts;
  std::vector<Metric> m;
  for (const auto& [name, seconds] : p.setupLayers) {
    m.push_back({name, seconds, "s"});
  }
  m.push_back({"apps.verify_s", r.verifySeconds / (jobs + 1), "s"});
  m.push_back({"apps.client_s", (timed - r.engineSeconds) / jobs, "s"});
  for (const char* op : {"get", "put", "erase", "drain", "scan", "clear"}) {
    const std::string base = std::string("kvstore.") + op;
    m.push_back({base + ".calls", countOf(c, base + ".calls") / jobs, "count"});
    m.push_back({base + ".s", countOf(c, base + ".s") / jobs, "s"});
    m.push_back({base + ".bytes", countOf(c, base + ".bytes") / jobs, "B"});
  }
  m.push_back({"kvstore.mobile.calls",
               countOf(c, "kvstore.mobile.calls") / jobs, "count"});
  m.push_back({"kvstore.tables_created",
               countOf(c, "kvstore.tables_created") / jobs, "count"});
  for (const auto& [name, value] : c) {
    if (name.rfind("store.", 0) == 0) {
      m.push_back({name, value / jobs, unitOf(name)});
    }
  }
  m.push_back({"ebsp.run_s", r.engineSeconds / jobs, "s"});
  m.push_back({"ebsp.compute_s", r.spans.compute / jobs, "s"});
  m.push_back({"ebsp.collect_s", r.spans.collect / jobs, "s"});
  m.push_back({"ebsp.step_other_s", r.spans.stepOther / jobs, "s"});
  const std::pair<const char*, const char*> ebsp[] = {
      {"ebsp.steps", "ebsp.steps"},
      {"ebsp.barriers", "ebsp.barriers"},
      {"ebsp.invocations", "ebsp.invocations"},
      {"ebsp.messages_sent", "ebsp.messages_sent"},
      {"ebsp.messages_delivered", "ebsp.messages_delivered"},
      {"ebsp.combine_in", "combine.in"},
      {"ebsp.combine_out", "combine.out"},
      {"ebsp.spills", "ebsp.spills"},
      {"ebsp.spill_bytes", "ebsp.spill_bytes"},
      {"ebsp.state_reads", "ebsp.state_reads"},
      {"ebsp.state_writes", "ebsp.state_writes"},
      {"ebsp.stolen_messages", "ebsp.stolen_messages"},
  };
  for (const auto& [out, in] : ebsp) {
    m.push_back({out, countOf(c, in) / jobs, unitOf(out)});
  }
  const double combineIn = countOf(c, "combine.in");
  m.push_back({"ebsp.combine_ratio",
               combineIn > 0 ? countOf(c, "combine.out") / combineIn : 0.0,
               "ratio"});
  for (const char* op : {"put", "read", "steal"}) {
    const std::string base = std::string("mq.") + op;
    m.push_back({base + ".calls", countOf(c, base + ".calls") / jobs, "count"});
    m.push_back({base + ".s", countOf(c, base + ".s") / jobs, "s"});
  }
  const double reads = countOf(c, "mq.read.calls");
  m.push_back({"mq.read.hit_ratio",
               reads > 0 ? countOf(c, "mq.read.hits") / reads : 0.0, "ratio"});
  m.push_back({"exec.steal_count", countOf(c, "exec.steal_count") / jobs,
               "count"});
  m.push_back({"proc.cpu_util",
               r.cpuSeconds / (timed * static_cast<double>(engineThreads())),
               "ratio"});
  m.push_back({"sim.virtual_makespan_s", r.virtualMakespan / jobs,
               "model-s"});
  m.push_back({"fault.retries", countOf(c, "fault.retries") / jobs, "count"});
  m.push_back({"fault.escalations", countOf(c, "fault.escalations") / jobs,
               "count"});
  m.push_back({"trace.overhead_ratio",
               quantile(r.jobSeconds, 0.5) / untracedP50, "ratio"});
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string spansPath;
};

std::optional<Args> parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "ripple_perf: " << flag << " needs a value\n";
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--commit") {
        a.commit = value;
      } else if (flag == "--spans") {
        a.spansPath = value;
      } else {
        std::cerr << "ripple_perf: unknown flag " << flag << "\n";
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::cerr << "ripple_perf: bad value for " << flag << ": " << value
                << "\n";
      return std::nullopt;
    }
  }
  if (a.workload.empty()) {
    std::cerr << "ripple_perf: --workload is required\n";
    return std::nullopt;
  }
  return a;
}

/// Set up `w` with fresh untraced probes `setups` times (keeping the
/// last), and return the median set-up time.
double setUpRepeatedly(const Args& args, int setups,
                       std::unique_ptr<Workload>& w,
                       std::unique_ptr<Probes>& p) {
  std::vector<double> times;
  for (int i = 0; i < setups; ++i) {
    w.reset();  // Tear down the previous set-up before its probes.
    p = std::make_unique<Probes>(false);
    w = makeWorkload(args.workload, args.seed);
    const Clock::time_point t0 = Clock::now();
    w->setUp(*p);
    times.push_back(secondsSince(t0));
  }
  return median(times);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parseArgs(argc, argv);
  if (!parsed) {
    return 2;
  }
  const Args& args = *parsed;
  if (!makeWorkload(args.workload, args.seed)) {
    std::cerr << "ripple_perf: unknown workload '" << args.workload
              << "' (pagerank-direct, pagerank-mr-log, sssp-incremental, "
                 "summa-nosync)\n";
    return 2;
  }

  // Declared first so it outlives the workload whose store and engine
  // point into it.
  std::unique_ptr<Probes> p;
  std::unique_ptr<Workload> w;
  const double loopSeconds = args.trace ? args.seconds / 2 : args.seconds;
  // setup_s is the median of three set-ups; a traced run reports no
  // setup_s and needs only one.
  const double setupSeconds = setUpRepeatedly(args, args.trace ? 1 : 3, w, p);
  const CpuTicks ticks0 = cpuTicks();
  LoopResult plain = runLoop(*w, *p, loopSeconds, 0);
  const CpuTicks ticks1 = cpuTicks();
  const double busy = ticks1.busy - ticks0.busy;
  const double stealShare =
      busy > 0 ? (ticks1.steal - ticks0.steal) / busy : 0;
  const std::string backend = w->backend();
  const std::string sizes = w->sizes();

  std::cout << "workload " << args.workload << "  seed " << args.seed
            << "  closed loop, 1 client, " << plain.jobSeconds.size()
            << " counted jobs + 1 warm-up, " << plain.stepSeconds.size()
            << " steps\n";
  std::cout << "stamp {\"commit\": \"" << jsonEscape(args.commit)
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << RIPPLE_PERF_BUILD_TYPE
            << "\", \"engine_threads\": " << engineThreads()
            << ", \"host_steal_share\": " << formatNumber(stealShare)
            << ", \"backend\": \"" << backend << "\", \"seed\": " << args.seed
            << ", \"workload\": \"" << args.workload << "\", " << sizes
            << "}\n";

  int attempted = plain.attempted;
  int failed = plain.failed;
  std::vector<std::string> failures = plain.failures;
  std::vector<Metric> out;
  std::cout << "job seconds:";
  for (const double s : plain.jobSeconds) {
    std::cout << " " << formatNumber(s);
  }
  std::cout << "\n";
  if (!args.trace) {
    out = endToEnd(plain, setupSeconds, *w);
    std::cout << "end-to-end (untraced):\n";
    printMetrics(out);
  } else {
    // Traced half: a fresh set-up of the same inputs, the same number of
    // jobs, tracer and decorators attached.
    w.reset();
    p.reset();
    std::unique_ptr<Probes> tp = std::make_unique<Probes>(true);
    std::unique_ptr<Workload> tw = makeWorkload(args.workload, args.seed);
    tw->setUp(*tp);
    const std::vector<obs::Span> setupSpans = tp->tracer.spans();
    tp->tracer.clear();
    LoopResult traced = runLoop(*tw, *tp, 0,
                                static_cast<int>(plain.jobSeconds.size()));
    attempted += traced.attempted;
    failed += traced.failed;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());

    // Transparency self-test: same digests, same ebsp.* counts.
    bool same = traced.digests == plain.digests &&
                traced.finalDigest == plain.finalDigest;
    same = same && traced.ebspCounts == plain.ebspCounts;
    std::cout << "self-test: traced and untraced runs give "
              << (same ? "identical" : "DIFFERENT")
              << " output digests and ebsp.* counts over "
              << traced.digests.size() << " jobs\n";
    if (!same) {
      ++failed;
      failures.push_back("self-test: traced run differs from untraced run");
    }

    out = perLayer(traced, *tp, quantile(plain.jobSeconds, 0.5));
    std::cout << "per-layer (traced, per job; job_s_p50 "
              << formatNumber(quantile(traced.jobSeconds, 0.5))
              << " s traced vs "
              << formatNumber(quantile(plain.jobSeconds, 0.5))
              << " s untraced):\n";
    printMetrics(out);

    if (!args.spansPath.empty()) {
      std::ofstream f(args.spansPath);
      obs::Tracer dump;
      for (const obs::Span& s : setupSpans) {
        dump.record(s);
      }
      for (const obs::Span& s : traced.allSpans) {
        dump.record(s);
      }
      dump.exportJsonl(f);
      if (!f) {
        std::cerr << "warning: could not write spans to " << args.spansPath
                  << "\n";
      }
    }
    tw.reset();
  }

  for (const std::string& f : failures) {
    std::cout << "FAILED " << f << "\n";
  }
  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metricsJson(out) << "}" << std::endl;
  return correct ? 0 : 1;
}
