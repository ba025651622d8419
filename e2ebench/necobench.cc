// necobench — the end-to-end campaign benchmark program.
//
// Runs whole CampaignEngine campaigns on one named workload and prints a
// single JSON line: the metrics (each with its unit), how many campaign
// runs were attempted and how many failed a check, and a digest of the
// merged result that e2ebench/run.py compares with pins.json. run.py is the
// entry point; see e2ebench/README.md for the metrics and workloads.
//
//   necobench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE] [--tiny]
//
// --trace 0 measures the end-to-end metrics with no timing hooks anywhere
// near the campaign. --trace 1 is a separate run: it times calls into each
// layer's public functions from this file (never from inside src/), reports
// per-layer metrics, measures its own overhead, and writes its spans as
// Chrome trace-event JSON to --trace-out.
//
// Layer timing deliberately does not wrap Hypervisor in a timing
// decorator: guest_memory(), sanitizers() and host_crashed() are
// non-virtual base members, so the agent would plant guest memory into the
// wrapper while the wrapped simulator reads its own, silently changing
// results. The traced run instead times Agent::ExecuteOne through the
// fuzzer's Executor callback, and replays the inputs the fuzzer actually
// fed through the configurator, validator, harness and boot path in a
// separate probe pass.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/agent.h"
#include "src/core/campaign.h"
#include "src/core/config/configurator.h"
#include "src/core/engine.h"
#include "src/core/harness/harness.h"
#include "src/core/partition.h"
#include "src/core/snapshot_cache.h"
#include "src/core/validator/oracle.h"
#include "src/core/validator/vmcb_validator.h"
#include "src/core/validator/vmcs_validator.h"
#include "src/fuzz/fuzzer.h"
#include "src/hv/factory.h"

namespace neco {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  const char* target;  // Hypervisor registry name.
  Arch arch;
  bool guided;  // Coverage guidance (corpus, mutation, cross-shard sync).
  int workers;
  ShardMode shard_mode;
  bool durable;          // The timed campaigns journal to a state_dir.
  uint64_t iterations;   // Campaign budget, split across the shards.
  int samples;           // Epochs (observer OnSample events) per campaign.
  size_t snapshot_every; // Snapshot cadence of every journaled campaign;
                         // never divides the epoch count, so a resume
                         // loads a snapshot and replays a tail.
};

// Why each workload exists is in e2ebench/README.md.
constexpr Workload kWorkloads[] = {
    {"bf-intel-kvm", "kvm", Arch::kIntel, false, 1, ShardMode::kThreads,
     false, 12000, 24, 5},
    {"guided-intel-xen-w3", "xen", Arch::kIntel, true, 3, ShardMode::kThreads,
     false, 18000, 20, 6},
    {"durable-amd-kvm-p2", "kvm", Arch::kAmd, true, 2, ShardMode::kProcesses,
     true, 30000, 14, 4},
};

// --tiny divides every campaign budget by this (for the benchmark's tests).
constexpr uint64_t kTinyDivisor = 20;
// Side measurements are spread over the whole run rather than taken in one
// burst: a burst of sub-millisecond set-ups samples a few milliseconds of a
// shared host, and its median moved by 25% between otherwise equal runs.
// setup_s: one-execution-per-shard campaigns timed after every timed one.
constexpr int kSetupRepsPerCampaign = 4;
// Timed campaigns per run, at least (after one discarded warm-up).
constexpr int kMinCampaigns = 2;
// Inputs replayed through the layer probes in a traced run.
constexpr size_t kProbeInputs = 3000;
// Spans kept in memory for the Chrome trace (later ones are counted only).
constexpr size_t kMaxSpans = 60000;

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir;
  std::string trace_out;
};

CampaignOptions MakeOptions(const Workload& w, const Args& args) {
  CampaignOptions options;
  options.arch = w.arch;
  options.iterations =
      args.tiny ? std::max<uint64_t>(w.iterations / kTinyDivisor,
                                     static_cast<uint64_t>(w.workers) *
                                         static_cast<uint64_t>(w.samples))
                : w.iterations;
  options.samples = w.samples;
  options.seed = args.seed;
  options.workers = w.workers;
  options.shard_mode = w.shard_mode;
  if (w.shard_mode != ShardMode::kThreads) {
    // Exec'd children re-enter main() through MaybeRunShardChild.
    options.shard_exec_path = "/proc/self/exe";
  }
  options.fuzzer.coverage_guidance = w.guided;
  return options;
}

// --- Results and checks ------------------------------------------------------

uint64_t Fnv1a(const std::vector<size_t>& values) {
  uint64_t h = 14695981039346656037ULL;
  for (const size_t v : values) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (static_cast<uint64_t>(v) >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// The deterministic fields of an EngineResult that two runs of the same
// campaign must agree on, whatever the shard medium, journaling or resume.
// Returns an empty string on agreement, else the first difference.
std::string DiffResults(const EngineResult& a, const EngineResult& b) {
  const CampaignResult& x = a.merged;
  const CampaignResult& y = b.merged;
  if (x.covered_set != y.covered_set) return "covered set differs";
  if (x.final_percent != y.final_percent) return "final coverage differs";
  if (x.series.size() != y.series.size()) return "sample count differs";
  for (size_t i = 0; i < x.series.size(); ++i) {
    if (x.series[i].iteration != y.series[i].iteration ||
        x.series[i].percent != y.series[i].percent) {
      return "coverage series differs";
    }
  }
  if (x.findings.size() != y.findings.size()) return "finding count differs";
  for (size_t i = 0; i < x.findings.size(); ++i) {
    if (x.findings[i].bug_id != y.findings[i].bug_id) {
      return "finding ids differ";
    }
  }
  if (x.fuzzer_stats.iterations != y.fuzzer_stats.iterations ||
      x.fuzzer_stats.queue_size != y.fuzzer_stats.queue_size ||
      x.fuzzer_stats.unique_anomalies != y.fuzzer_stats.unique_anomalies ||
      x.fuzzer_stats.bitmap_edges != y.fuzzer_stats.bitmap_edges) {
    return "fuzzer stats differ";
  }
  if (x.watchdog_restarts != y.watchdog_restarts) {
    return "watchdog restarts differ";
  }
  if (a.corpus_imports != b.corpus_imports) return "corpus imports differ";
  if (a.crashes != b.crashes) return "crash reproduction inputs differ";
  if (a.per_worker.size() != b.per_worker.size()) return "worker count differs";
  for (size_t w = 0; w < a.per_worker.size(); ++w) {
    if (a.per_worker[w].covered_set != b.per_worker[w].covered_set ||
        a.per_worker[w].fuzzer_stats.queue_size !=
            b.per_worker[w].fuzzer_stats.queue_size) {
      return "per-worker result differs";
    }
  }
  return "";
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(std::move(why));
    }
  }
};

// Runs one attempted operation. `op` returns "" when its result checks out,
// else what is wrong with it; that, or a throw, counts the operation failed.
// Returns whether `op` ran to completion (its results are usable).
template <typename Op>
bool Attempt(Outcome& outcome, const char* what, Op&& op) {
  ++outcome.attempted;
  try {
    const std::string problem = op();
    if (!problem.empty()) {
      outcome.Fail(std::string(what) + ": " + problem);
    }
    return true;
  } catch (const std::exception& e) {
    outcome.Fail(std::string(what) + " threw: " + e.what());
  }
  return false;
}

// --- Statistics and output ---------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Max of this process's and its shard children's peak RSS. The own peak is
// VmHWM, not getrusage(RUSAGE_SELF): Linux carries ru_maxrss across execve,
// so that would report the launcher's footprint (e.g. a Python parent).
double PeakRssMb() {
  long self_kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kb) == 1) {
        break;
      }
    }
    std::fclose(f);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintReport(const Outcome& outcome, const EngineResult* digest_of,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"attempted\": " + std::to_string(outcome.attempted) +
                    ", \"failed\": " + std::to_string(outcome.failed) +
                    ", \"errors\": [";
  for (size_t i = 0; i < outcome.errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(outcome.errors[i]);
  }
  out += "], \"digest\": ";
  if (digest_of == nullptr) {
    out += "null";
  } else {
    const CampaignResult& m = digest_of->merged;
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64, Fnv1a(m.covered_set));
    out += "{\"coverage_pct\": " + JsonNumber(m.final_percent) +
           ", \"covered_points\": " + std::to_string(m.covered_points) +
           ", \"covered_hash\": \"" + hash + "\", \"findings\": [";
    for (size_t i = 0; i < m.findings.size(); ++i) {
      out += (i ? ", " : "") + JsonString(m.findings[i].bug_id);
    }
    out += "]}";
  }
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

// --- Campaign runs -----------------------------------------------------------

// Fresh, uniquely named state directories under --work-dir, removed again
// when the run ends.
class StateDirs {
 public:
  StateDirs(fs::path root, std::string_view workload)
      : root_(std::move(root)),
        prefix_(std::string(workload) + "-" + std::to_string(getpid()) + "-") {}
  StateDirs(const StateDirs&) = delete;
  StateDirs& operator=(const StateDirs&) = delete;
  ~StateDirs() {
    for (const fs::path& dir : made_) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }

  std::string Fresh() {
    fs::path dir = root_ / (prefix_ + std::to_string(made_.size()));
    fs::remove_all(dir);
    fs::create_directories(dir.parent_path());
    made_.push_back(dir);
    return dir.string();
  }

  static void Remove(const std::string& dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

 private:
  fs::path root_;
  std::string prefix_;
  std::vector<fs::path> made_;
};

// Timestamps every merged epoch as the engine announces it.
class EpochClock : public CampaignObserver {
 public:
  void OnSample(const SampleEvent& /*event*/) override {
    stamps.push_back(Clock::now());
  }
  std::vector<Clock::time_point> stamps;
};

struct TimedRun {
  EngineResult result;
  Clock::time_point start;
  Clock::time_point end;
  std::vector<Clock::time_point> epochs;  // OnSample timestamps.

  double run_s() const { return Seconds(start, end); }
};

// Times engine.Run() alone; construction happens before the clock starts.
TimedRun TimeCampaign(const Workload& w, const CampaignOptions& options) {
  CampaignEngine engine(w.target, options);
  EpochClock clock;
  engine.AddObserver(&clock);
  TimedRun out;
  out.start = Clock::now();
  out.result = engine.Run();
  out.end = Clock::now();
  out.epochs = std::move(clock.stamps);
  return out;
}

size_t EpochCount(const CampaignOptions& options) {
  const uint64_t shard_budget =
      options.iterations / static_cast<uint64_t>(options.workers);
  return ChunkSchedule(shard_budget, options.samples).size();
}

// Resumes a finished journaled campaign with a second Run() on its state
// dir and checks the resume against the uninterrupted result: identical
// EngineResult, a snapshot loaded, exactly the tail replayed.
double TimeResume(const Workload& w, const CampaignOptions& options,
                  const EngineResult& uninterrupted, Outcome& outcome) {
  double seconds = 0.0;
  Attempt(outcome, "resume", [&] {
    CampaignEngine engine(w.target, options);
    const auto start = Clock::now();
    const EngineResult resumed = engine.Run();
    seconds = Seconds(start, Clock::now());
    const size_t tail = EpochCount(options) % options.snapshot_every_epochs;
    if (resumed.journal.replayed_epochs != tail ||
        resumed.journal.commits != 0) {
      return "replayed " + std::to_string(resumed.journal.replayed_epochs) +
             " epochs and committed " +
             std::to_string(resumed.journal.commits) + ", expected the " +
             std::to_string(tail) + "-epoch tail and none";
    }
    return DiffResults(uninterrupted, resumed);
  });
  return seconds;
}

CampaignOptions Journaled(const Workload& w, CampaignOptions options,
                          StateDirs& dirs) {
  options.state_dir = dirs.Fresh();
  options.snapshot_every_epochs = w.snapshot_every;
  return options;
}

// The same campaign through a different medium: thread shards run it in
// shard processes, process shards in threads and memory-resident. The
// engine guarantees bit-identical results across media, so this is the
// reference every timed campaign of any seed is checked against.
CampaignOptions ReferenceOptions(const Workload& w, CampaignOptions options) {
  if (w.shard_mode == ShardMode::kThreads) {
    options.shard_mode = ShardMode::kProcesses;
    options.shard_exec_path = "/proc/self/exe";
  } else {
    options.shard_mode = ShardMode::kThreads;
    options.shard_exec_path.clear();
  }
  return options;
}

int RunEndToEnd(const Workload& w, const Args& args) {
  Outcome outcome;
  StateDirs dirs(args.work_dir, w.name);
  const CampaignOptions base = MakeOptions(w, args);
  if (EpochCount(base) % w.snapshot_every == 0) {
    std::fprintf(stderr, "workload %s: snapshot cadence divides the epochs\n",
                 w.name);
    return 2;
  }

  std::optional<EngineResult> reference;
  Attempt(outcome, "reference campaign", [&] {
    reference = CampaignEngine(w.target, ReferenceOptions(w, base)).Run();
    return std::string();
  });
  if (!reference) {
    PrintReport(outcome, nullptr, {});
    return 1;
  }

  // setup_s: engine construction plus a Run() of one execution per shard.
  std::vector<double> setup_s;
  auto time_setups = [&] {
    for (int i = 0; i < kSetupRepsPerCampaign; ++i) {
      CampaignOptions options = base;
      options.iterations = static_cast<uint64_t>(w.workers);
      options.samples = 1;
      if (w.durable) {
        options.state_dir = dirs.Fresh();
      }
      Attempt(outcome, "setup campaign", [&] {
        const auto start = Clock::now();
        CampaignEngine engine(w.target, options);
        engine.Run();
        setup_s.push_back(Seconds(start, Clock::now()));
        return std::string();
      });
      StateDirs::Remove(options.state_dir);
    }
  };

  std::vector<double> resume_s;
  std::vector<double> execs_per_s;
  std::vector<double> epoch_ms;
  // One checked campaign; a warm-up (`record` false) keeps no times.
  auto run_campaign = [&](bool record) {
    const CampaignOptions options =
        w.durable ? Journaled(w, base, dirs) : base;
    TimedRun run;
    const bool ran = Attempt(outcome, "campaign", [&] {
      run = TimeCampaign(w, options);
      return DiffResults(*reference, run.result);
    });
    const double resume = ran && w.durable
                              ? TimeResume(w, options, run.result, outcome)
                              : 0.0;
    StateDirs::Remove(options.state_dir);
    if (!ran) {
      return;
    }
    const double rate =
        static_cast<double>(run.result.merged.fuzzer_stats.iterations) /
        run.run_s();
    std::fprintf(stderr, "campaign%s: %.3f s, %.0f execs/s\n",
                 record ? "" : " (warm-up)", run.run_s(), rate);
    if (!record) {
      return;
    }
    execs_per_s.push_back(rate);
    for (size_t i = 1; i < run.epochs.size(); ++i) {
      epoch_ms.push_back(1e3 * Seconds(run.epochs[i - 1], run.epochs[i]));
    }
    if (w.durable) {
      resume_s.push_back(resume);
    }
  };

  // Warm-up: one campaign whose times are discarded. Peak RSS is read right
  // after it, so it covers the reference and one full campaign and does not
  // depend on how many campaigns fit into --seconds.
  run_campaign(false);
  const double peak_rss_mb = PeakRssMb();
  time_setups();

  // A memory-resident workload's resume_s comes from a journaled twin of its
  // campaign, resumed once after every timed campaign (a resume of a
  // finished campaign commits nothing, so it can be repeated). The journal
  // never touches a timed campaign.
  CampaignOptions twin_options;
  std::optional<EngineResult> twin;
  if (!w.durable) {
    twin_options = Journaled(w, base, dirs);
    Attempt(outcome, "journaled twin campaign", [&] {
      twin = CampaignEngine(w.target, twin_options).Run();
      return DiffResults(*reference, *twin);
    });
  }
  const auto start = Clock::now();
  for (int campaign = 0;
       campaign < kMinCampaigns || Seconds(start, Clock::now()) < args.seconds;
       ++campaign) {
    run_campaign(true);
    if (twin) {
      resume_s.push_back(TimeResume(w, twin_options, *twin, outcome));
    }
    time_setups();
  }

  PrintReport(outcome, &*reference,
              {
                  {"execs_per_s", Median(execs_per_s), "1/s"},
                  {"epoch_ms_p50", Quantile(epoch_ms, 0.5), "ms"},
                  {"epoch_ms_p90", Quantile(epoch_ms, 0.9), "ms"},
                  {"setup_s", Median(setup_s), "s"},
                  {"resume_s", Median(resume_s), "s"},
                  {"peak_rss_mb", peak_rss_mb, "MB"},
                  {"coverage_pct", reference->merged.final_percent, "%"},
              });
  return outcome.failed == 0 ? 0 : 1;
}

// --- Traced run --------------------------------------------------------------

// In-memory span recorder, written out once as Chrome trace-event JSON.
class Tracer {
 public:
  enum Track : int { kCampaign = 1, kShardLoop = 2, kProbe = 3 };

  void Add(const char* name, Track track, Clock::time_point begin,
           Clock::time_point end, uint64_t id) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, track, begin, end, id});
  }

  bool Write(const std::string& path, const Workload& w, uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                    "{\"workload\": \"%s\", \"seed\": %" PRIu64
                    ", \"dropped_spans\": %zu},\n\"traceEvents\": [\n",
                 w.name, seed, dropped_);
    const char* tracks[] = {"", "engine campaign (campaign > epoch)",
                            "traced shard loop (fuzz.run > agent.exec)",
                            "layer probes (probe.exec > config/validator/"
                            "harness/boot)"};
    for (int t = kCampaign; t <= kProbe; ++t) {
      std::fprintf(f,
                   "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                   "\"tid\": %d, \"args\": {\"name\": \"%s\"}},\n",
                   t, tracks[t]);
    }
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().begin;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(
          f,
          "{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, \"tid\": %d, "
          "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64 "}}%s\n",
          s.name, static_cast<int>(s.track), 1e6 * Seconds(origin, s.begin),
          1e6 * Seconds(s.begin, s.end), s.id,
          i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    Track track;
    Clock::time_point begin;
    Clock::time_point end;
    uint64_t id;  // Shared by an exec's span and its probe spans.
  };
  std::vector<Span> spans_;
  size_t dropped_ = 0;
};

// What one timed single-shard loop observed. Only filled for traced loops.
struct LoopTrace {
  bool record_inputs = false;
  std::vector<FuzzInput> inputs;  // What the fuzzer fed, in order.
  std::vector<double> exec_us;    // Agent::ExecuteOne, per execution.
  double run_s = 0.0;             // Inside Fuzzer::Run.
  double exec_s = 0.0;            // Inside the executor.
  uint64_t edges = 0;
};

struct LoopResult {
  double wall_s = 0.0;
  FuzzerStats fuzzer;
  AgentStats agent;
  size_t covered_points = 0;
  size_t findings = 0;
};

// One shard's campaign without the engine: shard 0's hypervisor, agent and
// fuzzer driven through the same chunk schedule. With `trace`, every
// execution goes through a timing executor and every chunk is a span.
LoopResult RunShardLoop(const Workload& w, const CampaignOptions& base,
                        Tracer* tracer, LoopTrace* trace) {
  std::unique_ptr<Hypervisor> hv = ResolveHypervisorFactory(w.target)();
  hv->nested_coverage(w.arch).ResetCoverage();
  hv->sanitizers().Clear();
  AgentOptions agent_options = base.agent;
  agent_options.arch = w.arch;
  Agent agent(*hv, agent_options);
  FuzzerOptions fuzzer_options = base.fuzzer;
  fuzzer_options.seed = base.seed;

  Executor executor = agent.MakeExecutor();
  if (trace != nullptr) {
    executor = [&agent, tracer, trace](const FuzzInput& input) {
      if (trace->record_inputs && trace->inputs.size() < kProbeInputs) {
        trace->inputs.push_back(input);
      }
      const auto begin = Clock::now();
      ExecFeedback feedback = agent.ExecuteOne(input);
      const auto end = Clock::now();
      const double seconds = Seconds(begin, end);
      tracer->Add("agent.exec", Tracer::kShardLoop, begin, end,
                  trace->exec_us.size());
      trace->exec_us.push_back(1e6 * seconds);
      trace->exec_s += seconds;
      trace->edges += feedback.edges.size();
      return feedback;
    };
  }
  Fuzzer fuzzer(fuzzer_options, std::move(executor));

  const std::vector<uint64_t> steps = ChunkSchedule(
      base.iterations / static_cast<uint64_t>(w.workers), base.samples);
  LoopResult out;
  const auto start = Clock::now();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (trace == nullptr) {
      fuzzer.Run(steps[i]);
      continue;
    }
    const auto begin = Clock::now();
    fuzzer.Run(steps[i]);
    const auto end = Clock::now();
    tracer->Add("fuzz.run", Tracer::kShardLoop, begin, end, i);
    trace->run_s += Seconds(begin, end);
  }
  out.wall_s = Seconds(start, Clock::now());
  out.fuzzer = fuzzer.stats();
  out.agent = agent.stats();
  out.covered_points = hv->nested_coverage(w.arch).covered_points();
  out.findings = agent.findings().size();
  return out;
}

size_t ProgramLength(const HarnessProgram& prog) {
  size_t n = prog.vmx_init.size() + prog.svm_init.size() +
             prog.l1_pre_init.size();
  for (const RuntimeStep& step : prog.runtime) {
    n += 1 + step.l1_insns.size() + step.l1_vmx_writes.size() +
         step.l1_svm_writes.size();
  }
  return n;
}

struct ProbeTimes {
  double config_us = 0.0;
  double validator_us = 0.0;
  double oracle_us = 0.0;  // Per oracle call.
  uint64_t oracle_calls = 0;
  double harness_us = 0.0;
  double boot_us = 0.0;
  double capture_us = 0.0;  // Per boot: SnapshotVm + SnapshotCache::Put.
  double insns = 0.0;  // Harness program length, per program.
};

// Replays recorded inputs through the agent's layers one public call at a
// time, on private instances built exactly as Agent builds its own.
ProbeTimes ProbeLayers(const Workload& w, const AgentOptions& agent_options,
                       const std::vector<FuzzInput>& inputs, Tracer& tracer) {
  VcpuConfigurator configurator;
  ExecutionHarness harness(HarnessOptions{.enabled = true});
  VmxCpu vmx_cpu;
  SvmCpu svm_cpu;
  VmcsValidator vmx_validator(MakeVmxCapabilities(
      DefaultFeatureSet(Arch::kIntel).RestrictedTo(Arch::kIntel)));
  VmcbValidator svm_validator(SvmCaps{});
  VmxHardwareOracle vmx_oracle(vmx_cpu, vmx_validator);
  SvmHardwareOracle svm_oracle(svm_cpu, svm_validator);
  std::unique_ptr<Hypervisor> hv = ResolveHypervisorFactory(w.target)();
  std::unique_ptr<HypervisorAdapter> adapter = MakeAdapterFor(hv->name());
  SnapshotCache snapshots(agent_options.snapshot_cache_size);

  double config_s = 0.0;
  double validator_s = 0.0;
  double oracle_s = 0.0;
  double harness_s = 0.0;
  double boot_s = 0.0;
  double capture_s = 0.0;
  ProbeTimes out;
  for (size_t i = 0; i < inputs.size(); ++i) {
    InputPartition parts(inputs[i]);
    const bool oracle_turn = agent_options.oracle_interval != 0 &&
                             (i + 1) % agent_options.oracle_interval == 0;
    const auto t0 = Clock::now();
    const VcpuConfig config = configurator.Generate(parts.config, w.arch);
    const auto t1 = Clock::now();
    HarnessProgram prog;
    auto t2 = t1;
    auto t3 = t1;
    if (w.arch == Arch::kIntel) {
      vmx_validator.set_caps(
          MakeVmxCapabilities(config.features.RestrictedTo(Arch::kIntel)));
      const Vmcs vmcs12 =
          vmx_validator.GenerateBoundaryState(parts.vmcs_image, parts.mutation);
      t2 = Clock::now();
      if (oracle_turn) {
        vmx_oracle.VerifyOnce(vmcs12);
      }
      t3 = Clock::now();
      prog = harness.BuildIntel(parts.harness, vmcs12);
    } else {
      const Vmcb vmcb12 =
          svm_validator.GenerateBoundaryState(parts.vmcs_image, parts.mutation);
      t2 = Clock::now();
      if (oracle_turn) {
        svm_oracle.VerifyOnce(vmcb12);
      }
      t3 = Clock::now();
      prog = harness.BuildAmd(parts.harness, vmcb12);
    }
    const auto t4 = Clock::now();
    if (adapter != nullptr) {
      adapter->Apply(*hv, config);
    } else {
      hv->StartVm(config);
    }
    const auto t5 = Clock::now();
    // The capture the agent makes after every boot (every cache miss).
    if (snapshots.capacity() > 0) {
      VmSnapshot captured = hv->SnapshotVm();
      if (captured.data == nullptr) {
        captured.config = config;
      }
      snapshots.Put(FingerprintConfig(config), std::move(captured));
    }
    const auto t6 = Clock::now();

    config_s += Seconds(t0, t1);
    validator_s += Seconds(t1, t2);
    harness_s += Seconds(t3, t4);
    boot_s += Seconds(t4, t5);
    capture_s += Seconds(t5, t6);
    if (oracle_turn) {
      oracle_s += Seconds(t2, t3);
      ++out.oracle_calls;
      tracer.Add("validator.oracle_verify", Tracer::kProbe, t2, t3, i);
    }
    out.insns += static_cast<double>(ProgramLength(prog));
    tracer.Add("probe.exec", Tracer::kProbe, t0, t6, i);
    tracer.Add("config.generate", Tracer::kProbe, t0, t1, i);
    tracer.Add("validator.generate", Tracer::kProbe, t1, t2, i);
    tracer.Add("harness.build", Tracer::kProbe, t3, t4, i);
    tracer.Add("hv.boot", Tracer::kProbe, t4, t5, i);
    tracer.Add("hv.snapshot_capture", Tracer::kProbe, t5, t6, i);
  }
  const double n = static_cast<double>(inputs.size());
  out.config_us = 1e6 * Ratio(config_s, n);
  out.validator_us = 1e6 * Ratio(validator_s, n);
  out.oracle_us = 1e6 * Ratio(oracle_s, static_cast<double>(out.oracle_calls));
  out.harness_us = 1e6 * Ratio(harness_s, n);
  out.boot_us = 1e6 * Ratio(boot_s, n);
  out.capture_us = 1e6 * Ratio(capture_s, n);
  out.insns = Ratio(out.insns, n);
  return out;
}

std::string DiffLoops(const LoopResult& a, const LoopResult& b) {
  if (a.covered_points != b.covered_points) {
    return "covered-point count differs";
  }
  if (a.findings != b.findings) return "finding count differs";
  if (a.fuzzer.iterations != b.fuzzer.iterations ||
      a.fuzzer.queue_size != b.fuzzer.queue_size ||
      a.fuzzer.bitmap_edges != b.fuzzer.bitmap_edges) {
    return "fuzzer stats differ";
  }
  return "";
}

int RunTraced(const Workload& w, const Args& args) {
  Outcome outcome;
  Tracer tracer;
  StateDirs dirs(args.work_dir, w.name);
  const CampaignOptions base = MakeOptions(w, args);

  // One engine campaign for the cross-layer counters (merge, transport,
  // journal, repro) and the campaign > epoch spans, checked like every
  // end-to-end campaign.
  const CampaignOptions options = w.durable ? Journaled(w, base, dirs) : base;
  TimedRun campaign;
  if (!Attempt(outcome, "campaign", [&] {
        const EngineResult reference =
            CampaignEngine(w.target, ReferenceOptions(w, base)).Run();
        campaign = TimeCampaign(w, options);
        return DiffResults(reference, campaign.result);
      })) {
    PrintReport(outcome, nullptr, {});
    return 1;
  }
  tracer.Add("campaign", Tracer::kCampaign, campaign.start, campaign.end, 0);
  for (size_t i = 0; i < campaign.epochs.size(); ++i) {
    tracer.Add("epoch", Tracer::kCampaign,
               i == 0 ? campaign.start : campaign.epochs[i - 1],
               campaign.epochs[i], i);
  }
  JournalStats resume_journal;
  if (w.durable) {
    Attempt(outcome, "resume", [&] {
      const EngineResult resumed = CampaignEngine(w.target, options).Run();
      resume_journal = resumed.journal;
      return DiffResults(campaign.result, resumed);
    });
  }

  // Traced and untraced single-shard loops, alternated until the time is
  // up; the first traced loop also records the inputs for the probes.
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  LoopTrace trace;
  trace.record_inputs = true;
  LoopResult first;
  const auto start = Clock::now();
  for (int pair = 0; pair < 2 || Seconds(start, Clock::now()) < args.seconds;
       ++pair) {
    LoopResult traced;
    LoopResult untraced;
    if (!Attempt(outcome, "traced vs untraced shard loop", [&] {
          traced = RunShardLoop(w, base, &tracer, &trace);
          untraced = RunShardLoop(w, base, nullptr, nullptr);
          return DiffLoops(untraced, traced);
        })) {
      continue;
    }
    if (trace.record_inputs) {
      trace.record_inputs = false;
      first = traced;
    }
    traced_s.push_back(traced.wall_s);
    untraced_s.push_back(untraced.wall_s);
  }
  ProbeTimes probe;
  Attempt(outcome, "layer probes", [&] {
    AgentOptions agent_options = base.agent;
    agent_options.arch = w.arch;
    probe = ProbeLayers(w, agent_options, trace.inputs, tracer);
    return std::string();
  });
  if (!args.trace_out.empty()) {
    Attempt(outcome, "trace file", [&] {
      fs::create_directories(fs::path(args.trace_out).parent_path());
      return tracer.Write(args.trace_out, w, args.seed)
                 ? std::string()
                 : "could not write " + args.trace_out;
    });
  }

  const EngineResult& r = campaign.result;
  const double execs = static_cast<double>(trace.exec_us.size());
  const AgentStats& agent = first.agent;
  const double agent_execs = static_cast<double>(agent.executions);
  const double hit_ratio =
      Ratio(static_cast<double>(agent.snapshot_hits), agent_execs);
  const double memo_ratio =
      Ratio(static_cast<double>(agent.config_memo_hits), agent_execs);
  const double restore_us =
      1e-3 * Ratio(static_cast<double>(agent.restore_ns),
                   static_cast<double>(agent.snapshot_hits));
  const double exec_mean_us = 1e6 * Ratio(trace.exec_s, execs);
  // Residual: agent time not spent in the probed layers (guest-memory
  // planting and L0 emulation, plus whatever the probes cannot see).
  const double emulate_us =
      exec_mean_us - (1.0 - memo_ratio) * probe.config_us -
      probe.validator_us -
      probe.oracle_us *
          Ratio(static_cast<double>(probe.oracle_calls),
                static_cast<double>(trace.inputs.size())) -
      probe.harness_us -
      (1.0 - hit_ratio) * (probe.boot_us + probe.capture_us) -
      hit_ratio * restore_us;
  uint64_t crash_artifacts = 0;
  for (const auto& shard : r.crashes) {
    crash_artifacts += shard.size();
  }
  const double commits = static_cast<double>(r.journal.commits);

  PrintReport(
      outcome, &r,
      {
          {"fuzz.self_us_per_exec",
           1e6 * Ratio(trace.run_s - trace.exec_s, execs), "us"},
          {"fuzz.queue_size",
           static_cast<double>(r.merged.fuzzer_stats.queue_size), "count"},
          {"fuzz.bitmap_edges",
           static_cast<double>(r.merged.fuzzer_stats.bitmap_edges), "count"},
          {"agent.exec_us_p50", Quantile(trace.exec_us, 0.5), "us"},
          {"agent.exec_us_p90", Quantile(trace.exec_us, 0.9), "us"},
          {"agent.exec_us_p99", Quantile(trace.exec_us, 0.99), "us"},
          {"agent.execs", execs, "count"},
          {"config.generate_us", probe.config_us, "us"},
          {"config.memo_hit_ratio", memo_ratio, "ratio"},
          {"validator.generate_us", probe.validator_us, "us"},
          {"validator.oracle_verify_us", probe.oracle_us, "us"},
          {"validator.oracle_calls", static_cast<double>(probe.oracle_calls),
           "count"},
          {"harness.build_us", probe.harness_us, "us"},
          {"harness.insns_per_program", probe.insns, "count"},
          {"hv.boot_us", probe.boot_us, "us"},
          {"hv.snapshot_capture_us", probe.capture_us, "us"},
          {"hv.restore_us", restore_us, "us"},
          {"hv.boot_hit_ratio", hit_ratio, "ratio"},
          {"hv.emulate_us_per_exec", emulate_us, "us"},
          {"hv.edges_per_exec", Ratio(static_cast<double>(trace.edges), execs),
           "count"},
          {"hv.watchdog_restarts",
           static_cast<double>(r.merged.watchdog_restarts), "count"},
          {"merge.flushes", static_cast<double>(r.pipeline.flushes), "count"},
          {"merge.idle_share",
           Ratio(r.pipeline.feedback_wait_seconds,
                 w.workers * campaign.run_s()),
           "ratio"},
          {"merge.corpus_imports", static_cast<double>(r.corpus_imports),
           "count"},
          {"transport.deltas", static_cast<double>(r.transport.deltas),
           "count"},
          {"transport.wire_kb",
           static_cast<double>(r.transport.delta_bytes +
                               r.transport.feedback_bytes) /
               1024.0,
           "KB"},
          {"transport.max_queue_depth",
           static_cast<double>(r.transport.max_queue_depth), "count"},
          {"transport.publish_wait_s", r.transport.publish_wait_seconds, "s"},
          {"state.commits", commits, "count"},
          {"state.bytes_written", static_cast<double>(r.journal.bytes_written),
           "bytes"},
          {"state.fsync_ms_per_commit",
           1e3 * Ratio(r.journal.fsync_seconds, commits), "ms"},
          {"state.snapshots", static_cast<double>(r.journal.snapshots),
           "count"},
          {"state.replayed_epochs",
           static_cast<double>(resume_journal.replayed_epochs), "count"},
          {"state.reload_ms",
           1e-6 * static_cast<double>(resume_journal.reload_ns),
           "ms"},
          {"repro.crash_artifacts", static_cast<double>(crash_artifacts),
           "count"},
          {"repro.findings", static_cast<double>(r.merged.findings.size()),
           "count"},
          {"trace.overhead_pct",
           100.0 * (Ratio(Median(traced_s), Median(untraced_s)) - 1.0), "%"},
      });
  return outcome.failed == 0 ? 0 : 1;
}

// --- Entry point -------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "%s needs a value\n", argv[i]);
      return false;
    }
    ++i;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i - 1]);
      return false;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      args->workload = &w;
    }
  }
  if (args->workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", workload.c_str());
    for (const Workload& w : kWorkloads) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fputc('\n', stderr);
    return false;
  }
  if (args->work_dir.empty()) {
    std::fputs("--work-dir is required\n", stderr);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace neco

int main(int argc, char** argv) {
  if (const int code = neco::MaybeRunShardChild(argc, argv); code >= 0) {
    return code;
  }
  neco::Args args;
  if (!neco::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  return args.trace ? neco::RunTraced(*args.workload, args)
                    : neco::RunEndToEnd(*args.workload, args);
}
