// rdbench -- the repository's benchmark: fit, static-analysis and serve
// workloads, end-to-end metrics from an untraced run and per-layer metrics
// from a traced one.  README.md next to this file documents the workloads,
// every metric and how they relate.
//
//   rdbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-file PATH]
//   rdbench --smoke        every workload at small scale with 1 s legs
//
// Every workload fits (or loads) models of one reference synthetic Internet
// per scale (data seed 1); --seed picks what the workload does with it: the
// order feed records arrive in, the edits analyzed, the request streams
// sent.  Keeping the topology fixed keeps run-to-run spread down to timing
// noise, which is what lets the end-to-end bounds be tight.
//
// Output: one `name value unit` line per metric, a `provenance` line, and
// last one JSON line {"correct", "attempted", "failed", "metrics"} holding
// the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exit 1 when a correctness check fails.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/impact.hpp"
#include "analysis/model_diff.hpp"
#include "analysis/partition.hpp"
#include "analysis/reachability_cache.hpp"
#include "analysis/workset.hpp"
#include "bgp/engine.hpp"
#include "bgp/sim_memory.hpp"
#include "core/pipeline.hpp"
#include "core/predict.hpp"
#include "core/whatif.hpp"
#include "netbase/cli.hpp"
#include "netbase/json.hpp"
#include "netbase/rng.hpp"
#include "netbase/socket.hpp"
#include "netbase/sysinfo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/observer.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "topology/model_io.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// The reference Internet every workload is built on.
constexpr std::uint64_t kDataSeed = 1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Percentiles above the median are reported only with this many samples
/// beyond them.
constexpr std::size_t kMinBeyond = 10;
/// Worker threads of the measured server, and client connections (each
/// on its own thread) driving it -- fewer on hosts with fewer threads.
constexpr unsigned kServeWorkers = 2;
constexpr unsigned kServeClients = 4;
/// Every n-th predict and whatif response is recomputed directly and compared.
constexpr std::size_t kCheckEveryPredict = 20;
constexpr std::size_t kCheckEveryWhatif = 10;
/// (session-down edit, origin) impact queries per analysis round.
constexpr std::size_t kImpactQueries = 20;
/// Engine runs the bgp probe times (enough for a p99 with 10 beyond).
constexpr std::size_t kProbeRuns = 1000;
/// What-if edits the core.whatif probe re-evaluates.
constexpr std::size_t kWhatifProbes = 40;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- statistics -------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it.  Above the median it is refused (nullopt)
/// unless kMinBeyond samples lie beyond it, as it is for an empty sample.
std::optional<double> percentile(std::vector<double> samples, unsigned pct) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t rank = std::max<std::size_t>(1, (pct * n + 99) / 100);
  if (pct > 50 && n - rank < kMinBeyond) return std::nullopt;
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50).value_or(0.0);
}

/// The fastest repetition: for work repeated on identical input, the
/// estimate of its cost that interference from other tenants, which only
/// ever adds time, moves least.
double min_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

// ---- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one workload run produces: metrics, counts and the outcome
/// of its correctness checks.
class Report {
 public:
  /// Printed as `name value unit` only (workload-specific readings such as
  /// predict_p99_ms.r400); the JSON carries end_to_end or layer metrics.
  void info(std::string name, double value, std::string unit) {
    info_.push_back({std::move(name), value, std::move(unit)});
  }
  void end_to_end(std::string name, double value, std::string unit) {
    end_to_end_.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layer_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check (no-op when `ok`).
  void check(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  void print_lines(const std::string& prefix) const {
    for (const auto* list : {&info_, &end_to_end_, &layer_})
      for (const Metric& m : *list)
        std::printf("%s%s %.9g %s\n", prefix.c_str(), m.name.c_str(), m.value,
                    m.unit.c_str());
  }

  std::string result_json(bool trace) const {
    nb::JsonWriter json;
    json.begin_object();
    json.key("correct").value(correct());
    json.key("attempted").value(attempted_);
    json.key("failed").value(failed_);
    json.key("metrics").begin_object();
    for (const Metric& m : trace ? layer_ : end_to_end_) {
      json.key(m.name).begin_object();
      json.key("value").value(std::isfinite(m.value) ? m.value : 0.0);
      json.key("unit").value(m.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
    return json.str();
  }

  void check_finite() {
    for (const auto* list : {&end_to_end_, &layer_})
      for (const Metric& m : *list)
        check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

 private:
  std::vector<Metric> info_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- spans ------------------------------------------------------------------

/// Spans the benchmark records around its own calls into each layer
/// (data, topology, bgp, core, analysis, serve, obs).  A span's parent is
/// the innermost span open on the same thread, and `req` ties together the
/// spans of one serve request; both go into the span's args.  Untraced runs
/// time the same scopes and record nothing; traced runs keep every event in
/// an obs::TraceSink and write it as Chrome trace JSON at exit.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    /// `record` false keeps this span and its children out of the trace
    /// (the traced run alternates, to measure what tracing costs).
    Scope(Spans& spans, std::string_view name, std::uint64_t req = 0,
          bool record = true)
        : spans_(spans), name_(name), req_(req) {
      const bool parent_records = stack().empty() || stack().back().record;
      record_ = spans_.enabled_ && record && parent_records;
      parent_ = stack().empty() ? 0 : stack().back().id;
      id_ = spans_.next_id_.fetch_add(1, std::memory_order_relaxed);
      stack().push_back({id_, record_});
      start_us_ = spans_.sink_.now_us();
      start_ = Clock::now();
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent); returns its duration in seconds.
    double stop() {
      if (seconds_ >= 0) return seconds_;
      seconds_ = seconds_since(start_);
      stack().pop_back();
      if (record_) {
        spans_.sink_.complete(
            "rdbench", name_, start_us_,
            static_cast<std::uint64_t>(seconds_ * 1e6), thread_tid(),
            "{\"parent\": " + std::to_string(parent_) +
                ", \"req\": " + std::to_string(req_) +
                ", \"id\": " + std::to_string(id_) + "}");
      }
      return seconds_;
    }

   private:
    struct Open {
      std::uint64_t id;
      bool record;
    };
    static std::vector<Open>& stack() {
      thread_local std::vector<Open> open;
      return open;
    }
    std::uint32_t thread_tid() {
      thread_local std::uint32_t tid = 0;
      if (tid == 0) tid = spans_.next_tid_.fetch_add(1);
      return tid;
    }

    Spans& spans_;
    std::string name_;
    std::uint64_t req_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    bool record_ = false;
    std::uint64_t start_us_ = 0;
    Clock::time_point start_;
    double seconds_ = -1;
  };

  /// Writes the trace (Chrome trace_event JSON) with `provenance` attached
  /// as the args of one instant event.
  bool write(const std::string& path, const std::string& provenance) {
    sink_.instant("rdbench", "provenance", sink_.now_us(), 0, provenance);
    std::ofstream out(path);
    sink_.write_chrome(out);
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  obs::TraceSink sink_{obs::TraceLevel::kPhase};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint32_t> next_tid_{1};
};

template <typename Body>
double timed(Spans& spans, std::string_view name, Body&& body,
             std::uint64_t req = 0, bool record = true) {
  Spans::Scope scope(spans, name, req, record);
  body();
  return scope.stop();
}

// ---- shared set-up ----------------------------------------------------------

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10;
  double scale = 0.5;
  bool trace = false;
  bool smoke = false;
  unsigned nproc = 1;
  unsigned clients = 1;  // serve client connections and threads
  Spans* spans = nullptr;
};

/// The data stages of the reference Internet at the workload's scale.
std::unique_ptr<core::Pipeline> build_data(const Context& ctx) {
  core::PipelineConfig config =
      core::PipelineConfig::with(ctx.scale, kDataSeed);
  config.threads = ctx.nproc;
  config.refine.threads = ctx.nproc;
  auto pipeline = std::make_unique<core::Pipeline>(core::make_pipeline(config));
  timed(*ctx.spans, "data.stages", [&] { core::run_data_stages(*pipeline); });
  return pipeline;
}

/// A fitted model as a user holds it: fitted at `nproc` threads, saved and
/// loaded back through the model text format.  The dataset it was fitted
/// on is dropped, as it is not in an analyzing or serving process.
struct ModelFixture {
  core::RefineResult refine;
  double data_s = 0;
  double fit_s = 0;
  double load_s = 0;
  std::size_t model_bytes = 0;
  topo::Model model;
};

std::unique_ptr<ModelFixture> build_model(const Context& ctx) {
  auto fixture = std::make_unique<ModelFixture>();
  Spans& spans = *ctx.spans;
  const Clock::time_point start = Clock::now();
  const std::unique_ptr<core::Pipeline> pipeline = build_data(ctx);
  fixture->data_s = seconds_since(start);
  topo::Model fitted = topo::Model::one_router_per_as(pipeline->graph);
  fixture->fit_s = timed(spans, "core.refine", [&] {
    fixture->refine = core::refine_model(fitted, pipeline->split.training,
                                         pipeline->config.refine);
  });
  std::string text;
  timed(spans, "topology.model_save",
        [&] { text = topo::model_to_string(fitted); });
  fixture->model_bytes = text.size();
  std::optional<topo::Model> loaded;
  fixture->load_s = timed(spans, "topology.model_load",
                          [&] { loaded = topo::model_from_string(text); });
  if (loaded) fixture->model = std::move(*loaded);
  return fixture;
}

/// Runs `make` kSetupRepeats times, freeing each result before the next;
/// returns the last and appends each duration to `seconds`.
template <typename T>
std::unique_ptr<T> repeat_setup(const std::function<std::unique_ptr<T>()>& make,
                                std::vector<double>* seconds, bool smoke) {
  std::unique_ptr<T> last;
  for (int i = 0; i < (smoke ? 1 : kSetupRepeats); ++i) {
    last.reset();
    const Clock::time_point start = Clock::now();
    last = make();
    seconds->push_back(seconds_since(start));
  }
  return last;
}

void report_setup(Report& report, const std::vector<double>& setup_s,
                  const std::vector<double>& data_s) {
  report.end_to_end("setup_s", median(setup_s), "s");
  report.layer("data.stages_s", median(data_s), "s");
}

void report_model(Report& report, const topo::Model& model,
                  std::size_t model_bytes, double load_s) {
  const topo::Model::PolicyStats policy = model.policy_stats();
  report.layer("topology.routers", static_cast<double>(model.num_routers()),
               "count");
  report.layer("topology.sessions", static_cast<double>(model.num_sessions()),
               "count");
  report.layer("topology.filters", static_cast<double>(policy.filters),
               "count");
  report.layer("topology.rankings", static_cast<double>(policy.rankings),
               "count");
  report.layer("topology.model_bytes", static_cast<double>(model_bytes),
               "bytes");
  report.layer("topology.model_load_s", load_s, "s");
}

/// Resets the kernel's resident-set high-water mark (Linux).
void reset_peak_mark() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Starts a peak-RSS interval from a trimmed heap: freed memory goes back
/// to the kernel first, as a fresh process would start without it.
void reset_peak_rss() {
  malloc_trim(0);
  reset_peak_mark();
}

/// Peak resident set since the last reset_peak_rss(), in MB.  Falls back
/// to the process-wide peak where /proc does not report VmHWM.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return static_cast<double>(nb::peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// Fit-loop phase metrics over a set of nproc fits (medians per phase).
void report_refine(Report& report,
                   const std::vector<core::RefineResult>& fits,
                   const std::vector<double>& fit_seconds) {
  std::vector<double> simulate, heuristic, other;
  std::uint64_t hits = 0, lookups = 0;
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const core::RefinePhaseSeconds& phase = fits[i].phase_seconds;
    simulate.push_back(phase.simulate);
    heuristic.push_back(phase.heuristic);
    // Self time of the fit span: what no phase the fit names accounts for.
    other.push_back(fit_seconds[i] - phase.simulate - phase.heuristic -
                    phase.validate);
    hits += fits[i].cache_hits;
    lookups += fits[i].cache_hits + fits[i].cache_misses;
  }
  const core::RefineResult& last = fits.back();
  report.layer("core.refine.simulate_s", median(simulate), "s");
  report.layer("core.refine.heuristic_s", median(heuristic), "s");
  report.layer("core.refine.other_s", median(other), "s");
  report.layer("core.refine.iterations", static_cast<double>(last.iterations),
               "count");
  report.layer("core.refine.compacted_runs",
               static_cast<double>(last.compacted_runs), "count");
  report.layer("core.refine.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
               "ratio");
}

// ---- bgp probe --------------------------------------------------------------

/// Times the simulation kernel by itself: every origin of `model` replayed
/// through Engine::run_into on one warm SimMemory (until kProbeRuns runs),
/// then once more through build_view + run_compacted_into over each
/// origin's relaxed working set, which must reach the same message count.
void probe_bgp(const Context& ctx, const topo::Model& model, Report& report) {
  Spans& spans = *ctx.spans;
  const bgp::Engine engine(model);
  bgp::SimMemory memory;
  bgp::PrefixSimResult out;
  const std::vector<nb::Asn> origins = model.asns();
  std::map<nb::Asn, std::uint64_t> messages_of;
  for (const nb::Asn origin : origins) {  // warm-up pass, untimed
    engine.run_into(nb::Prefix::for_asn(origin), origin, memory, nullptr,
                    nullptr, out);
    messages_of[origin] = out.messages;
  }
  std::vector<double> run_us;
  double busy_s = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t pass_messages = 0;
  std::uint64_t pass_activations = 0;
  const std::size_t runs = ctx.smoke ? origins.size() : kProbeRuns;
  for (std::size_t pass = 0; run_us.size() < runs; ++pass) {
    for (const nb::Asn origin : origins) {
      const double s = timed(spans, "bgp.run", [&] {
        engine.run_into(nb::Prefix::for_asn(origin), origin, memory, nullptr,
                        nullptr, out);
      });
      run_us.push_back(s * 1e6);
      busy_s += s;
      total_messages += out.messages;
      if (pass == 0) {
        pass_messages += out.messages;
        pass_activations += out.activations;
      }
    }
  }
  report.layer("bgp.run_us.p50", median(run_us), "us");
  report.layer("bgp.run_us.p99", percentile(run_us, 99).value_or(0.0), "us");
  report.layer("bgp.messages_per_s",
               busy_s > 0 ? static_cast<double>(total_messages) / busy_s : 0,
               "1/s");
  report.layer("bgp.messages", static_cast<double>(pass_messages), "count");
  report.layer("bgp.activations", static_cast<double>(pass_activations),
               "count");
  report.layer("bgp.arena_bytes", static_cast<double>(memory.footprint_bytes()),
               "bytes");

  analysis::WorksetOptions relaxed;
  relaxed.exact = false;
  analysis::ReachabilityCache cache;
  std::vector<double> compacted_us;
  bool same_messages = true;
  for (const nb::Asn origin : origins) {
    const nb::Prefix prefix = nb::Prefix::for_asn(origin);
    const analysis::PrefixWorkset workset =
        analysis::compute_working_set(engine, prefix, origin, relaxed, &cache);
    bool built = true;
    const double s = timed(spans, "bgp.compacted_run", [&] {
      std::shared_ptr<const bgp::PrefixView> view =
          engine.build_view(prefix, origin, workset.members);
      if (view == nullptr) {
        built = false;
        return;
      }
      engine.run_compacted_into(std::move(view), memory, nullptr, out);
    });
    if (!built) continue;
    compacted_us.push_back(s * 1e6);
    same_messages &= out.messages == messages_of[origin];
  }
  report.check(same_messages,
               "compacted runs disagree with full runs on message counts");
  report.layer("bgp.compacted_run_us.p50", median(compacted_us), "us");
}

// ---- fit workload -----------------------------------------------------------

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Fits the reference dataset again and again: one fit on 1 thread, then
/// fits on `nproc` threads.  The seed shuffles the order feed records
/// arrive in, which the fit must not depend on.
void run_fit(const Context& ctx, Report& report) {
  Spans& spans = *ctx.spans;
  std::vector<double> setup_s, data_s;
  const std::unique_ptr<core::Pipeline> pipeline =
      repeat_setup<core::Pipeline>(
          [&] {
            const Clock::time_point start = Clock::now();
            auto built = build_data(ctx);
            data_s.push_back(seconds_since(start));
            nb::Rng rng(ctx.seed);
            rng.shuffle(built->split.training.records);
            rng.shuffle(built->split.validation.records);
            return built;
          },
          &setup_s, ctx.smoke);

  // One fit: `mode` 0 bare, 1 bare with its spans unrecorded, 2 with the
  // library's full observability stack attached.  Each starts from a
  // trimmed heap and reports its own peak RSS.
  struct Fit {
    double seconds = 0;
    double peak_mb = 0;
    core::RefineResult result;
  };
  std::optional<std::uint64_t> reference_hash;
  std::string model_text;
  topo::Model fitted;
  auto fit = [&](unsigned threads, int mode) {
    topo::Model model = topo::Model::one_router_per_as(pipeline->graph);
    core::RefineConfig config = pipeline->config.refine;
    config.threads = threads;
    obs::Registry registry;
    obs::TraceSink trace(obs::TraceLevel::kIteration);
    obs::Observer observer{&registry, &trace};
    obs::FlightRecorder flight(2 + threads);
    if (mode == 2) {
      config.observer = &observer;
      config.flight_recorder = &flight;
    }
    Fit run;
    reset_peak_rss();
    run.seconds = timed(
        spans, "core.refine",
        [&] {
          run.result =
              core::refine_model(model, pipeline->split.training, config);
        },
        0, mode != 1);
    run.peak_mb = peak_rss_mb();
    report.check(run.result.success && run.result.unmatched_paths == 0,
                 "fit did not converge with every training path matched");
    model_text = topo::model_to_string(model);
    const std::uint64_t hash = fnv1a(model_text);
    if (!reference_hash) reference_hash = hash;
    report.check(hash == *reference_hash,
                 "fitted models differ across thread counts or repeats");
    report.count(1, run.result.success ? 0 : 1);
    fitted = std::move(model);
    return run;
  };

  // The measured loop.  Traced runs add an unrecorded and an observed
  // nproc fit per cycle, for obs.trace_overhead and obs.observer_overhead.
  std::vector<double> serial_s, parallel_s, parallel_peak_mb, unrecorded_s,
      observed_s;
  std::vector<core::RefineResult> parallel_fits;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < ctx.seconds || serial_s.size() < 2) {
    serial_s.push_back(fit(1, 0).seconds);
    Fit parallel = fit(ctx.nproc, 0);
    parallel_s.push_back(parallel.seconds);
    parallel_peak_mb.push_back(parallel.peak_mb);
    parallel_fits.push_back(std::move(parallel.result));
    if (ctx.trace) {
      unrecorded_s.push_back(fit(ctx.nproc, 1).seconds);
      observed_s.push_back(fit(ctx.nproc, 2).seconds);
    }
  }

  core::EvalOptions eval;
  eval.threads = ctx.nproc;
  const core::EvalResult validation =
      core::evaluate_predictions(fitted, pipeline->split.validation, eval);
  const double match = validation.stats.potential_or_better_rate();
  report.check(match >= 0.80,
               "validation RIB-Out + potential RIB-Out below 80%");

  const double best = min_of(parallel_s);
  const double best_serial = min_of(serial_s);
  report.info("fit_s", median(parallel_s), "s");
  report.info("fit_serial_s", median(serial_s), "s");
  report.info("fits", static_cast<double>(parallel_s.size()), "count");
  report.info("validation_match", match, "ratio");
  report_setup(report, setup_s, data_s);
  report.end_to_end("latency_ms", best * 1e3, "ms");
  report.end_to_end("serial_ms", best_serial * 1e3, "ms");
  report.end_to_end("throughput_per_s",
                    static_cast<double>(fitted.num_routers()) / best, "1/s");
  report.end_to_end("peak_rss_mb", median(parallel_peak_mb), "MB");
  if (!ctx.trace) return;

  report_refine(report, parallel_fits, parallel_s);
  report.layer("core.refine.parallel_efficiency",
               best_serial / (ctx.nproc * best), "ratio");
  report.layer("obs.trace_overhead", best / min_of(unrecorded_s), "ratio");
  report.layer("obs.observer_overhead", min_of(observed_s) / best, "ratio");
  std::optional<topo::Model> loaded;
  const double load_s = timed(spans, "topology.model_load", [&] {
    loaded = topo::model_from_string(model_text);
  });
  report.check(loaded.has_value(), "fitted model does not load back");
  report_model(report, fitted, model_text.size(), load_s);
  probe_bgp(ctx, fitted, report);
}

// ---- analysis workload ------------------------------------------------------

/// Inter-AS sessions of `model` as (lower id, higher id) pairs, ascending.
std::vector<std::pair<nb::RouterId, nb::RouterId>> inter_as_sessions(
    const topo::Model& model) {
  std::vector<std::pair<nb::RouterId, nb::RouterId>> sessions;
  for (topo::Model::Dense r = 0; r < model.num_routers(); ++r) {
    for (const topo::Model::Dense peer : model.peers(r)) {
      const nb::RouterId a = model.router_id(r);
      const nb::RouterId b = model.router_id(peer);
      if (a.value() < b.value() && a.asn() != b.asn())
        sessions.emplace_back(a, b);
    }
  }
  return sessions;
}

/// Static analyses of one fitted model, round after round: a self-diff,
/// the working sets plus a shard plan, and the impact sets of the seeded
/// session-down edits.  Rounds alternate the diff between 1 and nproc
/// threads (the other analyses have no thread knob).
void run_analyze(const Context& ctx, Report& report) {
  Spans& spans = *ctx.spans;
  std::vector<double> setup_s, data_s;
  const std::unique_ptr<ModelFixture> fixture = repeat_setup<ModelFixture>(
      [&] {
        auto built = build_model(ctx);
        data_s.push_back(built->data_s);
        return built;
      },
      &setup_s, ctx.smoke);
  const topo::Model& model = fixture->model;
  report.check(model.num_routers() > 0, "fitted model did not load");

  // Each query asks what taking one session down can change for one
  // origin's prefix (`rdtool impact --edit session-down --origin N`).
  const auto sessions = inter_as_sessions(model);
  const std::vector<nb::Asn> asns = model.asns();
  nb::Rng rng(ctx.seed);
  std::vector<std::pair<analysis::ModelEdit, nb::Asn>> queries;
  for (std::size_t i = 0; i < kImpactQueries && !sessions.empty(); ++i) {
    const auto& [a, b] = rng.pick(sessions);
    analysis::ModelEdit edit;
    edit.kind = analysis::ModelEdit::Kind::kSessionDown;
    edit.a = a;
    edit.b = b;
    queries.emplace_back(edit, rng.pick(asns));
  }

  std::vector<double> round_serial_s, round_parallel_s, unrecorded_s;
  std::vector<double> diff_serial_s, diff_parallel_s, workset_s, plan_s,
      impact_ms;
  std::vector<std::size_t> impact_sizes;
  double imbalance = 0;
  std::size_t truncated = 0;
  std::size_t prefixes = 0;
  const bgp::Engine engine(model);
  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0;
       seconds_since(start) < ctx.seconds || round_parallel_s.empty() ||
       (ctx.trace && unrecorded_s.empty());
       ++round) {
    const unsigned threads = round % 2 == 0 ? 1 : ctx.nproc;
    // Traced runs leave every other 1-thread round unrecorded, for
    // obs.trace_overhead.
    const bool record = !ctx.trace || round % 4 != 2;
    Spans::Scope round_span(spans, "analysis.round", round, record);
    analysis::DiffOptions diff_options;
    diff_options.threads = threads;
    analysis::DiffResult diff;
    const double diff_s = timed(spans, "analysis.diff", [&] {
      diff = analysis::diff_models(model, model, diff_options);
    });
    (threads == 1 ? diff_serial_s : diff_parallel_s).push_back(diff_s);
    report.check(diff.identical(), "self-diff is not empty");
    truncated = 0;
    for (const analysis::PrefixDiff& p : diff.prefixes)
      truncated += p.truncated;
    prefixes = diff.prefixes_compared;

    analysis::ReachabilityCache cache;
    std::vector<analysis::PrefixWorkset> worksets;
    workset_s.push_back(timed(spans, "analysis.workset", [&] {
      worksets = analysis::compute_all_worksets(engine, {}, &cache);
    }));
    analysis::PlanOptions plan_options;
    plan_options.shards = ctx.nproc;
    analysis::ShardPlan plan;
    plan_s.push_back(timed(spans, "analysis.plan", [&] {
      plan = analysis::plan_shards(worksets, model.num_routers(), plan_options);
    }));
    std::size_t planned = 0;
    for (const auto& shard : plan.shards) planned += shard.prefixes.size();
    report.check(planned == worksets.size() &&
                     plan.fingerprint == analysis::plan_fingerprint(model),
                 "shard plan does not cover the model's prefixes");
    imbalance = plan.imbalance;

    analysis::ImpactOptions impact_options;
    impact_options.cache = &cache;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      impact_options.origins = {queries[i].second};
      analysis::ImpactResult impact;
      impact_ms.push_back(1e3 * timed(spans, "analysis.impact", [&] {
        impact = analysis::compute_impact(model, queries[i].first,
                                          impact_options);
      }));
      if (impact_sizes.size() < queries.size()) {
        impact_sizes.push_back(impact.routers_total);
      } else {
        report.check(impact_sizes[i] == impact.routers_total,
                     "impact set of an edit changed between rounds");
      }
    }
    const double round_s = round_span.stop();
    if (!record) {
      unrecorded_s.push_back(round_s);
    } else {
      (threads == 1 ? round_serial_s : round_parallel_s).push_back(round_s);
    }
    report.count(2 + queries.size(), 0);
  }

  const double peak_mb = peak_rss_mb();
  const double best = min_of(round_parallel_s);
  const double best_serial = min_of(round_serial_s);
  report.info("analyze_s", median(round_parallel_s), "s");
  report.info("analyze_serial_s", median(round_serial_s), "s");
  report.info("rounds", static_cast<double>(round_parallel_s.size()), "count");
  report_setup(report, setup_s, data_s);
  report.end_to_end("latency_ms", best * 1e3, "ms");
  report.end_to_end("serial_ms", best_serial * 1e3, "ms");
  report.end_to_end("throughput_per_s", static_cast<double>(prefixes) / best,
                    "1/s");
  report.end_to_end("peak_rss_mb", peak_mb, "MB");
  if (!ctx.trace) return;

  report.layer("analysis.diff_s", median(diff_serial_s), "s");
  report.layer("analysis.diff_s.nproc", median(diff_parallel_s), "s");
  report.layer("analysis.workset_s", median(workset_s), "s");
  report.layer("analysis.plan_s", median(plan_s), "s");
  report.layer("analysis.impact_ms.p50", median(impact_ms), "ms");
  report.layer("analysis.plan_imbalance", imbalance, "ratio");
  report.layer("analysis.truncated_prefixes", static_cast<double>(truncated),
               "count");
  report.layer("obs.trace_overhead", best_serial / min_of(unrecorded_s),
               "ratio");
  report_refine(report, {fixture->refine}, {fixture->fit_s});
  report_model(report, model, fixture->model_bytes, fixture->load_s);
  probe_bgp(ctx, model, report);
}

// ---- serve workloads --------------------------------------------------------

enum class Kind : std::uint8_t { kPredict, kWhatif };

struct Request {
  Kind kind = Kind::kPredict;
  std::uint64_t id = 0;
  nb::Asn origin = nb::kInvalidAsn;
  nb::Asn vantage = nb::kInvalidAsn;  // predict
  nb::Asn from = nb::kInvalidAsn;     // whatif policy-edit
  nb::Asn to = nb::kInvalidAsn;
  std::string text;
};

/// Seeded request source over one model: origins Zipf(1.0) over every AS
/// (the seed also picks which AS gets which rank), vantages uniform, and a
/// `whatif_share` of policy-edit what-ifs on a uniformly drawn live
/// inter-AS session -- far more distinct edits than the fork cache holds.
/// What-ifs come at fixed positions (every fifth request at share 0.2), so
/// every stretch of a stream carries the same mix.
class RequestSource {
 public:
  /// Request ids count up from `first_id` + 1.
  RequestSource(const topo::Model& model, std::uint64_t seed,
                double whatif_share, std::uint64_t first_id)
      : rng_(seed),
        asns_(model.asns()),
        whatif_share_(whatif_share),
        issued_(first_id) {
    by_rank_ = asns_;
    rng_.shuffle(by_rank_);
    double total = 0;
    for (std::size_t rank = 1; rank <= by_rank_.size(); ++rank) {
      total += 1.0 / static_cast<double>(rank);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    sessions_ = inter_as_sessions(model);
  }

  Request next() {
    Request r;
    r.id = ++issued_;
    const double u = rng_.uniform();
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    r.origin = by_rank_[std::min(rank, by_rank_.size() - 1)];
    ++count_;
    const bool whatif = std::floor(count_ * whatif_share_) >
                        std::floor((count_ - 1) * whatif_share_);
    if (!sessions_.empty() && whatif) {
      const auto& [a, b] = rng_.pick(sessions_);
      const bool flip = rng_.chance(0.5);
      r.kind = Kind::kWhatif;
      r.from = flip ? b.asn() : a.asn();
      r.to = flip ? a.asn() : b.asn();
      r.text = "{\"op\": \"whatif\", \"id\": " + std::to_string(r.id) +
               ", \"edit\": \"policy-edit\", \"origin\": " +
               std::to_string(r.origin) + ", \"from\": " +
               std::to_string(r.from) + ", \"to\": " + std::to_string(r.to) +
               "}";
      return r;
    }
    do {
      r.vantage = rng_.pick(asns_);
    } while (r.vantage == r.origin && asns_.size() > 1);
    r.text = "{\"op\": \"predict\", \"id\": " + std::to_string(r.id) +
             ", \"origin\": " + std::to_string(r.origin) +
             ", \"vantage\": " + std::to_string(r.vantage) + "}";
    return r;
  }

 private:
  nb::Rng rng_;
  std::vector<nb::Asn> asns_;
  std::vector<nb::Asn> by_rank_;
  std::vector<double> cdf_;
  std::vector<std::pair<nb::RouterId, nb::RouterId>> sessions_;
  double whatif_share_;
  std::uint64_t issued_;
  std::uint64_t count_ = 0;
};

/// One answered request of a leg.
struct Answer {
  Request request;
  double latency_ms = 0;   // from due time (open loop) or send (closed)
  double lateness_ms = 0;  // generator lateness, open loop only
  bool transported = false;
  std::string response;
};

struct ServeFixture {
  std::unique_ptr<ModelFixture> fixture;
  // Declared after the model it serves: destroyed (drained, joined) first.
  std::unique_ptr<serve::Server> server;
};

bool roundtrip(nb::TcpStream& stream, const std::string& request,
               std::string* response) {
  if (!nb::write_frame(stream, request)) return false;
  return nb::read_frame(stream, response, /*timeout_ms=*/15000, nullptr) ==
         nb::FrameStatus::kOk;
}

/// Sleeps until `due`, spinning the last 200 us for punctuality.
void wait_until(Clock::time_point due) {
  const auto spin = std::chrono::microseconds(200);
  if (Clock::now() + spin < due) std::this_thread::sleep_until(due - spin);
  while (Clock::now() < due) {
  }
}

/// Sends `request` and waits for its answer on `stream`, inside a
/// serve.request span (recorded for even request ids only, so the traced
/// run can compare recorded and unrecorded requests).
void send(const Context& ctx, std::optional<nb::TcpStream>& stream,
          Answer& answer) {
  Spans::Scope span(*ctx.spans, "serve.request", answer.request.id,
                    answer.request.id % 2 == 0);
  answer.transported =
      stream && roundtrip(*stream, answer.request.text, &answer.response);
}

/// Open loop: Poisson arrivals at `rate` per second over the client
/// connections for `seconds`, each request timed from when it was due.  A
/// connection is synchronous, so a request due while its predecessor is
/// still out waits, and that wait counts against the system, not the
/// generator: lateness is measured from the later of due time and
/// connection free time, and the achieved rate is the sending rate.
struct OpenLeg {
  std::vector<Answer> answers;
  double offered_rate = 0;
  double achieved_rate = 0;
};

OpenLeg run_open_loop(const Context& ctx, std::uint16_t port,
                      RequestSource& source, double rate, double seconds,
                      std::uint64_t leg) {
  // The whole schedule is drawn before the leg starts.
  std::vector<std::vector<std::pair<double, Answer>>> schedule(ctx.clients);
  nb::Rng arrivals(ctx.seed * 1000003 + leg);
  std::size_t scheduled = 0;
  double last_due = 0;
  for (auto& client : schedule) {
    for (double t = 0;;) {
      t += -std::log(1.0 - arrivals.uniform()) * ctx.clients / rate;
      if (t >= seconds) break;
      Answer answer;
      answer.request = source.next();
      client.emplace_back(t, std::move(answer));
      last_due = std::max(last_due, t);
      ++scheduled;
    }
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> last_sent(ctx.clients, start);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < ctx.clients; ++c) {
    threads.emplace_back([&, c] {
      auto stream = nb::TcpStream::connect("127.0.0.1", port);
      Clock::time_point free_at = start;
      for (auto& [offset, answer] : schedule[c]) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset));
        wait_until(due);
        last_sent[c] = Clock::now();
        answer.lateness_ms = std::chrono::duration<double, std::milli>(
                                 last_sent[c] - std::max(due, free_at))
                                 .count();
        send(ctx, stream, answer);
        free_at = Clock::now();
        answer.latency_ms =
            std::chrono::duration<double, std::milli>(free_at - due).count();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  OpenLeg result;
  for (auto& client : schedule)
    for (auto& [offset, answer] : client)
      result.answers.push_back(std::move(answer));
  const double span_s =
      std::chrono::duration<double>(
          *std::max_element(last_sent.begin(), last_sent.end()) - start)
          .count();
  result.offered_rate = last_due > 0 ? scheduled / last_due : 0;
  result.achieved_rate = span_s > 0 ? scheduled / span_s : 0;
  return result;
}

/// Closed loop: the client connections each send their next request as
/// soon as the previous answer arrives, for `seconds`.  Capacity is read
/// as the best of four equal windows: other tenants only ever take
/// throughput away, so the best window is the steadier estimate of what
/// the server sustains.
struct ClosedLeg {
  std::vector<Answer> answers;
  double seconds = 0;
  double best_window = 0;
};

ClosedLeg run_closed_loop(const Context& ctx, std::uint16_t port,
                          const topo::Model& model, double whatif_share,
                          std::uint64_t leg, double seconds) {
  constexpr int kWindows = 4;
  std::vector<std::vector<Answer>> per_client(ctx.clients);
  std::vector<std::array<std::size_t, kWindows>> done(ctx.clients);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (unsigned c = 0; c < ctx.clients; ++c) {
    threads.emplace_back([&, c] {
      RequestSource source(model, ctx.seed * 1000003 + leg * 64 + c,
                           whatif_share, (leg * 64 + c + 1) << 32);
      auto stream = nb::TcpStream::connect("127.0.0.1", port);
      done[c].fill(0);
      for (double elapsed = 0; elapsed < seconds;) {
        Answer answer;
        answer.request = source.next();
        const Clock::time_point sent = Clock::now();
        send(ctx, stream, answer);
        answer.latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count();
        per_client[c].push_back(std::move(answer));
        elapsed = seconds_since(start);
        const int window = static_cast<int>(elapsed / seconds * kWindows);
        if (window < kWindows) ++done[c][window];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ClosedLeg result;
  for (auto& list : per_client)
    for (Answer& answer : list) result.answers.push_back(std::move(answer));
  result.seconds = seconds_since(start);
  for (int w = 0; w < kWindows; ++w) {
    std::size_t count = 0;
    for (const auto& client : done) count += client[w];
    result.best_window =
        std::max(result.best_window, count * kWindows / seconds);
  }
  return result;
}

std::string status_of(const std::string& response) {
  const auto doc = nb::json_parse(response);
  return doc ? std::string(doc->string_or("status")) : "";
}

/// Verifies sampled answers against a direct computation: predict paths
/// against core::best_paths_of over a fresh Engine::run, what-if counts
/// against apply_scenario + diff_origin_routes.
class Verifier {
 public:
  explicit Verifier(const topo::Model& model) : model_(model), engine_(model) {}

  bool predict(const Request& request, const std::string& response) const {
    const auto doc = nb::json_parse(response);
    const nb::JsonValue* paths = doc ? doc->find("paths") : nullptr;
    if (paths == nullptr || !paths->is_array()) return false;
    std::set<std::vector<nb::Asn>> got;
    for (const nb::JsonValue& path : paths->array) {
      std::vector<nb::Asn> hops;
      for (const nb::JsonValue& hop : path.array)
        hops.push_back(static_cast<nb::Asn>(hop.number));
      got.insert(std::move(hops));
    }
    const bgp::PrefixSimResult sim =
        engine_.run(nb::Prefix::for_asn(request.origin), request.origin);
    return got == core::best_paths_of(model_, sim, request.vantage);
  }

  bool whatif(const Request& request, const std::string& response) const {
    const auto doc = nb::json_parse(response);
    if (!doc) return false;
    core::WhatIfScenario scenario;
    scenario.deny_prefix.push_back(
        {request.from, request.to, nb::Prefix::for_asn(request.origin)});
    const topo::Model changed = core::apply_scenario(model_, scenario);
    const bgp::Engine after(changed);
    core::WhatIfOptions options;
    options.max_changes = serve::ServeConfig{}.max_changes;
    core::WhatIfResult expected;
    core::diff_origin_routes(model_, engine_, changed, after, request.origin,
                             options, &expected);
    return doc->number_or("prefixes_evaluated") ==
               static_cast<double>(expected.prefixes_evaluated) &&
           doc->number_or("pairs_evaluated") ==
               static_cast<double>(expected.pairs_evaluated) &&
           doc->number_or("pairs_changed") ==
               static_cast<double>(expected.pairs_changed) &&
           doc->number_or("pairs_lost_reachability") ==
               static_cast<double>(expected.pairs_lost_reachability) &&
           doc->number_or("pairs_gained_reachability") ==
               static_cast<double>(expected.pairs_gained_reachability);
  }

 private:
  const topo::Model& model_;
  const bgp::Engine engine_;
};

/// Counts failures and verifies every kCheckEvery-th answer of each kind.
void tally(const std::vector<Answer>& answers, const Verifier& verifier,
           Report& report) {
  std::uint64_t failed = 0;
  std::size_t predicts = 0, whatifs = 0;
  bool predicts_match = true, whatifs_match = true;
  for (const Answer& answer : answers) {
    const bool ok = answer.transported && status_of(answer.response) == "ok";
    failed += ok ? 0 : 1;
    if (!ok) continue;
    if (answer.request.kind == Kind::kPredict) {
      if (predicts++ % kCheckEveryPredict == 0)
        predicts_match &= verifier.predict(answer.request, answer.response);
    } else if (whatifs++ % kCheckEveryWhatif == 0) {
      whatifs_match &= verifier.whatif(answer.request, answer.response);
    }
  }
  report.count(answers.size(), failed);
  report.check(predicts_match,
               "a predict answer differs from a direct engine run");
  report.check(whatifs_match,
               "a what-if answer differs from a direct scenario diff");
}

std::vector<double> latencies(const std::vector<Answer>& answers,
                              std::optional<Kind> kind = std::nullopt) {
  std::vector<double> out;
  for (const Answer& answer : answers)
    if (!kind || answer.request.kind == *kind) out.push_back(answer.latency_ms);
  return out;
}

/// Prints `<name>_p50_ms<suffix>` and the highest of p99/p95/p90 the sample
/// supports, with the sample count.
void info_latency(Report& report, const std::string& name,
                  const std::string& suffix, const std::vector<double>& ms) {
  report.info(name + "_p50_ms" + suffix, median(ms), "ms");
  for (const unsigned pct : {99u, 95u, 90u}) {
    if (const auto value = percentile(ms, pct)) {
      report.info(name + "_p" + std::to_string(pct) + "_ms" + suffix, *value,
                  "ms");
      break;
    }
  }
  report.info(name + "_samples" + suffix, static_cast<double>(ms.size()),
              "count");
}

/// Generator validity: lateness p99 within 1 ms and every open-loop leg's
/// achieved rate within 2% of its offered rate.  The rate is checked on
/// legs of at least kRateCheckRequests requests; on shorter ones (the smoke
/// run's) one late final send alone is more than 2% of the leg.
constexpr std::size_t kRateCheckRequests = 100;

void check_generator(const std::vector<const OpenLeg*>& legs, Report& report) {
  std::vector<double> lateness;
  for (const OpenLeg* leg : legs) {
    for (const Answer& answer : leg->answers)
      lateness.push_back(answer.lateness_ms);
    if (leg->answers.size() < kRateCheckRequests) continue;
    report.check(std::abs(leg->achieved_rate - leg->offered_rate) <=
                     0.02 * leg->offered_rate,
                 "open-loop generator missed its offered rate");
  }
  // p99 where the sample supports it, else the highest percentile it does.
  for (const unsigned pct : {99u, 95u, 90u}) {
    if (const auto late = percentile(lateness, pct)) {
      report.info("generator_lateness_p" + std::to_string(pct) + "_ms", *late,
                  "ms");
      report.check(*late <= 1.0, "open-loop generator lateness above 1 ms");
      break;
    }
  }
}

/// Heap bytes the program holds (glibc in-use chunks plus mmapped blocks),
/// in MB: live memory, without what per-thread allocator arenas retain --
/// that part varies by tens of MB between identical serving runs.
double live_heap_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// What the 100 ms poll of a serving process saw.
struct Polls {
  std::size_t max_queue = 0;
  double peak_heap_mb = 0;
};

/// Polls Server::status() and the live heap every 100 ms while `body` runs.
template <typename Body>
void with_polling(const serve::Server& server, Polls* polls, Body&& body) {
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load()) {
      polls->max_queue =
          std::max(polls->max_queue, server.status().queue_depth);
      polls->peak_heap_mb = std::max(polls->peak_heap_mb, live_heap_mb());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  body();
  done.store(true);
  poller.join();
}

/// Layer probes beside one in-process answer: parsing alone, and for a
/// predict the path extraction from a finished simulation.
struct AnswerProbes {
  std::vector<double> parse_us;
  std::vector<double> best_paths_us;
};

/// In-process answers through Server::answer (no transport, no queue), one
/// at a time on the calling thread.  The first pass draws its requests and
/// later passes answer the same requests in the same order; a request's
/// service time is its fastest answer, since interference from other
/// tenants only ever adds time.  A what-if answer counts only when it
/// missed the fork cache, so every counted what-if built its fork.
class InProcess {
 public:
  InProcess(const Context& ctx, serve::Server& server, const topo::Model& model)
      : ctx_(ctx), server_(server), model_(model), engine_(model) {}

  /// One pass; the first runs for `seconds` (and at least 20 requests).
  void pass(RequestSource& source, double seconds) {
    const bool first = requests_.empty();
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0;; ++i) {
      if (first) {
        if (seconds_since(start) >= seconds && i >= 20) break;
        requests_.push_back(source.next());
        best_us_.push_back(std::numeric_limits<double>::infinity());
      } else if (i == requests_.size()) {
        break;
      }
      Answer answer;
      answer.request = requests_[i];
      answer.transported = true;
      const std::uint64_t fork_hits = server_.status().fork_hits;
      const double us = 1e6 * timed(
          *ctx_.spans, "serve.answer",
          [&] { answer.response = server_.answer(answer.request.text); },
          answer.request.id);
      if (server_.status().fork_hits == fork_hits)
        best_us_[i] = std::min(best_us_[i], us);
      if (first && answer.request.kind == Kind::kPredict)
        first_predict_us.push_back(us);
      if (first && ctx_.trace) probe(answer.request);
      answers.push_back(std::move(answer));
    }
  }

  /// Per-request service times of `kind`, best over the passes.
  std::vector<double> best_us(Kind kind) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < requests_.size(); ++i)
      if (requests_[i].kind == kind && std::isfinite(best_us_[i]))
        out.push_back(best_us_[i]);
    return out;
  }

  std::vector<double> first_predict_us;  // every predict of the first pass
  AnswerProbes probes;
  std::vector<Answer> answers;

 private:
  void probe(const Request& request) {
    probes.parse_us.push_back(1e6 * timed(*ctx_.spans, "serve.parse", [&] {
      std::string error;
      serve::parse_request(request.text, &error);
    }));
    if (request.kind != Kind::kPredict) return;
    const bgp::PrefixSimResult sim =
        engine_.run(nb::Prefix::for_asn(request.origin), request.origin);
    probes.best_paths_us.push_back(
        1e6 * timed(*ctx_.spans, "core.best_paths", [&] {
          core::best_paths_of(model_, sim, request.vantage);
        }));
  }

  const Context& ctx_;
  serve::Server& server_;
  const topo::Model& model_;
  const bgp::Engine engine_;
  std::vector<Request> requests_;
  std::vector<double> best_us_;
};

std::unique_ptr<ServeFixture> build_server(const Context& ctx,
                                           std::vector<double>* data_s,
                                           Report& report) {
  auto fixture = std::make_unique<ServeFixture>();
  fixture->fixture = build_model(ctx);
  data_s->push_back(fixture->fixture->data_s);
  serve::ServeConfig config;
  config.threads = kServeWorkers;
  fixture->server =
      std::make_unique<serve::Server>(fixture->fixture->model, config);
  std::string error;
  report.check(fixture->server->listen(0, &error),
               "server did not listen: " + error);
  return fixture;
}

/// Times the copy-on-write fork a what-if builds and the per-origin diff
/// over it, for the edits of `answers`.
void probe_whatif(const Context& ctx, const topo::Model& model,
                  const std::vector<Answer>& answers, Report& report) {
  const bgp::Engine before(model);
  std::vector<double> fork_ms, diff_ms;
  for (const Answer& answer : answers) {
    const Request& request = answer.request;
    if (request.kind != Kind::kWhatif) continue;
    if (fork_ms.size() == kWhatifProbes) break;
    core::WhatIfScenario scenario;
    scenario.deny_prefix.push_back(
        {request.from, request.to, nb::Prefix::for_asn(request.origin)});
    std::optional<topo::Model> changed;
    std::optional<bgp::Engine> after;
    fork_ms.push_back(1e3 * timed(*ctx.spans, "core.whatif.fork", [&] {
      changed.emplace(core::apply_scenario(model, scenario));
      after.emplace(*changed);
    }));
    core::WhatIfOptions options;
    options.max_changes = serve::ServeConfig{}.max_changes;
    core::WhatIfResult result;
    diff_ms.push_back(1e3 * timed(*ctx.spans, "core.whatif.diff", [&] {
      core::diff_origin_routes(model, before, *changed, *after, request.origin,
                               options, &result);
    }));
  }
  report.layer("core.whatif.fork_ms.p50", median(fork_ms), "ms");
  report.layer("core.whatif.diff_ms.p50", median(diff_ms), "ms");
}

/// Shares of the measured window the serve legs take: the open-loop legs
/// (split evenly over the rates), the closed loop and the in-process pass.
/// The remaining 5% is the warm-up.
constexpr double kOpenShare = 0.6;
constexpr double kClosedShare = 0.2;
constexpr double kInProcessShare = 0.15;

struct ServePlan {
  double whatif_share = 0;
  std::vector<double> rates;  // open-loop legs, requests per second
};

void run_serve(const Context& ctx, const ServePlan& plan, Report& report) {
  std::vector<double> setup_s, data_s;
  const std::unique_ptr<ServeFixture> fixture = repeat_setup<ServeFixture>(
      [&] { return build_server(ctx, &data_s, report); }, &setup_s, ctx.smoke);
  serve::Server& server = *fixture->server;
  const topo::Model& model = fixture->fixture->model;
  const std::uint16_t port = server.port();
  const Verifier verifier(model);
  RequestSource source(model, ctx.seed, plan.whatif_share, 0);

  // Warm-up: the first queries build the engine's epoch-cached context and
  // grow the worker arenas.  Not measured, not counted.
  run_closed_loop(ctx, port, model, plan.whatif_share, 1,
                  std::max(0.2, 0.05 * ctx.seconds));

  // The window runs every leg in kCycles short cycles, so a burst of
  // interference from other tenants lands on one cycle's share of each leg
  // rather than on a whole leg.
  constexpr std::size_t kCycles = 3;
  const std::size_t rates = plan.rates.size();
  std::vector<OpenLeg> legs;  // cycle-major, then rate
  std::vector<ClosedLeg> closed;
  InProcess in_process(ctx, server, model);
  Polls polls;
  with_polling(server, &polls, [&] {
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
      in_process.pass(source, kInProcessShare * ctx.seconds / kCycles);
      for (std::size_t i = 0; i < rates; ++i)
        legs.push_back(run_open_loop(
            ctx, port, source, plan.rates[i],
            kOpenShare * ctx.seconds / (rates * kCycles),
            cycle * rates + i));
      closed.push_back(run_closed_loop(ctx, port, model, plan.whatif_share,
                                       2 + cycle,
                                       kClosedShare * ctx.seconds / kCycles));
    }
  });
  const serve::ServeStatus status = server.status();

  std::vector<const OpenLeg*> leg_ptrs;
  for (const OpenLeg& leg : legs) {
    tally(leg.answers, verifier, report);
    leg_ptrs.push_back(&leg);
  }
  double capacity = 0, closed_answers = 0, closed_s = 0;
  for (const ClosedLeg& leg : closed) {
    tally(leg.answers, verifier, report);
    capacity = std::max(capacity, leg.best_window);
    closed_answers += leg.answers.size();
    closed_s += leg.seconds;
  }
  tally(in_process.answers, verifier, report);
  check_generator(leg_ptrs, report);

  // Open-loop answers pooled over the cycles, per rate.
  auto pooled = [&](std::size_t rate) {
    std::vector<Answer> out;
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle)
      for (const Answer& answer : legs[cycle * rates + rate].answers)
        out.push_back(answer);
    return out;
  };
  const bool mixed = plan.whatif_share > 0;
  for (std::size_t i = 0; i < rates; ++i) {
    const std::vector<Answer> answers = pooled(i);
    const std::string suffix =
        ".r" + std::to_string(static_cast<int>(std::lround(plan.rates[i])));
    if (mixed) {
      info_latency(report, "whatif", suffix, latencies(answers, Kind::kWhatif));
      info_latency(report, "mixed_predict", suffix,
                   latencies(answers, Kind::kPredict));
    } else {
      info_latency(report, "predict", suffix, latencies(answers));
    }
  }
  report.info("capacity_qps", closed_answers / closed_s, "1/s");

  // End-to-end latency is read on the lightest leg, where queueing adds
  // least to the service time and so least to run-to-run spread.
  const Kind kind = mixed ? Kind::kWhatif : Kind::kPredict;
  const std::vector<Answer> light = pooled(0);
  const std::vector<Answer> heavy = pooled(rates - 1);
  report_setup(report, setup_s, data_s);
  report.end_to_end("latency_ms", median(latencies(light, kind)), "ms");
  report.end_to_end("serial_ms", median(in_process.best_us(kind)) / 1e3, "ms");
  report.end_to_end("throughput_per_s", capacity, "1/s");
  report.end_to_end("peak_rss_mb", polls.peak_heap_mb, "MB");
  if (!ctx.trace) return;

  const std::vector<double>& answer_us = in_process.first_predict_us;
  report.layer("serve.parse_us.p50", median(in_process.probes.parse_us), "us");
  report.layer("serve.answer_us.p50", median(answer_us), "us");
  report.layer("serve.answer_us.p90", percentile(answer_us, 90).value_or(0.0),
               "us");
  report.layer("serve.transport_us.p50",
               median(latencies(light, Kind::kPredict)) * 1e3 -
                   median(answer_us),
               "us");
  report.layer("serve.request_ms.p99",
               percentile(latencies(heavy, Kind::kPredict), 99).value_or(0.0),
               "ms");
  report.layer("serve.queue_depth.max", static_cast<double>(polls.max_queue),
               "count");
  report.layer("serve.shed", static_cast<double>(status.shed), "count");
  report.layer("serve.deadline_expired",
               static_cast<double>(status.deadline_expired), "count");
  const std::uint64_t fork_lookups = status.fork_hits + status.fork_misses;
  report.layer("serve.fork_hit_ratio",
               fork_lookups > 0
                   ? static_cast<double>(status.fork_hits) / fork_lookups
                   : 0.0,
               "ratio");
  report.layer("core.best_paths_us.p50",
               median(in_process.probes.best_paths_us), "us");
  // Client spans are recorded for even request ids only.
  std::vector<double> recorded, unrecorded;
  for (const Answer& answer : light)
    (answer.request.id % 2 == 0 ? recorded : unrecorded)
        .push_back(answer.latency_ms);
  report.layer("obs.trace_overhead", median(recorded) / median(unrecorded),
               "ratio");
  if (mixed) probe_whatif(ctx, model, light, report);
  report_refine(report, {fixture->fixture->refine}, {fixture->fixture->fit_s});
  report_model(report, model, fixture->fixture->model_bytes,
               fixture->fixture->load_s);
  probe_bgp(ctx, model, report);
}

// ---- main -------------------------------------------------------------------

struct Workload {
  const char* name;
  double scale;
  double smoke_scale;
  std::function<void(const Context&, Report&)> run;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"fit-s0.3", 0.3, 0.1, run_fit},
      {"analyze-s0.1", 0.1, 0.05, run_analyze},
      {"serve-predict", 0.5, 0.1,
       [](const Context& ctx, Report& report) {
         run_serve(ctx, {0.0, {100, 400}}, report);
       }},
      {"serve-whatif", 0.3, 0.1,
       [](const Context& ctx, Report& report) {
         run_serve(ctx, {0.2, {100}}, report);
       }},
  };
  return list;
}

std::string provenance_json(unsigned nproc) {
  nb::JsonWriter json;
  json.begin_object();
  json.key("hardware_threads").value(nproc);
  json.key("compiler").value(__VERSION__);
  json.key("build_type").value(RDBENCH_BUILD_TYPE);
  json.key("fault_injection").value(RDBENCH_FAULT_INJECTION != 0);
  json.key("git_revision").value(RDBENCH_GIT_REVISION);
  json.end_object();
  return json.str();
}

int run_one(const Workload& workload, Context ctx,
            const std::string& trace_file) {
  Spans spans(ctx.trace);
  ctx.spans = &spans;
  ctx.scale = ctx.smoke ? workload.smoke_scale : workload.scale;
  Report report;
  workload.run(ctx, report);
  report.check_finite();
  const std::string provenance = provenance_json(ctx.nproc);
  if (!trace_file.empty())
    report.check(spans.write(trace_file, provenance),
                 "cannot write trace file " + trace_file);
  report.print_lines(ctx.smoke ? std::string(workload.name) + " " : "");
  for (const std::string& error : report.errors())
    std::fprintf(stderr, "rdbench: %s: CHECK FAILED: %s\n", workload.name,
                 error.c_str());
  if (ctx.smoke) return report.correct() ? 0 : 1;
  std::printf("provenance %s\n", provenance.c_str());
  std::printf("%s\n", report.result_json(ctx.trace).c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  nb::Cli cli(argc, argv);
  Context ctx;
  ctx.nproc = nb::resolve_threads(0);
  ctx.clients = std::min(kServeClients, ctx.nproc);
  ctx.seed = cli.get_u64("seed", 1);
  ctx.seconds = cli.get_double("seconds", 10);
  ctx.trace = cli.get_u64("trace", 0) != 0;
  ctx.smoke = cli.get_bool("smoke");
  const std::string trace_file = cli.get_string("trace-file", "");

  if (ctx.smoke) {
    ctx.seconds = 1;
    ctx.trace = true;
    int status = 0;
    for (const Workload& workload : workloads())
      status |= run_one(workload, ctx, "");
    std::printf("rdbench smoke: %s\n", status == 0 ? "ok" : "FAILED");
    return status;
  }
  const std::string name = cli.get_string("workload", "");
  for (const Workload& workload : workloads())
    if (name == workload.name) return run_one(workload, ctx, trace_file);
  std::fprintf(stderr, "rdbench: unknown --workload '%s'; one of:",
               name.c_str());
  for (const Workload& workload : workloads())
    std::fprintf(stderr, " %s", workload.name);
  std::fprintf(stderr, "\n");
  return 2;
}
