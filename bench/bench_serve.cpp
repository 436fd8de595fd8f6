// PERF -- serve-daemon benchmark (the latency counterpart of bench_refine).
//
// Fits one pipeline model (default scale 0.05, the CI smoke scale), then
// exercises serve::Server through three legs:
//
//  * Latency: N predict requests through Server::answer() -- the exact
//    worker code path (parse -> validate -> execute -> render) without
//    socket noise -- reporting p50/p99 microseconds and QPS, plus a
//    smaller what-if sample for the fork-cache path.
//  * Overload: a real socket server with one worker and a one-slot
//    admission queue, flooded by concurrent client connections.  Every
//    request must come back STRUCTURED (ok or R711-rejected, never a
//    dropped connection) and the shed rate is recorded.
//  * Malformed: a client sends garbage frames and the bench asserts the
//    quarantine ladder (R715 answers, then R713 + close at the streak
//    threshold).  Robustness regressions here are exit 1, not a metric.
//
// Output: a human-readable summary on stdout plus a JSON report (default
// BENCH_serve.json) for CI artifacts.  With --baseline=FILE the latency
// leg is gated against the recorded baseline: exit 1 when p50 or p99
// exceeds max-regress x baseline or QPS falls below baseline / max-regress
// (CI perf smoke).
//
//   bench_serve [--scale=0.05] [--seed=3] [--requests=400] [--warmup=25]
//               [--whatif-requests=24] [--clients=6] [--per-client=40]
//               [--out=BENCH_serve.json] [--baseline=FILE]
//               [--max-regress=3.0] [--write-baseline=FILE]
//               [--connect=HOST:PORT --origin=A --vantage=B]
//
// With --connect the bench skips the model fit and the in-process server
// and instead drives an already-running `rdtool serve` over TCP (the CI
// smoke job): the latency leg round-trips frames through the socket and
// the malformed leg checks the quarantine ladder remotely.  The baseline
// gate is in-process-only (socket latency is not comparable).
//
// The baseline file is plain text, one
// `scale <p50-us> <p99-us> <qps> <shed-rate>` line per scale, written by
// --write-baseline on a reference machine.  The column count is STRICT:
// each metric column mirrors a gated BENCH_serve.json key, and a file
// whose lines disagree with the expected count is a named
// baseline-column-mismatch error, not a silent skip -- stale baselines
// previously disabled gates like this without a trace.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/pipeline.hpp"
#include "netbase/cli.hpp"
#include "netbase/json.hpp"
#include "netbase/socket.hpp"
#include "netbase/stats.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

std::string predict_request(nb::Asn origin, nb::Asn vantage) {
  return "{\"op\": \"predict\", \"origin\": " + std::to_string(origin) +
         ", \"vantage\": " + std::to_string(vantage) + "}";
}

std::string whatif_request(nb::Asn origin, nb::Asn from, nb::Asn to) {
  return "{\"op\": \"whatif\", \"edit\": \"policy-edit\", \"origin\": " +
         std::to_string(origin) + ", \"from\": " + std::to_string(from) +
         ", \"to\": " + std::to_string(to) + "}";
}

std::string status_of(const std::string& response) {
  const auto doc = nb::json_parse(response, nullptr);
  if (!doc) return "";
  return std::string(doc->string_or("status"));
}

std::string code_of(const std::string& response) {
  const auto doc = nb::json_parse(response, nullptr);
  if (!doc) return "";
  return std::string(doc->string_or("code"));
}

struct Percentiles {
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
};

Percentiles percentiles(std::vector<double> samples) {
  Percentiles result;
  if (samples.empty()) return result;
  result.p50_us = nb::percentile(samples, 50);
  result.p99_us = nb::percentile(samples, 99);
  double sum = 0;
  for (const double sample : samples) sum += sample;
  result.mean_us = sum / static_cast<double>(samples.size());
  return result;
}

/// One socket round trip: frame out, frame back.  Empty on any transport
/// failure (closed, timeout, write error).
bool roundtrip(nb::TcpStream& stream, const std::string& request,
               std::string* response) {
  std::string error;
  if (!nb::write_frame(stream, request, &error)) return false;
  const nb::FrameStatus status =
      nb::read_frame(stream, response, /*timeout_ms=*/15000,
                     /*stop=*/nullptr, nb::kMaxFrameBytes, &error);
  return status == nb::FrameStatus::kOk;
}

struct OverloadResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t other = 0;     // degraded / draining -- still structured
  std::uint64_t dropped = 0;   // transport failures: the robustness bug
  double shed_rate = 0;
};

/// Floods the server with `clients` concurrent connections, `per_client`
/// predicts each.  Every request must come back structured; R711 is the
/// expected shed signal, a dropped connection is a failure.
OverloadResult run_overload(std::uint16_t port, nb::Asn origin,
                            nb::Asn vantage, unsigned clients,
                            unsigned per_client) {
  std::vector<OverloadResult> partials(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      OverloadResult& mine = partials[c];
      std::string error;
      auto stream = nb::TcpStream::connect("127.0.0.1", port, &error);
      if (!stream) {
        mine.dropped += per_client;
        mine.sent += per_client;
        return;
      }
      const std::string request = predict_request(origin, vantage);
      for (unsigned i = 0; i < per_client; ++i) {
        ++mine.sent;
        std::string response;
        if (!roundtrip(*stream, request, &response)) {
          ++mine.dropped;
          continue;
        }
        const std::string status = status_of(response);
        if (status == "ok") {
          ++mine.ok;
        } else if (status == "rejected" &&
                   code_of(response) == analysis::codes::kServeOverload) {
          ++mine.shed;
        } else {
          ++mine.other;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  OverloadResult total;
  for (const OverloadResult& partial : partials) {
    total.sent += partial.sent;
    total.ok += partial.ok;
    total.shed += partial.shed;
    total.other += partial.other;
    total.dropped += partial.dropped;
  }
  if (total.sent > 0)
    total.shed_rate =
        static_cast<double>(total.shed) / static_cast<double>(total.sent);
  return total;
}

/// Drives the quarantine ladder over one connection: `threshold` garbage
/// frames must earn R715 answers then an R713 + close, and a fresh
/// connection must serve health again.  Returns false (with stderr
/// detail) on any deviation.
bool run_malformed(std::uint16_t port, int threshold) {
  std::string error;
  auto stream = nb::TcpStream::connect("127.0.0.1", port, &error);
  if (!stream) {
    std::fprintf(stderr, "bench_serve: malformed leg connect failed: %s\n",
                 error.c_str());
    return false;
  }
  for (int i = 0; i < threshold; ++i) {
    std::string response;
    if (!roundtrip(*stream, "definitely not json", &response)) {
      std::fprintf(stderr,
                   "bench_serve: malformed frame %d dropped instead of "
                   "answered\n",
                   i + 1);
      return false;
    }
    const std::string expected = (i + 1 < threshold)
                                     ? analysis::codes::kServeBadRequest
                                     : analysis::codes::kServeQuarantine;
    if (code_of(response) != expected) {
      std::fprintf(stderr,
                   "bench_serve: malformed frame %d answered %s, expected "
                   "%s\n",
                   i + 1, code_of(response).c_str(), expected.c_str());
      return false;
    }
  }
  // The quarantined connection must now be closed by the server.
  std::string leftover;
  const nb::FrameStatus after =
      nb::read_frame(*stream, &leftover, /*timeout_ms=*/5000, nullptr,
                     nb::kMaxFrameBytes, &error);
  if (after != nb::FrameStatus::kClosed) {
    std::fprintf(stderr,
                 "bench_serve: quarantined connection not closed (status "
                 "%d)\n",
                 static_cast<int>(after));
    return false;
  }
  // Quarantine is per-connection: a fresh one serves immediately.
  auto fresh = nb::TcpStream::connect("127.0.0.1", port, &error);
  std::string health;
  if (!fresh || !roundtrip(*fresh, "{\"op\": \"health\"}", &health) ||
      status_of(health) != "ok") {
    std::fprintf(stderr,
                 "bench_serve: fresh connection after quarantine failed\n");
    return false;
  }
  return true;
}

struct BaselineEntry {
  double p50_us = 0;
  double p99_us = 0;
  double qps = 0;
  double shed_rate = 0;
};

/// One column per gated BENCH_serve.json key, plus the scale.  Bump in
/// lockstep with the keys listed in the mismatch message below, and
/// regenerate bench/serve_baseline.txt with --write-baseline.
constexpr std::size_t kBaselineColumns = 5;

/// Strict parse, mirroring bench_refine: every non-empty line must carry
/// exactly kBaselineColumns whitespace-separated numbers, or the gate
/// fails with a named baseline-column-mismatch error instead of silently
/// skipping.
std::map<double, BaselineEntry> read_baseline(const std::string& path,
                                              std::string* error) {
  std::map<double, BaselineEntry> baseline;
  std::ifstream in(path);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::stringstream fields(line);
    std::vector<double> columns;
    double value = 0;
    while (fields >> value) columns.push_back(value);
    if (columns.empty()) continue;  // blank line
    if (columns.size() != kBaselineColumns) {
      *error = "baseline-column-mismatch: " + path + " line " +
               std::to_string(line_no) + " has " +
               std::to_string(columns.size()) + " columns, expected " +
               std::to_string(kBaselineColumns) +
               " (scale p50-us p99-us qps shed-rate, mirroring the gated "
               "BENCH_serve.json keys predict_p50_us/predict_p99_us/"
               "predict_qps/overload.shed_rate); regenerate with "
               "--write-baseline";
      return {};
    }
    BaselineEntry entry;
    entry.p50_us = columns[1];
    entry.p99_us = columns[2];
    entry.qps = columns[3];
    entry.shed_rate = columns[4];
    baseline[columns[0]] = entry;
  }
  return baseline;
}

}  // namespace

int main(int argc, char** argv) {
  nb::Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.05);
  const std::uint64_t seed = cli.get_u64("seed", 3);
  const std::size_t requests = cli.get_u64("requests", 400);
  const std::size_t warmup = cli.get_u64("warmup", 25);
  const std::size_t whatif_requests = cli.get_u64("whatif-requests", 24);
  const unsigned clients =
      static_cast<unsigned>(cli.get_u64("clients", 6));
  const unsigned per_client =
      static_cast<unsigned>(cli.get_u64("per-client", 40));
  const std::string out_path = cli.get_string("out", "BENCH_serve.json");
  const std::string connect = cli.get_string("connect", "");

  // --connect mode drives a remote daemon; everything else is in-process.
  std::unique_ptr<core::Pipeline> pipeline;
  std::unique_ptr<serve::Server> answer_server;
  std::optional<nb::TcpStream> remote;
  nb::Asn origin = static_cast<nb::Asn>(cli.get_u64("origin", 0));
  nb::Asn vantage = static_cast<nb::Asn>(cli.get_u64("vantage", 0));
  if (connect.empty()) {
    std::printf("bench_serve: fitting scale %.3f seed %llu model...\n", scale,
                static_cast<unsigned long long>(seed));
    pipeline = std::make_unique<core::Pipeline>(
        core::run_full_pipeline(core::PipelineConfig::with(scale, seed)));
    const std::vector<nb::Asn> asns = pipeline->model.asns();
    if (asns.size() < 3) {
      std::fprintf(stderr, "bench_serve: model too small (%zu ASes)\n",
                   asns.size());
      return 1;
    }
    if (origin == 0) origin = asns[0];
    if (vantage == 0) vantage = asns[1];
    serve::ServeConfig config;
    config.threads = 1;  // answer() path: latency, not parallel throughput
    answer_server =
        std::make_unique<serve::Server>(pipeline->model, config);
  } else {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos || origin == 0 || vantage == 0) {
      std::fprintf(stderr,
                   "bench_serve: --connect needs HOST:PORT plus --origin and "
                   "--vantage naming ASes the served model contains\n");
      return 2;
    }
    std::string error;
    remote = nb::TcpStream::connect(
        connect.substr(0, colon),
        static_cast<std::uint16_t>(
            std::stoul(connect.substr(colon + 1))),
        &error);
    if (!remote) {
      std::fprintf(stderr, "bench_serve: connect %s failed: %s\n",
                   connect.c_str(), error.c_str());
      return 1;
    }
  }

  const std::string predict = predict_request(origin, vantage);
  auto answer_once = [&](const std::string& request,
                         std::string* response) -> bool {
    if (answer_server) {
      *response = answer_server->answer(request);
      return true;
    }
    return roundtrip(*remote, request, response);
  };

  // Latency leg.  Warmup primes the epoch-cached SimContext (first run
  // pays the snapshot build); measured runs are the steady state.
  bool ok = true;
  for (std::size_t i = 0; i < warmup; ++i) {
    std::string response;
    ok &= answer_once(predict, &response) && status_of(response) == "ok";
  }
  if (!ok) {
    std::fprintf(stderr,
                 "bench_serve: warmup predict origin %llu vantage %llu did "
                 "not answer ok\n",
                 static_cast<unsigned long long>(origin),
                 static_cast<unsigned long long>(vantage));
    return 1;
  }
  std::vector<double> predict_us;
  predict_us.reserve(requests);
  const Clock::time_point leg_start = Clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const Clock::time_point start = Clock::now();
    std::string response;
    ok &= answer_once(predict, &response) && status_of(response) == "ok";
    predict_us.push_back(micros_since(start));
  }
  const double leg_seconds = micros_since(leg_start) / 1e6;
  const Percentiles latency = percentiles(predict_us);
  const double qps =
      leg_seconds > 0 ? static_cast<double>(requests) / leg_seconds : 0;
  if (!ok) {
    std::fprintf(stderr, "bench_serve: latency leg saw non-ok responses\n");
    return 1;
  }

  // What-if sample: repeated identical edits, so past the first miss this
  // times the fork-cache hit path (the steady state of an operator
  // iterating on one scenario).
  std::vector<double> whatif_us;
  whatif_us.reserve(whatif_requests);
  const std::string whatif = whatif_request(origin, origin, vantage);
  for (std::size_t i = 0; i < whatif_requests; ++i) {
    const Clock::time_point start = Clock::now();
    std::string response;
    const bool answered = answer_once(whatif, &response);
    const std::string status = status_of(response);
    ok &= answered && (status == "ok" || status == "degraded");
    whatif_us.push_back(micros_since(start));
  }
  const Percentiles whatif_latency = percentiles(whatif_us);
  if (!ok) {
    std::fprintf(stderr, "bench_serve: what-if leg saw unstructured "
                         "responses\n");
    return 1;
  }

  // Overload + malformed legs need real sockets.  In-process runs spin up
  // a deliberately tiny server (one worker, one queue slot) so shedding is
  // structural, not a race; --connect runs only the malformed leg (the
  // remote daemon's queue is sized for service, not for this test).
  OverloadResult overload;
  bool malformed_ok = true;
  if (connect.empty()) {
    serve::ServeConfig tiny;
    tiny.threads = 1;
    tiny.queue_capacity = 1;
    serve::Server socket_server(pipeline->model, tiny);
    std::string error;
    if (!socket_server.listen(0, &error)) {
      std::fprintf(stderr, "bench_serve: listen failed: %s\n", error.c_str());
      return 1;
    }
    overload = run_overload(socket_server.port(), origin, vantage, clients,
                            per_client);
    malformed_ok =
        run_malformed(socket_server.port(), tiny.quarantine_threshold);
    socket_server.request_stop();
    socket_server.shutdown();
    if (overload.dropped > 0) {
      std::fprintf(stderr,
                   "bench_serve: overload leg dropped %llu requests on the "
                   "floor (expected structured R711 sheds)\n",
                   static_cast<unsigned long long>(overload.dropped));
      return 1;
    }
  } else {
    const std::size_t colon = connect.rfind(':');
    malformed_ok = run_malformed(
        static_cast<std::uint16_t>(std::stoul(connect.substr(colon + 1))),
        3);
  }
  if (!malformed_ok) return 1;

  std::printf("bench_serve: predict p50 %.1fus p99 %.1fus mean %.1fus "
              "(%.0f qps, %zu requests)\n",
              latency.p50_us, latency.p99_us, latency.mean_us, qps, requests);
  std::printf("bench_serve: what-if p50 %.1fus p99 %.1fus (%zu requests, "
              "fork-cache steady state)\n",
              whatif_latency.p50_us, whatif_latency.p99_us, whatif_requests);
  if (connect.empty()) {
    std::printf("bench_serve: overload %llu sent / %llu ok / %llu shed / "
                "%llu other (shed rate %.3f, 0 dropped)\n",
                static_cast<unsigned long long>(overload.sent),
                static_cast<unsigned long long>(overload.ok),
                static_cast<unsigned long long>(overload.shed),
                static_cast<unsigned long long>(overload.other),
                overload.shed_rate);
  }
  std::printf("bench_serve: malformed-frame quarantine ladder ok\n");

  // JSON report for CI artifacts.
  nb::JsonWriter json(2);
  json.begin_object();
  json.key("tool").value("bench_serve");
  json.key("scale").value_fixed(scale, 3);
  json.key("seed").value(seed);
  json.key("mode").value(connect.empty() ? "in-process" : "connect");
  json.key("requests").value(static_cast<std::uint64_t>(requests));
  json.key("predict_p50_us").value_fixed(latency.p50_us, 1);
  json.key("predict_p99_us").value_fixed(latency.p99_us, 1);
  json.key("predict_mean_us").value_fixed(latency.mean_us, 1);
  json.key("predict_qps").value_fixed(qps, 1);
  json.key("whatif_requests").value(static_cast<std::uint64_t>(whatif_requests));
  json.key("whatif_p50_us").value_fixed(whatif_latency.p50_us, 1);
  json.key("whatif_p99_us").value_fixed(whatif_latency.p99_us, 1);
  json.key("overload").begin_object();
  json.key("sent").value(overload.sent);
  json.key("ok").value(overload.ok);
  json.key("shed").value(overload.shed);
  json.key("other").value(overload.other);
  json.key("dropped").value(overload.dropped);
  json.key("shed_rate").value_fixed(overload.shed_rate, 3);
  json.end_object();
  json.key("malformed_quarantine_ok").value(malformed_ok);
  json.end_object();
  {
    std::ofstream out(out_path);
    out << json.str() << "\n";
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (cli.has("write-baseline")) {
    std::ofstream out(cli.get_string("write-baseline", ""));
    out << scale << " " << latency.p50_us << " " << latency.p99_us << " "
        << qps << " " << overload.shed_rate << "\n";
    std::printf("wrote baseline %s\n",
                cli.get_string("write-baseline", "").c_str());
  }

  // Perf gate against a recorded baseline (CI smoke, in-process only).
  if (cli.has("baseline") && connect.empty()) {
    const double max_regress = cli.get_double("max-regress", 3.0);
    std::string baseline_error;
    const std::map<double, BaselineEntry> baseline =
        read_baseline(cli.get_string("baseline", ""), &baseline_error);
    if (!baseline_error.empty()) {
      std::fprintf(stderr, "bench_serve: %s\n", baseline_error.c_str());
      return 1;
    }
    const auto it = baseline.find(scale);
    if (it != baseline.end()) {
      bool pass = true;
      const auto gate_high = [&](const char* name, double current,
                                 double recorded) {
        const bool leg_pass = current <= recorded * max_regress;
        pass &= leg_pass;
        std::printf("baseline %s: %.1f vs %.1f recorded (%.2fx, limit "
                    "%.2fx) %s\n",
                    name, current, recorded,
                    recorded > 0 ? current / recorded : 0, max_regress,
                    leg_pass ? "ok" : "REGRESSION");
      };
      gate_high("predict-p50-us", latency.p50_us, it->second.p50_us);
      gate_high("predict-p99-us", latency.p99_us, it->second.p99_us);
      // Throughput: a regression is QPS falling, so the gate inverts.
      if (it->second.qps > 0) {
        const bool qps_pass = qps >= it->second.qps / max_regress;
        pass &= qps_pass;
        std::printf("baseline predict-qps: %.0f vs %.0f recorded (%.2fx, "
                    "floor %.2fx) %s\n",
                    qps, it->second.qps, qps / it->second.qps,
                    1.0 / max_regress, qps_pass ? "ok" : "REGRESSION");
      }
      // Shed rate is recorded for trend-watching but not gated: it is a
      // race between client threads and one worker, noisy by design.
      if (!pass) {
        std::fprintf(stderr, "bench_serve: PERF REGRESSION vs baseline\n");
        return 1;
      }
    } else {
      std::printf("baseline: no entry for scale %.3f, gate skipped\n", scale);
    }
  }
  return 0;
}
