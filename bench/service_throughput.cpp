// Campaign-service throughput: what the content-addressed result cache
// buys. Runs an in-process Service (real HTTP loopback, real scheduler,
// real solver runs), submits a batch of distinct small jobs cold, then
// re-submits the identical batch; reports jobs/hour for both passes and
// the cache-hit speedup (cold latency / hit latency). The acceptance bar
// is >= 100x: a hit is one store read instead of a supervised campaign.
//
// Emits BENCH_service_throughput.json (schema v2, perf-gate compatible;
// "throughput"/"speedup" metric names are higher-is-better to perfdiff).
// Besides the means, both passes report p50/p95/p99 per-job latency - the
// SLO view: a mean hides the straggler jobs a tenant actually notices.
//
// The result cache and work directories are removed at start and at exit,
// so every run's first pass is really cold (a kept cache would turn it into
// hits on the second run in the same PSDNS_BENCH_DIR).

#include <algorithm>
#include <memory>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "svc/client.hpp"
#include "svc/job.hpp"
#include "svc/service.hpp"
#include "util/stopwatch.hpp"

int main() {
  using psdns::obs::JsonValue;
  using psdns::svc::JobRequest;

  psdns::svc::ServiceConfig cfg;
  cfg.port = 0;
  cfg.max_concurrent = 2;
  cfg.cache_dir = psdns::obs::bench_output_path("svc_bench_cache");
  cfg.workdir = psdns::obs::bench_output_path("svc_bench_work");
  cfg.cache_keep = 64;
  const auto remove_state = [&] {
    std::filesystem::remove_all(cfg.cache_dir);
    std::filesystem::remove_all(cfg.workdir);
  };
  remove_state();
  auto service = std::make_unique<psdns::svc::Service>(cfg);
  const int port = service->port();

  constexpr int kJobs = 6;
  constexpr std::uint64_t kSeed = 7;
  const auto request_json = [&](int j) {
    JobRequest req;
    req.tenant = "bench";
    req.n = 16;
    req.ranks = 2;
    req.steps = 4;
    req.seed = kSeed + static_cast<std::uint64_t>(j);  // distinct content
    return req.to_json();
  };

  const auto submit_wait = [&](int j) -> double {
    const psdns::util::Stopwatch watch;
    int status = 0;
    const std::string body = psdns::svc::post(
        "127.0.0.1", port, "/jobs", request_json(j), &status);
    const JsonValue doc = psdns::obs::json_parse(body);
    const auto id = static_cast<std::int64_t>(doc.at("id").number);
    for (;;) {
      const std::string record = psdns::svc::fetch(
          "127.0.0.1", port, "/jobs/" + std::to_string(id), &status);
      const std::string state =
          psdns::obs::json_parse(record).at("state").string;
      if (state == "done") break;
      if (state == "failed" || state == "cancelled") {
        std::fprintf(stderr, "job %lld %s\n", static_cast<long long>(id),
                     state.c_str());
        std::exit(1);
      }
    }
    return watch.seconds();
  };

  std::vector<double> cold;
  for (int j = 0; j < kJobs; ++j) cold.push_back(submit_wait(j));
  std::vector<double> hit;
  for (int j = 0; j < kJobs; ++j) hit.push_back(submit_wait(j));
  service.reset();
  remove_state();

  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  // Nearest-rank percentile over the sorted per-job latencies (same rule
  // as obs::Registry histograms).
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
  };

  const double cold_latency = sum(cold) / kJobs;
  const double hit_latency = sum(hit) / kJobs;
  const double cold_per_hour = 3600.0 / cold_latency;
  const double hit_per_hour = 3600.0 / hit_latency;
  const double speedup = cold_latency / hit_latency;

  std::printf("campaign service throughput (n=16, 2 ranks, 4 steps, %d jobs)\n",
              kJobs);
  std::printf("%-28s %12s %12s\n", "", "cold run", "cache hit");
  std::printf("%-28s %12.4f %12.6f\n", "latency per job [s]", cold_latency,
              hit_latency);
  std::printf("%-28s %12.4f %12.6f\n", "latency p50 [s]",
              quantile(cold, 0.50), quantile(hit, 0.50));
  std::printf("%-28s %12.4f %12.6f\n", "latency p95 [s]",
              quantile(cold, 0.95), quantile(hit, 0.95));
  std::printf("%-28s %12.0f %12.0f\n", "throughput [jobs/hour]",
              cold_per_hour, hit_per_hour);
  std::printf("cache-hit speedup: %.0fx (acceptance bar: >= 100x)\n",
              speedup);

  psdns::obs::BenchReport report("service_throughput");
  report.seed(kSeed);
  report.meta("jobs", std::to_string(kJobs));
  report.meta("grid", "16^3, 2 ranks, 4 steps");
  report.metric("cold_latency_seconds", cold_latency);
  report.metric("cache_hit_latency_seconds", hit_latency);
  report.metric("cold_latency_p50_seconds", quantile(cold, 0.50));
  report.metric("cold_latency_p95_seconds", quantile(cold, 0.95));
  report.metric("cold_latency_p99_seconds", quantile(cold, 0.99));
  report.metric("cache_hit_latency_p50_seconds", quantile(hit, 0.50));
  report.metric("cache_hit_latency_p95_seconds", quantile(hit, 0.95));
  report.metric("cache_hit_latency_p99_seconds", quantile(hit, 0.99));
  report.metric("cold_throughput_jobs_per_hour", cold_per_hour);
  report.metric("cache_hit_throughput_jobs_per_hour", hit_per_hour);
  report.metric("cache_hit_speedup", speedup);
  std::printf("wrote %s\n", report.write().c_str());
  return speedup >= 100.0 ? 0 : 1;
}
