// The campaign-service workload: an in-process svc::Service on loopback,
// started on an empty result store and work directory of its own, driven
// open-loop by one generator thread on a seeded Poisson schedule.
//
// The mix is cold jobs (n=32, 2 ranks, 8 steps, 1 in 4 pencil, distinct
// seeds) and resubmissions of cold requests already finished, which the
// content-addressed store answers as hits. Every latency is timed from the
// job's due time to the result bytes in the client's hand, so a stall also
// charges the jobs queued behind it.
//
// setup_s runs from constructing the service (empty store and work
// directory) through the warm-up: kWarmJobs cold jobs submitted at once,
// run back to back, their results in the client's hand.
//
// Checks: every job reaches done, every hit returns the bytes of its cold
// result, every cold result ran its step budget with a divergence at
// round-off, and two fixed requests served by the service match svc::run_job
// run directly.
//
// Service replay (part of every traced run): direct calls into the layers
// under the service (runner, rank spawn, checkpoints, result store) and
// single jobs through a fresh service (HTTP, scheduler, hits), each repeated
// for a share of the replay's time.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "comm/communicator.hpp"
#include "dns/solver.hpp"
#include "io/checkpoint.hpp"
#include "obs/json.hpp"
#include "svc/client.hpp"
#include "svc/job.hpp"
#include "svc/result_store.hpp"
#include "svc/runner.hpp"
#include "svc/service.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using psdns::obs::json_parse;
using psdns::svc::JobRequest;

// One cold job keeps the single worker busy 65-90 ms on the reference VM.
// Arrivals come at kArrivalRate per second, half of them cold, so the
// worker is about a third busy and a 15 s run has 60 cold jobs. A run of
// S seconds sends round(kArrivalRate * S) jobs in a seeded
// order with exact shares: half hits, and a quarter of the cold jobs
// pencil. kWarmJobs cold jobs finish before the window opens, so the first
// hit already has finished requests to draw from.
constexpr double kArrivalRate = 8.0;
constexpr int kWarmJobs = 4;
constexpr double kPollInterval = 0.005;  // seconds between status polls
constexpr double kDrainTimeout = 60.0;   // seconds to finish after the window
constexpr const char* kHost = "127.0.0.1";

/// A fresh directory under the checkout, removed with everything in it.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::path(".bench_tmp") /
              (tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::remove(path_.parent_path(), ec);  // only if empty
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

JobRequest cold_request(std::uint64_t job_seed, bool pencil) {
  JobRequest req;
  req.tenant = "bench";
  req.n = 32;
  req.ranks = 2;
  req.steps = 8;
  req.seed = job_seed;
  req.decomposition = pencil ? psdns::svc::Decomposition::Pencil
                             : psdns::svc::Decomposition::Slab;
  return req;
}

/// Checks one cold result document against its request.
void check_cold_result(const std::string& body, const JobRequest& req,
                       Report& r) {
  const auto doc = json_parse(body);
  r.check(doc.at("hash").string == req.hash(), "result hash mismatch");
  r.check(static_cast<std::int64_t>(doc.at("steps_run").number) == req.steps,
          "cold result ran " + std::to_string(doc.at("steps_run").number) +
              " steps, budget " + std::to_string(req.steps));
  const auto& d = doc.at("diagnostics");
  const double div = d.at("max_divergence").number;
  const double umax = d.at("u_max").number;
  r.check(std::isfinite(div) && div <= 1e-10 * umax,
          "cold result divergence " + std::to_string(div) +
              " above round-off");
}

struct Campaign {
  double setup = 0.0;                   // service start to warm-up done [s]
  std::vector<double> cold, hit;       // latency from due time [s]
  std::vector<double> queue_wait, run;  // from the job records [s]
  double lag_max = 0.0;                 // generator lateness [s]
  std::int64_t attempted = 0, failed = 0;
};

/// Runs the warm-up and then the open-loop campaign against `port` for
/// about `seconds`; the service was constructed at `t0`. With `setup_only`
/// it stops after the warm-up.
Campaign run_campaign(int port, std::uint64_t seed, double seconds,
                      Clock::time_point t0, bool setup_only, Report& r) {
  const auto arrivals = static_cast<std::size_t>(
      std::max(2.0, std::round(kArrivalRate * seconds)));
  const std::vector<double> due = poisson_schedule(seed, arrivals, seconds);
  std::mt19937_64 mix(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<char> is_hit(arrivals, 0);
  std::fill(is_hit.begin(), is_hit.begin() + arrivals / 2, 1);
  portable_shuffle(is_hit, mix);
  const std::size_t colds = arrivals - arrivals / 2;
  std::vector<char> is_pencil(colds, 0);
  std::fill(is_pencil.begin(), is_pencil.begin() + colds / 4, 1);
  portable_shuffle(is_pencil, mix);

  struct Outstanding {
    std::int64_t id;
    JobRequest req;
    double due;
  };
  std::vector<Outstanding> outstanding;
  std::vector<JobRequest> finished;                // hit candidates
  std::map<std::string, std::string> cold_result;  // hash -> bytes
  Campaign c;

  const auto now = [&] { return seconds_since(t0); };
  const auto fetch = [&](const std::string& path, int* status) {
    return psdns::svc::fetch(kHost, port, path, status);
  };

  // One pass over the outstanding cold jobs; finished ones leave the list.
  const auto poll = [&] {
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      int status = 0;
      const auto rec = json_parse(
          fetch("/jobs/" + std::to_string(it->id), &status));
      const std::string state = rec.at("state").string;
      if (state == "queued" || state == "running") {
        ++it;
        continue;
      }
      if (state == "done") {
        const std::string body = fetch(
            "/jobs/" + std::to_string(it->id) + "/result", &status);
        c.cold.push_back(now() - it->due);
        c.queue_wait.push_back(rec.at("started_s").number -
                               rec.at("queued_s").number);
        c.run.push_back(rec.at("finished_s").number -
                        rec.at("started_s").number);
        r.check(status == 200, "result of a done job not served");
        check_cold_result(body, it->req, r);
        cold_result[it->req.hash()] = body;
        finished.push_back(it->req);
      } else {
        ++c.failed;
        r.check(false, "job " + std::to_string(it->id) + " ended " + state +
                           ": " + rec.at("error").string);
      }
      it = outstanding.erase(it);
    }
  };

  std::uint64_t cold_serial = 0;
  const auto next_cold = [&](bool pencil) {
    return cold_request((seed << 20) + cold_serial++, pencil);
  };

  // Warm-up: finished requests for the first hits, outside the window.
  for (int i = 0; i < kWarmJobs; ++i) {
    const JobRequest req = next_cold(i == kWarmJobs - 1);
    int status = 0;
    const auto reply = json_parse(
        psdns::svc::post(kHost, port, "/jobs", req.to_json(), &status));
    outstanding.push_back(
        {static_cast<std::int64_t>(reply.at("id").number), req, 0.0});
    ++c.attempted;
  }
  const double warm_deadline = now() + kDrainTimeout;
  while (!outstanding.empty() && now() < warm_deadline) {
    poll();
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollInterval));
  }
  r.check(outstanding.empty(), "warm-up jobs did not finish");
  c.setup = now();
  if (setup_only) return c;
  c.cold.clear();
  c.queue_wait.clear();
  c.run.clear();

  const double start = now();
  double next_poll = 0.0;
  std::size_t cold_index = 0;
  for (std::size_t i = 0; i < arrivals; ++i) {
    const double at = start + due[i];
    while (now() < at) {
      if (!outstanding.empty() && now() >= next_poll) {
        poll();
        next_poll = now() + kPollInterval;
      } else {
        const double wait = std::min(at, outstanding.empty() ? at : next_poll);
        const double left = wait - now();
        if (left > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(left, kPollInterval)));
        }
      }
    }
    c.lag_max = std::max(c.lag_max, now() - at);
    ++c.attempted;
    const bool hit = is_hit[i] != 0;
    const JobRequest req = hit ? finished[mix() % finished.size()]
                               : next_cold(is_pencil[cold_index++] != 0);
    int status = 0;
    const std::string accepted =
        psdns::svc::post(kHost, port, "/jobs", req.to_json(), &status);
    if (status != 202) {
      ++c.failed;
      r.check(false, "submission refused with status " +
                         std::to_string(status) + ": " + accepted);
      continue;
    }
    const auto reply = json_parse(accepted);
    const auto id = static_cast<std::int64_t>(reply.at("id").number);
    if (hit) {
      r.check(reply.at("cached").boolean, "resubmission was not a hit");
      const std::string body =
          fetch("/jobs/" + std::to_string(id) + "/result", &status);
      c.hit.push_back(now() - at);
      r.check(status == 200 && body == cold_result[req.hash()],
              "hit bytes differ from the cold result of " + req.hash());
    } else {
      r.check(!reply.at("cached").boolean, "cold request answered as a hit");
      outstanding.push_back({id, req, at});
    }
  }
  const double deadline = now() + kDrainTimeout;
  while (!outstanding.empty() && now() < deadline) {
    poll();
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollInterval));
  }
  c.failed += static_cast<std::int64_t>(outstanding.size());
  r.check(outstanding.empty(), "jobs still unfinished after the drain");
  return c;
}

/// Submits `req`, waits for it, and compares with svc::run_job run directly.
void check_against_runner(int port, const JobRequest& req,
                          const std::string& workdir, Report& r) {
  int status = 0;
  const auto reply = json_parse(
      psdns::svc::post(kHost, port, "/jobs", req.to_json(), &status));
  const auto id = static_cast<std::int64_t>(reply.at("id").number);
  const auto start = Clock::now();
  std::string state;
  while (seconds_since(start) < kDrainTimeout) {
    state = json_parse(psdns::svc::fetch(
                           kHost, port, "/jobs/" + std::to_string(id), &status))
                .at("state")
                .string;
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollInterval));
  }
  r.check(state == "done", "fixed request ended " + state);
  const std::string served = psdns::svc::fetch(
      kHost, port, "/jobs/" + std::to_string(id) + "/result", &status);
  const std::string direct = psdns::svc::run_job(req, workdir).result_json;
  r.check(served == direct,
          "service result differs from svc::run_job for " + req.hash());
}

}  // namespace

Report run_service(const Options& opt) {
  Report r;
  const ScratchDir dir("svc");
  psdns::svc::ServiceConfig cfg;
  cfg.port = 0;
  cfg.max_concurrent = 1;
  cfg.queue_capacity = 4096;
  cfg.cache_dir = dir.sub("cache");
  cfg.cache_keep = 1 << 20;  // no eviction: every finished request stays a hit
  cfg.workdir = dir.sub("work");

  Campaign c;
  {
    const auto t0 = Clock::now();
    psdns::svc::Service service(cfg);
    const int port = service.port();
    c = run_campaign(port, opt.seed, opt.seconds, t0, opt.setup_only, r);
    if (!opt.setup_only) {
      // Fixed requests, independent of the seed, outside the timed window.
      JobRequest slab = cold_request(424242, false);
      JobRequest pencil = cold_request(434343, true);
      check_against_runner(port, slab, dir.sub("direct"), r);
      check_against_runner(port, pencil, dir.sub("direct"), r);
      c.attempted += 2;
    }
    service.request_shutdown();
    service.wait_shutdown();
  }
  r.attempted = c.attempted;
  r.failed = c.failed;
  if (opt.setup_only) {
    r.add("setup_s", c.setup, "s");
    return r;
  }
  // The cold-latency tail spreads too much between runs on the reference
  // VM to be a regression metric; it goes to stderr with the other counts.
  const std::optional<double> p90 = tail_percentile(c.cold, 90.0);
  std::fprintf(stderr,
               "svc: %zu cold (p50 %.4f s, p90 %.4f s; queue wait p50 %.4f s, "
               "run p50 %.4f s), %zu hits (p50 %.5f s), generator lag max "
               "%.4f s\n",
               c.cold.size(), median(c.cold), p90.value_or(std::nan("")),
               median(c.queue_wait), median(c.run), c.hit.size(),
               median(c.hit), c.lag_max);
  r.add("op_s", median(c.cold), "s");
  r.add("setup_s", c.setup, "s");
  r.add("peak_rss_bytes", peak_rss_bytes(), "bytes");
  return r;
}

void trace_service(std::uint64_t seed, double seconds, Report& r) {
  const ScratchDir dir("svc-trace");
  // Each of the four phases below repeats for a quarter of the time, at
  // least kMinReps times.
  constexpr int kMinReps = 5;
  const double share = seconds / 4.0;
  const auto repeat = [&](auto&& body) {
    const auto start = Clock::now();
    for (int i = 0; i < kMinReps || seconds_since(start) < share; ++i) {
      body(i);
    }
  };
  std::vector<double> run_job_s, spawn_s, write_s, read_s, lookup_s,
      insert_s, post_s, get_s, queue_wait_s, run_s, hit_s;
  std::string sample_result;

  // The runner, called directly: three slab jobs to one pencil job.
  repeat([&](int i) {
    const JobRequest req = cold_request(
        (seed << 20) + 0x80000 + static_cast<std::uint64_t>(i), i % 4 == 3);
    const auto a = Clock::now();
    sample_result = psdns::svc::run_job(req, dir.sub("direct")).result_json;
    run_job_s.push_back(seconds_since(a));
    ++r.attempted;
  });
  // Spawning the rank group every job starts.
  repeat([&](int) {
    for (int k = 0; k < 10; ++k) {
      const auto a = Clock::now();
      psdns::comm::run_ranks(2, [](psdns::comm::Communicator&) {});
      spawn_s.push_back(seconds_since(a));
    }
  });
  // Checkpoints of the n=32, 2-rank slab state the cold jobs write, and
  // result-store entries of a cold result's size.
  const std::string ckpt = dir.sub("layer.ckpt");
  psdns::svc::ResultStore store({.dir = dir.sub("store"), .keep = 1 << 20});
  repeat([&](int i) {
    psdns::comm::run_ranks(2, [&](psdns::comm::Communicator& comm) {
      psdns::dns::SolverConfig cfg;
      cfg.n = 32;
      psdns::dns::SlabSolver solver(comm, cfg);
      solver.init_isotropic(seed, 3.0, 0.5);
      comm.barrier();
      auto a = Clock::now();
      psdns::io::save_checkpoint(ckpt, solver);
      comm.barrier();
      const double w = seconds_since(a);
      a = Clock::now();
      psdns::io::load_checkpoint(ckpt, solver);
      comm.barrier();
      const double rd = seconds_since(a);
      if (comm.rank() == 0) {
        write_s.push_back(w);
        read_s.push_back(rd);
      }
    });
    for (int k = 0; k < 10; ++k) {
      char hash[17];
      std::snprintf(hash, sizeof hash, "%016llx",
                    static_cast<unsigned long long>(0xbe7c0000 + 10 * i + k));
      auto a = Clock::now();
      store.insert(hash, sample_result);
      insert_s.push_back(seconds_since(a));
      a = Clock::now();
      const auto got = store.lookup(hash);
      lookup_s.push_back(seconds_since(a));
      r.check(got && *got == sample_result, "result store lost an entry");
    }
  });
  const double ckpt_bytes = static_cast<double>(fs::file_size(ckpt));

  // One cold job at a time through a fresh service, then its hit.
  psdns::svc::ServiceConfig cfg;
  cfg.port = 0;
  cfg.max_concurrent = 1;
  cfg.cache_dir = dir.sub("cache");
  cfg.cache_keep = 1 << 20;
  cfg.workdir = dir.sub("work");
  {
    psdns::svc::Service service(cfg);
    const int port = service.port();
    const auto timed_fetch = [&](const std::string& path, int* status) {
      const auto a = Clock::now();
      std::string body = psdns::svc::fetch(kHost, port, path, status);
      get_s.push_back(seconds_since(a));
      return body;
    };
    repeat([&](int i) {
      const JobRequest req = cold_request(
          (seed << 20) + 0xc0000 + static_cast<std::uint64_t>(i), false);
      r.attempted += 2;
      int status = 0;
      auto a = Clock::now();
      auto reply = json_parse(
          psdns::svc::post(kHost, port, "/jobs", req.to_json(), &status));
      post_s.push_back(seconds_since(a));
      const std::string id = std::to_string(
          static_cast<std::int64_t>(reply.at("id").number));
      psdns::obs::JsonValue rec;
      std::string state;
      const auto start = Clock::now();
      while (seconds_since(start) < kDrainTimeout) {
        rec = json_parse(timed_fetch("/jobs/" + id, &status));
        state = rec.at("state").string;
        if (state != "queued" && state != "running") break;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kPollInterval));
      }
      if (state != "done") {
        r.failed += 2;
        r.check(false, "service replay job ended " + state);
        return;
      }
      queue_wait_s.push_back(rec.at("started_s").number -
                             rec.at("queued_s").number);
      run_s.push_back(rec.at("finished_s").number -
                      rec.at("started_s").number);
      const std::string cold = timed_fetch("/jobs/" + id + "/result", &status);

      a = Clock::now();
      reply = json_parse(
          psdns::svc::post(kHost, port, "/jobs", req.to_json(), &status));
      const std::string hit = psdns::svc::fetch(
          kHost, port,
          "/jobs/" +
              std::to_string(static_cast<std::int64_t>(
                  reply.at("id").number)) +
              "/result",
          &status);
      hit_s.push_back(seconds_since(a));
      r.check(reply.at("cached").boolean && hit == cold,
              "replayed hit differs from its cold result");
    });
    service.request_shutdown();
    service.wait_shutdown();
  }

  r.add("runner.run_job_s", median(run_job_s), "s");
  r.add("comm.spawn_s", median(spawn_s), "s");
  r.add("io.ckpt_write_s", median(write_s), "s");
  r.add("io.ckpt_read_s", median(read_s), "s");
  r.add("io.ckpt_bytes", ckpt_bytes, "bytes");
  r.add("store.lookup_s", median(lookup_s), "s");
  r.add("store.insert_s", median(insert_s), "s");
  r.add("svc.queue_wait_p50_s", median(queue_wait_s), "s");
  r.add("svc.run_p50_s", median(run_s), "s");
  r.add("hit_p50_s", median(hit_s), "s");
  r.add("net.post_s", median(post_s), "s");
  r.add("net.get_s", median(get_s), "s");
}

}  // namespace perfbench
