#include "driver/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <numbers>

#include "io/checkpoint.hpp"
#include "obs/exposition.hpp"
#include "obs/log.hpp"
#include "obs/metric_series.hpp"
#include "obs/metrics_server.hpp"
#include "obs/pool_metrics.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace psdns::driver {

CampaignConfig CampaignConfig::from(const util::Config& file) {
  CampaignConfig cfg;
  cfg.solver.n = static_cast<std::size_t>(file.get_int("n", 32));
  cfg.solver.viscosity = file.get_double("viscosity", 0.01);
  const std::string scheme = file.get("scheme", "rk2");
  PSDNS_REQUIRE(scheme == "rk2" || scheme == "rk4",
                "scheme must be rk2 or rk4");
  cfg.solver.scheme =
      scheme == "rk4" ? dns::TimeScheme::RK4 : dns::TimeScheme::RK2;
  cfg.solver.phase_shift_dealias = file.get_bool("phase_shift", false);
  cfg.solver.system =
      dns::parse_system_type(file.get("system", "navier_stokes"));
  cfg.solver.rotation_omega =
      file.get_double("rotation_omega", cfg.solver.rotation_omega);
  cfg.solver.brunt_vaisala =
      file.get_double("brunt_vaisala", cfg.solver.brunt_vaisala);
  cfg.solver.resistivity =
      file.get_double("resistivity", cfg.solver.resistivity);
  cfg.solver.pencils = static_cast<int>(file.get_int("pencils", 1));
  cfg.solver.pencils_per_a2a =
      static_cast<int>(file.get_int("pencils_per_a2a", 1));
  cfg.solver.forcing.enabled = file.get_bool("forcing.enabled", false);
  cfg.solver.forcing.klo = static_cast<int>(file.get_int("forcing.klo", 1));
  cfg.solver.forcing.khi = static_cast<int>(file.get_int("forcing.khi", 2));
  cfg.solver.forcing.power = file.get_double("forcing.power", 0.1);
  // Reject physically meaningless bands here, at parse time on every rank,
  // rather than letting the engine throw mid-construction.
  dns::validate_forcing(cfg.solver.forcing);

  const auto nscalars = file.get_int("scalars", 0);
  PSDNS_REQUIRE(nscalars >= 0, "negative scalar count");
  for (std::int64_t s = 0; s < nscalars; ++s) {
    const std::string prefix = "scalar" + std::to_string(s) + ".";
    dns::ScalarConfig sc;
    sc.schmidt = file.get_double(prefix + "schmidt", 1.0);
    sc.mean_gradient = file.get_double(prefix + "mean_gradient", 0.0);
    cfg.solver.scalars.push_back(sc);
  }

  cfg.seed = static_cast<std::uint64_t>(file.get_int("seed", 1));
  cfg.k_peak = file.get_double("k_peak", 3.0);
  cfg.energy = file.get_double("energy", 0.5);
  cfg.b0 = file.get_double("b0", 0.0);
  cfg.max_steps = file.get_int("steps", 100);
  cfg.max_time = file.get_double("max_time", 1e30);
  cfg.cfl = file.get_double("cfl", 0.5);
  cfg.max_dt = file.get_double("max_dt", 0.02);
  cfg.diagnostics_every =
      static_cast<int>(file.get_int("diagnostics_every", 10));
  cfg.checkpoint_every =
      static_cast<int>(file.get_int("checkpoint_every", 0));
  cfg.checkpoint_path = file.get("checkpoint_path", "");
  cfg.series_path = file.get("series_path", "");
  cfg.spectrum_path = file.get("spectrum_path", "");
  cfg.checkpoint_keep =
      static_cast<int>(file.get_int("checkpoint_keep", 2));
  cfg.io_retries = static_cast<int>(file.get_int("io_retries", 3));
  PSDNS_REQUIRE(cfg.checkpoint_keep >= 1, "checkpoint_keep must be >= 1");
  PSDNS_REQUIRE(cfg.io_retries >= 1, "io_retries must be >= 1");

  cfg.metrics_port = static_cast<int>(file.get_int("metrics_port", -1));
  PSDNS_REQUIRE(cfg.metrics_port >= -1 && cfg.metrics_port <= 65535,
                "metrics_port must be -1 (off) or in [0, 65535]");
  cfg.telemetry_path = file.get("telemetry_series", "");
  const std::string health_mode = file.get("health", "");
  if (!health_mode.empty()) {
    cfg.health.mode = obs::parse_health_mode(health_mode);
  }
  cfg.health.energy_drift_tol = file.get_double(
      "health.energy_drift_tol", cfg.health.energy_drift_tol);
  cfg.health.cfl_max = file.get_double("health.cfl_max", cfg.health.cfl_max);
  cfg.health.kmax_eta_min =
      file.get_double("health.kmax_eta_min", cfg.health.kmax_eta_min);
  cfg.health.checkpoint_lag_max = file.get_int(
      "health.checkpoint_lag_max", cfg.health.checkpoint_lag_max);
  cfg.health.recoveries_max = static_cast<int>(
      file.get_int("health.recoveries_max", cfg.health.recoveries_max));

  const auto unused = file.unused_keys();
  if (!unused.empty()) {
    std::string msg = "unknown config keys:";
    for (const auto& k : unused) msg += " " + k;
    util::raise(msg);
  }
  return cfg;
}

namespace {

io::CheckpointOptions checkpoint_options(const CampaignConfig& cfg) {
  io::CheckpointOptions opts;
  opts.keep = cfg.checkpoint_keep;
  opts.retry.max_attempts = cfg.io_retries;
  return opts;
}

/// Collective rollback: rank 0 compacts the checkpoint chain to the newest
/// verifiable file; every rank learns the resume step (-1 = no checkpoint
/// survives, restart from the initial condition) and the discard count.
void rollback_to_valid(comm::Communicator& comm, const std::string& path,
                       std::int64_t& resume_step, int& discarded) {
  std::int64_t vals[2] = {-1, 0};
  if (comm.rank() == 0 && !path.empty()) {
    const auto recovery = io::recover_checkpoint_chain(path);
    vals[0] = recovery.info ? recovery.info->step : -1;
    vals[1] = recovery.discarded;
  }
  comm.broadcast(vals, 2, 0);
  resume_step = vals[0];
  discarded = static_cast<int>(vals[1]);
}

/// PSDNS_METRICS_PORT wins over the config value; -1 = endpoint off.
int resolve_metrics_port(int config_port) {
  const char* value = std::getenv("PSDNS_METRICS_PORT");
  if (value == nullptr || *value == '\0') return config_port;
  char* end = nullptr;
  const long port = std::strtol(value, &end, 10);
  PSDNS_REQUIRE(end != value && *end == '\0' && port >= 0 && port <= 65535,
                "PSDNS_METRICS_PORT must be an integer in [0, 65535]");
  return static_cast<int>(port);
}

}  // namespace

CampaignResult run_campaign(comm::Communicator& comm,
                            const CampaignConfig& cfg,
                            const CampaignObserver& observer) {
  PSDNS_REQUIRE(cfg.max_steps >= 0, "negative step budget");
  PSDNS_REQUIRE(cfg.cfl > 0.0 && cfg.max_dt > 0.0, "bad stepping limits");
  obs::init_logging_from_env();
  obs::init_tracing_from_env();
  const io::CheckpointOptions ckpt_opts = checkpoint_options(cfg);

  dns::SpectralEngine solver(comm, cfg.solver);

  CampaignResult result;
  const bool have_checkpoint =
      !cfg.checkpoint_path.empty() &&
      std::filesystem::exists(cfg.checkpoint_path);
  if (have_checkpoint) {
    io::load_checkpoint(cfg.checkpoint_path, solver);
    result.restarted = true;
  } else {
    solver.init_isotropic(cfg.seed, cfg.k_peak, cfg.energy);
    for (int s = 0; s < solver.scalar_count(); ++s) {
      solver.init_scalar_isotropic(s, cfg.seed + 1000 + s, cfg.k_peak,
                                   cfg.energy / 2.0);
    }
    if (solver.magnetic_base() >= 0) {
      solver.init_magnetic_isotropic(cfg.seed + 2000, cfg.k_peak,
                                     cfg.energy / 2.0);
      if (cfg.b0 != 0.0) {
        solver.set_uniform_magnetic_field({0.0, 0.0, cfg.b0});
      }
    }
  }

  std::unique_ptr<io::SeriesWriter> series;
  if (comm.rank() == 0 && !cfg.series_path.empty()) {
    // A restarted segment appends: the interrupted run's rows are part of
    // the campaign record, not scratch to be truncated.
    series = std::make_unique<io::SeriesWriter>(
        cfg.series_path, result.restarted ? io::SeriesWriter::Mode::Append
                                          : io::SeriesWriter::Mode::Truncate);
  }

  // --- telemetry plane -------------------------------------------------
  // Env wins over config; both are identical across the rank threads, so
  // every collective gate below is rank-symmetric.
  const int metrics_port = resolve_metrics_port(cfg.metrics_port);
  std::string telemetry_path = cfg.telemetry_path;
  if (const char* v = std::getenv("PSDNS_SERIES_FILE")) telemetry_path = v;
  const obs::HealthConfig health_cfg =
      obs::HealthConfig::from_env(cfg.health);
  obs::HealthMonitor health(health_cfg);
  // The reduction runs per step whenever something consumes the reduced
  // rows; Strict health also forces per-step diagnostics so a NaN is
  // caught on the step it appears, not at the next diagnostics cadence.
  const bool reduce_every_step =
      metrics_port >= 0 || !telemetry_path.empty();
  const bool telemetry_every_step =
      reduce_every_step || health_cfg.mode == obs::HealthMode::Strict;

  std::unique_ptr<obs::MetricsServer> server;
  std::unique_ptr<obs::SeriesJsonlWriter> telemetry_series;
  obs::SeriesRing telemetry_ring;
  if (comm.rank() == 0) {
    if (metrics_port >= 0) {
      obs::MetricsServer::Options server_opts;
      server_opts.port = metrics_port;
      server = std::make_unique<obs::MetricsServer>(server_opts);
      obs::registry().gauge_set("telemetry.metrics_port",
                                static_cast<double>(server->port()));
      obs::log_event(obs::LogLevel::Info, "driver", "metrics endpoint up",
                     {{"port", static_cast<std::int64_t>(server->port())}});
    }
    if (!telemetry_path.empty()) {
      telemetry_series = std::make_unique<obs::SeriesJsonlWriter>(
          telemetry_path, result.restarted
                              ? obs::SeriesJsonlWriter::Mode::Append
                              : obs::SeriesJsonlWriter::Mode::Truncate);
    }
  }
  obs::Registry rank_metrics;  // per-rank values feeding straggler stats
  const double dx =
      2.0 * std::numbers::pi / static_cast<double>(cfg.solver.n);
  const double kmax = std::floor(static_cast<double>(cfg.solver.n) / 3.0);
  obs::HealthVerdict previous_verdict = obs::HealthVerdict::Healthy;

  const std::int64_t first_step = solver.step_count();
  std::int64_t last_checkpoint_step = first_step;
  while (solver.step_count() - first_step < cfg.max_steps &&
         solver.time() < cfg.max_time) {
    const double cfl_dt = solver.cfl_dt(cfg.cfl);
    const double dt = std::min(cfl_dt, cfg.max_dt);
    const util::Stopwatch step_watch;
    {
      obs::TraceSpan step_span("driver.step", obs::SpanKind::Compute);
      solver.step(dt);
    }
    const double wall = step_watch.seconds();
    ++result.steps_run;
    if (comm.rank() == 0) {
      auto& reg = obs::registry();
      reg.counter_add("driver.steps");
      reg.gauge_set("driver.dt", dt);
      reg.gauge_set("driver.cfl_dt", cfl_dt);
      reg.gauge_set("driver.sim_time", solver.time());
      reg.observe("driver.step.wall_seconds", wall);
      obs::publish_pool_metrics(reg);
    }

    rank_metrics.counter_add("rank.steps");
    rank_metrics.gauge_set("rank.step.wall_seconds", wall);

    const bool report =
        cfg.diagnostics_every > 0 &&
        solver.step_count() % cfg.diagnostics_every == 0;
    // diagnostics() is collective: every rank must agree on whether it is
    // called, so every gate here is rank-independent (config and env,
    // never the rank-0-only writer and server objects).
    dns::Diagnostics d;
    bool have_diagnostics = false;
    if (report || !cfg.series_path.empty() || telemetry_every_step) {
      d = solver.diagnostics();
      have_diagnostics = true;
      // System-specific statistics (magnetic energy, buoyancy flux, ...)
      // ride the same collective gate; empty for plain Navier-Stokes.
      const auto sysd = solver.system_diagnostics();
      if (comm.rank() == 0) {
        obs::registry().gauge_set("driver.energy", d.energy);
        for (const auto& nv : sysd) {
          obs::registry().gauge_set("driver.system." + nv.name, nv.value);
        }
        if (series != nullptr) {
          series->append(solver.step_count(), solver.time(), d, dt,
                         wall * 1e3);
        }
        if (report) {
          obs::log_event(obs::LogLevel::Info, "driver", "step",
                         {{"step", solver.step_count()},
                          {"time", solver.time()},
                          {"dt", dt},
                          {"cfl_dt", cfl_dt},
                          {"energy", d.energy},
                          {"wall_ms", wall * 1e3}});
          if (observer) observer(solver.step_count(), solver.time(), d);
        }
      }
    }

    // Health first, then telemetry publication, then the periodic
    // checkpoint: an Abort verdict must throw before the corrupt state
    // can enter the checkpoint chain.
    obs::HealthVerdict verdict = obs::HealthVerdict::Healthy;
    const bool evaluated_health =
        health_cfg.mode != obs::HealthMode::Off && have_diagnostics;
    if (evaluated_health) {
      obs::HealthInput hin;
      hin.step = solver.step_count();
      hin.time = solver.time();
      hin.dt = dt;
      hin.dx = dx;
      hin.energy = d.energy;
      hin.dissipation = d.dissipation;
      hin.u_max = d.u_max;
      hin.kmax = kmax;
      hin.kolmogorov_eta = d.kolmogorov_eta;
      hin.steps_since_checkpoint = solver.step_count() - last_checkpoint_step;
      hin.recoveries = cfg.recoveries_so_far;
      verdict = health.evaluate(hin);
      if (comm.rank() == 0) {
        obs::registry().gauge_set("health.status",
                                  static_cast<double>(verdict));
        const auto fired = health.last_events();
        if (!fired.empty()) {
          obs::registry().counter_add(
              "health.events", static_cast<std::int64_t>(fired.size()));
          for (const auto& e : fired) {
            obs::log_event(e.severity == obs::HealthSeverity::Critical
                               ? obs::LogLevel::Error
                               : obs::LogLevel::Warn,
                           "health", e.code,
                           {{"step", e.step},
                            {"value", e.value},
                            {"threshold", e.threshold}});
          }
        }
      }
    }

    if (reduce_every_step) {
      // The rank-0 gauge writes above must land before any rank snapshots
      // the shared registry; after the barrier no thread writes until the
      // collective reduction completes, so every rank reduces identical
      // global state and the per-rank variation comes from rank_metrics.
      comm.barrier();
      obs::MetricsSnapshot local = obs::registry().snapshot();
      const obs::MetricsSnapshot mine = rank_metrics.snapshot();
      for (const auto& [key, value] : mine.counters) {
        local.counters[key] = value;
      }
      for (const auto& [key, value] : mine.gauges) local.gauges[key] = value;
      obs::ReducedSnapshot reduced = obs::reduce_metrics(comm, local);
      reduced.step = solver.step_count();
      reduced.time = solver.time();
      if (evaluated_health) {
        reduced.health_verdict = obs::to_string(verdict);
        for (const auto& e : health.last_events()) {
          reduced.health_events.push_back(e.code);
        }
      }
      if (comm.rank() == 0) {
        if (telemetry_series != nullptr) telemetry_series->append(reduced);
        if (server != nullptr) {
          server->publish(obs::to_prometheus(reduced, health.report()),
                          obs::to_exposition_json(reduced, health.report()),
                          health.report().to_json(),
                          verdict == obs::HealthVerdict::Abort);
        }
        telemetry_ring.push(std::move(reduced));
      }
    }

    if (health_cfg.mode == obs::HealthMode::Strict) {
      if (verdict == obs::HealthVerdict::Abort) {
        // Every rank evaluated identical reduced inputs, so every rank
        // throws here at the same step and the group unwinds together.
        throw obs::HealthAbort(solver.step_count(), health.last_events());
      }
      if (verdict == obs::HealthVerdict::Degraded &&
          previous_verdict == obs::HealthVerdict::Healthy &&
          !cfg.checkpoint_path.empty()) {
        // Protective checkpoint on the healthy -> degraded transition.
        io::save_checkpoint(cfg.checkpoint_path, solver, ckpt_opts);
        last_checkpoint_step = solver.step_count();
      }
    }
    previous_verdict = verdict;

    if (cfg.checkpoint_every > 0 && !cfg.checkpoint_path.empty() &&
        solver.step_count() % cfg.checkpoint_every == 0) {
      io::save_checkpoint(cfg.checkpoint_path, solver, ckpt_opts);
      last_checkpoint_step = solver.step_count();
    }
  }

  if (!cfg.checkpoint_path.empty()) {
    io::save_checkpoint(cfg.checkpoint_path, solver, ckpt_opts);
  }
  auto spectrum = solver.spectrum();
  if (comm.rank() == 0 && !cfg.spectrum_path.empty()) {
    io::write_spectrum_csv(cfg.spectrum_path, spectrum);
  }
  result.final_spectrum = std::move(spectrum);

  result.final_time = solver.time();
  result.final_diagnostics = solver.diagnostics();
  result.health = health.report();
  if (comm.rank() == 0) {
    result.metrics_port = server != nullptr ? server->port() : 0;
    result.telemetry.reserve(telemetry_ring.size());
    for (std::size_t i = 0; i < telemetry_ring.size(); ++i) {
      result.telemetry.push_back(telemetry_ring.at(i));
    }
  }
  // One rank writes the collected trace (spans of every rank thread are in
  // the same process-wide buffer, so rank 0 owns the file).
  if (cfg.write_trace_at_end && comm.rank() == 0) {
    obs::write_trace_if_configured();
  }
  return result;
}

CampaignResult run_campaign_supervised(comm::Communicator& comm,
                                       const CampaignConfig& cfg,
                                       const SupervisorConfig& sup,
                                       const CampaignObserver& observer) {
  PSDNS_REQUIRE(sup.max_recoveries >= 0, "negative recovery budget");
  obs::init_logging_from_env();

  // Establish the baseline: compact the chain so cfg.checkpoint_path is
  // the newest VALID checkpoint (a previous allocation may have died
  // mid-write), and fix the absolute target step for this allocation.
  std::int64_t resume_step = -1;
  int discarded = 0;
  rollback_to_valid(comm, cfg.checkpoint_path, resume_step, discarded);

  CampaignResult total;
  total.checkpoints_discarded = discarded;
  total.restarted = resume_step >= 0;
  const std::int64_t target_step =
      std::max<std::int64_t>(resume_step, 0) + cfg.max_steps;

  int recoveries = 0;
  for (;;) {
    CampaignConfig segment = cfg;
    segment.max_steps = target_step - std::max<std::int64_t>(resume_step, 0);
    segment.recoveries_so_far = recoveries;
    try {
      const auto r = run_campaign(comm, segment, observer);
      total.steps_run += r.steps_run;
      total.final_time = r.final_time;
      total.final_diagnostics = r.final_diagnostics;
      total.final_spectrum = r.final_spectrum;
      total.recoveries = recoveries;
      total.metrics_port = r.metrics_port;
      total.health = r.health;
      total.telemetry = r.telemetry;
      return total;
    } catch (const obs::HealthAbort&) {
      // A health abort is a structured verdict, not a recoverable fault:
      // the state itself went bad, so rolling back and replaying would
      // deterministically reproduce it. Propagate to the caller intact.
      throw;
    } catch (const std::exception& e) {
      // Injected faults strike every rank at the same per-thread call index
      // and checkpoint IO errors are agreed collectively, so every rank is
      // in this handler; the barrier re-synchronizes the group before the
      // collective rollback.
      comm.barrier();
      if (recoveries >= sup.max_recoveries) throw;
      ++recoveries;
      if (comm.rank() == 0) {
        obs::registry().counter_add("resilience.recoveries");
        obs::log_event(obs::LogLevel::Warn, "driver",
                       "segment failed, rolling back",
                       {{"error", e.what()},
                        {"recovery", recoveries},
                        {"max_recoveries", sup.max_recoveries}});
      }
      rollback_to_valid(comm, cfg.checkpoint_path, resume_step, discarded);
      total.checkpoints_discarded += discarded;
      if (comm.rank() == 0) {
        obs::log_event(obs::LogLevel::Info, "driver", "resuming campaign",
                       {{"resume_step", resume_step},
                        {"target_step", target_step},
                        {"discarded", discarded}});
      }
    }
  }
}

}  // namespace psdns::driver
