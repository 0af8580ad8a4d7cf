#include "svc/runner.hpp"

#include <filesystem>
#include <sstream>
#include <tuple>
#include <vector>

#include "comm/communicator.hpp"
#include "driver/campaign.hpp"
#include "io/checkpoint.hpp"
#include "obs/json.hpp"
#include "transpose/pencil.hpp"
#include "util/check.hpp"

namespace psdns::svc {

namespace fs = std::filesystem;

namespace {

std::string diagnostics_json(const dns::Diagnostics& d) {
  std::ostringstream os;
  os << "{\"energy\":" << obs::json_number(d.energy)
     << ",\"dissipation\":" << obs::json_number(d.dissipation)
     << ",\"u_max\":" << obs::json_number(d.u_max)
     << ",\"max_divergence\":" << obs::json_number(d.max_divergence)
     << ",\"taylor_scale\":" << obs::json_number(d.taylor_scale)
     << ",\"reynolds_lambda\":" << obs::json_number(d.reynolds_lambda)
     << ",\"kolmogorov_eta\":" << obs::json_number(d.kolmogorov_eta) << "}";
  return os.str();
}

std::string spectrum_json(const std::vector<double>& spectrum) {
  std::ostringstream os;
  os << "[";
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    if (k != 0) os << ",";
    os << obs::json_number(spectrum[k]);
  }
  os << "]";
  return os.str();
}

std::string result_json(const JobRequest& request, std::int64_t steps_run,
                        double final_time, const dns::Diagnostics& d,
                        const std::vector<double>& spectrum,
                        const std::string& checkpoint_name) {
  std::ostringstream os;
  os << "{\"schema\":\"psdns.svc.result.v1\""
     << ",\"hash\":\"" << request.hash() << "\""
     << ",\"system\":" << obs::json_quote(request.system)
     << ",\"request\":" << request.to_json()
     << ",\"steps_run\":" << steps_run
     << ",\"final_time\":" << obs::json_number(final_time)
     << ",\"diagnostics\":" << diagnostics_json(d)
     << ",\"spectrum\":" << spectrum_json(spectrum)
     << ",\"checkpoint\":" << obs::json_quote(checkpoint_name) << "}";
  return os.str();
}

dns::SolverConfig solver_config(const JobRequest& request) {
  dns::SolverConfig sc;
  sc.n = request.n;
  sc.viscosity = request.viscosity;
  sc.decomposition = request.decomposition;
  if (request.decomposition == Decomposition::Pencil) {
    std::tie(sc.pr, sc.pc) = transpose::most_square_grid(request.ranks);
  }
  sc.scheme = request.scheme == "rk4" ? dns::TimeScheme::RK4
                                      : dns::TimeScheme::RK2;
  sc.phase_shift_dealias = request.dealias == DealiasMode::PhaseShift;
  sc.forcing.enabled = request.forcing;
  sc.forcing.power = request.forcing_power;
  sc.scalars.assign(static_cast<std::size_t>(request.scalars),
                    dns::ScalarConfig{});
  sc.system = dns::parse_system_type(request.system);
  sc.rotation_omega = request.rotation_omega;
  sc.brunt_vaisala = request.brunt_vaisala;
  sc.resistivity = request.resistivity;
  return sc;
}

JobOutcome run_campaign_job(const JobRequest& request,
                            const std::string& checkpoint_path,
                            obs::FlowId flow) {
  driver::CampaignConfig cfg;
  cfg.solver = solver_config(request);
  cfg.seed = request.seed;
  cfg.max_steps = request.steps;
  cfg.cfl = request.cfl;
  cfg.max_dt = request.max_dt;
  cfg.diagnostics_every = 0;   // the result document is the diagnostic
  cfg.checkpoint_every = 2;    // fault-recovery granularity
  cfg.checkpoint_path = checkpoint_path;
  cfg.metrics_port = -1;       // jobs share the service's endpoint
  cfg.write_trace_at_end = false;  // the service owns the trace lifetime

  JobOutcome outcome;
  comm::run_ranks(request.ranks, [&](comm::Communicator& comm) {
    // Each rank thread roots its solver spans under the job journey.
    obs::TraceSpan rank_span("svc.run", obs::SpanKind::Compute);
    obs::flow_consume(flow);
    const driver::CampaignResult r =
        driver::run_campaign_supervised(comm, cfg);
    if (comm.rank() == 0) {
      outcome.recoveries = r.recoveries;
      outcome.checkpoints_discarded = r.checkpoints_discarded;
      outcome.result_json = result_json(
          request, r.steps_run, r.final_time, r.final_diagnostics,
          r.final_spectrum, fs::path(checkpoint_path).filename().string());
    }
  });
  return outcome;
}

}  // namespace

JobOutcome run_job(const JobRequest& request, const std::string& workdir,
                   obs::FlowId flow) {
  request.validate();
  std::error_code ec;
  fs::create_directories(workdir, ec);
  PSDNS_REQUIRE(!ec, "cannot create service workdir " + workdir);

  const std::string checkpoint_path =
      (fs::path(workdir) / (request.hash() + ".ckpt")).string();
  // A finished run of this hash leaves its chain behind; run_campaign
  // treats an existing checkpoint as a restart and would overshoot the
  // absolute step budget, so a cold run always starts from a clean slate.
  for (const std::string& link : io::checkpoint_chain(checkpoint_path)) {
    fs::remove(link, ec);
  }
  return run_campaign_job(request, checkpoint_path, flow);
}

}  // namespace psdns::svc
