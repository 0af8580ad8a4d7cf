#pragma once
// The campaign service's job model: one JobRequest describes everything
// that determines a simulation's physics and its deterministic outcome -
// grid size, decomposition, rank count, time scheme, physics flags, seed,
// step budget, dealiasing mode. Two requests with equal canonical forms
// produce bitwise-identical results (the solver is deterministic in all of
// these), so the canonical form's hash is a *content address* for the
// result: the result store keys on it and identical re-submissions are
// cache hits instead of recomputations.
//
// The tenant is deliberately NOT part of the canonical form: it names who
// asked (fair-share scheduling, per-tenant accounting), not what was
// asked, and two tenants submitting the same physics should share one
// cached result.

#include <cstdint>
#include <string>

#include "obs/span.hpp"
#include "transpose/views.hpp"
#include "util/config.hpp"

namespace psdns::svc {

using transpose::Decomposition;
enum class DealiasMode { Truncation, PhaseShift };

const char* to_string(Decomposition d);
const char* to_string(DealiasMode m);
Decomposition parse_decomposition(const std::string& name);
DealiasMode parse_dealias_mode(const std::string& name);

struct JobRequest {
  std::string tenant = "default";  // accounting identity (not hashed)
  std::size_t n = 32;              // grid size per dimension
  Decomposition decomposition = Decomposition::Slab;
  int ranks = 1;                   // SPMD width the job runs at
  std::string scheme = "rk2";      // rk2 | rk4
  double viscosity = 0.01;
  std::uint64_t seed = 1;          // initial-condition seed
  std::int64_t steps = 8;          // step budget
  DealiasMode dealias = DealiasMode::Truncation;
  bool forcing = false;            // band forcing on/off
  double forcing_power = 0.1;      // energy injection rate when forcing
  int scalars = 0;                 // passive scalar count (Sc = 1)
  double cfl = 0.5;                // stepping limits (affect dt, so hashed)
  double max_dt = 0.01;
  // Equation system (see dns/systems/): navier_stokes | rotating |
  // boussinesq | mhd, plus the per-system physical parameters. The
  // canonical form appends these only for non-default systems, so every
  // pre-existing navier_stokes hash (and its cached result) is preserved.
  std::string system = "navier_stokes";
  double rotation_omega = 1.0;     // rotating: frame rate about z
  double brunt_vaisala = 1.0;      // boussinesq: buoyancy frequency N
  double resistivity = 0.0;        // mhd: eta (0 = magnetic Prandtl 1)

  /// Throws util::Error naming the offending field on any out-of-range or
  /// unserviceable value (n < 8, ranks that do not divide the grid, an
  /// unknown scheme, a non-positive step budget, ...).
  void validate() const;

  /// The canonical serialization the request hash is computed over: a
  /// fixed field order, doubles rendered shortest-round-trip, tenant
  /// excluded. Equal canonical forms imply bitwise-equal results.
  std::string canonical() const;

  /// 16-hex-digit FNV-1a64 of canonical(): the content address of the
  /// result in the store and on disk.
  std::string hash() const;

  std::string to_json() const;

  /// Inverse of to_json(); unknown fields are rejected, absent fields keep
  /// their defaults. Throws util::Error on malformed input. Does not
  /// validate() - callers decide when to.
  static JobRequest from_json(const std::string& text);

  /// Builds a request from "key = value" config text (psdns_submit job
  /// files): tenant, n, decomposition, ranks, scheme, viscosity, seed,
  /// steps, dealias, forcing, forcing_power, scalars, cfl, max_dt, system,
  /// rotation_omega, brunt_vaisala, resistivity. Unknown keys are
  /// rejected.
  static JobRequest from_config(const util::Config& file);
};

/// The job's lifecycle in the scheduler. Cache hits are born Done.
enum class JobState { Queued, Running, Done, Failed, Cancelled };

const char* to_string(JobState state);

/// One submitted job as the service tracks (and serves) it.
struct JobRecord {
  std::int64_t id = -1;       // service-local, monotonically increasing
  JobRequest request;
  std::string hash;           // request.hash(), stamped at submission
  JobState state = JobState::Queued;
  bool cached = false;        // satisfied from the result store
  int dispatch_index = -1;    // position in the global dispatch order
  int recoveries = 0;         // supervisor rollbacks while running
  int checkpoints_discarded = 0;
  std::string error;          // Failed: what the run threw
  double queued_s = 0.0;      // seconds since service start, per phase
  double started_s = 0.0;
  double finished_s = 0.0;
  // Job-journey tracing (empty/zero when tracing is off). The trace id is
  // client-supplied via X-Psdns-Trace or minted deterministically from
  // (hash, id); it is NOT part of the canonical form - identity of a
  // result never depends on how it was observed.
  std::string trace;             // journey trace id
  obs::SpanId root_span = 0;     // the job's svc.admit span
  double trace_queued_s = 0.0;   // trace-clock time of admission

  /// The GET /jobs/<id> document.
  std::string to_json() const;
};

/// FNV-1a 64-bit over `text` (the deterministic request hash primitive).
std::uint64_t fnv1a64(const std::string& text);

}  // namespace psdns::svc
