#pragma once
// Configuration of the batched asynchronous GPU pipeline (Sec. 3.4) and the
// result record of one simulated RK2 step.

#include <string>
#include <vector>

#include "gpu/cost_model.hpp"
#include "model/geometry.hpp"
#include "obs/span.hpp"

namespace psdns::pipeline {

/// The paper's three production MPI configurations (Table 2 / Table 3).
enum class MpiConfig {
  A,  // 6 tasks/node, 1 pencil per all-to-all (overlapped MPI_IALLTOALL)
  B,  // 2 tasks/node, 1 pencil per all-to-all (overlapped MPI_IALLTOALL)
  C,  // 2 tasks/node, 1 slab per all-to-all (blocking, no MPI overlap)
};

const char* to_string(MpiConfig c);

struct PipelineConfig {
  std::int64_t n = 18432;  // grid points per side
  int nodes = 3072;
  MpiConfig mpi = MpiConfig::C;
  int pencils = 4;              // np (from the memory model)
  int pencils_per_a2a = 0;      // Q; 0 = derive from MpiConfig (1 or np)
  bool async = true;            // false: serialize compute/transfer/MPI (the
                                // Sec. 3.3 synchronous structure, as ablation)
  bool gpu_direct = false;      // CUDA-aware MPI / GPU-Direct: the all-to-all
                                // reads/writes device memory directly,
                                // skipping the staging copies around it
                                // (Sec. 3.3: no noticeable benefit observed)
  int rk_substeps = 2;          // 2 = RK2, 4 = RK4 (cost ~doubles, Sec. 2)
  int scalars = 0;              // passive scalars carried by the run; each
                                // adds 1 inverse + 3 forward variable
                                // transposes per substep
  int extra_fields = 0;         // equation-system fields beyond u,v,w and
                                // scalars (e.g. 3 magnetic components):
                                // each adds 1 inverse transpose per substep
  int extra_products = 0;       // extra forward product transposes per
                                // substep (e.g. MHD's 9 Elsasser products
                                // replace the 6 symmetric ones: 3 extra)
  gpu::CopyMethod copy_method = gpu::CopyMethod::Memcpy2DAsync;
  gpu::CopyMethod unpack_method = gpu::CopyMethod::ZeroCopy;

  int tasks_per_node() const { return mpi == MpiConfig::A ? 6 : 2; }
  int q() const {
    if (pencils_per_a2a > 0) return pencils_per_a2a;
    return mpi == MpiConfig::C ? pencils : 1;
  }
  model::ProblemConfig problem() const {
    return model::ProblemConfig{.n = n,
                                .nodes = nodes,
                                .tasks_per_node = tasks_per_node(),
                                .pencils = pencils,
                                .variables = 3};
  }
};

/// Result of one simulated RK2 step (both substeps).
struct StepResult {
  double seconds = 0.0;                  // elapsed wall time of the step
  double mpi_busy = 0.0;                 // wall time with >= 1 A2A active
  double transfer_busy = 0.0;            // wall time with >= 1 copy active
  double compute_busy = 0.0;             // wall time with kernels active
  double overlap_efficiency = 0.0;       // hidden traffic / total traffic
                                         // busy time (obs::overlap_stats)
  std::vector<obs::SpanRecord> records;  // one span per op (Fig. 10 lanes)
  std::vector<std::string> lanes;        // lane name of span thread k
};

}  // namespace psdns::pipeline
