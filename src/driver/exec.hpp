// Direct SPMD executor: interprets LIR against the distributed run-time
// library under minimpi. Semantically identical to the generated C code
// (both call the same run-time functions); used by tests, examples, and the
// benchmark harness without needing an external C compiler.
//
// Two tiers share this entry point: the original tree walker (the -O0
// differential-fuzzing reference) and the register-based bytecode VM
// (src/vm/, the default at -O1/-O2). Both produce identical observable
// behaviour; ExecOptions::backend selects.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "lower/lir.hpp"
#include "minimpi/comm.hpp"

namespace otter::vm {
struct BcModule;
struct VmStats;
}  // namespace otter::vm

namespace otter::driver {

/// Execution tier. `Auto` resolves to the bytecode VM — the modern default;
/// callers that carry an opt level (otterc, otterd) resolve it themselves
/// (-O0 -> Tree, -O1/-O2 -> Vm) before execution so the tree walker stays
/// the -O0 reference tier.
enum class ExecBackend : uint8_t { Auto, Tree, Vm };

struct ExecOptions {
  uint64_t rand_seed = 1;
  rt::Dist dist = rt::Dist::RowBlock;  // data-distribution strategy
  /// Evaluate element-wise/scalar trees through compiled postfix kernels
  /// with output-buffer reuse (see driver/kernel.hpp). Off = the original
  /// per-element tree walk, kept for benchmark baselines and differentials.
  bool kernels = true;
  /// Failure handling + fault injection for the surrounding SPMD run
  /// (consumed by run_parallel / the cc runner, not per-rank execution).
  mpi::SpmdOptions spmd;
  /// Checkpoint/restart policy; consumed by run_parallel, which creates the
  /// shared coordinator below when enabled.
  CheckpointOptions ckpt;
  /// Shared checkpoint rendezvous for the current run. Set internally by
  /// run_parallel — per-rank execution deposits snapshots through it and
  /// restores its frame from it on resume. Leave null when calling
  /// execute_lir directly.
  CheckpointCoordinator* checkpoint = nullptr;
  /// Execution tier (see ExecBackend).
  ExecBackend backend = ExecBackend::Auto;
  /// Precompiled bytecode for the VM tier (borrowed; must have been
  /// compiled from the same LProgram). run_parallel compiles the module
  /// once before spawning ranks; when null and the VM is selected,
  /// execute_lir compiles one privately.
  const vm::BcModule* bytecode = nullptr;
  /// Optional run-counter sink for the VM tier (shared across ranks;
  /// flushed once per rank at run end).
  vm::VmStats* vm_stats = nullptr;
};

/// Runs the lowered program as this rank's part of the SPMD computation.
/// Only rank 0 writes to `out`. Throws rt::RtError / mpi::MpiError on
/// run-time failures; rt::RtError is re-raised with rank and statement
/// context ("rank 3: line 12 (matmul): …") so a parallel failure names its
/// origin.
void execute_lir(const lower::LProgram& prog, mpi::Comm& comm,
                 std::ostream& out, const ExecOptions& opts = {});

/// fprintf for the execution tiers: otter::fprintf_format (the loop every
/// engine shares), with an unsupported conversion raised as an RtError.
void fprintf_stream(std::ostream& out, const std::string& fmt,
                    const std::vector<double>& data);

}  // namespace otter::driver
