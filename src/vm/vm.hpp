// Dispatch loop for the register-based bytecode tier (see bcgen.hpp for
// the instruction set). One Vm instance runs per rank; the BcModule is
// shared and immutable. Uses computed-goto dispatch on GCC/Clang and a
// switch loop elsewhere (see OTTER_VM_NO_COMPUTED_GOTO in vm.cpp).
//
// Observable behaviour is defined as "whatever the tree executor does":
// identical output bytes, identical rand sequence, identical comm-op and
// virtual-time accounting, identical error messages/codes/locations, and
// bitwise-identical checkpoint blobs — the tree tier stays the -O0
// differential-fuzzing reference, so every divergence is a bug here.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "driver/exec.hpp"
#include "vm/bcgen.hpp"

namespace otter::vm {

/// Run counters aggregated across all ranks of a run (each rank's VM
/// flushes its local tally once at run end, hence the atomics).
struct VmStats {
  std::atomic<uint64_t> instrs{0};  ///< dispatched bytecode instructions
  /// Always 0: the VM has no inline caches. Kept only because
  /// perfbench/tracer.cpp still reads them as vm.ic_hits / vm.ic_misses.
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
};

/// Runs the compiled module as this rank's part of the SPMD computation —
/// the VM-tier counterpart of driver::execute_lir (same contract: only
/// rank 0 writes `out`; rt::RtError is re-raised with statement context).
/// `opts.backend` is ignored here; callers dispatch beforehand.
void execute_bytecode(const BcModule& mod, mpi::Comm& comm, std::ostream& out,
                      const driver::ExecOptions& opts);

}  // namespace otter::vm
