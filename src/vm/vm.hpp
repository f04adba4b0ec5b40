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

/// Inline-cache behaviour counters of the GetEl, SetEl and Guard sites,
/// aggregated across all ranks of a run
/// (each rank's VM flushes its local tallies once at run end, hence the
/// atomics). A site stops counting once it self-disables after
/// `kStableHits` consecutive hits — the version check itself never turns
/// off, so `hits`/`misses` measure warm-up and shape churn, not steady
/// state.
struct VmStats {
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> cache_disabled{0};  ///< sites that reached stable state
  std::atomic<uint64_t> instrs{0};          ///< dispatched bytecode instructions
};

/// Number of consecutive inline-cache hits after which a site self-disables
/// its statistics bookkeeping.
inline constexpr uint32_t kStableHits = 16;

/// Runs the compiled module as this rank's part of the SPMD computation —
/// the VM-tier counterpart of driver::execute_lir (same contract: only
/// rank 0 writes `out`; rt::RtError is re-raised with statement context).
/// `opts.backend` is ignored here; callers dispatch beforehand.
void execute_bytecode(const BcModule& mod, mpi::Comm& comm, std::ostream& out,
                      const driver::ExecOptions& opts);

}  // namespace otter::vm
