// Micro-benchmarks for the register-bytecode VM tier (src/vm).
//
// Two exhibits, both recorded in the JSON report:
//   * micro_vm_dispatch — wall-clock seconds of a dispatch-bound script
//     (scalar loops, element indexing, in-place updates) on the SAME -O2
//     LIR, executed by the tree walker and by the bytecode VM. Both tiers
//     use compiled kernels, so the delta is purely what the VM buys:
//     pre-resolved register slots instead of per-operand name-map lookups,
//     and flat dispatch instead of recursive tree walking.
//   * micro_vm_fig2 — the paper's four applications at p=1: the tree
//     executor in its reference configuration (-O0 LIR, per-element tree
//     walking — the differential-fuzzing oracle tier) vs the VM on the
//     default -O2 pipeline. This is the tier-selection claim in numbers:
//     what a script gains by running on the default -O1/-O2 tier instead
//     of the reference tier. The acceptance target is a >= 3x geometric
//     mean (ROADMAP aims for 5x); CI's bench-smoke asserts it from the
//     recorded JSON.
#include <chrono>
#include <cmath>

#include "figure_common.hpp"
#include "vm/bcgen.hpp"

namespace {

using namespace otter;
using namespace otter::bench;

// Scalar-dense double loop with element touches at the rep boundary. The
// inner loop is pure per-statement dispatch — the tree walker pays hash-map
// name lookups plus AST-node recursion per operand, the VM one indexed
// register read — while the per-rep GetEl/SetEl keep element access in
// play. Element reads inside the hot loop would dilute the
// exhibit: a distributed-element access costs the same owner bookkeeping in
// both tiers, and dispatch is what this exhibit isolates.
const char* kDispatchScript = R"(reps = 24;
n = 200000;
s = 0;
a = rand(24, 2);
for rep = 1:reps
  base = a(rep, 1);
  for i = 1:n
    s = s + (i + base) * 0.5 - rep * 0.125;
  end
  a(rep, 2) = s * 1e-9;
end
fprintf('dispatch checksum %.6f\n', s * 1e-12);
)";

struct Measured {
  double wall_seconds = 0.0;
  uint64_t comm_ops = 0;
};

Measured run_tier(const lower::LProgram& lir, driver::ExecBackend backend,
                  bool kernels, int np,
                  const vm::BcModule* bytecode = nullptr) {
  driver::ExecOptions eopts;
  eopts.backend = backend;
  eopts.kernels = kernels;
  eopts.bytecode = bytecode;
  auto start = std::chrono::steady_clock::now();
  driver::ParallelRun r =
      driver::run_parallel(lir, mpi::ideal(np), np, eopts);
  auto stop = std::chrono::steady_clock::now();
  Measured m;
  m.wall_seconds = std::chrono::duration<double>(stop - start).count();
  m.comm_ops = r.times.total_ops();
  return m;
}

std::unique_ptr<driver::CompileResult> compile_level(const std::string& src,
                                                     int level) {
  driver::CompileOptions copts;
  copts.opt.level = level;
  auto compiled = driver::compile_script(src, {}, copts);
  if (!compiled->ok) {
    std::cerr << "micro_vm: compile failed:\n" << compiled->diags.to_string();
    std::exit(1);
  }
  return compiled;
}

/// Best-of-3 wall seconds for one (backend, kernels) tier configuration.
/// For the VM tier the bytecode module is compiled once, outside the timed
/// region — matching how the tier actually runs (otterd compiles bytecode
/// into the artifact cache once and reuses it across executions).
double best_of_3(const lower::LProgram& lir, driver::ExecBackend backend,
                 bool kernels) {
  vm::BcModule mod;
  const vm::BcModule* bc = nullptr;
  if (backend == driver::ExecBackend::Vm) {
    mod = vm::compile_bytecode(lir);
    bc = &mod;
  }
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::min(best, run_tier(lir, backend, kernels, 1, bc).wall_seconds);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  std::printf("=== micro_vm: register-bytecode VM tier ===\n\n");

  // Exhibit 1: pure dispatch — identical -O2 LIR, kernels on for both,
  // only the execution tier differs.
  {
    auto c = compile_level(kDispatchScript, 2);
    double tree = best_of_3(c->lir, driver::ExecBackend::Tree, true);
    double vm = best_of_3(c->lir, driver::ExecBackend::Vm, true);
    bench_records().push_back({"micro_vm_dispatch", "ideal", 1, 200000, tree,
                               0, "executor-tree-O2"});
    bench_records().push_back({"micro_vm_dispatch", "ideal", 1, 200000, vm, 0,
                               "vm-O2"});
    std::printf("dispatch-bound script, p=1, same -O2 LIR (best of 3):\n");
    std::printf("  tree executor  %10.4f s\n", tree);
    std::printf("  bytecode VM    %10.4f s\n", vm);
    std::printf("  speedup        %10.2fx\n\n", tree / vm);
  }

  // Exhibit 2: the fig2 applications, reference tier vs default tier.
  // Sizes are scaled down from the paper's so the tree-walking baseline
  // finishes in seconds AND so per-statement/per-element work — the thing
  // an execution tier can change — dominates over rtlib matmul time, which
  // is identical in both tiers. cg trades problem size for iteration count
  // (same statement mix, more tier-sensitive passes); transclos stays
  // matmul-bound by design (it is the paper's matmul stress test) and is
  // reported as the honest low end.
  struct Fig2 {
    const char* file;
    const char* var;
    long size;
    const char* var2;  ///< optional second override (nullptr: none)
    long size2;
  };
  const Fig2 kFig2[] = {
      {"cg.m", "n", 48, "iters", 1000},
      {"ocean.m", "n", 8192, nullptr, 0},
      {"nbody.m", "n", 4000, nullptr, 0},
      {"transclos.m", "n", 64, nullptr, 0},
  };
  double log_sum = 0.0;
  std::printf("fig2 applications, p=1 (best of 3):\n");
  std::printf("  %-14s %12s %12s %9s\n", "script", "tree -O0 (s)", "vm -O2 (s)",
              "speedup");
  for (const Fig2& f : kFig2) {
    std::string src = with_size(load_script(f.file), f.var, f.size);
    if (f.var2 != nullptr) src = with_size(src, f.var2, f.size2);
    auto ref = compile_level(src, 0);
    auto opt = compile_level(src, 2);
    double tree = best_of_3(ref->lir, driver::ExecBackend::Tree, false);
    double vm = best_of_3(opt->lir, driver::ExecBackend::Vm, true);
    bench_records().push_back({std::string("micro_vm_fig2_") + f.file, "ideal",
                               1, f.size, tree, 0, "executor-tree-O0"});
    bench_records().push_back({std::string("micro_vm_fig2_") + f.file, "ideal",
                               1, f.size, vm, 0, "vm-O2"});
    log_sum += std::log(tree / vm);
    std::printf("  %-14s %12.4f %12.4f %8.2fx\n", f.file, tree, vm,
                tree / vm);
  }
  double geomean = std::exp(log_sum / (sizeof(kFig2) / sizeof(kFig2[0])));
  std::printf("  geomean speedup %.2fx (target >= 3x, roadmap 5x)\n", geomean);

  write_bench_json();
  return 0;
}
