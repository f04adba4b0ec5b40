// AST → LIR lowering (paper passes 4, 5 and 6).
#pragma once

#include "frontend/ast.hpp"
#include "lower/lir.hpp"
#include "sema/infer.hpp"
#include "support/budget.hpp"
#include "support/diag.hpp"

namespace otter::lower {

struct LowerOptions {
  /// Run the paper's sixth (peephole) pass: fold run-time-call sequences
  /// such as transpose + multiply + element-read into single ML_dot calls.
  /// Disabled by the peephole ablation benchmark.
  bool peephole = true;
  /// Shared per-compilation resource gate; lowering stops emitting once the
  /// LIR instruction or wall-clock budget is exhausted. May be null.
  BudgetGate* budget = nullptr;
};

/// Lowers the resolved, inferred program into LIR. Reports constructs
/// outside the compiler's subset through diags.
LProgram lower_program(Program& prog, const sema::InferResult& inf,
                       DiagEngine& diags, const LowerOptions& opts = {});

/// The peephole pass in isolation (exposed for tests and the ablation).
void run_peephole(LProgram& prog);

}  // namespace otter::lower
