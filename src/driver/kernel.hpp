// Compiled element-wise kernels, shared by the tree executor and the VM.
//
// A Kernel compiles an element-wise LExpr tree once into flat postfix code
// with pre-resolved operand slots: matrix leaves become span indices bound
// once per statement execution, scalar leaves become slots evaluated once
// per statement (lowering guarantees an element-wise tree's scalar subtrees
// are Imm/ScalarVar only — anything more complex, including rand, was
// hoisted into its own ScalarAssign).
//
// Kernel::run evaluates the postfix program a block of local elements at a
// time: each op is one tight loop over the block with its operator switch
// hoisted out, so per-element cost is the arithmetic, not the dispatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lower/lir.hpp"

namespace otter::driver {

/// One postfix step.
struct KOp {
  enum class K : uint8_t {
    PushImm,     ///< push `imm`
    PushScalar,  ///< push pre-evaluated scalar slot `slot`
    PushMat,     ///< push the current block of matrix slot `slot`
    Bin,         ///< pop b, pop a, push a `bop` b
    Un,          ///< pop a, push `uop` a
  };
  K k = K::PushImm;
  double imm = 0.0;
  uint16_t slot = 0;
  rt::EwBin bop = rt::EwBin::Add;
  rt::EwUn uop = rt::EwUn::Neg;
};

/// One value-stack entry of the block evaluator: a block of `len` doubles
/// at `p`, or (p == nullptr) the scalar `s` shared by every element.
struct KVal {
  const double* p = nullptr;
  double s = 0.0;
};

/// Reusable per-executor scratch for Kernel::run: `regs` holds one block
/// register per value-stack depth, `vals` the value stack itself. Grown on
/// demand, never shrunk, so steady-state statements allocate nothing.
struct KScratch {
  std::vector<double> regs;
  std::vector<KVal> vals;
};

/// A compiled LExpr tree. `ok == false` means the tree cannot be kernelized
/// (it draws rand, whose per-element semantics a once-per-statement slot
/// would change) and the caller must fall back to tree walking.
struct Kernel {
  /// Local elements per block: 4 KiB per register, so a deep program's
  /// registers stay in L1/L2 while a block streams through every op.
  static constexpr size_t kBlock = 512;

  std::vector<KOp> ops;
  /// Matrix slot -> variable name, in pre-order-first-leaf order, so
  /// mats.front() is the same matrix the tree-walking executor takes the
  /// output shape from.
  std::vector<std::string> mats;
  /// Scalar slot -> subtree to evaluate once per statement execution.
  std::vector<const lower::LExpr*> scalars;
  size_t max_stack = 0;
  bool ok = false;

  /// Writes element l of the program's value to dst[l] for every l in
  /// [0, n). `mat_ptrs[i]` is the local buffer of matrix slot i (n elements
  /// each), `scalar_vals[i]` the pre-evaluated value of scalar slot i.
  ///
  /// Every element sees exactly the rt::ew_apply_* calls, in the order, of
  /// a per-element postfix walk, so results are bit-identical to it and to
  /// the tree walker. dst may alias any operand buffer: only the program's
  /// last op writes dst, and it reads index l of its operands before it
  /// writes dst[l]; earlier ops write only block registers. A program with
  /// no matrix operand never touches a register (n == 1 is the scalar
  /// statement case).
  void run(double* dst, const double* const* mat_ptrs,
           const double* scalar_vals, KScratch& scratch, size_t n) const;
};

/// Compiles `tree` (element-wise or pure scalar) into postfix form. The
/// result's lifetime is bounded by `tree`'s (scalar slots point into it).
Kernel compile_kernel(const lower::LExpr& tree);

}  // namespace otter::driver
