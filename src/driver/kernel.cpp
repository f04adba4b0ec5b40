#include "driver/kernel.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <utility>

#include "lower/query.hpp"

namespace otter::driver {

namespace {

using lower::LExpr;

struct Builder {
  Kernel k;
  std::unordered_map<std::string, uint16_t> mat_slots;
  size_t depth = 0;
  bool ok = true;

  void push(KOp op) {
    k.ops.push_back(op);
    ++depth;
    if (depth > k.max_stack) k.max_stack = depth;
  }

  uint16_t mat_slot(const std::string& name) {
    auto it = mat_slots.find(name);
    if (it != mat_slots.end()) return it->second;
    auto slot = static_cast<uint16_t>(k.mats.size());
    mat_slots.emplace(name, slot);
    k.mats.push_back(name);
    return slot;
  }

  void build(const LExpr& e) {
    if (!ok) return;
    if (k.ops.size() > 4096 || k.mats.size() > 255 || k.scalars.size() > 255) {
      ok = false;  // degenerate tree: let the tree walker handle it
      return;
    }
    switch (e.kind) {
      case LExpr::Kind::Imm: {
        KOp op;
        op.k = KOp::K::PushImm;
        op.imm = e.imm;
        push(op);
        return;
      }
      case LExpr::Kind::MatVar: {
        KOp op;
        op.k = KOp::K::PushMat;
        op.slot = mat_slot(e.var);
        push(op);
        return;
      }
      case LExpr::Kind::ScalarVar:
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf:
      case LExpr::Kind::RankId:    // constant for the whole run: slot-safe
      case LExpr::Kind::NProcs: {
        KOp op;
        op.k = KOp::K::PushScalar;
        op.slot = static_cast<uint16_t>(k.scalars.size());
        k.scalars.push_back(&e);
        push(op);
        return;
      }
      case LExpr::Kind::Bin: {
        build(*e.a);
        build(*e.b);
        if (!ok) return;
        KOp op;
        op.k = KOp::K::Bin;
        op.bop = e.bop;
        k.ops.push_back(op);
        --depth;  // two pops, one push
        return;
      }
      case LExpr::Kind::Un: {
        build(*e.a);
        if (!ok) return;
        KOp op;
        op.k = KOp::K::Un;
        op.uop = e.uop;
        k.ops.push_back(op);
        return;
      }
      case LExpr::Kind::RandScalar:
        // A slot would draw once per statement where the tree walker draws
        // per evaluation; refuse so the caller preserves rand semantics.
        ok = false;
        return;
    }
    ok = false;
  }
};

// One loop per operator: `Op` is a template argument, so ew_apply_*'s switch
// folds away and each loop body is the bare operation. Scalar operands stay
// scalars (never broadcast into a block).
template <rt::EwBin Op>
void bin_block(double* out, KVal a, KVal b, size_t len) {
  using rt::ew_apply_bin;
  if (a.p != nullptr && b.p != nullptr) {
    for (size_t l = 0; l < len; ++l) out[l] = ew_apply_bin(Op, a.p[l], b.p[l]);
  } else if (a.p != nullptr) {
    for (size_t l = 0; l < len; ++l) out[l] = ew_apply_bin(Op, a.p[l], b.s);
  } else {
    for (size_t l = 0; l < len; ++l) out[l] = ew_apply_bin(Op, a.s, b.p[l]);
  }
}

template <rt::EwUn Op>
void un_block(double* out, const double* a, size_t len) {
  for (size_t l = 0; l < len; ++l) out[l] = rt::ew_apply_un(Op, a[l]);
}

using BinFn = void (*)(double*, KVal, KVal, size_t);
using UnFn = void (*)(double*, const double*, size_t);

template <size_t... I>
constexpr std::array<BinFn, sizeof...(I)> bin_fns(std::index_sequence<I...>) {
  return {&bin_block<static_cast<rt::EwBin>(I)>...};
}
template <size_t... I>
constexpr std::array<UnFn, sizeof...(I)> un_fns(std::index_sequence<I...>) {
  return {&un_block<static_cast<rt::EwUn>(I)>...};
}
// Indexed by operator; EwBin::Max and EwUn::Sign are the last enumerators.
constexpr size_t kNumBin = static_cast<size_t>(rt::EwBin::Max) + 1;
constexpr size_t kNumUn = static_cast<size_t>(rt::EwUn::Sign) + 1;
constexpr auto kBinFns = bin_fns(std::make_index_sequence<kNumBin>{});
constexpr auto kUnFns = un_fns(std::make_index_sequence<kNumUn>{});

}  // namespace

void Kernel::run(double* dst, const double* const* mat_ptrs,
                 const double* scalar_vals, KScratch& scratch,
                 size_t n) const {
  // Registers are `block` doubles apart, one per value-stack depth: a value
  // at depth d lives in a matrix buffer, in register d, or (last op only)
  // in dst, so no op ever reads a block another op of this pass overwrote.
  const size_t block = std::min(n, kBlock);
  if (scratch.vals.size() < max_stack) scratch.vals.resize(max_stack);
  if (!mats.empty() && scratch.regs.size() < max_stack * block) {
    scratch.regs.resize(max_stack * block);
  }
  KVal* st = scratch.vals.data();
  double* regs = scratch.regs.data();
  const size_t last = ops.size() - 1;
  for (size_t base = 0; base < n; base += block) {
    const size_t len = std::min(block, n - base);
    size_t sp = 0;
    for (size_t i = 0; i <= last; ++i) {
      const KOp& op = ops[i];
      switch (op.k) {
        case KOp::K::PushImm:
          st[sp++] = {nullptr, op.imm};
          break;
        case KOp::K::PushScalar:
          st[sp++] = {nullptr, scalar_vals[op.slot]};
          break;
        case KOp::K::PushMat:
          st[sp++] = {mat_ptrs[op.slot] + base, 0.0};
          break;
        case KOp::K::Bin: {
          KVal& a = st[sp - 2];
          const KVal& b = st[sp - 1];
          --sp;
          if (a.p == nullptr && b.p == nullptr) {
            a.s = rt::ew_apply_bin(op.bop, a.s, b.s);
            break;
          }
          double* out = i == last ? dst + base : regs + (sp - 1) * block;
          kBinFns[static_cast<size_t>(op.bop)](out, a, b, len);
          a.p = out;
          break;
        }
        case KOp::K::Un: {
          KVal& a = st[sp - 1];
          if (a.p == nullptr) {
            a.s = rt::ew_apply_un(op.uop, a.s);
            break;
          }
          double* out = i == last ? dst + base : regs + (sp - 1) * block;
          kUnFns[static_cast<size_t>(op.uop)](out, a.p, len);
          a.p = out;
          break;
        }
      }
    }
    // A scalar result, or a bare matrix leaf, still has to reach dst.
    if (st[0].p == nullptr) {
      std::fill_n(dst + base, len, st[0].s);
    } else if (st[0].p != dst + base) {
      std::copy_n(st[0].p, len, dst + base);
    }
  }
}

Kernel compile_kernel(const lower::LExpr& tree) {
  if (lower::tree_has_rand(tree)) {
    Kernel k;
    k.ok = false;
    return k;
  }
  Builder b;
  b.build(tree);
  b.k.ok = b.ok && !b.k.ops.empty();
  return b.k;
}

}  // namespace otter::driver
