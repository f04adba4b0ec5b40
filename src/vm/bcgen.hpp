// Register-based bytecode for the direct executor's default tier.
//
// The tree executor re-walks LInstr/LExpr nodes and hash-looks-up every
// operand name on every execution. compile_bytecode() lowers a whole
// LProgram once into flat chunks of fixed-width instructions with dense
// opcodes, pre-resolved register slots (scalar doubles and distributed
// matrices get per-chunk register files; no name lookups survive into the
// run), a deduplicated constant pool, resolved jump targets for all
// structured control flow, and per-site inline-cache slots for the checks
// that are shape-stable in steady state (ShapeGuard, element-index
// mapping). The driver's element-wise kernels ride along as bytecode
// superinstructions (EwKern).
//
// A BcModule borrows the LProgram it was compiled from (kernel scalar
// slots point into the LIR, exactly like driver::Kernel); keep the program
// alive as long as the module. The module itself is immutable after
// compile_bytecode returns and may be executed by any number of ranks or
// requests concurrently — all mutable state (registers, inline caches,
// the RNG cursor) lives in the per-rank VM (vm.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/kernel.hpp"
#include "lower/lir.hpp"

namespace otter::vm {

/// Dense opcodes. Operand conventions in the comments: s[x] = scalar
/// register, m[x] = matrix register, K[x] = constant pool, S[x] = string
/// pool, A[x] = aux pool, k[x] = kernel pool, t[x] = tree pool.
enum class Op : uint8_t {
  // -- scalar register ops (cannot throw) ------------------------------------
  LdImm,    ///< s[a] = K[b]
  MovS,     ///< s[a] = s[b]
  BinS,     ///< s[a] = ew_apply_bin(flag, s[b], s[c])
  UnS,      ///< s[a] = ew_apply_un(flag, s[b])
  RowsS,    ///< s[a] = rows(m[b])
  ColsS,    ///< s[a] = cols(m[b])
  NumelS,   ///< s[a] = numel(m[b])
  RandS,    ///< s[a] = next shared-sequence rand draw
  RankS,    ///< s[a] = comm.rank()
  NprocsS,  ///< s[a] = comm.size()
  // -- control flow -----------------------------------------------------------
  Jmp,      ///< pc = a
  JmpIfZ,   ///< pc = (s[b] == 0) ? a : pc+1
  ForPrep,  ///< A[a] = {k,n,var,lo,step,hi}: validate step, n = trip count, k = 0
  ForNext,  ///< if k >= n goto a; var = lo + k*step; ++k   (same A tuple at b)
  Ret,      ///< leave the chunk (script: halt; function: return)
  Boundary, ///< top-level statement boundary `a` (checkpoint + deadline poll)
  Call,     ///< call fn[a]; A[b] = args then dsts, c = #args, d = #dsts
  Trap,     ///< throw RtError(S[a]) — statically known runtime failures
  // -- run-time library calls (matrix registers) -----------------------------
  MatMul,   ///< m[a] = matmul(m[b], m[c])
  MatVec,   ///< m[a] = matvec(m[b], m[c])
  VecMat,   ///< m[a] = vecmat(m[b], m[c])
  Outer,    ///< m[a] = outer(m[b], m[c])
  Transp,   ///< m[a] = transpose(m[b])
  Dot,      ///< s[a] = dot(m[b], m[c])
  ReduceS,  ///< s[a] = reduce_<flag>(m[b])
  ColwiseM, ///< m[a] = colwise_<flag>(m[b])
  NormS,    ///< s[a] = norm2(m[b])
  TrapzS,   ///< s[a] = trapz(m[b]) or trapz_xy(m[b], m[c]) when flag
  GetEl,    ///< s[a] = m[b](...); flag bit0 = linear; c,d = index sregs; e = cache
  SetEl,    ///< m[a](...) = value; flag bit0 = linear; operands b,c,d; e = cache
  ExtrRow,  ///< m[a] = extract_row(m[b], s[c])
  ExtrCol,  ///< m[a] = extract_col(m[b], s[c])
  AsgnRow,  ///< assign_row(m[a], s[b], m[c])
  AsgnCol,  ///< assign_col(m[a], s[b], m[c])
  SliceV,   ///< m[a] = slice_vector(m[b], s[c], s[d])
  AsgnSlice,///< assign_slice(m[a], s[b], s[c], m[d])
  FillZ,    ///< m[a] = zeros(s[b], s[c])
  FillO,    ///< m[a] = ones(s[b], s[c])
  FillE,    ///< m[a] = eye(s[b], s[c])
  FillRnd,  ///< m[a] = rand(s[b], s[c]) — advances the shared sequence
  FillRange,///< m[a] = s[b] : s[c] : s[d]
  FillLin,  ///< m[a] = linspace(s[b], s[c], s[d])
  LoadF,    ///< m[a] = load(S[b])
  FromLit,  ///< m[a] = literal; A[b] = element sregs, c = rows, d = cols
  CopyM,    ///< m[a] = m[b] (deep copy)
  EwKern,   ///< m[a] = kernel k[b] superinstruction
  EwTree,   ///< m[a] = per-element tree t[b] (rand-bearing fallback)
  Guard,    ///< ShapeGuard on m[a]; b = builtin name S[], c = cache slot
  // -- output ------------------------------------------------------------------
  DisplayV, ///< "name =\n…": a = S[name]; flag ? matrix m[b] : scalar s[b]
  DispV,    ///< disp(): flag 0 = string S[a], 1 = matrix m[a], 2 = scalar s[a]
  Fprintf,  ///< fprintf(S[a], …); A[b] = tagged arg regs, c = #args
};

/// One fixed-width instruction. `e` is a fifth small operand (inline-cache
/// slot for GetEl/SetEl, spare elsewhere).
struct BcInstr {
  Op op = Op::Ret;
  uint8_t flag = 0;
  uint16_t e = 0;
  uint32_t a = 0, b = 0, c = 0, d = 0;
};

/// Source attribution for error context: the statement a pc belongs to.
struct StmtInfo {
  SourceLoc loc;
  lower::LOp lop = lower::LOp::ScalarAssign;
};

/// An Elemwise postfix kernel promoted to a bytecode superinstruction:
/// matrix slots resolved to registers, scalar slots resolved to the sregs
/// the preceding instructions computed them into.
struct KernelEntry {
  driver::Kernel k;
  std::vector<uint32_t> mat_regs;   ///< kernel matrix slot -> mreg
  std::vector<uint32_t> slot_regs;  ///< kernel scalar slot -> sreg
};

/// Register-resolved copy of an element-wise tree that could not be
/// kernelized (it draws rand per element). Nodes are indices into `nodes`.
struct RNode {
  lower::LExpr::Kind kind = lower::LExpr::Kind::Imm;
  double imm = 0.0;
  rt::EwBin bop = rt::EwBin::Add;
  rt::EwUn uop = rt::EwUn::Neg;
  int32_t a = -1, b = -1;
  uint32_t reg = 0;   ///< sreg (ScalarVar) or mreg (MatVar / shape queries)
  uint32_t name = 0;  ///< string pool id of the variable (error messages)
};

struct TreeEntry {
  std::vector<RNode> nodes;
  int32_t root = -1;
  int32_t shape_mreg = -1;  ///< pre-order first matrix leaf (output shape)
};

/// One compiled scope (the script or one function body).
struct BcChunk {
  std::string name;
  std::vector<BcInstr> code;
  std::vector<uint32_t> stmt;  ///< code-parallel: index into BcModule::stmts
  uint32_t nscalar = 0;        ///< scalar register file size
  uint32_t nmat = 0;           ///< matrix register file size
  /// reg -> declared name ("" for compiler temps); used by the
  /// disassembler and by checkpoint capture (canonical sorted-name blobs).
  std::vector<std::string> sreg_names;
  std::vector<std::string> mreg_names;
  /// Named registers sorted by name — the checkpoint serialization order,
  /// byte-identical to the tree executor's sorted-map capture.
  std::vector<std::pair<std::string, uint32_t>> named_sregs;
  std::vector<std::pair<std::string, uint32_t>> named_mregs;
  /// Script chunk only: top-level statement index -> pc of its first
  /// instruction (after the Boundary marker); checkpoint resume entry.
  std::vector<uint32_t> stmt_pc;
};

struct BcFunction {
  BcChunk chunk;
  struct Var {
    bool is_matrix = false;
    uint32_t reg = 0;
  };
  std::vector<Var> params;
  std::vector<Var> outs;
};

/// Aux-pool entry tags for Call argument/destination and Fprintf lists.
/// Layout: tag in the top 2 bits, register / string id in the low 30.
enum : uint32_t {
  kAuxScalar = 0u << 30,
  kAuxMatrix = 1u << 30,
  kAuxTrap = 2u << 30,  ///< Call dst whose kind mismatched: S[id] is the error
  kAuxTagMask = 3u << 30,
  kAuxValMask = (1u << 30) - 1,
};

struct BcModule {
  BcChunk script;
  std::vector<BcFunction> functions;
  std::vector<double> consts;
  std::vector<std::string> strings;
  std::vector<uint32_t> aux;
  std::vector<KernelEntry> kernels;
  std::vector<TreeEntry> trees;
  std::vector<StmtInfo> stmts;
  uint32_t cache_slots = 0;
  const lower::LProgram* origin = nullptr;  ///< borrowed; must outlive module
};

/// Compiles the whole program. Never fails: LIR shapes the verifier would
/// reject compile to Trap instructions that reproduce the tree executor's
/// runtime error at the same evaluation point.
BcModule compile_bytecode(const lower::LProgram& prog);

/// Human-readable disassembly (one instruction per line) for goldens and
/// `otterc --dump-bytecode`.
std::string dump_bytecode(const BcModule& m);

}  // namespace otter::vm
