// Register-bytecode VM tests (src/vm): disassembly goldens for the compiled
// form, tree-vs-VM output identity over the fig2 application corpus at
// several rank counts, the inline-cache hit/miss/self-disable protocol,
// checkpoint crash+resume bitwise identity on the VM tier, and the block
// evaluator of the element-wise kernels both tiers share.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "driver/kernel.hpp"
#include "driver/pipeline.hpp"
#include "vm/bcgen.hpp"
#include "vm/vm.hpp"

namespace otter {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<driver::CompileResult> compile(const std::string& src) {
  driver::CompileOptions copts;  // default pipeline: DSE + -O2 + kernels
  auto c = driver::compile_script(src, {}, copts);
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return c;
}

driver::ParallelRun run_backend(const lower::LProgram& lir, int np,
                                driver::ExecBackend backend,
                                vm::VmStats* stats = nullptr) {
  driver::ExecOptions eo;
  eo.backend = backend;
  eo.vm_stats = stats;
  return driver::run_parallel(lir, mpi::profile_by_name("ideal"), np, eo);
}

std::string dump_of(const std::string& src) {
  auto c = compile(src);
  vm::BcModule mod = vm::compile_bytecode(c->lir);
  return vm::dump_bytecode(mod);
}

// ---- bytecode goldens -------------------------------------------------------

// The exact compiled form of a scalar-only script: operand slots resolved to
// dense register numbers at compile time, a Boundary before every top-level
// statement past the first, no name lookups anywhere.
TEST(VmBytecode, GoldenScalarScript) {
  EXPECT_EQ(dump_of("x = 1;\ny = x + 2;\ndisp(y)\n"),
            "== script (sregs=4 mregs=0)\n"
            "  0000  ldimm     s1(x) 1\n"
            "  0001  boundary  stmt 1\n"
            "  0002  ldimm     s3 2\n"
            "  0003  bin       s2(y) <- s1(x) op0 s3\n"
            "  0004  boundary  stmt 2\n"
            "  0005  disp      s2(y)\n"
            "  0006  ret       \n");
}

// A fused element-wise chain compiles to one EwKern superinstruction; the
// reduction pipeline keeps its dedicated ops.
TEST(VmBytecode, GoldenFusedKernelScript) {
  EXPECT_EQ(dump_of("a = rand(4,4);\nb = a .* a + 1;\ndisp(sum(sum(b)))\n"),
            "== script (sregs=4 mregs=3)\n"
            "  0000  ldimm     s2 4\n"
            "  0001  ldimm     s3 4\n"
            "  0002  fillrand  m0(a) s2 s3\n"
            "  0003  boundary  stmt 1\n"
            "  0004  ewkern    m1(b) ops=5 mats=[m0(a)]\n"
            "  0005  boundary  stmt 2\n"
            "  0006  colwise   m2(ML_tmp1) m1(b) red0\n"
            "  0007  boundary  stmt 3\n"
            "  0008  reduce    s1(ML_tmp2) m2(ML_tmp1) red0\n"
            "  0009  boundary  stmt 4\n"
            "  0010  disp      s1(ML_tmp2)\n"
            "  0011  ret       \n");
}

// Control flow is jump-target-resolved at compile time: a counted loop
// becomes a ForPrep/ForNext pair whose exit pc is baked into the stream.
TEST(VmBytecode, LoopsAreJumpResolved) {
  std::string d = dump_of(
      "s = 0;\nfor i = 1:10\n  s = s + i;\nend\ndisp(s)\n");
  EXPECT_NE(d.find("forprep"), std::string::npos) << d;
  size_t next = d.find("fornext");
  ASSERT_NE(next, std::string::npos) << d;
  EXPECT_NE(d.find("exit=", next), std::string::npos) << d;
  // No unresolved label or name-lookup artifacts in the dump.
  EXPECT_EQ(d.find("label"), std::string::npos) << d;
}

// User functions compile to their own chunks, and calls carry pre-resolved
// argument/result register lists.
TEST(VmBytecode, FunctionsGetTheirOwnChunks) {
  driver::CompileOptions copts;
  auto c2 = driver::compile_script(
      "x = twice(3);\ndisp(x)\n",
      [](const std::string& name) -> std::optional<std::string> {
        if (name == "twice") return "function y = twice(v)\ny = v * 2;\n";
        return std::nullopt;
      },
      copts);
  ASSERT_TRUE(c2->ok) << c2->diags.to_string();
  vm::BcModule mod = vm::compile_bytecode(c2->lir);
  ASSERT_EQ(mod.functions.size(), 1u);
  std::string d = vm::dump_bytecode(mod);
  EXPECT_NE(d.find("== " + mod.functions[0].chunk.name), std::string::npos)
      << d;
  EXPECT_NE(d.find("call"), std::string::npos) << d;
}

// ---- fig2 corpus identity ---------------------------------------------------

class VmCorpus : public ::testing::TestWithParam<int> {};

// The paper's four applications must produce byte-identical output, the
// same comm-op count, and the same virtual time on both execution tiers.
TEST_P(VmCorpus, TreeAndVmAreObservationallyIdentical) {
  const int np = GetParam();
  std::vector<fs::path> scripts;
  for (const auto& e : fs::directory_iterator(OTTER_SCRIPTS_DIR)) {
    if (e.path().extension() == ".m") scripts.push_back(e.path());
  }
  ASSERT_FALSE(scripts.empty());
  std::sort(scripts.begin(), scripts.end());
  for (const fs::path& p : scripts) {
    std::ifstream in(p);
    ASSERT_TRUE(in) << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    auto c = compile(ss.str());
    ASSERT_TRUE(c->ok) << p;
    auto tree = run_backend(c->lir, np, driver::ExecBackend::Tree);
    auto vm = run_backend(c->lir, np, driver::ExecBackend::Vm);
    SCOPED_TRACE(p.filename().string() + " np=" + std::to_string(np));
    EXPECT_EQ(vm.output, tree.output);
    EXPECT_EQ(vm.times.total_ops(), tree.times.total_ops());
    EXPECT_EQ(vm.times.max_vtime(), tree.times.max_vtime());
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, VmCorpus, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "P" + std::to_string(info.param);
                         });

// Runtime errors carry the same message, code, and location on both tiers.
TEST(VmIdentity, ErrorsMatchTheTreeExecutor) {
  // The index is computed from matrix contents, so the bounds failure only
  // exists at run time — the point where both tiers must report it alike.
  auto c = compile(
      "a = rand(3, 3);\ni = floor(a(1, 1) * 0) + 5;\ndisp(a(i, 1))\n");
  std::string tree_err;
  std::string vm_err;
  try {
    run_backend(c->lir, 1, driver::ExecBackend::Tree);
  } catch (const std::exception& e) {
    tree_err = e.what();
  }
  try {
    run_backend(c->lir, 1, driver::ExecBackend::Vm);
  } catch (const std::exception& e) {
    vm_err = e.what();
  }
  ASSERT_FALSE(tree_err.empty());
  EXPECT_EQ(vm_err, tree_err);
}

// The rand() stream is drawn identically: a script whose output threads
// rand state through matrix fills and scalar draws agrees across tiers.
TEST(VmIdentity, RandStreamMatches) {
  auto c = compile(
      "a = rand(5, 3);\nx = rand;\nb = rand(2, 7);\n"
      "disp(sum(sum(a)) + x * 1000 + sum(sum(b)))\n");
  auto tree = run_backend(c->lir, 2, driver::ExecBackend::Tree);
  auto vm = run_backend(c->lir, 2, driver::ExecBackend::Vm);
  EXPECT_EQ(vm.output, tree.output);
}

// ---- inline caches ----------------------------------------------------------

// A loop-resident linear-index site over stable shapes misses once, then
// hits until it reaches kStableHits consecutive hits and self-disables its
// bookkeeping.
TEST(VmInlineCache, StableShapesHitThenSelfDisable) {
  auto c = compile(
      "a = rand(8, 8);\ns = 0;\n"
      "for i = 1:40\n  s = s + a(i);\nend\n"
      "disp(s)\n");
  vm::VmStats stats;
  run_backend(c->lir, 1, driver::ExecBackend::Vm, &stats);
  EXPECT_GE(stats.cache_misses.load(), 1u);
  // 40 iterations over one stable site: at least kStableHits counted hits
  // before the site froze its stats.
  EXPECT_GE(stats.cache_hits.load(), uint64_t{vm::kStableHits});
  EXPECT_GE(stats.cache_disabled.load(), 1u);
  EXPECT_GT(stats.instrs.load(), 0u);
}

// Shape churn re-arms the site every iteration: reassigning the input to a
// fresh matrix bumps its version, so the site keeps missing and never
// reaches the stable state.
TEST(VmInlineCache, ShapeChurnKeepsMissing) {
  auto c = compile(
      "s = 0;\n"
      "for i = 2:21\n  a = rand(i, i + 1);\n  s = s + a(2);\nend\n"
      "disp(s)\n");
  vm::VmStats stats;
  run_backend(c->lir, 1, driver::ExecBackend::Vm, &stats);
  EXPECT_GE(stats.cache_misses.load(), 20u);
  EXPECT_EQ(stats.cache_disabled.load(), 0u);
}

// The stats plumbing aggregates across ranks, and a hit on one rank is a
// hit on every rank (the cache key is version-based, not pointer-based).
TEST(VmInlineCache, StatsAggregateAcrossRanks) {
  auto c = compile(
      "a = rand(8, 8);\ns = 0;\n"
      "for i = 1:10\n  s = s + a(i);\nend\ndisp(s)\n");
  vm::VmStats np1;
  run_backend(c->lir, 1, driver::ExecBackend::Vm, &np1);
  vm::VmStats np4;
  run_backend(c->lir, 4, driver::ExecBackend::Vm, &np4);
  EXPECT_EQ(np4.cache_hits.load(), np1.cache_hits.load() * 4);
  EXPECT_EQ(np4.cache_misses.load(), np1.cache_misses.load() * 4);
}

// ---- block element-wise kernels ---------------------------------------------

// The element order the kernels had before block evaluation: the postfix
// program walked once per element over a value stack. Kernel::run must
// match it bit for bit on every element.
double postfix_at(const driver::Kernel& k, const double* const* mats,
                  const double* svals, size_t l) {
  std::vector<double> st;
  for (const driver::KOp& op : k.ops) {
    switch (op.k) {
      case driver::KOp::K::PushImm: st.push_back(op.imm); break;
      case driver::KOp::K::PushScalar: st.push_back(svals[op.slot]); break;
      case driver::KOp::K::PushMat: st.push_back(mats[op.slot][l]); break;
      case driver::KOp::K::Bin: {
        double b = st.back();
        st.pop_back();
        st.back() = rt::ew_apply_bin(op.bop, st.back(), b);
        break;
      }
      case driver::KOp::K::Un:
        st.back() = rt::ew_apply_un(op.uop, st.back());
        break;
    }
  }
  return st.back();
}

/// Bit equality, except that any two NaNs match: which operand's NaN an
/// IEEE operation returns depends on how the C++ compiler ordered the
/// operands, and no engine prints a NaN's sign or payload.
bool same_bits(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub || (std::isnan(a) && std::isnan(b));
}

constexpr double kInf = std::numeric_limits<double>::infinity();
// Inf, -Inf, NaN, both zeros, subnormals, and ordinary values; 13 is prime,
// so columns read at coprime strides meet every pair within 169 elements.
const double kSpecials[13] = {kInf, -kInf, std::nan(""), -0.0, 0.0,
                              std::numeric_limits<double>::denorm_min(),
                              -2.2e-308, 1.5, -2.75, 1e308, 3.0, -1.0, 0.5};

/// Columns x, y, z of `n` elements mixing kSpecials at different strides.
std::vector<std::vector<double>> special_columns(size_t n) {
  std::vector<std::vector<double>> cols(3, std::vector<double>(n));
  for (size_t l = 0; l < n; ++l) {
    cols[0][l] = kSpecials[l % 13];
    cols[1][l] = kSpecials[(l * 7 + 3) % 13];
    cols[2][l] = kSpecials[(l * 5 + 11) % 13];
  }
  return cols;
}

/// Runs `k` over `n` elements of `cols` (matrix slot i reads column i) and
/// compares every element's bits with postfix_at. `alias` >= 0 makes dst
/// the buffer of that matrix slot, as an in-place statement would.
void expect_block_matches_postfix(const driver::Kernel& k,
                                  std::vector<std::vector<double>> cols,
                                  const std::vector<double>& svals, size_t n,
                                  int alias = -1) {
  ASSERT_TRUE(k.ok);
  std::vector<const double*> ptrs;
  for (size_t i = 0; i < k.mats.size(); ++i) ptrs.push_back(cols[i].data());
  std::vector<double> want(n);
  for (size_t l = 0; l < n; ++l) {
    want[l] = postfix_at(k, ptrs.data(), svals.data(), l);
  }
  std::vector<double> fresh(n, 42.0);
  double* dst = alias >= 0 ? cols[static_cast<size_t>(alias)].data()
                           : fresh.data();
  driver::KScratch scratch;
  k.run(dst, ptrs.data(), svals.data(), scratch, n);
  for (size_t l = 0; l < n; ++l) {
    ASSERT_TRUE(same_bits(dst[l], want[l]))
        << "element " << l << " of " << n << ": " << dst[l] << " vs "
        << want[l];
  }
}

const size_t kBlockSizes[] = {0, 1, 511, 512, 513, 50000};

// Every binary operator, with its operands as two matrices, matrix and
// scalar slot, scalar slot and matrix, and matrix and immediate, over the
// IEEE specials at sizes that cover empty shares, one element, and block
// tails.
TEST(KernelBlock, EveryBinaryOperatorMatchesPostfixOrder) {
  using lower::lbin;
  using lower::lmvar;
  using lower::lsvar;
  for (size_t op = 0; op <= static_cast<size_t>(rt::EwBin::Max); ++op) {
    auto bop = static_cast<rt::EwBin>(op);
    lower::LExprPtr trees[] = {
        lbin(bop, lmvar("x"), lmvar("y")),
        lbin(bop, lmvar("x"), lsvar("s")),
        lbin(bop, lsvar("s"), lmvar("x")),
        lbin(bop, lmvar("x"), lower::limm(-0.0)),
    };
    for (const lower::LExprPtr& t : trees) {
      driver::Kernel k = driver::compile_kernel(*t);
      for (size_t n : kBlockSizes) {
        SCOPED_TRACE("op " + std::to_string(op) + " n=" + std::to_string(n));
        // Every special as the scalar slot's value; one at the largest n.
        for (double s : kSpecials) {
          expect_block_matches_postfix(k, special_columns(n), {s}, n);
          if (n > 2 * driver::Kernel::kBlock) break;
        }
      }
    }
  }
}

TEST(KernelBlock, EveryUnaryOperatorMatchesPostfixOrder) {
  using lower::lmvar;
  for (size_t op = 0; op <= static_cast<size_t>(rt::EwUn::Sign); ++op) {
    auto uop = static_cast<rt::EwUn>(op);
    // Alone, and applied to an intermediate held in a block register.
    lower::LExprPtr trees[] = {
        lower::lun(uop, lmvar("x")),
        lower::lun(uop, lower::lbin(rt::EwBin::Mul, lmvar("x"), lmvar("y"))),
    };
    for (const lower::LExprPtr& t : trees) {
      driver::Kernel k = driver::compile_kernel(*t);
      for (size_t n : kBlockSizes) {
        SCOPED_TRACE("op " + std::to_string(op) + " n=" + std::to_string(n));
        expect_block_matches_postfix(k, special_columns(n), {}, n);
      }
    }
  }
}

// dst may be any operand's buffer: first, middle, or last matrix slot, and
// an operand read twice after intermediates were formed from it.
TEST(KernelBlock, DstMayAliasAnyOperand) {
  using lower::lbin;
  using lower::lmvar;
  using rt::EwBin;
  // (x .* y + z) ./ (x - 0.5) - y
  lower::LExprPtr t = lbin(
      EwBin::Sub,
      lbin(EwBin::Div,
           lbin(EwBin::Add, lbin(EwBin::Mul, lmvar("x"), lmvar("y")),
                lmvar("z")),
           lbin(EwBin::Sub, lmvar("x"), lower::limm(0.5))),
      lmvar("y"));
  driver::Kernel k = driver::compile_kernel(*t);
  ASSERT_EQ(k.mats.size(), 3u);
  for (size_t n : kBlockSizes) {
    for (int alias : {0, 1, 2}) {
      SCOPED_TRACE("alias " + std::to_string(alias) + " n=" +
                   std::to_string(n));
      expect_block_matches_postfix(k, special_columns(n), {}, n, alias);
    }
  }
}

// Subtrees made only of scalar slots and immediates stay scalars inside a
// matrix program, and an all-scalar program (the ScalarAssign case, n = 1)
// never allocates a block register.
TEST(KernelBlock, ScalarAndImmediateSubtreesStayScalar) {
  using lower::lbin;
  using lower::limm;
  using lower::lmvar;
  using lower::lsvar;
  using rt::EwBin;
  // ((s + 2) * (3 - t)) + x .* sqrt(s / 4)
  lower::LExprPtr t = lbin(
      EwBin::Add,
      lbin(EwBin::Mul, lbin(EwBin::Add, lsvar("s"), limm(2)),
           lbin(EwBin::Sub, limm(3), lsvar("t"))),
      lbin(EwBin::Mul, lmvar("x"),
           lower::lun(rt::EwUn::Sqrt, lbin(EwBin::Div, lsvar("s"), limm(4)))));
  driver::Kernel k = driver::compile_kernel(*t);
  std::vector<double> svals;  // one slot per scalar leaf, in leaf order
  for (const lower::LExpr* leaf : k.scalars) {
    svals.push_back(leaf->var == "s" ? 1.25 : -0.0);
  }
  ASSERT_EQ(svals.size(), 3u);
  for (size_t n : kBlockSizes) {
    expect_block_matches_postfix(k, special_columns(n), svals, n);
  }
  lower::LExprPtr scalar_only =
      lbin(EwBin::Pow, lbin(EwBin::Sub, lsvar("s"), limm(0.75)),
           lower::lun(rt::EwUn::Neg, lsvar("t")));
  driver::Kernel ks = driver::compile_kernel(*scalar_only);
  ASSERT_TRUE(ks.ok);
  ASSERT_TRUE(ks.mats.empty());
  for (double s : kSpecials) {
    double svals[2] = {s, 3.0};
    double got = 0.0;
    driver::KScratch scratch;
    ks.run(&got, nullptr, svals, scratch, 1);
    EXPECT_TRUE(same_bits(got, postfix_at(ks, nullptr, svals, 0)));
    EXPECT_TRUE(scratch.regs.empty());
  }
  lower::LExprPtr imm_only = lbin(EwBin::Div, limm(0), limm(0));
  driver::Kernel ki = driver::compile_kernel(*imm_only);
  double got = 0.0;
  driver::KScratch scratch;
  ki.run(&got, nullptr, nullptr, scratch, 1);
  EXPECT_TRUE(std::isnan(got));
  EXPECT_TRUE(scratch.regs.empty());
}

// A right-leaning tree deeper than 64 values: one block register per depth.
TEST(KernelBlock, DeepTreeBeyondSixtyFourRegisters) {
  const rt::EwBin kOps[] = {rt::EwBin::Add, rt::EwBin::Sub, rt::EwBin::Mul,
                            rt::EwBin::Max, rt::EwBin::Div};
  lower::LExprPtr t = lower::lmvar("z");
  for (int d = 0; d < 80; ++d) {
    t = lower::lbin(kOps[d % 5], lower::lmvar(d % 2 == 0 ? "x" : "y"),
                    std::move(t));
  }
  driver::Kernel k = driver::compile_kernel(*t);
  ASSERT_GT(k.max_stack, 64u);
  for (size_t n : kBlockSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_block_matches_postfix(k, special_columns(n), {}, n);
    expect_block_matches_postfix(k, special_columns(n), {}, n, 1);
  }
}

/// A fused element-wise script over `n` elements seeded with the IEEE
/// specials, printing every element at full precision.
std::string ieee_chain_script(size_t n) {
  std::string s = "n = " + std::to_string(n) +
                  ";\na = (1:n) * (4 / n) - 2;\nb = cos(a * 7) + 0.25;\n";
  const char* kSpecialLits[] = {"1 / 0", "-1 / 0", "0 / 0", "-0", "1e-310",
                                "-4e-320"};
  for (size_t i = 0; i < 6; ++i) {
    size_t at = 1 + i * 97;
    if (at > n) break;
    s += "a(" + std::to_string(at) + ") = " + kSpecialLits[i] + ";\n";
    s += "b(" + std::to_string(n + 1 - at) + ") = " + kSpecialLits[5 - i] +
         ";\n";
  }
  s += "c = (a .* b + 2.5) ./ (b - a) - sqrt(abs(a)) .* b;\n"
       "d = max(a, b) .^ 2 - mod(a, 0.75) + (a < b) .* min(a, -b);\n"
       "a = a .* b + exp(-a);\n"
       "fprintf('%.17g\\n', c);\nfprintf('%.17g\\n', d);\n"
       "fprintf('%.17g\\n', a);\n";
  return s;
}

// End to end: the interpreter, the VM and the tree executor print the same
// bits for fused chains over IEEE specials at every block edge, on one rank
// and on four (where each rank's Vm owns its own block scratch and short
// vectors leave some shares empty).
TEST(KernelBlock, ChainsMatchTheInterpreterAtEveryBlockEdge) {
  for (size_t n : {size_t{1}, size_t{511}, size_t{512}, size_t{513},
                   size_t{50000}}) {
    std::string src = ieee_chain_script(n);
    std::string want = driver::run_interpreter(src).output;
    auto c = compile(src);
    for (int np : {1, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " np=" + std::to_string(np));
      EXPECT_EQ(run_backend(c->lir, np, driver::ExecBackend::Vm).output, want);
      EXPECT_EQ(run_backend(c->lir, np, driver::ExecBackend::Tree).output,
                want);
    }
  }
}

// ---- checkpoint crash+resume on the VM tier ---------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "otter-vmckpt-XXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path = ::mkdtemp(buf.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Many top-level statements (each a checkpoint candidate) threading rand
/// state, communication, and in-place kernel updates — the state a VM-tier
/// checkpoint must capture bit-exactly.
std::string checkpointable_script() {
  std::ostringstream ss;
  ss << "A = rand(8, 8);\n"
        "b = rand(8, 1);\n"
        "x = zeros(8, 1);\n"
        "r = b;\n";
  for (int i = 0; i < 8; ++i) {
    ss << "q = A * r;\n"
          "alpha = sum(r .* r) / sum(r .* q);\n"
          "x = x + alpha .* r;\n"
          "r = r - alpha .* q;\n"
          "disp(sum(x));\n";
  }
  ss << "disp(sum(x .* x));\n";
  return ss.str();
}

// A VM-tier run that crashes mid-flight and resumes from a checkpoint must
// reproduce the fault-free VM output bitwise — and that output must itself
// match the tree tier.
TEST(VmCheckpoint, CrashResumeIsBitwiseIdentical) {
  constexpr int kNp = 2;
  auto c = compile(checkpointable_script());
  auto ref_tree = run_backend(c->lir, kNp, driver::ExecBackend::Tree);
  auto ref = run_backend(c->lir, kNp, driver::ExecBackend::Vm);
  ASSERT_EQ(ref.output, ref_tree.output);
  for (int crash_rank = 0; crash_rank < kNp; ++crash_rank) {
    uint64_t crash_op = ref.times.ops[static_cast<size_t>(crash_rank)] / 2;
    ASSERT_GT(crash_op, 0u);
    TempDir dir;
    driver::ExecOptions eo;
    eo.backend = driver::ExecBackend::Vm;
    eo.ckpt = {2, dir.path, false};
    eo.spmd.fault.crash_rank = crash_rank;
    eo.spmd.fault.crash_at_op = crash_op;
    driver::RetryOptions ropts;
    ropts.max_attempts = 3;
    auto rr = driver::run_with_retries(c->lir, mpi::profile_by_name("ideal"),
                                       kNp, eo, ropts);
    SCOPED_TRACE("crash_rank=" + std::to_string(crash_rank) + "@" +
                 std::to_string(crash_op));
    ASSERT_TRUE(rr.ok) << (rr.failures.empty() ? "" : rr.failures.back().what);
    EXPECT_TRUE(rr.run.resumed);
    EXPECT_GT(rr.run.resumed_statement, 0u);
    EXPECT_EQ(rr.run.output, ref.output);
  }
}

// A checkpoint written by the tree tier restores into the VM tier (and the
// other way around): the capture format is tier-independent.
TEST(VmCheckpoint, CheckpointsAreTierPortable) {
  constexpr int kNp = 2;
  auto c = compile(checkpointable_script());
  auto ref = run_backend(c->lir, kNp, driver::ExecBackend::Tree);
  for (auto [writer, reader] :
       {std::pair{driver::ExecBackend::Tree, driver::ExecBackend::Vm},
        std::pair{driver::ExecBackend::Vm, driver::ExecBackend::Tree}}) {
    TempDir dir;
    // Crash a run on the writer tier so generations exist.
    driver::ExecOptions eo;
    eo.backend = writer;
    eo.ckpt = {2, dir.path, false};
    eo.spmd.fault.crash_rank = 1;
    eo.spmd.fault.crash_at_op = ref.times.ops[1] / 2;
    EXPECT_THROW(driver::run_parallel(c->lir, mpi::profile_by_name("ideal"),
                                      kNp, eo),
                 mpi::SpmdFailure);
    // Resume on the other tier, fault-free.
    driver::ExecOptions resume_eo;
    resume_eo.backend = reader;
    resume_eo.ckpt = {2, dir.path, true};
    auto run = driver::run_parallel(c->lir, mpi::profile_by_name("ideal"),
                                    kNp, resume_eo);
    EXPECT_TRUE(run.resumed);
    EXPECT_EQ(run.output, ref.output);
  }
}

}  // namespace
}  // namespace otter
