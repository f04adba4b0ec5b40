// Static-analysis tests: the dataflow framework, every otterlint W-code
// (positive and negative cases), the seeded-defect lint corpus, the
// benchmark scripts' lint expectations, the LIR verifier's E6xxx checks on
// deliberately broken hand-built programs, and the liveness-driven
// dead-statement elimination that ends the optimizer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "analysis/verify.hpp"
#include "driver/pipeline.hpp"
#include "lower/lir.hpp"

namespace otter::analysis {
namespace {

namespace fs = std::filesystem;

// -- helpers ------------------------------------------------------------------

struct LintRun {
  std::unique_ptr<driver::CompileResult> compiled;
  std::vector<Diagnostic> findings;
  size_t count = 0;
  std::string json;
};

/// Compiles `src` (-O0, so the lint sees every statement) and runs the
/// linter plus the abstract-interpretation findings (what otterlint does),
/// collecting everything in a fresh engine.
LintRun lint_src(const std::string& src,
                 const sema::MFileLoader& loader = {}) {
  LintRun r;
  driver::CompileOptions copts;
  copts.opt.level = 0;  // lint the raw LIR: every finding stays visible
  copts.analyze = true;
  r.compiled = driver::compile_script(src, loader, copts);
  EXPECT_TRUE(r.compiled->ok) << r.compiled->diags.to_string();
  if (!r.compiled->ok) return r;
  DiagEngine lint_diags(&r.compiled->sm);
  r.count = run_lint(r.compiled->prog, r.compiled->inf, r.compiled->lir,
                     lint_diags);
  r.count += report_absint(r.compiled->absint, lint_diags);
  r.findings = lint_diags.diagnostics();
  r.json = lint_diags.to_json();
  return r;
}

LintRun lint_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return lint_src(ss.str(), driver::dir_loader(path.parent_path().string()));
}

bool has_finding(const LintRun& r, const std::string& code,
                 uint32_t line = 0) {
  for (const Diagnostic& d : r.findings) {
    if (d.code != code) continue;
    if (line != 0 && d.loc.line != line) continue;
    return true;
  }
  return false;
}

std::string findings_str(const LintRun& r) {
  std::string s;
  for (const Diagnostic& d : r.findings) {
    s += d.code + " at line " + std::to_string(d.loc.line) + ": " +
         d.message + "\n";
  }
  return s.empty() ? "(no findings)" : s;
}

/// Runs the verifier over a hand-built program with a fresh engine.
struct VerifyRun {
  size_t count = 0;
  std::vector<Diagnostic> diags;
};

VerifyRun verify(const lower::LProgram& p) {
  VerifyRun r;
  DiagEngine diags;
  r.count = verify_lir(p, diags);
  r.diags = diags.diagnostics();
  return r;
}

bool has_code(const VerifyRun& r, const std::string& code) {
  for (const Diagnostic& d : r.diags) {
    if (d.code == code) return true;
  }
  return false;
}

std::string codes_str(const VerifyRun& r) {
  std::string s;
  for (const Diagnostic& d : r.diags) s += d.code + ": " + d.message + "\n";
  return s.empty() ? "(clean)" : s;
}

// -- dataflow framework primitives -------------------------------------------

TEST(Dataflow, BitVecOps) {
  BitVec a(130);
  BitVec b(130);
  a.set(0);
  a.set(64);
  a.set(129);
  b.set(64);
  b.set(100);
  EXPECT_TRUE(a.test(129));
  EXPECT_FALSE(a.test(100));
  EXPECT_TRUE(a.or_with(b));   // gains bit 100
  EXPECT_FALSE(a.or_with(b));  // no change the second time
  EXPECT_TRUE(a.test(100));
  a.subtract(b);
  EXPECT_FALSE(a.test(64));
  EXPECT_FALSE(a.test(100));
  EXPECT_TRUE(a.test(0));
  EXPECT_TRUE(a.test(129));
}

TEST(Dataflow, VarTableInterning) {
  VarTable t;
  EXPECT_EQ(t.intern("a"), 0);
  EXPECT_EQ(t.intern("b"), 1);
  EXPECT_EQ(t.intern("a"), 0);
  EXPECT_EQ(t.id("b"), 1);
  EXPECT_EQ(t.id("missing"), -1);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Dataflow, ReachingDefsSeeSyntheticEntrySites) {
  // Every variable gets a synthetic "undefined on entry" site; a variable
  // defined on only one branch keeps that site reachable at the join.
  auto r = lint_src("c = 1;\nif c\n  y = 2;\nend\nz = c;\n");
  const sema::ScopeSsa& ssa = r.compiled->inf.script_ssa;
  ScopeFacts f = collect_facts(ssa.cfg);
  ReachingDefs rd = compute_reaching(f);
  int y = f.vars.id("y");
  ASSERT_GE(y, 0);
  // y has its entry site plus exactly one real definition.
  EXPECT_EQ(rd.sites_per_var[static_cast<size_t>(y)].size(), 2u);
  UseDef ud = compute_use_def(f, rd);
  // The use of c in `z = c` is reached only by the real def `c = 1`.
  bool checked = false;
  for (const UseDef::Use& u : ud.uses) {
    if (u.var != f.vars.id("c") || u.loc.line != 5) continue;
    checked = true;
    ASSERT_EQ(u.sites.size(), 1u);
    EXPECT_NE(u.sites[0], rd.entry_site[static_cast<size_t>(u.var)]);
  }
  EXPECT_TRUE(checked);
}

TEST(Dataflow, LivenessRespectsExitSet) {
  auto r = lint_src("a = 1;\nb = a + 1;\ndisp(b);\n");
  const sema::ScopeSsa& ssa = r.compiled->inf.script_ssa;
  ScopeFacts f = collect_facts(ssa.cfg);
  // Nothing live at exit: after `disp(b)` both variables are dead, but `a`
  // is live between its definition and the use in `b = a + 1`.
  BitVec none(f.vars.size());
  Liveness lv = compute_liveness(f, none);
  int entry = ssa.cfg.entry;
  int a = f.vars.id("a");
  ASSERT_GE(a, 0);
  // a is not live into the entry block (it is defined there before use).
  EXPECT_FALSE(lv.live_in[static_cast<size_t>(entry)].test(
      static_cast<size_t>(a)));
}

// -- W3201: use before def ----------------------------------------------------

TEST(Lint, UseBeforeDefOnSomePath) {
  auto r = lint_src("x = 4;\nif x > 2\n  y = 1;\nend\ndisp(y);\n");
  EXPECT_TRUE(has_finding(r, "W3201", 5)) << findings_str(r);
  for (const Diagnostic& d : r.findings) {
    if (d.code == "W3201") {
      EXPECT_NE(d.message.find("some control-flow path"), std::string::npos);
    }
  }
}

TEST(Lint, UseBeforeDefNegativeBothArms) {
  auto r = lint_src(
      "x = 4;\nif x > 2\n  y = 1;\nelse\n  y = 2;\nend\ndisp(y);\n");
  EXPECT_FALSE(has_finding(r, "W3201")) << findings_str(r);
}

TEST(Lint, UseBeforeDefNegativeStraightLine) {
  auto r = lint_src("y = 1;\ndisp(y);\n");
  EXPECT_FALSE(has_finding(r, "W3201")) << findings_str(r);
}

TEST(Lint, FunctionParamsNeverFlagged) {
  auto loader = [](const std::string& name) -> std::optional<std::string> {
    if (name == "f") return "function y = f(a, b)\ny = a + b;\nend\n";
    return std::nullopt;
  };
  auto r = lint_src("disp(f(1, 2));\n", loader);
  EXPECT_FALSE(has_finding(r, "W3201")) << findings_str(r);
}

// -- W3202: dead store --------------------------------------------------------

TEST(Lint, DeadStoreOverwrittenBeforeRead) {
  auto r = lint_src("x = 3;\nx = 4;\ndisp(x);\n");
  EXPECT_TRUE(has_finding(r, "W3202", 1)) << findings_str(r);
}

TEST(Lint, DeadStoreNegativeReadBetween) {
  auto r = lint_src("x = 3;\ndisp(x);\nx = 4;\ndisp(x);\n");
  EXPECT_FALSE(has_finding(r, "W3202")) << findings_str(r);
}

TEST(Lint, DeadStoreNegativeIndexedWriteIsPartial) {
  // m(1) = 9 modifies m in place — the earlier fill is not a dead store.
  auto r = lint_src("m = zeros(1, 4);\nm(1) = 9;\ndisp(m(1));\n");
  EXPECT_FALSE(has_finding(r, "W3202")) << findings_str(r);
}

// -- W3203: unused variable ---------------------------------------------------

TEST(Lint, UnusedVariable) {
  auto r = lint_src("a = ones(4, 4);\nwaste = a + a;\ndisp(a(1, 1));\n");
  EXPECT_TRUE(has_finding(r, "W3203", 2)) << findings_str(r);
}

TEST(Lint, UnusedNegativeLoopVarAndUsedVars) {
  auto r = lint_src("s = 0;\nfor k = 1:3\n  s = s + 1;\nend\ndisp(s);\n");
  EXPECT_FALSE(has_finding(r, "W3203")) << findings_str(r);
}

TEST(Lint, UnusedNegativeFunctionOutputs) {
  auto loader = [](const std::string& name) -> std::optional<std::string> {
    if (name == "g") return "function y = g(a)\ny = a * 2;\nend\n";
    return std::nullopt;
  };
  auto r = lint_src("disp(g(3));\n", loader);
  EXPECT_FALSE(has_finding(r, "W3203")) << findings_str(r);
}

TEST(Lint, UnusedFlaggedInsideFunction) {
  auto loader = [](const std::string& name) -> std::optional<std::string> {
    if (name == "h") {
      return "function y = h(a)\njunk = a + 1;\ny = a * 2;\nend\n";
    }
    return std::nullopt;
  };
  auto r = lint_src("disp(h(3));\n", loader);
  EXPECT_TRUE(has_finding(r, "W3203", 2)) << findings_str(r);
}

// -- W3204: unreachable code --------------------------------------------------

TEST(Lint, UnreachableAfterBreak) {
  auto r = lint_src("for k = 1:10\n  break;\n  disp(42);\nend\ndisp(1);\n");
  EXPECT_TRUE(has_finding(r, "W3204", 3)) << findings_str(r);
}

TEST(Lint, UnreachableReportedOncePerRegion) {
  auto r =
      lint_src("for k = 1:10\n  break;\n  disp(1);\n  disp(2);\nend\n");
  size_t n = 0;
  for (const Diagnostic& d : r.findings) {
    if (d.code == "W3204") ++n;
  }
  EXPECT_EQ(n, 1u) << findings_str(r);
}

TEST(Lint, UnreachableNegative) {
  auto r = lint_src("for k = 1:3\n  disp(k);\nend\n");
  EXPECT_FALSE(has_finding(r, "W3204")) << findings_str(r);
}

// -- W3205: constant branch condition -----------------------------------------

TEST(Lint, ConstantBranchTrueAndFalse) {
  auto r = lint_src("n = 3;\nif n\n  disp(n);\nend\nif n - 3\n  disp(0);\nend\n");
  EXPECT_TRUE(has_finding(r, "W3205", 2)) << findings_str(r);
  EXPECT_TRUE(has_finding(r, "W3205", 5)) << findings_str(r);
}

TEST(Lint, ConstantBranchNegativeDataDependent) {
  auto r = lint_src("x = rand();\nif x > 0.5\n  disp(1);\nend\ndisp(2);\n");
  EXPECT_FALSE(has_finding(r, "W3205")) << findings_str(r);
}

TEST(Lint, ConstantWhileTrueIsIdiomNotFlagged) {
  // `while 1 ... break` is the scripting idiom for loop-and-a-half.
  auto r = lint_src("k = 0;\nwhile 1\n  k = k + 1;\n  break;\nend\ndisp(k);\n");
  EXPECT_FALSE(has_finding(r, "W3205")) << findings_str(r);
}

// -- W3206: shadowed builtin --------------------------------------------------

TEST(Lint, ShadowedBuiltin) {
  auto r = lint_src("sum = 5;\ndisp(sum);\n");
  EXPECT_TRUE(has_finding(r, "W3206", 1)) << findings_str(r);
}

TEST(Lint, ShadowedBuiltinNegative) {
  auto r = lint_src("total = 5;\ndisp(total);\n");
  EXPECT_FALSE(has_finding(r, "W3206")) << findings_str(r);
}

// -- W3207: loop-invariant communication --------------------------------------

TEST(Lint, LoopInvariantReduction) {
  auto r = lint_src(
      "m = ones(64, 1);\nacc = 0;\nfor k = 1:10\n  t = sum(m);\n"
      "  acc = acc + t * k;\nend\ndisp(acc);\n");
  EXPECT_TRUE(has_finding(r, "W3207", 4)) << findings_str(r);
  for (const Diagnostic& d : r.findings) {
    if (d.code == "W3207") {
      EXPECT_NE(d.message.find("allreduce"), std::string::npos) << d.message;
      EXPECT_NE(d.message.find("per iteration"), std::string::npos)
          << d.message;
    }
  }
}

TEST(Lint, LoopVariantReductionNotFlagged) {
  auto r = lint_src(
      "v = ones(32, 1);\nacc = 0;\nfor k = 1:4\n  v = v * 2;\n"
      "  acc = acc + sum(v);\nend\ndisp(acc);\n");
  EXPECT_FALSE(has_finding(r, "W3207")) << findings_str(r);
}

TEST(Lint, IndexDependentBroadcastNotFlagged) {
  // a(k) depends on the loop variable — not hoistable.
  auto r = lint_src(
      "a = ones(8, 1);\ns = 0;\nfor k = 1:8\n  s = s + a(k);\nend\n"
      "disp(s);\n");
  EXPECT_FALSE(has_finding(r, "W3207")) << findings_str(r);
}

TEST(Lint, CommunicationOutsideLoopNotFlagged) {
  auto r = lint_src("m = ones(16, 16);\ns = sum(sum(m));\ndisp(s);\n");
  EXPECT_FALSE(has_finding(r, "W3207")) << findings_str(r);
}

// -- linter surface -----------------------------------------------------------

TEST(Lint, JsonCarriesCodeFileAndLine) {
  auto r = lint_src("x = 3;\nx = 4;\ndisp(x);\n");
  ASSERT_TRUE(has_finding(r, "W3202"));
  EXPECT_NE(r.json.find("\"code\": \"W3202\""), std::string::npos) << r.json;
  EXPECT_NE(r.json.find("\"line\": 1"), std::string::npos) << r.json;
  EXPECT_NE(r.json.find("\"severity\": \"warning\""), std::string::npos)
      << r.json;
}

TEST(Lint, WerrorPromotesFindingsToErrors) {
  driver::CompileOptions copts;
  copts.opt.level = 0;
  auto c = driver::compile_script("x = 3;\nx = 4;\ndisp(x);\n", {}, copts);
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  DiagEngine diags(&c->sm);
  LintOptions opts;
  opts.werror = true;
  size_t n = run_lint(c->prog, c->inf, c->lir, diags, opts);
  EXPECT_GE(n, 1u);
  EXPECT_TRUE(diags.has_errors());
  ASSERT_FALSE(diags.diagnostics().empty());
  EXPECT_EQ(diags.diagnostics()[0].severity, DiagSeverity::Error);
  EXPECT_EQ(diags.diagnostics()[0].code, "W3202");
}

TEST(Lint, CleanScriptHasNoFindings) {
  auto r = lint_src(
      "a = ones(4, 4);\nb = a * a;\ns = sum(sum(b));\ndisp(s);\n");
  EXPECT_EQ(r.count, 0u) << findings_str(r);
}

// -- seeded lint corpus -------------------------------------------------------

struct CorpusCase {
  const char* file;
  std::vector<std::pair<const char*, uint32_t>> expect;  // code, line
};

TEST(LintCorpus, SeededDefectsFlaggedAtSeededLines) {
  const std::vector<CorpusCase> cases = {
      {"use_before_def.m", {{"W3201", 7}}},
      {"dead_store.m", {{"W3202", 3}}},
      {"unused_var.m", {{"W3203", 4}}},
      {"unreachable.m", {{"W3204", 5}}},
      {"constant_branch.m", {{"W3205", 4}, {"W3205", 7}}},
      {"shadowed_builtin.m", {{"W3206", 3}}},
      {"loop_invariant_comm.m", {{"W3207", 7}}},
      {"oob_index.m", {{"W3208", 4}, {"W3208", 5}}},
      {"zero_trip.m", {{"W3209", 5}}},
      {"divergent_collective.m", {{"W3210", 7}, {"W3210", 8}}},
      {"clean.m", {}},
  };
  const fs::path dir = OTTER_LINT_CORPUS_DIR;
  for (const CorpusCase& c : cases) {
    SCOPED_TRACE(c.file);
    auto r = lint_file(dir / c.file);
    EXPECT_EQ(r.count, c.expect.size()) << findings_str(r);
    for (const auto& [code, line] : c.expect) {
      EXPECT_TRUE(has_finding(r, code, line))
          << "missing " << code << " at line " << line << "\n"
          << findings_str(r);
    }
  }
}

TEST(LintCorpus, EveryWCodeIsSeededSomewhere) {
  // The corpus must stay representative: every published W-code has at
  // least one seeded positive case.
  const fs::path dir = OTTER_LINT_CORPUS_DIR;
  std::set<std::string> seen;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".m") continue;
    auto r = lint_file(e.path());
    for (const Diagnostic& d : r.findings) seen.insert(d.code);
  }
  for (const char* code : {"W3201", "W3202", "W3203", "W3204", "W3205",
                           "W3206", "W3207", "W3208", "W3209", "W3210"}) {
    EXPECT_TRUE(seen.contains(code)) << code << " never fires in the corpus";
  }
}

// -- benchmark scripts and fuzz corpus ----------------------------------------

TEST(LintCorpus, BenchmarkScriptExpectations) {
  const fs::path dir = OTTER_SCRIPTS_DIR;
  // cg and transclos lint clean; nbody recomputes an invariant reduction
  // inside its outer loop; ocean never reads its eta field back.
  EXPECT_EQ(lint_file(dir / "cg.m").count, 0u);
  EXPECT_EQ(lint_file(dir / "transclos.m").count, 0u);
  auto nbody = lint_file(dir / "nbody.m");
  EXPECT_TRUE(has_finding(nbody, "W3207", 19)) << findings_str(nbody);
  auto ocean = lint_file(dir / "ocean.m");
  EXPECT_TRUE(has_finding(ocean, "W3203", 12)) << findings_str(ocean);
}

TEST(LintCorpus, FuzzCorpusValidScriptsMostlyClean) {
  const fs::path dir = fs::path(OTTER_FUZZ_CORPUS_DIR) / "valid";
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".m") continue;
    SCOPED_TRACE(e.path().filename().string());
    auto r = lint_file(e.path());
    if (e.path().filename() == "vectors.m") {
      EXPECT_TRUE(has_finding(r, "W3203", 3)) << findings_str(r);
      EXPECT_EQ(r.count, 1u) << findings_str(r);
    } else {
      EXPECT_EQ(r.count, 0u) << findings_str(r);
    }
  }
}

// -- LIR verifier -------------------------------------------------------------

using lower::LInstr;
using lower::LOp;
using lower::LOperand;
using lower::LProgram;

LOperand mat_op(const std::string& name) {
  LOperand o;
  o.is_matrix = true;
  o.mat = name;
  return o;
}

LOperand scalar_op(lower::LExprPtr e) {
  LOperand o;
  o.scalar = std::move(e);
  return o;
}

/// a, b, c matrices and s scalar, pre-declared.
LProgram base_program() {
  LProgram p;
  p.script_vars = {{"a", true}, {"b", true}, {"c", true}, {"s", false}};
  return p;
}

lower::LInstrPtr make_matmul(const std::string& dst, const std::string& a,
                             const std::string& b) {
  auto in = std::make_unique<LInstr>(LOp::MatMul, SourceLoc{1, 3, 1});
  in->dst = dst;
  in->args.push_back(mat_op(a));
  in->args.push_back(mat_op(b));
  return in;
}

TEST(VerifyLir, CleanProgramAccepted) {
  LProgram p = base_program();
  p.script.push_back(make_matmul("c", "a", "b"));
  auto red = std::make_unique<LInstr>(LOp::Reduce, SourceLoc{1, 4, 1});
  red->sdst = "s";
  red->args.push_back(mat_op("c"));
  p.script.push_back(std::move(red));
  auto r = verify(p);
  EXPECT_EQ(r.count, 0u) << codes_str(r);
}

TEST(VerifyLir, E6001UndeclaredVariable) {
  LProgram p = base_program();
  p.script.push_back(make_matmul("c", "a", "ghost"));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6001")) << codes_str(r);
  // The diagnostic carries the instruction's source location.
  ASSERT_FALSE(r.diags.empty());
  EXPECT_EQ(r.diags[0].loc.line, 3u);
}

TEST(VerifyLir, E6002TempUsedBeforeDef) {
  LProgram p = base_program();
  p.script_vars.push_back({"ML_tmp1", true});
  p.script.push_back(make_matmul("c", "a", "ML_tmp1"));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6002")) << codes_str(r);
}

TEST(VerifyLir, TempDefinedOnBothArmsEscapesTheIf) {
  LProgram p = base_program();
  p.script_vars.push_back({"ML_tmp1", true});
  auto iff = std::make_unique<LInstr>(LOp::IfOp, SourceLoc{1, 2, 1});
  lower::LIfArm then_arm;
  then_arm.cond = lower::limm(1);
  then_arm.body.push_back(make_matmul("ML_tmp1", "a", "b"));
  lower::LIfArm else_arm;  // cond null: else
  else_arm.body.push_back(make_matmul("ML_tmp1", "b", "a"));
  iff->arms.push_back(std::move(then_arm));
  iff->arms.push_back(std::move(else_arm));
  p.script.push_back(std::move(iff));
  p.script.push_back(make_matmul("c", "a", "ML_tmp1"));
  auto r = verify(p);
  EXPECT_EQ(r.count, 0u) << codes_str(r);
}

TEST(VerifyLir, TempDefinedOnOneArmDoesNotEscape) {
  LProgram p = base_program();
  p.script_vars.push_back({"ML_tmp1", true});
  auto iff = std::make_unique<LInstr>(LOp::IfOp, SourceLoc{1, 2, 1});
  lower::LIfArm then_arm;
  then_arm.cond = lower::limm(1);
  then_arm.body.push_back(make_matmul("ML_tmp1", "a", "b"));
  iff->arms.push_back(std::move(then_arm));
  p.script.push_back(std::move(iff));
  p.script.push_back(make_matmul("c", "a", "ML_tmp1"));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6002")) << codes_str(r);
}

TEST(VerifyLir, E6003WrongArity) {
  LProgram p = base_program();
  auto in = std::make_unique<LInstr>(LOp::MatMul, SourceLoc{1, 3, 1});
  in->dst = "c";
  in->args.push_back(mat_op("a"));  // needs two operands
  p.script.push_back(std::move(in));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6003")) << codes_str(r);
}

TEST(VerifyLir, E6004KindMismatch) {
  LProgram p = base_program();
  auto in = std::make_unique<LInstr>(LOp::MatMul, SourceLoc{1, 3, 1});
  in->dst = "c";
  in->args.push_back(mat_op("a"));
  in->args.push_back(scalar_op(lower::limm(2)));  // matrix slot
  p.script.push_back(std::move(in));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6004")) << codes_str(r);
}

TEST(VerifyLir, E6004MatrixLeafInScalarTree) {
  LProgram p = base_program();
  auto in = std::make_unique<LInstr>(LOp::ScalarAssign, SourceLoc{1, 3, 1});
  in->sdst = "s";
  in->tree = lower::lmvar("a");  // matrix leaf in a replicated scalar tree
  p.script.push_back(std::move(in));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6004")) << codes_str(r);
}

TEST(VerifyLir, E6005BreakOutsideLoop) {
  LProgram p = base_program();
  p.script.push_back(std::make_unique<LInstr>(LOp::BreakOp, SourceLoc{1, 3, 1}));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6005")) << codes_str(r);
}

TEST(VerifyLir, E6005ElseNotLast) {
  LProgram p = base_program();
  auto iff = std::make_unique<LInstr>(LOp::IfOp, SourceLoc{1, 2, 1});
  lower::LIfArm else_arm;  // null cond first
  lower::LIfArm then_arm;
  then_arm.cond = lower::limm(1);
  iff->arms.push_back(std::move(else_arm));
  iff->arms.push_back(std::move(then_arm));
  p.script.push_back(std::move(iff));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6005")) << codes_str(r);
}

TEST(VerifyLir, E6006UnknownCallee) {
  LProgram p = base_program();
  auto call = std::make_unique<LInstr>(LOp::CallFn, SourceLoc{1, 3, 1});
  call->callee = "no_such_fn__d";
  p.script.push_back(std::move(call));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6006")) << codes_str(r);
}

TEST(VerifyLir, E6006ArgCountMismatch) {
  LProgram p = base_program();
  lower::LFunction fn;
  fn.mangled = "f__d";
  fn.source_name = "f";
  fn.params = {{"x", false}};
  fn.outs = {{"y", false}};
  auto ret = std::make_unique<LInstr>(LOp::ScalarAssign, SourceLoc{1, 2, 1});
  ret->sdst = "y";
  ret->tree = lower::lsvar("x");
  fn.body.push_back(std::move(ret));
  p.functions.push_back(std::move(fn));
  auto call = std::make_unique<LInstr>(LOp::CallFn, SourceLoc{1, 3, 1});
  call->callee = "f__d";
  call->args.push_back(scalar_op(lower::limm(1)));
  call->args.push_back(scalar_op(lower::limm(2)));  // one too many
  call->call_dsts = {{"s", false}};
  p.script.push_back(std::move(call));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6006")) << codes_str(r);
}

TEST(VerifyLir, E6007GuardedWriteIntoScalar) {
  LProgram p = base_program();
  auto in = std::make_unique<LInstr>(LOp::SetElem, SourceLoc{1, 3, 1});
  in->dst = "s";  // declared scalar — a guarded store needs a matrix
  in->linear = true;
  in->args.push_back(scalar_op(lower::limm(1)));
  in->args.push_back(scalar_op(lower::limm(9)));
  p.script.push_back(std::move(in));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6007")) << codes_str(r);
}

TEST(VerifyLir, E6008MissingTree) {
  LProgram p = base_program();
  auto in = std::make_unique<LInstr>(LOp::Elemwise, SourceLoc{1, 3, 1});
  in->dst = "c";
  // tree left null
  p.script.push_back(std::move(in));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6008")) << codes_str(r);
}

TEST(VerifyLir, E6008RaggedLiteral) {
  LProgram p = base_program();
  auto in = std::make_unique<LInstr>(LOp::FromLiteral, SourceLoc{1, 3, 1});
  in->dst = "c";
  std::vector<lower::LExprPtr> r0;
  r0.push_back(lower::limm(1));
  r0.push_back(lower::limm(2));
  std::vector<lower::LExprPtr> r1;
  r1.push_back(lower::limm(3));
  in->literal_rows.push_back(std::move(r0));
  in->literal_rows.push_back(std::move(r1));
  p.script.push_back(std::move(in));
  auto r = verify(p);
  EXPECT_TRUE(has_code(r, "E6008")) << codes_str(r);
}

TEST(VerifyLir, VerifierAcceptsEveryCompiledBenchmark) {
  const fs::path dir = OTTER_SCRIPTS_DIR;
  for (const char* name : {"cg.m", "nbody.m", "ocean.m", "transclos.m"}) {
    SCOPED_TRACE(name);
    std::ifstream in(dir / name);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    auto c = driver::compile_script(ss.str(), driver::dir_loader(dir.string()));
    ASSERT_TRUE(c->ok) << c->diags.to_string();
    DiagEngine diags(&c->sm);
    EXPECT_EQ(verify_lir(c->lir, diags), 0u) << diags.to_string();
  }
}

// -- dead-statement elimination -----------------------------------------------

std::string lir_dump(const std::string& src, bool dse) {
  driver::CompileOptions copts;
  copts.opt.level = dse ? 1 : 0;  // -O1: copy propagation and DSE only
  auto c = driver::compile_script(src, {}, copts);
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return lower::dump_lir(c->lir);
}

TEST(Dse, RemovesDeadCommunication) {
  const std::string src =
      "a = ones(4, 4);\nb = ones(4, 4);\ndead = a * b;\nc = a + b;\n"
      "disp(c(1, 1));\n";
  EXPECT_NE(lir_dump(src, false).find("ML_matrix_multiply"),
            std::string::npos);
  EXPECT_EQ(lir_dump(src, true).find("ML_matrix_multiply"),
            std::string::npos);
}

TEST(Dse, ReturnsRemovedCount) {
  driver::CompileOptions copts;
  copts.opt.level = 1;
  auto c = driver::compile_script(
      "a = ones(4, 4);\nb = ones(4, 4);\ndead = a * b;\nc = a + b;\n"
      "disp(c(1, 1));\n",
      {}, copts);
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  EXPECT_GE(c->opt_report.swept, 1u);
  // A second run finds nothing: the pass already repeats to a fixpoint.
  EXPECT_EQ(lower::run_opt(c->lir, copts.opt).swept, 0u);
}

TEST(Dse, KeepsRandFillsForStreamPosition) {
  // Every rank draws from one shared ML_rand stream; eliminating a dead
  // rand fill would shift every later draw.
  const std::string src =
      "x = rand(4, 4);\ny = rand(4, 4);\ndisp(y(1, 1));\n";
  std::string with = lir_dump(src, true);
  EXPECT_EQ(with.find("ML_matrix_multiply"), std::string::npos);
  // Both rand fills survive even though x is never read.
  size_t first = with.find("ML_rand(");
  ASSERT_NE(first, std::string::npos) << with;
  EXPECT_NE(with.find("ML_rand(", first + 1), std::string::npos) << with;
}

TEST(Dse, KeepsValuesLiveAcrossLoopIterations) {
  const std::string src =
      "s = 0;\nfor k = 1:3\n  s = s + k;\nend\ndisp(s);\n";
  std::string with = lir_dump(src, true);
  EXPECT_NE(with.find("s = 0"), std::string::npos) << with;
}

TEST(Dse, KeepsReadModifyWrites) {
  // The guarded element write mutates m in place; even though only one
  // element is read back, the whole chain must survive.
  const std::string src =
      "m = zeros(1, 4);\nm(2) = 7;\ndisp(m(2));\n";
  std::string with = lir_dump(src, true);
  EXPECT_NE(with.find("ML_set_element_guarded"), std::string::npos) << with;
}

TEST(Dse, DifferentialOutputUnchanged) {
  // The canonical use: the same program with and without DSE must print
  // the same thing (exercised at scale by otterfuzz's -O0 vs -O2 legs).
  const std::string src =
      "a = ones(3, 3);\nwaste = a * a;\nt = sum(sum(a));\ndisp(t);\n";
  std::string without = lir_dump(src, false);
  std::string with = lir_dump(src, true);
  EXPECT_NE(without, with);  // something was actually removed
  EXPECT_EQ(with.find("waste"), std::string::npos) << with;
}

}  // namespace
}  // namespace otter::analysis
