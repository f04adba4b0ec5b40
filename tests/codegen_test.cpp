// Code-generation tests: emitted C must contain the paper's idioms, compile
// with the host compiler, and produce byte-identical output to both the
// interpreter and the direct executor.
#include <gtest/gtest.h>

#include "codegen/ccrun.hpp"
#include "codegen/emit.hpp"
#include "driver/pipeline.hpp"
#include "interp/value.hpp"

namespace otter::codegen {
namespace {

std::string emit_for(const std::string& src) {
  auto c = driver::compile_script(src);
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return emit_cpp(c->lir);
}

TEST(Emit, MatMulBecomesRuntimeCall) {
  std::string cpp = emit_for("a = rand(8, 8); b = rand(8, 8); c = a * b;");
  EXPECT_NE(cpp.find("rt::matmul(ctx.comm"), std::string::npos) << cpp;
}

TEST(Emit, ElementwiseBecomesLocalForLoop) {
  // The paper's §3 example: a = b * c + d(i,j) — matrix add becomes a local
  // loop over each processor's elements.
  std::string cpp = emit_for(
      "b = rand(6, 6); c = rand(6, 6); d = rand(6, 6); i = 2; j = 3;\n"
      "a = b * c + d(i, j);");
  EXPECT_NE(cpp.find("rt::matmul"), std::string::npos);
  EXPECT_NE(cpp.find("for (long ML_i"), std::string::npos);
  // The remote element read is a broadcast.
  EXPECT_NE(cpp.find("rt::get_element"), std::string::npos);
}

TEST(Emit, ElementWriteUsesGuardedStore) {
  std::string cpp = emit_for("a = zeros(4, 4); i = 2; j = 3;\n"
                             "a(i, j) = a(i, j) / 2;");
  EXPECT_NE(cpp.find("rt::set_element"), std::string::npos) << cpp;
}

TEST(Emit, DotProductFoldedByPeephole) {
  std::string cpp = emit_for("x = rand(16, 1); r = x' * x; disp(r);");
  EXPECT_NE(cpp.find("rt::dot(ctx.comm"), std::string::npos) << cpp;
  // No transpose left behind.
  EXPECT_EQ(cpp.find("rt::transpose"), std::string::npos) << cpp;
}

TEST(Emit, FunctionInstanceEmitted) {
  auto c = driver::compile_script(
      "y = sq(4); disp(y);", [](const std::string& n) -> std::optional<std::string> {
        if (n == "sq") return "function y = sq(x)\ny = x * x;\n";
        return std::nullopt;
      });
  ASSERT_TRUE(c->ok);
  std::string cpp = emit_cpp(c->lir);
  EXPECT_NE(cpp.find("void otter_fn_sq_si(Ctx& ctx"), std::string::npos) << cpp;
}

TEST(Emit, EntrySymbolConfigurable) {
  auto c = driver::compile_script("x = 1;");
  ASSERT_TRUE(c->ok);
  EmitOptions o;
  o.entry_symbol = "my_entry";
  std::string cpp = emit_cpp(c->lir, o);
  EXPECT_NE(cpp.find("void my_entry("), std::string::npos);
}

class CcE2e : public ::testing::TestWithParam<int> {};

/// What one engine did with a script: its output, or "error[CODE]" when it
/// failed with a coded diagnostic.
std::string interp_result(const std::string& src) {
  try {
    return driver::run_interpreter(src).output;
  } catch (const interp::InterpError& e) {
    return "error[" + e.code() + "]";
  }
}

/// The same for the VM, the tree executor and (when the host has a C++
/// compiler) generated C, at `np` ranks, in that order.
std::vector<std::string> compiled_results(const std::string& src, int np) {
  auto compiled = driver::compile_script(src);
  EXPECT_TRUE(compiled->ok) << compiled->diags.to_string();
  std::vector<std::string> results;
  auto capture = [&](const std::function<std::string()>& run) {
    try {
      results.push_back(run());
    } catch (const mpi::SpmdFailure& e) {
      results.push_back("error[" + e.first().code + "]");
    }
  };
  for (driver::ExecBackend backend :
       {driver::ExecBackend::Vm, driver::ExecBackend::Tree}) {
    driver::ExecOptions eo;
    eo.backend = backend;
    capture([&] {
      return driver::run_parallel(compiled->lir, mpi::ideal(8), np, eo).output;
    });
  }
  if (!CompiledProgram::toolchain_available()) return results;
  std::string error;
  auto program = CompiledProgram::build(compiled->lir, &error);
  EXPECT_TRUE(program.has_value()) << error;
  if (!program) return results;
  capture([&] {
    std::ostringstream out;
    mpi::run_spmd(mpi::ideal(8), np,
                  [&](mpi::Comm& comm) { program->run(comm, out, {}); });
    return out.str();
  });
  return results;
}

INSTANTIATE_TEST_SUITE_P(Ranks, CcE2e, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "P" + std::to_string(i.param);
                         });

/// Full authenticity path: generated C == interpreter == direct executor.
TEST_P(CcE2e, GeneratedCodeMatchesInterpreter) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  const std::string src = R"(n = 16;
a = rand(n, n);
b = rand(n, n);
c = a * b + 2 * eye(n, n);
fprintf('%.8f\n', sum(sum(c)));
x = rand(n, 1);
r = x' * x;
fprintf('%.8f\n', r);
s = 0;
for i = 1:10
  s = s + i * i;
end
fprintf('%g\n', s);)";

  driver::InterpRun expected = driver::run_interpreter(src);
  auto compiled = driver::compile_script(src);
  ASSERT_TRUE(compiled->ok) << compiled->diags.to_string();

  driver::ParallelRun direct =
      driver::run_parallel(compiled->lir, mpi::ideal(8), GetParam());
  EXPECT_EQ(direct.output, expected.output);

  std::string error;
  auto program = CompiledProgram::build(compiled->lir, &error);
  ASSERT_TRUE(program.has_value()) << error;
  std::ostringstream out;
  mpi::run_spmd(mpi::ideal(8), GetParam(), [&](mpi::Comm& comm) {
    program->run(comm, out, {});
  });
  EXPECT_EQ(out.str(), expected.output);
}

TEST_P(CcE2e, GeneratedControlFlowAndSlices) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  const std::string src = R"(v = 1:20;
w = v(3:12);
total = 0;
k = 1;
while k <= 5
  if mod(k, 2) == 0
    total = total + sum(w) * k;
  else
    total = total - k;
  end
  k = k + 1;
end
fprintf('%g\n', total);
m = zeros(3, 5);
m(2, :) = linspace(1, 2, 5);
disp(m);)";

  driver::InterpRun expected = driver::run_interpreter(src);
  auto compiled = driver::compile_script(src);
  ASSERT_TRUE(compiled->ok) << compiled->diags.to_string();
  std::string error;
  auto program = CompiledProgram::build(compiled->lir, &error);
  ASSERT_TRUE(program.has_value()) << error;
  std::ostringstream out;
  mpi::run_spmd(mpi::ideal(8), GetParam(), [&](mpi::Comm& comm) {
    program->run(comm, out, {});
  });
  EXPECT_EQ(out.str(), expected.output);
}

// 0 * Inf is NaN: a matmul whose A row is all zeros must still propagate an
// Inf or NaN of B into C, on every engine. A zero-skip in the kernel's
// inner loop used to turn c(1,1) into 0 on the VM and in generated C.
TEST_P(CcE2e, MatmulPropagatesIeeeSpecials) {
  const std::string src = R"(a = zeros(2, 2);
b = ones(2, 2);
b(1, 1) = 1 / 0;
b(2, 2) = 0 / 0;
c = a * b;
fprintf('%g %g %g %g\n', c(1,1) ~= c(1,1), c(1,2) ~= c(1,2), c(2,1) ~= c(2,1), c(2,2) ~= c(2,2));
fprintf('%.17g %.17g\n', c(1,1), c(2,2));)";

  const std::string want = interp_result(src);
  ASSERT_EQ(want.substr(0, 8), "1 1 1 1\n") << want;
  for (const std::string& r : compiled_results(src, GetParam())) {
    EXPECT_EQ(r, want);
  }
}

// A range with an Inf or NaN bound, as a value or as a loop header, fails
// with E5008 on every engine (it used to have 1 element, a bogus E5007
// extent, or 0 loop trips, depending on the engine).
TEST_P(CcE2e, NonFiniteRangeFailsWithOneCode) {
  for (const char* src : {"x = 1:(1/0);\ndisp(numel(x));",
                          "x = (0/0):2:3;\ndisp(numel(x));",
                          "s = 0;\nfor k = 1:(1/0)\n  s = s + 1;\n  if s > 3\n"
                          "    break;\n  end\nend\ndisp(s);"}) {
    SCOPED_TRACE(src);
    EXPECT_EQ(interp_result(src), "error[E5008]");
    for (const std::string& r : compiled_results(src, GetParam())) {
      EXPECT_EQ(r, "error[E5008]");
    }
  }
}

// %d and %i of NaN, Inf and -Inf print MATLAB's words in the field width
// (the cast to long long they went through is undefined and printed
// -9223372036854775808).
TEST_P(CcE2e, FprintfIntegerPrintsNonFiniteWords) {
  const std::string src =
      "fprintf('%d %i %d|%5d|%-5d|%d\\n', 0/0, 1/0, -1/0, 1/0, 0/0, 7);";
  const std::string want = "NaN Inf -Inf|  Inf|NaN  |7\n";
  EXPECT_EQ(interp_result(src), want);
  for (const std::string& r : compiled_results(src, GetParam())) {
    EXPECT_EQ(r, want);
  }
}

// A call that returns nothing, written without a semicolon, displays nothing
// more than the call prints. The interpreter used to add "ans =\n0".
TEST_P(CcE2e, DispWithoutSemicolonPrintsOnlyTheValue) {
  const std::string src =
      "c = 1;\ndisp(c)\nv = [1, 2];\ndisp(v)\nfprintf('%d\\n', 3)\n";
  const std::string want = interp_result(src);
  EXPECT_EQ(want, "1\n1 2\n3\n");
  for (const std::string& r : compiled_results(src, GetParam())) {
    EXPECT_EQ(r, want);
  }
}

}  // namespace
}  // namespace otter::codegen
