// Code-generation tests: emitted C must contain the paper's idioms, compile
// with the host compiler, and produce byte-identical output to both the
// interpreter and the direct executor.
#include <gtest/gtest.h>

#include "codegen/ccrun.hpp"
#include "codegen/emit.hpp"
#include "driver/pipeline.hpp"

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

  driver::InterpRun expected = driver::run_interpreter(src);
  ASSERT_EQ(expected.output.substr(0, 8), "1 1 1 1\n") << expected.output;
  auto compiled = driver::compile_script(src);
  ASSERT_TRUE(compiled->ok) << compiled->diags.to_string();
  for (driver::ExecBackend backend :
       {driver::ExecBackend::Vm, driver::ExecBackend::Tree}) {
    driver::ExecOptions eo;
    eo.backend = backend;
    driver::ParallelRun run =
        driver::run_parallel(compiled->lir, mpi::ideal(8), GetParam(), eo);
    EXPECT_EQ(run.output, expected.output);
  }
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  std::string error;
  auto program = CompiledProgram::build(compiled->lir, &error);
  ASSERT_TRUE(program.has_value()) << error;
  std::ostringstream out;
  mpi::run_spmd(mpi::ideal(8), GetParam(), [&](mpi::Comm& comm) {
    program->run(comm, out, {});
  });
  EXPECT_EQ(out.str(), expected.output);
}

}  // namespace
}  // namespace otter::codegen
