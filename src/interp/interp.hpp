// Tree-walking interpreter for the Otter MATLAB subset.
//
// Serves two roles in the reproduction:
//  1. Baseline: it stands in for The MathWorks interpreter in every figure
//     ("speedup over MATLAB" is measured against this).
//  2. Oracle: compiled backends must produce byte-identical printed output.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "frontend/ast.hpp"
#include "frontend/builtins.hpp"
#include "interp/ops.hpp"
#include "interp/value.hpp"

namespace otter::interp {

class Interp {
 public:
  /// `out` receives everything the script prints.
  Interp(const Program& prog, std::ostream& out);

  /// Executes the whole script. Throws InterpError on runtime errors.
  void run();

  /// Looks up a script-scope variable after run() (for tests).
  [[nodiscard]] const Value* lookup(const std::string& name) const;

  /// Reseeds `rand`.
  void seed_rng(uint64_t seed) { rng_.seed(seed); }

 private:
  /// One activation record: local variables plus the set of names the scope
  /// declared `global` (those resolve into the shared globals_ map).
  struct Env {
    std::unordered_map<std::string, Value> vars;
    std::vector<std::string> global_names;

    [[nodiscard]] bool is_global(const std::string& name) const {
      for (const std::string& g : global_names) {
        if (g == name) return true;
      }
      return false;
    }
  };

  enum class Flow { Normal, Break, Continue, Return };

  Value* find_var(const std::string& name, Env& env);
  void set_var(const std::string& name, Value v, Env& env);

  Flow exec_block(const std::vector<StmtPtr>& body, Env& env);
  Flow exec_stmt(const Stmt& s, Env& env);
  void exec_assign(const Stmt& s, Env& env);

  Value eval(const Expr& e, Env& env);
  Value eval_call(const Expr& e, Env& env);
  /// eval_call, but nullopt for a builtin that returns nothing (disp,
  /// fprintf): such a call neither displays nor sets `ans`.
  std::optional<Value> call_outputs(const Expr& e, Env& env);
  std::vector<Value> call_user(const Function& fn, std::vector<Value> args,
                               size_t nargout, SourceLoc loc);
  std::vector<Value> call_builtin(const BuiltinInfo& info,
                                  std::vector<Value> args, size_t nargout,
                                  SourceLoc loc);

  /// Evaluates index arguments of a(…) against base's shape (handles ':'
  /// and 'end').
  std::vector<IndexSpec> eval_indices(const std::vector<ExprPtr>& args,
                                      const Value& base, Env& env);

  void display(const std::string& name, const Value& v);
  void do_fprintf(const std::vector<Value>& args, SourceLoc loc);

  const Program& prog_;
  std::ostream& out_;
  Env script_env_;
  std::unordered_map<std::string, Value> globals_;
  Lcg rng_;
  int call_depth_ = 0;
};

/// Convenience for tests: parse + run `script`, return captured output.
std::string run_script(const std::string& script);

}  // namespace otter::interp
