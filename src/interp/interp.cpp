#include "interp/interp.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "frontend/parser.hpp"

namespace otter::interp {

Interp::Interp(const Program& prog, std::ostream& out)
    : prog_(prog), out_(out) {}

void Interp::run() {
  try {
    Flow f = exec_block(prog_.script, script_env_);
    (void)f;  // Return at script level just stops execution.
  } catch (const std::bad_alloc& e) {
    // Governor budget denial (gov::BudgetExceeded) or true host exhaustion:
    // surface the coded diagnostic instead of an unlocated bad_alloc.
    throw InterpError(SourceLoc{}, e.what(), "E5006");
  }
}

const Value* Interp::lookup(const std::string& name) const {
  auto it = script_env_.vars.find(name);
  return it == script_env_.vars.end() ? nullptr : &it->second;
}

Value* Interp::find_var(const std::string& name, Env& env) {
  if (env.is_global(name)) {
    auto it = globals_.find(name);
    return it == globals_.end() ? nullptr : &it->second;
  }
  auto it = env.vars.find(name);
  return it == env.vars.end() ? nullptr : &it->second;
}

void Interp::set_var(const std::string& name, Value v, Env& env) {
  if (env.is_global(name)) {
    globals_[name] = std::move(v);
  } else {
    env.vars[name] = std::move(v);
  }
}

// -- statements ---------------------------------------------------------------

Interp::Flow Interp::exec_block(const std::vector<StmtPtr>& body, Env& env) {
  for (const StmtPtr& s : body) {
    Flow f = exec_stmt(*s, env);
    if (f != Flow::Normal) return f;
  }
  return Flow::Normal;
}

Interp::Flow Interp::exec_stmt(const Stmt& s, Env& env) {
  switch (s.kind) {
    case StmtKind::ExprStmt: {
      Value v;
      if (s.expr->kind == ExprKind::Call) {
        std::optional<Value> out = call_outputs(*s.expr, env);
        if (!out) return Flow::Normal;
        v = std::move(*out);
      } else {
        v = eval(*s.expr, env);
      }
      if (s.display) display("ans", v);
      set_var("ans", std::move(v), env);
      return Flow::Normal;
    }
    case StmtKind::Assign:
      exec_assign(s, env);
      return Flow::Normal;
    case StmtKind::If: {
      for (const IfArm& arm : s.arms) {
        if (!arm.cond || truthy(eval(*arm.cond, env), s.loc)) {
          return exec_block(arm.body, env);
        }
      }
      return Flow::Normal;
    }
    case StmtKind::While: {
      while (truthy(eval(*s.expr, env), s.loc)) {
        Flow f = exec_block(s.body, env);
        if (f == Flow::Break) break;
        if (f == Flow::Return) return f;
      }
      return Flow::Normal;
    }
    case StmtKind::For: {
      Value range = eval(*s.expr, env);
      // Iterate columns of the range value (MATLAB semantics); for the usual
      // row-vector range this is element-by-element.
      size_t n;
      if (range.is_scalar()) {
        n = 1;
      } else {
        n = range.mat()->cols;
      }
      for (size_t k = 0; k < n; ++k) {
        Value iter;
        if (range.is_scalar()) {
          iter = range;
        } else {
          const Mat& m = *range.mat();
          if (m.rows == 1) {
            iter = m.is_complex
                       ? Value(std::complex<double>(m.re[k], m.im[k]))
                       : Value(m.re[k]);
          } else {
            auto col = std::make_shared<Mat>(m.rows, 1, m.is_complex);
            for (size_t r = 0; r < m.rows; ++r) {
              col->re[r] = m.re[r * m.cols + k];
              if (m.is_complex) col->im[r] = m.im[r * m.cols + k];
            }
            iter = Value(std::move(col));
          }
        }
        set_var(s.loop_var, std::move(iter), env);
        Flow f = exec_block(s.body, env);
        if (f == Flow::Break) break;
        if (f == Flow::Return) return f;
      }
      return Flow::Normal;
    }
    case StmtKind::Break: return Flow::Break;
    case StmtKind::Continue: return Flow::Continue;
    case StmtKind::Return: return Flow::Return;
    case StmtKind::Global:
      for (const std::string& n : s.names) {
        if (!env.is_global(n)) env.global_names.push_back(n);
        globals_.try_emplace(n, Value(std::make_shared<Mat>(0, 0)));
      }
      return Flow::Normal;
  }
  return Flow::Normal;
}

void Interp::exec_assign(const Stmt& s, Env& env) {
  if (s.targets.size() == 1) {
    const LValue& t = s.targets[0];
    if (t.indices.empty()) {
      Value v = eval(*s.expr, env);
      set_var(t.name, v, env);
      if (s.display) display(t.name, v);
      return;
    }
    // Indexed assignment a(i,j) = rhs.
    Value rhs = eval(*s.expr, env);
    Value* basep = find_var(t.name, env);
    Value base = basep ? *basep : Value(std::make_shared<Mat>(0, 0));
    std::vector<IndexSpec> idx = eval_indices(t.indices, base, env);
    index_write(base, idx, rhs, t.loc);
    set_var(t.name, base, env);
    if (s.display) display(t.name, *find_var(t.name, env));
    return;
  }

  // [a, b] = f(...): rhs must be a user function or multi-output builtin.
  if (s.expr->kind != ExprKind::Call) {
    throw InterpError(s.loc,
                      "multiple assignment requires a function call on the "
                      "right-hand side");
  }
  const Expr& call = *s.expr;
  std::vector<Value> args;
  args.reserve(call.args.size());
  for (const ExprPtr& a : call.args) args.push_back(eval(*a, env));

  std::vector<Value> outs;
  auto fit = prog_.functions.find(call.name);
  if (fit != prog_.functions.end()) {
    outs = call_user(*fit->second, std::move(args), s.targets.size(), s.loc);
  } else if (const BuiltinInfo* b = find_builtin(call.name)) {
    outs = call_builtin(*b, std::move(args), s.targets.size(), s.loc);
  } else {
    throw InterpError(s.loc, "undefined function '" + call.name + "'");
  }
  if (outs.size() < s.targets.size()) {
    throw InterpError(s.loc, "function '" + call.name + "' returned " +
                                 std::to_string(outs.size()) +
                                 " values, expected " +
                                 std::to_string(s.targets.size()));
  }
  for (size_t i = 0; i < s.targets.size(); ++i) {
    const LValue& t = s.targets[i];
    if (!t.indices.empty()) {
      Value* basep = find_var(t.name, env);
      Value base = basep ? *basep : Value(std::make_shared<Mat>(0, 0));
      std::vector<IndexSpec> idx = eval_indices(t.indices, base, env);
      index_write(base, idx, outs[i], t.loc);
      set_var(t.name, base, env);
    } else {
      set_var(t.name, outs[i], env);
    }
    if (s.display) display(t.name, *find_var(t.name, env));
  }
}

// -- expressions --------------------------------------------------------------

Value Interp::eval(const Expr& e, Env& env) {
  switch (e.kind) {
    case ExprKind::Number:
      if (e.is_imaginary) return Value(std::complex<double>(0.0, e.number));
      return Value(e.number);
    case ExprKind::String:
      return Value(e.name);
    case ExprKind::Ident: {
      if (Value* v = find_var(e.name, env)) return *v;
      // Zero-argument function reference (pi, rand, user function).
      auto fit = prog_.functions.find(e.name);
      if (fit != prog_.functions.end()) {
        auto outs = call_user(*fit->second, {}, 1, e.loc);
        return outs.empty() ? Value(0.0) : outs[0];
      }
      if (const BuiltinInfo* b = find_builtin(e.name)) {
        auto outs = call_builtin(*b, {}, 1, e.loc);
        return outs.empty() ? Value(0.0) : outs[0];
      }
      if (e.name == "i" || e.name == "j") {
        return Value(std::complex<double>(0.0, 1.0));
      }
      throw InterpError(e.loc, "undefined variable '" + e.name + "'");
    }
    case ExprKind::Unary:
      return unary_op(e.un_op, eval(*e.lhs, env), e.loc);
    case ExprKind::Binary: {
      if (e.bin_op == BinOp::AndAnd) {
        if (!truthy(eval(*e.lhs, env), e.loc)) return Value(0.0);
        return Value(truthy(eval(*e.rhs, env), e.loc) ? 1.0 : 0.0);
      }
      if (e.bin_op == BinOp::OrOr) {
        if (truthy(eval(*e.lhs, env), e.loc)) return Value(1.0);
        return Value(truthy(eval(*e.rhs, env), e.loc) ? 1.0 : 0.0);
      }
      Value a = eval(*e.lhs, env);
      Value b = eval(*e.rhs, env);
      return binary_op(e.bin_op, a, b, e.loc);
    }
    case ExprKind::Range: {
      double lo = to_double(eval(*e.lhs, env), e.loc);
      double hi = to_double(eval(*e.rhs, env), e.loc);
      double step = e.step ? to_double(eval(*e.step, env), e.loc) : 1.0;
      return make_range(lo, step, hi, e.loc);
    }
    case ExprKind::Call:
      return eval_call(e, env);
    case ExprKind::Matrix: {
      std::vector<std::vector<Value>> rows;
      rows.reserve(e.rows.size());
      for (const auto& row : e.rows) {
        std::vector<Value> vals;
        vals.reserve(row.size());
        for (const ExprPtr& el : row) vals.push_back(eval(*el, env));
        rows.push_back(std::move(vals));
      }
      return build_matrix(rows, e.loc);
    }
    case ExprKind::Colon:
    case ExprKind::End:
      throw InterpError(e.loc, "':'/'end' is only valid inside an index");
  }
  throw InterpError(e.loc, "unhandled expression kind");
}

std::vector<IndexSpec> Interp::eval_indices(const std::vector<ExprPtr>& args,
                                            const Value& base, Env& env) {
  std::vector<IndexSpec> specs;
  specs.reserve(args.size());
  for (size_t d = 0; d < args.size(); ++d) {
    const Expr& a = *args[d];
    IndexSpec spec;
    // 'end' resolves to the extent of this dimension.
    double extent;
    if (args.size() == 1) {
      extent = static_cast<double>(numel(base));
    } else {
      extent = static_cast<double>(d == 0 ? value_rows(base) : value_cols(base));
    }
    if (a.kind == ExprKind::Colon) {
      spec.kind = IndexSpec::Kind::All;
      specs.push_back(std::move(spec));
      continue;
    }
    // Evaluate with `end` bound in a copied environment trick: we substitute
    // by interpreting End nodes directly here via a tiny recursion wrapper.
    std::function<Value(const Expr&)> ev = [&](const Expr& x) -> Value {
      if (x.kind == ExprKind::End) return Value(extent);
      if (x.kind == ExprKind::Binary) {
        if (x.bin_op == BinOp::AndAnd || x.bin_op == BinOp::OrOr) {
          return eval(x, env);
        }
        return binary_op(x.bin_op, ev(*x.lhs), ev(*x.rhs), x.loc);
      }
      if (x.kind == ExprKind::Unary) {
        return unary_op(x.un_op, ev(*x.lhs), x.loc);
      }
      if (x.kind == ExprKind::Range) {
        double lo = to_double(ev(*x.lhs), x.loc);
        double hi = to_double(ev(*x.rhs), x.loc);
        double st = x.step ? to_double(ev(*x.step), x.loc) : 1.0;
        return make_range(lo, st, hi, x.loc);
      }
      return eval(x, env);
    };
    Value v = ev(a);
    if (v.is_scalar()) {
      spec.kind = IndexSpec::Kind::Scalar;
      spec.scalar = to_double(v, a.loc);
    } else if (v.is_matrix()) {
      spec.kind = IndexSpec::Kind::Vector;
      const Mat& m = *v.mat();
      spec.indices.assign(m.re.begin(), m.re.end());
    } else {
      throw InterpError(a.loc, "invalid index of type " + type_name(v));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

Value Interp::eval_call(const Expr& e, Env& env) {
  return call_outputs(e, env).value_or(Value(0.0));
}

std::optional<Value> Interp::call_outputs(const Expr& e, Env& env) {
  // Variable shadows functions: a(…) is indexing.
  if (Value* v = find_var(e.name, env)) {
    std::vector<IndexSpec> idx = eval_indices(e.args, *v, env);
    return index_read(*v, idx, e.loc);
  }
  auto fit = prog_.functions.find(e.name);
  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) {
    if (a->kind == ExprKind::Colon || a->kind == ExprKind::End) {
      throw InterpError(a->loc, "':'/'end' outside an indexing context");
    }
    args.push_back(eval(*a, env));
  }
  if (fit != prog_.functions.end()) {
    auto outs = call_user(*fit->second, std::move(args), 1, e.loc);
    if (outs.empty()) {
      throw InterpError(e.loc,
                        "function '" + e.name + "' returned no value");
    }
    return outs[0];
  }
  if (const BuiltinInfo* b = find_builtin(e.name)) {
    auto outs = call_builtin(*b, std::move(args), 1, e.loc);
    if (outs.empty()) return std::nullopt;
    return outs[0];
  }
  throw InterpError(e.loc, "undefined function or variable '" + e.name + "'");
}

std::vector<Value> Interp::call_user(const Function& fn,
                                     std::vector<Value> args, size_t nargout,
                                     SourceLoc loc) {
  if (++call_depth_ > 256) {
    --call_depth_;
    throw InterpError(loc, "maximum recursion depth exceeded");
  }
  if (args.size() > fn.params.size()) {
    --call_depth_;
    throw InterpError(loc, "too many arguments to '" + fn.name + "'");
  }
  Env env;
  for (size_t i = 0; i < args.size(); ++i) {
    env.vars[fn.params[i]] = std::move(args[i]);
  }
  exec_block(fn.body, env);
  std::vector<Value> outs;
  size_t want = std::max<size_t>(nargout, fn.outs.empty() ? 0 : 1);
  for (size_t i = 0; i < want && i < fn.outs.size(); ++i) {
    Value* v = find_var(fn.outs[i], env);
    if (!v) {
      --call_depth_;
      throw InterpError(fn.loc, "output argument '" + fn.outs[i] +
                                    "' not assigned in '" + fn.name + "'");
    }
    outs.push_back(*v);
  }
  --call_depth_;
  return outs;
}

void Interp::display(const std::string& name, const Value& v) {
  out_ << name << " =\n" << format_value(v);
  if (!v.is_matrix()) out_ << '\n';
}

std::string run_script(const std::string& script) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string(script, sm, diags);
  if (diags.has_errors()) {
    throw std::runtime_error("parse error:\n" + diags.to_string());
  }
  Program prog;
  prog.script = std::move(f.script);
  for (auto& fn : f.functions) {
    prog.functions.emplace(fn->name, std::move(fn));
  }
  std::ostringstream out;
  Interp interp(prog, out);
  interp.run();
  return out.str();
}

}  // namespace otter::interp
