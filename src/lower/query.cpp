#include "lower/query.hpp"

namespace otter::lower {

bool tree_has_rand(const LExpr& e) {
  if (e.kind == LExpr::Kind::RandScalar) return true;
  if (e.a && tree_has_rand(*e.a)) return true;
  if (e.b && tree_has_rand(*e.b)) return true;
  return false;
}

bool any_tree_has_rand(const LInstr& in) {
  for (const LOperand& o : in.args) {
    if (o.scalar && tree_has_rand(*o.scalar)) return true;
  }
  if (in.tree && tree_has_rand(*in.tree)) return true;
  for (const auto& row : in.literal_rows) {
    for (const LExprPtr& e : row) {
      if (e && tree_has_rand(*e)) return true;
    }
  }
  return false;
}

void tree_vars(const LExpr* e, NameSet& out) {
  if (e == nullptr) return;
  switch (e->kind) {
    case LExpr::Kind::ScalarVar:
    case LExpr::Kind::MatVar:
    case LExpr::Kind::RowsOf:
    case LExpr::Kind::ColsOf:
    case LExpr::Kind::NumelOf:
      out.insert(e->var);
      break;
    default:
      break;
  }
  tree_vars(e->a.get(), out);
  tree_vars(e->b.get(), out);
}

void instr_reads(const LInstr& in, NameSet& out) {
  for (const LOperand& o : in.args) {
    if (o.is_matrix) out.insert(o.mat);
    tree_vars(o.scalar.get(), out);
  }
  tree_vars(in.tree.get(), out);
  for (const auto& row : in.literal_rows) {
    for (const LExprPtr& e : row) tree_vars(e.get(), out);
  }
}

void header_reads(const LInstr& in, NameSet& out) {
  instr_reads(in, out);
  if (is_rmw(in.op) && !in.dst.empty()) out.insert(in.dst);
  for (const LIfArm& arm : in.arms) tree_vars(arm.cond.get(), out);
  tree_vars(in.cond.get(), out);
  tree_vars(in.lo.get(), out);
  tree_vars(in.step.get(), out);
  tree_vars(in.hi.get(), out);
}

void collect_ever_read(const std::vector<LInstrPtr>& body, NameSet& out) {
  for (const LInstrPtr& ip : body) {
    header_reads(*ip, out);
    for (const LIfArm& arm : ip->arms) collect_ever_read(arm.body, out);
    collect_ever_read(ip->body, out);
  }
}

void instr_defs(const LInstr& in, NameSet& out) {
  if (!in.dst.empty()) out.insert(in.dst);
  if (!in.sdst.empty()) out.insert(in.sdst);
  for (const LVarDecl& d : in.call_dsts) out.insert(d.name);
  if (!in.loop_var.empty()) out.insert(in.loop_var);
}

void collect_defs(const std::vector<LInstrPtr>& body, NameSet& out) {
  for (const LInstrPtr& ip : body) {
    instr_defs(*ip, out);
    for (const LIfArm& arm : ip->arms) collect_defs(arm.body, out);
    collect_defs(ip->body, out);
  }
}

bool is_rmw(LOp op) {
  switch (op) {
    case LOp::SetElem:
    case LOp::AssignRowOp:
    case LOp::AssignColOp:
    case LOp::AssignSliceOp:
      return true;
    default:
      return false;
  }
}

bool is_comm_read(LOp op) {
  switch (op) {
    case LOp::MatMul:
    case LOp::MatVec:
    case LOp::VecMat:
    case LOp::OuterProd:
    case LOp::TransposeOp:
    case LOp::DotProd:
    case LOp::Reduce:
    case LOp::Colwise:
    case LOp::Norm:
    case LOp::Trapz:
    case LOp::GetElem:
    case LOp::ExtractRowOp:
    case LOp::ExtractColOp:
    case LOp::SliceVec:
      return true;
    default:
      return false;
  }
}

bool removable(const LInstr& in) {
  switch (in.op) {
    case LOp::FillZeros:
    case LOp::FillOnes:
    case LOp::FillEye:
    case LOp::FillRange:
    case LOp::FillLinspace:
    case LOp::FromLiteral:
    case LOp::CopyMat:
    case LOp::Elemwise:
    case LOp::ScalarAssign:
      // FillRand is deliberately absent: it advances the shared random
      // sequence, so deleting it would shift every later draw.
      return !any_tree_has_rand(in);
    default:
      return is_comm_read(in.op) && !any_tree_has_rand(in);
  }
}

}  // namespace otter::lower
