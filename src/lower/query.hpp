// Def/use and purity queries over the LIR: the one place the optimizer,
// lint's W3207 and the element-wise kernel compiler ask which names an
// instruction reads or defines, whether it draws from the shared random
// sequence, and whether it may be deleted when its results are dead.
//
// "Reads of an instruction" never include control-flow children: conditions,
// loop bounds and nested bodies are the structured walks' business, except
// in the explicitly recursive collect_* queries.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "lower/lir.hpp"

namespace otter::lower {

using NameSet = std::unordered_set<std::string>;

/// Whether the tree draws a replicated rand scalar (advances the shared
/// random sequence, so it may never be moved, merged or deleted).
bool tree_has_rand(const LExpr& e);

/// Whether any operand, fused tree or literal element of `in` draws rand.
bool any_tree_has_rand(const LInstr& in);

/// Variables a tree reads (scalar and matrix leaves, shape queries).
void tree_vars(const LExpr* e, NameSet& out);

/// Reads of one instruction: operands, the fused tree and literal rows.
void instr_reads(const LInstr& in, NameSet& out);

/// Everything `in` itself reads, including a read-modify-write destination
/// and its own control headers (if-arm conditions, while condition, for
/// bounds), but not its nested bodies.
void header_reads(const LInstr& in, NameSet& out);

/// All names read anywhere in a body, nested control flow included.
void collect_ever_read(const std::vector<LInstrPtr>& body, NameSet& out);

/// Names defined by one instruction (nested bodies excluded).
void instr_defs(const LInstr& in, NameSet& out);

/// All names defined anywhere under `body`, nested control flow included.
void collect_defs(const std::vector<LInstrPtr>& body, NameSet& out);

/// In-place matrix mutations: the destination is read-modify-write.
bool is_rmw(LOp op);

/// Pure communicating run-time calls: the ones the optimizer may merge or
/// hoist. W3207 reports these inside loops, and file loads too.
bool is_comm_read(LOp op);

/// Whether the instruction may be deleted when its results are dead: pure,
/// and never advances the random sequence.
bool removable(const LInstr& in);

}  // namespace otter::lower
