//===- TypeChecker.h - Time-sensitive affine type checker -------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: a type checker that models hardware
/// memory banks as affine resources that replenish at logical time-step
/// boundaries (Sections 3 and 4).
///
/// Core rules implemented here:
///  * every bank of every memory provides `ports` affine resources per
///    logical time step;
///  * unordered composition `;` threads the affine context through;
///    ordered composition `---` restores it (time sensitivity);
///  * reads acquire sharable read capabilities (identical reads are free),
///    writes are use-once;
///  * unrolled loop iterators get index types idx{0..k}; accessing a banked
///    dimension through one requires the unroll factor to match the banking
///    factor and consumes every bank once (lockstep semantics);
///  * banking factors must divide array sizes; arbitrary index arithmetic
///    on banked memories is rejected;
///  * memory views (shrink / suffix / shift / split) re-type accesses and
///    translate consumed bank sets down to the root memory;
///  * doall `for` bodies may not write variables defined outside the loop;
///    reductions go through `combine` blocks and built-in reducers.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SEMA_TYPECHECKER_H
#define DAHLIA_SEMA_TYPECHECKER_H

#include "ast/AST.h"
#include "support/Error.h"

#include <vector>

namespace dahlia {

/// Type-checks \p P, annotating expression types in place. Returns all
/// diagnosed errors; an empty vector means the program is well-typed.
std::vector<Error> typeCheck(Program &P);

/// Convenience: type-checks a bare command with no pre-declared memories.
std::vector<Error> typeCheck(Cmd &C);

} // namespace dahlia

#endif // DAHLIA_SEMA_TYPECHECKER_H
