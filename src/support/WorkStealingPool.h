//===- WorkStealingPool.h - Shared work-stealing index pool -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-stealing parallel-for that powers both the DSE engine's sweep
/// sharding and the compile service's per-epoch request batches. The index
/// space [0, Size) is pre-split into one contiguous deque per worker; the
/// owner takes grains from the front and idle workers steal the upper half
/// from the back. A plain mutex per deque suffices at the grain sizes used
/// here (one type-check or estimate per index, ~0.1–1 ms each).
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SUPPORT_WORKSTEALINGPOOL_H
#define DAHLIA_SUPPORT_WORKSTEALINGPOOL_H

#include <cstddef>
#include <functional>

namespace dahlia {

/// Runs \p Range(Worker, Begin, End) over contiguous chunks covering
/// [0, Size) exactly once, on \p Threads workers (clamped to at least 1;
/// also clamped to Size so no worker starts empty when Size < Threads).
/// Worker 0 always runs on the calling thread (DSE progress ticks rely on
/// it: they must fire on the thread that called the sweep). \p Grain is
/// the number of indices taken from the owner's deque per grab.
///
/// \p Range must be safe to call concurrently from distinct workers; each
/// index is delivered to exactly one call.
void workStealingFor(
    size_t Size, unsigned Threads, size_t Grain,
    const std::function<void(unsigned Worker, size_t Begin, size_t End)>
        &Range);

} // namespace dahlia

#endif // DAHLIA_SUPPORT_WORKSTEALINGPOOL_H
