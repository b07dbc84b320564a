//===- WorkStealingPool.cpp - Shared work-stealing index pool ---*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/WorkStealingPool.h"

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

using namespace dahlia;

namespace {

/// One worker's slice of the index space. The owner takes grains from the
/// front; idle workers steal the upper half from the back.
struct IndexDeque {
  std::mutex M;
  size_t Begin = 0, End = 0;

  bool pop(size_t Grain, size_t &B, size_t &E) {
    std::lock_guard<std::mutex> Lock(M);
    if (Begin >= End)
      return false;
    B = Begin;
    E = std::min(Begin + Grain, End);
    Begin = E;
    return true;
  }

  bool stealHalf(size_t &B, size_t &E) {
    std::lock_guard<std::mutex> Lock(M);
    size_t Avail = End - Begin;
    if (Avail == 0 || Begin >= End)
      return false;
    size_t Take = (Avail + 1) / 2;
    B = End - Take;
    E = End;
    End = B;
    return true;
  }
};

} // namespace

void dahlia::workStealingFor(
    size_t Size, unsigned Threads, size_t Grain,
    const std::function<void(unsigned, size_t, size_t)> &Range) {
  if (Size == 0)
    return;
  Threads = std::max(Threads, 1u);
  if (Size < Threads)
    Threads = static_cast<unsigned>(Size);
  Grain = std::max<size_t>(Grain, 1);

  // Pre-split the index space into one contiguous deque per worker.
  std::vector<IndexDeque> Queues(Threads);
  for (unsigned W = 0; W != Threads; ++W) {
    Queues[W].Begin = Size * W / Threads;
    Queues[W].End = Size * (W + 1) / Threads;
  }

  auto WorkerMain = [&](unsigned W) {
    size_t B, E;
    while (true) {
      if (Queues[W].pop(Grain, B, E)) {
        Range(W, B, E);
        continue;
      }
      // Own deque drained: steal the upper half of a victim's range.
      bool Stole = false;
      for (unsigned Off = 1; Off != Threads && !Stole; ++Off) {
        unsigned V = (W + Off) % Threads;
        if (Queues[V].stealHalf(B, E)) {
          Queues[W].M.lock();
          Queues[W].Begin = B;
          Queues[W].End = E;
          Queues[W].M.unlock();
          Stole = true;
        }
      }
      if (!Stole)
        return;
    }
  };

  std::vector<std::thread> Pool;
  Pool.reserve(Threads - 1);
  for (unsigned W = 1; W < Threads; ++W)
    Pool.emplace_back(WorkerMain, W);
  WorkerMain(0);
  for (std::thread &T : Pool)
    T.join();
}
