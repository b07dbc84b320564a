//===- Journal.h - DSE search-journal analysis ------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader and analysis queries over the JSONL search journal written by
/// \c eventlog (support/EventLog.h) during a DSE sweep. This is the
/// library behind `dahlia-dse-report`: it answers "why was configuration
/// N pruned?", renders the search funnel, breaks down
/// cache-hit provenance, reconstructs the Pareto-front evolution
/// timeline, exports a Chrome trace, and machine-checks the journal's
/// internal consistency (the `--assert-consistent` CI gate).
///
/// A journal may contain several sweeps (fig7 records one per strategy
/// variant); every query is sweep-scoped except \c whyPruned, which
/// answers for the last sweep that mentions the configuration, and
/// \c chromeTrace / \c checkConsistent, which cover the whole file.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_DSE_JOURNAL_H
#define DAHLIA_DSE_JOURNAL_H

#include "support/Json.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dahlia::dse::journal {

/// One parsed journal record. \c Fields is the full JSON object (it
/// still contains seq/ts_us/kind/trace_id alongside the kind-specific
/// payload); the hot envelope fields are hoisted for cheap scanning.
struct Event {
  uint64_t Seq = 0;
  int64_t TsUs = 0;
  uint64_t TraceId = 0;
  std::string Kind;
  Json Fields;
};

/// An in-memory journal plus the per-sweep segmentation every query
/// runs over. Loading never fails on *semantic* problems (those are
/// `checkConsistent`'s job) — only on unparseable lines.
class SearchJournal {
public:
  /// Parses journal lines (blank lines ignored). Returns std::nullopt
  /// and sets \p Err on the first malformed line.
  static std::optional<SearchJournal>
  parse(const std::vector<std::string> &Lines, std::string *Err = nullptr);

  /// Reads \p Path and parses it. std::nullopt + \p Err on I/O or
  /// parse failure.
  static std::optional<SearchJournal> load(const std::string &Path,
                                           std::string *Err = nullptr);

  const std::vector<Event> &events() const { return Events; }
  int schema() const { return Schema; }

  /// Number of sweep segments (sweep-begin .. sweep-end). A truncated
  /// trailing sweep (no sweep-end) still counts; checkConsistent flags
  /// it.
  size_t sweepCount() const { return Sweeps.size(); }

  /// Funnel + phase counts for sweep \p Sweep: space/strategy, verdict
  /// and per-fidelity estimate totals (with cache hits), prune counts by
  /// bound fidelity, and the final front size.
  Json funnel(size_t Sweep) const;

  /// Cache-hit provenance for sweep \p Sweep: verdict hits/misses and
  /// per-fidelity estimate hits/misses.
  Json cacheStats(size_t Sweep) const;

  /// Front-evolution timeline for sweep \p Sweep: every front-enter /
  /// front-evict in order with the running front size.
  Json timeline(size_t Sweep) const;

  /// Why-pruned explanation for \p Config, answered over the last
  /// sweep whose events mention it. `status` is one of: "pruned"
  /// (with reason, dominator + its objectives, bound fidelity),
  /// "front-member", "estimated" (fully estimated but dominated, with
  /// eviction provenance when it made the front first), "bound-only"
  /// (never promoted to full fidelity, no explicit prune record), or
  /// "unknown" (never enumerated).
  Json whyPruned(uint64_t Config) const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto) for the whole
  /// journal: one instant per record plus counter tracks for front
  /// sizes and sweep throughput.
  std::string chromeTrace() const;

  /// Machine-checks the whole journal; returns violations (empty means
  /// consistent). Checked: envelope framing (journal-begin schema,
  /// journal-end event count, dense seq numbering), every record's
  /// envelope (integer seq and ts_us, a `[a-z][a-z0-9-]*` kind), every
  /// known kind's required fields (eventlog::kKindSchemas; unknown kinds
  /// pass), every sweep closed, each sweep-end's `pruned` equal to the
  /// sweep's prune events, every front member fully estimated / finally
  /// entered / never pruned, every prune's dominator fully estimated, and
  /// every config-bearing event scoped to an enumerated config.
  std::vector<std::string> checkConsistent() const;

private:
  struct SweepRange {
    size_t Begin = 0; ///< Index of the sweep-begin event.
    size_t End = 0;   ///< Index of sweep-end, or the last event if open.
    bool Closed = false;
  };

  std::vector<Event> Events;
  std::vector<SweepRange> Sweeps;
  int Schema = 0;
};

} // namespace dahlia::dse::journal

#endif // DAHLIA_DSE_JOURNAL_H
