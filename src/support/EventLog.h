//===- EventLog.h - Structured JSONL search journal -------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DSE flight recorder: an append-only, schema-versioned JSONL
/// journal of search events. Every layer of the exploration stack emits
/// per-config lifecycle records through it — enumerated, verdicts,
/// estimates at each fidelity (with cache provenance),
/// prunes with machine-readable reasons, Pareto-front entries and
/// evictions — and `dahlia-dse-report` replays the file to answer
/// "why was config X pruned" or "how did the front evolve" without
/// re-running the sweep.
///
/// Cost model (mirrors support/Trace.h):
///
///   * disabled (the default): one relaxed atomic load and a branch per
///     call site — callers guard record construction behind
///     \c eventlog::enabled(), so nothing allocates;
///   * enabled: the emitting thread serializes its record into a small
///     string (one allocation), stamps seq / ts_us / trace_id under the
///     journal mutex, and appends to a bounded in-memory ring that a
///     background thread drains to the file. When the ring is full the
///     emitter waits for the flusher (journal completeness beats
///     dropping; `journal.stalls` counts how often that back-pressure
///     bites).
///
/// Records look like
///
///   {"seq":17,"ts_us":123456,"kind":"estimate","trace_id":9,
///    "config":4211,"fidelity":"medium","cache_hit":true}
///
/// `seq` is a strictly increasing journal-wide sequence number, `ts_us`
/// is on the trace::nowUs() clock so journal events line up with PR-7
/// spans, and `trace_id` (present when nonzero) is the emitting
/// thread's trace::currentTraceId(). The first record of every journal
/// is `journal-begin` carrying `schema` (kSchemaVersion); the last is
/// `journal-end` carrying the final event count. Each kind's required
/// payload fields are declared once, in kKindSchemas below; the kinds
/// are documented in docs/observability.md.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SUPPORT_EVENTLOG_H
#define DAHLIA_SUPPORT_EVENTLOG_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dahlia::eventlog {

/// Journal format version, stamped into every `journal-begin` record.
/// Bump when an event kind changes meaning or a field is removed;
/// adding fields or kinds is backward compatible by construction
/// (consumers skip unknown keys and kinds). Version 2 removed the
/// successive-halving kinds and the speculation fields of the cluster
/// kinds; readers accept both.
constexpr int kSchemaVersion = 2;

/// The payload fields every record of a kind carries, one entry per kind
/// this version emits. Records may carry more (see kSchemaVersion), and
/// schema-1 records carry these too. SearchJournal::checkConsistent
/// (`dahlia-dse-report --assert-consistent`) rejects a record of a listed
/// kind that lacks one; docs/check_docs.py fails when an
/// `eventlog::emit("...")` literal has no entry here.
struct KindSchema {
  std::string_view Kind;
  std::array<std::string_view, 7> Fields; ///< Unused trailing slots empty.
};

inline constexpr KindSchema kKindSchemas[] = {
    {"journal-begin", {"schema"}},
    {"journal-end", {"events"}},
    {"sweep-begin", {"space", "explored", "strategy", "threads"}},
    {"sweep-end", {"explored", "accepted", "pruned", "front"}},
    {"enumerated", {"config"}},
    {"verdict", {"config", "accepted", "cache_hit"}},
    {"estimate", {"config", "fidelity", "cache_hit"}},
    {"prune", {"config", "reason", "dominator", "bound_fidelity"}},
    {"front-enter", {"config", "front"}},
    {"front-evict", {"config", "front", "by"}},
    {"progress", {"phase", "done", "total", "front_size"}},
    // Distributed DSE (src/cluster/Cluster.cpp).
    {"cluster-begin", {"workers", "shards", "space", "strategy", "limit"}},
    {"cluster-end",
     {"ok", "shards_done", "retries", "reassignments", "worker_deaths",
      "front", "front_hash"}},
    {"shard-dispatch", {"shard", "worker", "attempt"}},
    {"shard-reassign", {"shard", "to_worker", "attempt"}},
    {"shard-done", {"shard", "worker", "points", "ms"}},
    {"shard-retry", {"shard", "worker", "attempt", "reason"}},
    {"worker-dead", {"worker", "failures"}},
    {"cache-sync", {"workers", "verdicts", "estimates"}},
};

/// \p Kind's entry in kKindSchemas, or nullptr for a kind this version
/// does not emit.
constexpr const KindSchema *kindSchema(std::string_view Kind) {
  for (const KindSchema &S : kKindSchemas)
    if (S.Kind == Kind)
      return &S;
  return nullptr;
}

/// Global runtime switch. Read with a relaxed load at every emission
/// site; flipped by journalStart*/journalStop.
extern std::atomic<bool> Enabled;

inline bool enabled() { return Enabled.load(std::memory_order_relaxed); }

/// A record under construction: field() calls append `,"key":value`
/// fragments to one preallocated string, so an event costs a single
/// allocation instead of a Json tree. Only build one behind an
/// enabled() guard:
///
///   if (eventlog::enabled())
///     eventlog::emit("prune", eventlog::Record()
///                                 .field("config", I)
///                                 .field("reason", "dominated")
///                                 .field("dominator", D));
class Record {
public:
  Record() { Buf.reserve(160); }

  Record &field(const char *Key, bool V);
  Record &field(const char *Key, int V);
  Record &field(const char *Key, unsigned V);
  Record &field(const char *Key, long V);
  Record &field(const char *Key, unsigned long V);
  Record &field(const char *Key, long long V);
  Record &field(const char *Key, unsigned long long V);
  Record &field(const char *Key, double V);
  Record &field(const char *Key, const char *V);
  Record &field(const char *Key, const std::string &V);
  /// Appends \p JsonFragment verbatim as the value (pre-serialized
  /// arrays/objects, e.g. a front membership list).
  Record &raw(const char *Key, const std::string &JsonFragment);

private:
  friend void emit(const char *Kind, Record &R);
  void key(const char *Key);
  std::string Buf;
};

/// Appends one record to the journal. \p Kind must be a literal matching
/// `[a-z][a-z0-9-]*` (docs/check_docs.py scrapes these). No-op when the
/// journal is disabled — but prefer guarding the Record construction
/// with enabled() so disabled call sites allocate nothing.
void emit(const char *Kind, Record &R);
inline void emit(const char *Kind, Record &&R) { emit(Kind, R); }

/// Opens \p Path for writing and starts journaling into it (background
/// flush thread). Writes the `journal-begin` header. Returns false when
/// the file cannot be opened. If a journal is already active it is
/// stopped first.
bool journalStart(const std::string &Path);

/// Starts an in-memory journal (tests): records accumulate in the ring
/// and are retrieved with journalLines() after journalStop().
void journalStartBuffered();

/// Emits `journal-end`, drains the ring, joins the flusher, and
/// disables. Safe to call when no journal is active.
void journalStop();

/// True between journalStart*() and journalStop().
bool journalActive();

/// Total records emitted into the current (or, after stop, the last)
/// journal, including begin/end.
uint64_t journalEventCount();

/// The buffered journal's lines (buffered mode only; call after
/// journalStop()). File-mode journals return an empty vector.
std::vector<std::string> journalLines();

} // namespace dahlia::eventlog

#endif // DAHLIA_SUPPORT_EVENTLOG_H
