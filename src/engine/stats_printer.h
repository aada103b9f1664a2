#ifndef BTRIM_ENGINE_STATS_PRINTER_H_
#define BTRIM_ENGINE_STATS_PRINTER_H_

#include <string>

#include "engine/database.h"

namespace btrim {

/// Human-readable report of the engine-wide counters in `metrics` (normally
/// Database::metrics_registry()): one block per subsystem (transactions,
/// IMRS cache, buffer cache, locks, B+Trees summed over every table, GC,
/// Pack, logs). Intended for operator tooling, examples, and debugging.
std::string FormatDatabaseStats(const obs::MetricsRegistry& metrics);

/// Per-table / per-partition ILM breakdown: residency, footprint, reuse,
/// pack activity and tuner state — the BTrim equivalent of a monitoring
/// table over Sec. V.A's counters. Reads the unified metrics registry, so
/// partitions retired mid-run still appear (mode "retired") with their
/// final pack/skip counts.
std::string FormatTableBreakdown(Database* db);

}  // namespace btrim

#endif  // BTRIM_ENGINE_STATS_PRINTER_H_
