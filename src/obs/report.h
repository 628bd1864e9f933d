// Machine-readable run reports.
//
// A Report accumulates the artefacts of one bench (or test) run —
// reproduced table rows, per-family size series, free-form metadata —
// and serializes them together with a snapshot of the global counter
// registry, histogram registry, memory accounting, and span buffer to a
// stable JSON schema:
//
//   {
//     "schema_version": 2,
//     "schema_minor": 2,
//     "name": "<bench name>",
//     "manifest": { "git_sha": ..., "compiler": ..., "build_type": ...,
//                   "threads": ..., "hardware_threads": ...,
//                   "process_start_ns": ..., "uptime_seconds": ...,
//                   "env": { "REVISE_THREADS": "8", ... } },
//     "meta": { ... },
//     "tables": [ {"name": ..., "columns": [...], "rows": [[...], ...]} ],
//     "series": [ {"name": ..., "values": [...], "verdict": "..."} ],
//     "counters": { "sat.conflicts": 123, ... },
//     "gauges": { "bdd.nodes": 42, ... },
//     "histograms": { "revise.Dalal": {"count": ..., "sum": ...,
//                     "min": ..., "max": ..., "mean": ..., "p50": ...,
//                     "p90": ..., "p99": ...}, ... },
//     "memory": { "peak_rss_bytes": ..., "current_rss_bytes": ...,
//                 "mem.model_cache_bytes": ..., ... },
//     "spans": [ {"name": ..., "id": 7, "parent_id": 0, "depth": 0,
//                 "tid": 0, "start_ns": ..., "duration_ns": ...} ],
//     "profiles": [ {"name": ..., "span_id": ..., "duration_ns": ...,
//                    "counters": {"sat.solves": ..., ...},
//                    "peak_model_set_models": ...,
//                    "peak_rss_delta_bytes": ...,
//                    "children": [...]} ]
//   }
//
// Field order is fixed (Json objects preserve insertion order), so the
// emitted artefacts diff cleanly between runs.  Bump `kSchemaVersion`
// when the layout changes; additive extensions bump `kSchemaMinor`
// instead; tests/obs_test.cc validates the schema.
// Schema history: v1 had no manifest/histograms/memory blocks and no
// span thread ids; v2.1 added span ids/parent ids and the profiles
// section (additive, so `schema_version` stays 2 and v2 readers parse
// v2.1 reports); v2.2 added the manifest's process_start_ns (the
// steady-clock anchor shared with `obs.uptime_seconds`) and
// uptime_seconds fields; v2 readers (tools/revise_benchdiff.cc)
// accept all.

#ifndef REVISE_OBS_REPORT_H_
#define REVISE_OBS_REPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "util/status.h"

namespace revise::obs {

inline constexpr int kSchemaVersion = 2;
inline constexpr int kSchemaMinor = 2;

// The build/run provenance block embedded in every report: git sha and
// compiler baked in at build time, thread configuration and the REVISE_*
// environment read at call time.
Json BuildManifest();

class Report {
 public:
  explicit Report(std::string_view name) : name_(name) {}

  const std::string& name() const { return name_; }

  // Free-form metadata (e.g. generator parameters, git describe).
  void SetMeta(std::string_view key, Json value);

  // Declares a table; rows are appended with AddRow.  Re-declaring an
  // existing table name resets its columns and keeps the rows.
  void AddTable(std::string_view table, std::vector<std::string> columns);
  void AddRow(std::string_view table, std::vector<Json> row);

  // A numeric series (e.g. result size per revision step for one hard
  // family), with an optional growth verdict label.
  void AddSeries(std::string_view series, std::vector<double> values,
                 std::string_view verdict = "");

  // Assembles the document, snapshotting the global registry and span
  // buffer at call time.  The "counters", "gauges", "histograms" and
  // "memory" sections come from one registry snapshot; the memory
  // section is the process RSS (obs/memory.h) plus the `mem.*` gauges.
  Json ToJson() const;

  // Serializes ToJson() pretty-printed to `path` through
  // util::WriteFileAtomically.
  Status WriteToFile(const std::string& path) const;

 private:
  struct Table {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<Json>> rows;
  };
  struct Series {
    std::string name;
    std::vector<double> values;
    std::string verdict;
  };

  Table* FindTable(std::string_view table);

  std::string name_;
  Json meta_ = Json::MakeObject();
  std::vector<Table> tables_;
  std::vector<Series> series_;
};

}  // namespace revise::obs

#endif  // REVISE_OBS_REPORT_H_
