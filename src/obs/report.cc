#include "obs/report.h"

#include <string_view>
#include <thread>
#include <utility>

#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/file.h"
#include "util/parallel.h"

#if defined(__unix__) || defined(__APPLE__)
extern char** environ;
#endif

#ifndef REVISE_GIT_SHA
#define REVISE_GIT_SHA "unknown"
#endif
#ifndef REVISE_BUILD_TYPE
#define REVISE_BUILD_TYPE "unknown"
#endif

namespace revise::obs {

Json BuildManifest() {
  Json manifest = Json::MakeObject();
  manifest["git_sha"] = REVISE_GIT_SHA;
#if defined(__clang__)
  manifest["compiler"] = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  manifest["compiler"] = std::string("gcc ") + __VERSION__;
#else
  manifest["compiler"] = "unknown";
#endif
  manifest["build_type"] = REVISE_BUILD_TYPE;
  manifest["threads"] = static_cast<uint64_t>(ParallelThreads());
  manifest["hardware_threads"] =
      static_cast<uint64_t>(std::thread::hardware_concurrency());
  manifest["process_start_ns"] = ProcessStartNanos();
  manifest["uptime_seconds"] = ProcessUptimeSeconds();
  TouchUptimeGauge();
  Json env = Json::MakeObject();
#if defined(__unix__) || defined(__APPLE__)
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string_view var(*entry);
    if (var.rfind("REVISE_", 0) != 0) continue;
    const size_t eq = var.find('=');
    if (eq == std::string_view::npos) continue;
    env[var.substr(0, eq)] = var.substr(eq + 1);
  }
#endif
  manifest["env"] = std::move(env);
  return manifest;
}

namespace {

// Snapshots the global registry once and appends the "counters",
// "gauges", "histograms" and "memory" sections to `doc`, in that order.
void AppendRegistrySections(Json* doc) {
  const RegistrySnapshot snapshot = Registry::Global().Snapshot();
  Json counters = Json::MakeObject();
  for (const auto& [name, value] : snapshot.counters) counters[name] = value;
  (*doc)["counters"] = std::move(counters);

  Json gauges = Json::MakeObject();
  Json memory = Json::MakeObject();
  const RssBytes rss = MemoryStats::Rss();
  memory["peak_rss_bytes"] = rss.peak;
  memory["current_rss_bytes"] = rss.current;
  for (const auto& [name, value] : snapshot.gauges) {
    gauges[name] = value;
    if (name.rfind("mem.", 0) == 0) memory[name] = value;
  }
  (*doc)["gauges"] = std::move(gauges);

  Json histograms = Json::MakeObject();
  for (const auto& [name, histogram] : snapshot.histograms) {
    Json entry = Json::MakeObject();
    entry["count"] = histogram.count;
    entry["sum"] = histogram.sum;
    entry["min"] = histogram.min;
    entry["max"] = histogram.max;
    entry["mean"] = histogram.Mean();
    entry["p50"] = histogram.p50;
    entry["p90"] = histogram.p90;
    entry["p99"] = histogram.p99;
    histograms[name] = std::move(entry);
  }
  (*doc)["histograms"] = std::move(histograms);
  (*doc)["memory"] = std::move(memory);
}

}  // namespace

void Report::SetMeta(std::string_view key, Json value) {
  meta_[key] = std::move(value);
}

Report::Table* Report::FindTable(std::string_view table) {
  for (Table& t : tables_) {
    if (t.name == table) return &t;
  }
  return nullptr;
}

void Report::AddTable(std::string_view table,
                      std::vector<std::string> columns) {
  if (Table* existing = FindTable(table)) {
    existing->columns = std::move(columns);
    return;
  }
  tables_.push_back(Table{std::string(table), std::move(columns), {}});
}

void Report::AddRow(std::string_view table, std::vector<Json> row) {
  Table* t = FindTable(table);
  if (t == nullptr) {
    tables_.push_back(Table{std::string(table), {}, {}});
    t = &tables_.back();
  }
  t->rows.push_back(std::move(row));
}

void Report::AddSeries(std::string_view series, std::vector<double> values,
                       std::string_view verdict) {
  series_.push_back(
      Series{std::string(series), std::move(values), std::string(verdict)});
}

Json Report::ToJson() const {
  Json doc = Json::MakeObject();
  doc["schema_version"] = kSchemaVersion;
  doc["schema_minor"] = kSchemaMinor;
  doc["name"] = name_;
  doc["manifest"] = BuildManifest();
  doc["meta"] = meta_;

  Json tables = Json::MakeArray();
  for (const Table& table : tables_) {
    Json entry = Json::MakeObject();
    entry["name"] = table.name;
    Json columns = Json::MakeArray();
    for (const std::string& column : table.columns) columns.Append(column);
    entry["columns"] = std::move(columns);
    Json rows = Json::MakeArray();
    for (const std::vector<Json>& row : table.rows) {
      Json cells = Json::MakeArray();
      for (const Json& cell : row) cells.Append(cell);
      rows.Append(std::move(cells));
    }
    entry["rows"] = std::move(rows);
    tables.Append(std::move(entry));
  }
  doc["tables"] = std::move(tables);

  Json series = Json::MakeArray();
  for (const Series& s : series_) {
    Json entry = Json::MakeObject();
    entry["name"] = s.name;
    Json values = Json::MakeArray();
    for (const double value : s.values) values.Append(value);
    entry["values"] = std::move(values);
    entry["verdict"] = s.verdict;
    series.Append(std::move(entry));
  }
  doc["series"] = std::move(series);

  AppendRegistrySections(&doc);

  Json spans = Json::MakeArray();
  for (const SpanRecord& span : SnapshotSpans()) {
    Json entry = Json::MakeObject();
    entry["name"] = span.name;
    entry["id"] = span.id;
    entry["parent_id"] = span.parent_id;
    entry["depth"] = span.depth;
    entry["tid"] = span.tid;
    entry["start_ns"] = span.start_ns;
    entry["duration_ns"] = span.duration_ns;
    spans.Append(std::move(entry));
  }
  doc["spans"] = std::move(spans);

  doc["profiles"] = ProfileForestToJson();

  return doc;
}

Status Report::WriteToFile(const std::string& path) const {
  return util::WriteFileAtomically(path, ToJson().Dump(/*indent=*/2) + "\n");
}

}  // namespace revise::obs
