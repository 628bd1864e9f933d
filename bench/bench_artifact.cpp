// Cold-start cost of a compiled .rkb artifact (src/artifact/) against
// rebuilding the same knowledge base from its text sources.
//
// The rebuild path is what every session paid before the artifact layer:
// parse the theory, replay the update log, enumerate the revised models.
// The artifact path reads the file, validates checksums, reads the packed
// rows in place from the file buffer, and reconstructs the same state.  The
// `cold_start` table records both, per Table-1-style corpus size; the
// acceptance bar is load >= 10x faster than rebuild at the larger sizes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "core/io.h"
#include "core/kb_artifact.h"
#include "core/knowledge_base.h"
#include "hardness/random_instances.h"
#include "solve/model_cache.h"
#include "solve/services.h"
#include "util/check.h"
#include "util/random.h"

namespace revise {
namespace {

// One corpus: a satisfiable random 3-CNF theory over n letters plus a
// satisfiable random 3-CNF update, both written to disk like a user's
// sources, with the compiled artifact alongside.
struct Corpus {
  int n = 0;
  std::string theory_path;
  std::string update_path;
  std::string artifact_path;
};

Formula SatisfiableClauses(const std::vector<Var>& vars, size_t clauses,
                           Rng* rng) {
  Formula f;
  do {
    f = RandomClauses(vars, clauses, 3, rng);
  } while (!IsSatisfiable(f));
  return f;
}

Corpus BuildCorpus(int n, const std::filesystem::path& dir) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int j = 0; j < n; ++j) {
    vars.push_back(vocabulary.InternIndexed("x", j));
  }
  Rng rng(100 + n);
  const Formula t =
      SatisfiableClauses(vars, static_cast<size_t>(n * 1.5), &rng);
  const Formula p =
      SatisfiableClauses(vars, static_cast<size_t>(n * 1.5), &rng);

  Corpus corpus;
  corpus.n = n;
  const std::string stem = "cold_start_" + std::to_string(n);
  corpus.theory_path = (dir / (stem + ".theory")).string();
  corpus.update_path = (dir / (stem + ".revise")).string();
  corpus.artifact_path = (dir / (stem + ".rkb")).string();
  REVISE_CHECK_OK(SaveTheoryToFile(Theory({t}), vocabulary, corpus.theory_path));
  REVISE_CHECK_OK(SaveTheoryToFile(Theory({p}), vocabulary, corpus.update_path));

  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      Theory({t}), OperatorById(OperatorId::kDalal),
      RevisionStrategy::kDelayed, &vocabulary);
  REVISE_CHECK_OK(kb.status());
  kb->Revise(p);
  (void)kb->Models();  // compile the canonical model set into the artifact
  REVISE_CHECK_OK(SaveKnowledgeBaseArtifact(*kb, corpus.artifact_path));
  return corpus;
}

// The pre-artifact cold start: parse text, replay, enumerate.
size_t RebuildFromText(const Corpus& corpus) {
  Vocabulary vocabulary;
  StatusOr<Theory> theory =
      LoadTheoryFromFile(corpus.theory_path, &vocabulary);
  REVISE_CHECK_OK(theory.status());
  StatusOr<Theory> updates =
      LoadTheoryFromFile(corpus.update_path, &vocabulary);
  REVISE_CHECK_OK(updates.status());
  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      *std::move(theory), OperatorById(OperatorId::kDalal),
      RevisionStrategy::kDelayed, &vocabulary);
  REVISE_CHECK_OK(kb.status());
  for (const Formula& p : updates->formulas()) {
    kb->Revise(p);
  }
  return kb->Models().size();
}

// The artifact cold start: validate, load, hand back the same state.
size_t LoadFromArtifact(const Corpus& corpus) {
  Vocabulary vocabulary;
  StatusOr<KnowledgeBase> kb =
      LoadKnowledgeBaseArtifact(corpus.artifact_path, &vocabulary);
  REVISE_CHECK_OK(kb.status());
  return kb->Models().size();
}

double MedianMs(const std::vector<double>& samples) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];
}

template <typename Fn>
double TimeColdMs(Fn&& fn, int repetitions) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repetitions));
  for (int i = 0; i < repetitions; ++i) {
    // Every repetition is a genuine cold start: the global model cache is
    // what the delayed strategy would otherwise warm across runs.
    ModelCache::Global().Clear();
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(fn());
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return MedianMs(samples);
}

void MeasureColdStart(obs::Report* report) {
  bench::Headline(
      "Artifact cold start: .rkb load vs rebuild from text sources");
  report->AddTable("cold_start", {"n", "models", "rebuild_ms", "load_ms",
                                  "speedup"});
  std::printf("%-6s %8s %14s %14s %10s\n", "n", "models", "rebuild (ms)",
              "load (ms)", "speedup");
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("revise_bench_artifact_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  // Rebuild cost grows roughly 10x per two letters (the delayed Dalal
  // sweep), so the larger corpora get one timed repetition; the loads are
  // cheap and always get nine.
  for (int n : {6, 8, 10, 12, 14}) {
    const Corpus corpus = BuildCorpus(n, dir);
    const size_t rebuilt = RebuildFromText(corpus);
    const size_t loaded = LoadFromArtifact(corpus);
    if (rebuilt != loaded) {
      std::fprintf(stderr, "cold start mismatch at n=%d: %zu vs %zu\n", n,
                   rebuilt, loaded);
      std::abort();
    }
    const double rebuild_ms =
        TimeColdMs([&] { return RebuildFromText(corpus); }, n <= 10 ? 5 : 1);
    const double load_ms =
        TimeColdMs([&] { return LoadFromArtifact(corpus); }, 9);
    const double speedup = load_ms > 0 ? rebuild_ms / load_ms : 0;
    std::printf("%-6d %8zu %14.3f %14.3f %9.1fx\n", n, loaded, rebuild_ms,
                load_ms, speedup);
    report->AddRow("cold_start",
                   {n, static_cast<uint64_t>(loaded), rebuild_ms, load_ms,
                    speedup});
  }
  std::filesystem::remove_all(dir);
}

void BM_ArtifactLoad(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("revise_bm_artifact_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const Corpus corpus = BuildCorpus(n, dir);
  for (auto _ : state) {
    ModelCache::Global().Clear();
    benchmark::DoNotOptimize(LoadFromArtifact(corpus));
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ArtifactLoad)->Arg(9)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_RebuildFromText(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("revise_bm_rebuild_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const Corpus corpus = BuildCorpus(n, dir);
  for (auto _ : state) {
    ModelCache::Global().Clear();
    benchmark::DoNotOptimize(RebuildFromText(corpus));
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_RebuildFromText)->Arg(6)->Arg(9)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter(
      "bench_artifact", "BENCH_artifact.json", &argc, argv);
  revise::MeasureColdStart(&reporter.report());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
