// An agent revising its beliefs over a stream of observations
// (Section 2.2.3 / Sections 5-6: iterated revision), comparing how the
// operators diverge and how the storage strategies scale.
//
// Scenario: a tiny smart-home agent tracks four rooms.  Letters:
//   l1..l4  (light on in room i),  o1..o4  (room i occupied).
// House rules (initial theory): occupied rooms have their lights on; room
// 4 is a corridor whose light is wired to room 3's.  A stream of sensor
// readings then arrives, some contradicting the current beliefs.

#include <cstdio>
#include <string>
#include <vector>

#include "core/knowledge_base.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "revision/operator.h"

int main() {
  using namespace revise;

  Vocabulary vocabulary;
  const Theory house = Theory::ParseOrDie(
      "o1 -> l1; o2 -> l2; o3 -> l3; l4 <-> l3; o1 & o2; !o3",
      &vocabulary);

  const std::vector<Formula> readings = {
      ParseOrDie("!l1", &vocabulary),        // room 1 went dark
      ParseOrDie("o3 & l3", &vocabulary),    // someone entered room 3
      ParseOrDie("!o2 & !l2", &vocabulary),  // room 2 emptied
      ParseOrDie("!l3", &vocabulary),        // room 3 went dark
  };

  const Formula corridor_lit = ParseOrDie("l4", &vocabulary);
  const Formula room1_occupied = ParseOrDie("o1", &vocabulary);

  std::printf("initial rules:\n");
  for (const Formula& f : house) {
    std::printf("  %s\n", ToString(f, vocabulary).c_str());
  }
  std::printf("\nbeliefs after each reading (per operator):\n");
  std::printf("%-10s", "reading");
  for (const RevisionOperator* op : AllOperators()) {
    std::printf(" %9s", std::string(op->name()).c_str());
  }
  std::printf("\n");

  // Track one KB per operator; report whether the corridor is believed
  // lit after each revision.
  std::vector<KnowledgeBase> agents;
  for (const RevisionOperator* op : AllOperators()) {
    agents.push_back(KnowledgeBase::Create(house, op,
                                           RevisionStrategy::kDelayed,
                                           &vocabulary)
                         .value());
  }
  for (size_t step = 0; step < readings.size(); ++step) {
    std::printf("%-10s", ToString(readings[step], vocabulary)
                             .substr(0, 10)
                             .c_str());
    for (KnowledgeBase& kb : agents) {
      kb.Revise(readings[step]);
      const bool lit = kb.Ask(corridor_lit);
      const bool unlit = kb.Ask(Formula::Not(corridor_lit));
      std::printf(" %9s", lit ? "l4" : (unlit ? "!l4" : "unknown"));
    }
    std::printf("   <- is the corridor lit?\n");
  }

  std::printf("\nDoes the agent still believe room 1 is occupied?\n");
  for (size_t i = 0; i < agents.size(); ++i) {
    std::printf("  %-9s %s\n",
                std::string(AllOperators()[i]->name()).c_str(),
                agents[i].Ask(room1_occupied)
                    ? "yes"
                    : (agents[i].Ask(Formula::Not(room1_occupied))
                           ? "no"
                           : "agnostic"));
  }

  // Storage comparison for Dalal: delayed vs compact vs explicit.
  std::printf("\nstorage growth under Dalal:\n%-6s %10s %10s %10s\n",
              "step", "delayed", "compact", "explicit");
  const RevisionOperator* dalal = OperatorById(OperatorId::kDalal);
  KnowledgeBase delayed =
      KnowledgeBase::Create(house, dalal, RevisionStrategy::kDelayed,
                            &vocabulary)
          .value();
  KnowledgeBase compact =
      KnowledgeBase::Create(house, dalal, RevisionStrategy::kCompact,
                            &vocabulary)
          .value();
  KnowledgeBase explicit_kb =
      KnowledgeBase::Create(house, dalal, RevisionStrategy::kExplicit,
                            &vocabulary)
          .value();
  for (size_t step = 0; step < readings.size(); ++step) {
    delayed.Revise(readings[step]);
    compact.Revise(readings[step]);
    explicit_kb.Revise(readings[step]);
    std::printf("%-6zu %10llu %10llu %10llu\n", step + 1,
                static_cast<unsigned long long>(delayed.StoredSize()),
                static_cast<unsigned long long>(compact.StoredSize()),
                static_cast<unsigned long long>(explicit_kb.StoredSize()));
  }
  std::printf(
      "\n(Each strategy answers queries identically; Section 8's advice is\n"
      "to keep T and the P^i around — the delayed column.)\n");
  return 0;
}
