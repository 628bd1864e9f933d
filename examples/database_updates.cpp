// Database view-update scenario (the setting that motivated the
// formula-based operators: Fagin-Ullman-Vardi's PODS'83 work, and the
// bounded-P analysis of Section 4).
//
// A personnel database holds many facts and integrity constraints, while
// each incoming update touches a handful of letters.  This is exactly the
// paper's "bounded case": |T| is large, |P| <= k.  We run a stream of
// updates under Winslett's operator (the update semantics appropriate for
// a changing world) with the three storage strategies and report the
// stored representation sizes after every update — the compact strategy
// (Section 6's query-equivalent scheme) stays linear.

#include <cstdio>
#include <string>
#include <vector>

#include "core/knowledge_base.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "revision/operator.h"

namespace {

// Builds a department database: employees e0..e{n-1}, each with
// office/badge/parking facts and a few constraints.
revise::Theory BuildDatabase(int employees, revise::Vocabulary* vocabulary) {
  using revise::Formula;
  revise::Theory db;
  for (int i = 0; i < employees; ++i) {
    const std::string id = std::to_string(i);
    const Formula office =
        Formula::Variable(vocabulary->Intern("office_e" + id));
    const Formula badge =
        Formula::Variable(vocabulary->Intern("badge_e" + id));
    const Formula parking =
        Formula::Variable(vocabulary->Intern("parking_e" + id));
    const Formula remote =
        Formula::Variable(vocabulary->Intern("remote_e" + id));
    db.Add(office);
    db.Add(badge);
    // Integrity constraints: office workers hold badges; nobody is both
    // remote and assigned parking; remote implies no office.
    db.Add(Formula::Implies(office, badge));
    db.Add(Formula::Implies(remote, Formula::Not(office)));
    db.Add(Formula::Implies(parking, Formula::Not(remote)));
  }
  return db;
}

}  // namespace

int main() {
  using namespace revise;

  Vocabulary vocabulary;
  const int kEmployees = 6;
  const Theory db = BuildDatabase(kEmployees, &vocabulary);
  std::printf("database: %zu facts/constraints over %zu letters (|T| = %llu)\n",
              db.size(), db.Vars().size(),
              static_cast<unsigned long long>(db.VarOccurrences()));

  // A stream of small updates: employees go remote, lose badges, ...
  const std::vector<Formula> updates = {
      ParseOrDie("remote_e0", &vocabulary),
      ParseOrDie("!badge_e1", &vocabulary),
      ParseOrDie("remote_e2 & !parking_e2", &vocabulary),
      ParseOrDie("!office_e3", &vocabulary),
      ParseOrDie("remote_e4", &vocabulary),
  };

  const RevisionOperator* winslett = OperatorById(OperatorId::kWinslett);
  KnowledgeBase delayed =
      KnowledgeBase::Create(db, winslett, RevisionStrategy::kDelayed,
                            &vocabulary)
          .value();
  KnowledgeBase compact =
      KnowledgeBase::Create(db, winslett, RevisionStrategy::kCompact,
                            &vocabulary)
          .value();

  std::printf("\n%-6s %-28s %14s %14s\n", "step", "update", "delayed size",
              "compact size");
  for (size_t i = 0; i < updates.size(); ++i) {
    delayed.Revise(updates[i]);
    compact.Revise(updates[i]);
    std::printf("%-6zu %-28s %14llu %14llu\n", i + 1,
                ToString(updates[i], vocabulary).c_str(),
                static_cast<unsigned long long>(delayed.StoredSize()),
                static_cast<unsigned long long>(compact.StoredSize()));
  }

  // Query the updated database through both strategies.
  struct Query {
    const char* text;
    const char* description;
  };
  const Query queries[] = {
      {"!office_e0", "did e0 leave the office?"},
      {"badge_e0", "does e0 still hold a badge?"},
      {"office_e5", "is untouched e5 still in the office?"},
      {"!parking_e2", "did e2 lose the parking spot?"},
  };
  std::printf("\nqueries against T * P1 * ... * P%zu:\n", updates.size());
  for (const Query& q : queries) {
    const Formula query = ParseOrDie(q.text, &vocabulary);
    const bool a = delayed.Ask(query);
    const bool b = compact.Ask(query);
    std::printf("  %-34s %-14s -> %s%s\n", q.description, q.text,
                a ? "yes" : "no", a == b ? "" : "  (STRATEGY MISMATCH!)");
  }
  return 0;
}
