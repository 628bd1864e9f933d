// The verification pass, run outside the timed loop.  Three checks:
//
//  1. strategies agree: the session re-run under every other strategy
//     Create accepts for its operator gives the same Ask / IsModel
//     answers and the same Models() sets (compact is skipped for the
//     Section 6 operators when an update has more than six letters);
//  2. known answers: the Theorem 3.6 IsModel(C_pi) and Theorem 3.1
//     Ask(Q_pi) answers equal brute-force 3-SAT of pi (in every session);
//  3. for alphabets of at most fuzz::kMaxOracleAlphabet letters, the
//     first few (T, P^i) pairs pass the fuzzer's operator-reference
//     oracle.

#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "session.h"
#include "workloads.h"

namespace perfbench {

struct VerifyReport {
  uint64_t checks = 0;         // comparisons made
  uint64_t wrong_answers = 0;  // comparisons that disagreed
  uint64_t attempted = 0;      // operations run by the re-runs
  uint64_t failed = 0;         // of which failed
  uint64_t skipped = 0;        // compact re-runs skipped on wide updates
  uint64_t oracle_scenarios = 0;  // (T, P^i) pairs given to the oracle
  std::vector<std::string> details;  // the first few disagreements
};

// Checks 1 and 3 run on the first `deep_sessions` sessions; check 2 on
// all.  transcripts[i] is what specs[i] returned in the measured run.
VerifyReport Verify(const std::vector<SessionSpec>& specs,
                    const std::vector<Transcript>& transcripts,
                    size_t deep_sessions);

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
