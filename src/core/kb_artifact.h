// Save / load a KnowledgeBase as a compiled .rkb artifact.
//
// Saving compiles the knowledge base's current state — theory, update
// sequence, folded representation (under kCompact that is the paper's
// precomputed compact revision, fresh letters included) and the canonical
// model set — into the checksummed container of src/artifact/.  Loading
// validates every checksum, reconstructs the formulas over the caller's
// vocabulary and seeds the Models() memo from the packed rows, so queries
// after a cold start answer on the memo instead of an enumeration or a
// SAT encoding of the folded formula.

#ifndef REVISE_CORE_KB_ARTIFACT_H_
#define REVISE_CORE_KB_ARTIFACT_H_

#include <string>

#include "core/knowledge_base.h"
#include "logic/vocabulary.h"
#include "util/status.h"

namespace revise {

// Compiles `kb` into a .rkb file at `path`, replacing any file there
// atomically: on failure the previous file is left as it was.  Computes
// the model set if the KB has not materialized it yet.
Status SaveKnowledgeBaseArtifact(const KnowledgeBase& kb,
                                 const std::string& path);

// Loads a .rkb file, interning its names into `*vocabulary` (which need
// not be empty; variable ids are remapped).  `vocabulary` must outlive
// the returned knowledge base.
StatusOr<KnowledgeBase> LoadKnowledgeBaseArtifact(const std::string& path,
                                                  Vocabulary* vocabulary);

}  // namespace revise

#endif  // REVISE_CORE_KB_ARTIFACT_H_
