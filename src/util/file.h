// Whole-file reads with every failure reported as a Status.
//
// The library's loaders (.rkb artifacts, theory text, fuzz corpus
// entries) all read a file whole; these two calls are the one place that
// does it.  The path must name a non-empty regular file: a directory has
// no byte size to read, and opening a FIFO with no writer would block
// forever, so both are rejected before anything is opened.  No file the
// library writes is empty, so a zero-byte file is a truncated or
// unwritten one and is rejected too.  The read itself is checked, and the
// bytes land directly in the buffer the caller keeps.

#ifndef REVISE_UTIL_FILE_H_
#define REVISE_UTIL_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace revise::util {

// The contents of the file at `path`.  NotFound when it does not exist or
// cannot be opened; InvalidArgument when it is not a regular file or is
// empty; Internal when the read fails or comes up short.
StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

// ReadFileBytes for text files.
StatusOr<std::string> ReadFileText(const std::string& path);

}  // namespace revise::util

#endif  // REVISE_UTIL_FILE_H_
