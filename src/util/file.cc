#include "util/file.h"

#include <filesystem>
#include <fstream>
#include <system_error>

namespace revise::util {

namespace {

template <typename Buffer>
StatusOr<Buffer> ReadWholeFile(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status status = fs::status(path, ec);
  if (status.type() == fs::file_type::not_found) {
    return NotFoundError("no such file: " + path);
  }
  if (ec) {
    return NotFoundError("cannot open " + path + ": " + ec.message());
  }
  if (!fs::is_regular_file(status)) {
    return InvalidArgumentError(path + ": not a regular file");
  }
  const uintmax_t size = fs::file_size(path, ec);
  if (ec) {
    return InternalError("cannot size " + path + ": " + ec.message());
  }
  if (size == 0) {
    return InvalidArgumentError(path + ": empty file");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  Buffer buffer;
  buffer.resize(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(buffer.data()),
          static_cast<std::streamsize>(size));
  if (static_cast<uintmax_t>(in.gcount()) != size) {
    return InternalError("short read of " + path + ": " +
                         std::to_string(in.gcount()) + " of " +
                         std::to_string(size) + " bytes");
  }
  return buffer;
}

}  // namespace

StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  return ReadWholeFile<std::vector<uint8_t>>(path);
}

StatusOr<std::string> ReadFileText(const std::string& path) {
  return ReadWholeFile<std::string>(path);
}

}  // namespace revise::util
