#include "util/file.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace dnsnoise {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    throw std::runtime_error("not a regular file " + path);
  }
  const std::streamsize size = in.tellg();
  if (size < 0) throw std::runtime_error("cannot size " + path);
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error("read failed for " + path);
  return bytes;
}

}  // namespace dnsnoise
