// Whole-file reads for the loaders of files from outside (pcap captures,
// fpDNS datasets, saved models).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dnsnoise {

/// The bytes of the regular file at `path`.  Throws std::runtime_error
/// when the path cannot be opened, is not a regular file (a directory
/// opens as a stream whose reported size is huge), cannot be sized or
/// cannot be read; it never sizes a buffer from anything but a regular
/// file's length.
std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace dnsnoise
