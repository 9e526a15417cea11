// Host fingerprint carried by every result record, so a cross-host or
// portable-vs-native comparison shows up in the diff of two records.
#pragma once

#include <string>

namespace perfbench {

/// JSON object: nproc, PELTA_THREADS (as set and as used), CPU ISA flags,
/// build type, PELTA_NATIVE, compiler and source commit.
std::string host_fingerprint_json();

}  // namespace perfbench
