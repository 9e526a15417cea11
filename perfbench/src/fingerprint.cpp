#include "fingerprint.h"

#include <cstdlib>
#include <sstream>
#include <thread>

#include "tensor/parallel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

namespace perfbench {

namespace {

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

const char* flag(bool on) { return on ? "true" : "false"; }

}  // namespace

std::string host_fingerprint_json() {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"pelta_threads_env\": \"" << env_or("PELTA_THREADS", "") << "\""
     << ", \"pelta_threads_used\": " << pelta::parallel_thread_count();
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  os << ", \"isa\": {\"avx2\": " << flag(__builtin_cpu_supports("avx2"))
     << ", \"fma\": " << flag(__builtin_cpu_supports("fma"))
     << ", \"avx512f\": " << flag(__builtin_cpu_supports("avx512f"))
     << ", \"avx512_vnni\": " << flag(__builtin_cpu_supports("avx512vnni")) << "}";
#else
  os << ", \"isa\": {}";
#endif
  os << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"pelta_native\": " << flag(PERFBENCH_NATIVE != 0)
     << ", \"compiler\": \"" << __VERSION__ << "\""
     << ", \"commit\": \"" << env_or("PERFBENCH_COMMIT", "unknown") << "\"}";
  return os.str();
}

}  // namespace perfbench
