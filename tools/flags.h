// Flag parsing shared by the command-line tools (modbd, loadgen,
// chaosproxy): every flag is spelled --name=value.

#ifndef MODB_TOOLS_FLAGS_H_
#define MODB_TOOLS_FLAGS_H_

#include <cstdlib>
#include <cstring>
#include <string>

namespace modb::tools {

/// True when `arg` is `flag=N` with N a whole base-10 integer; stores N
/// in *out. A malformed N makes the flag unrecognized.
inline bool ParseInt(const char* arg, const char* flag, long* out) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  char* end = nullptr;
  *out = std::strtol(arg + n + 1, &end, 10);
  return end != nullptr && *end == '\0';
}

/// True when `arg` is `flag=S`; stores S in *out.
inline bool ParseStr(const char* arg, const char* flag, std::string* out) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace modb::tools

#endif  // MODB_TOOLS_FLAGS_H_
