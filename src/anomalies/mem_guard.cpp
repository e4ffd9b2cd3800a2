#include "anomalies/mem_guard.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/bytes.hpp"

namespace hpas::anomalies {
namespace {

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  std::uint64_t value = 0;
  bool any = false;
  for (char c : text) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
      any = true;
    } else if (any) {
      break;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      return std::nullopt;
    }
  }
  if (!any) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::uint64_t> parse_meminfo_available(const std::string& text) {
  // Line format: "MemAvailable:    1234567 kB"
  const std::string key = "MemAvailable:";
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto kb = parse_u64(line.substr(key.size()));
    if (!kb) return std::nullopt;
    return *kb * 1024;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> parse_cgroup_bytes(const std::string& text) {
  // memory.max is either "max\n" (no limit) or a decimal byte count.
  std::string trimmed = text;
  while (!trimmed.empty() &&
         std::isspace(static_cast<unsigned char>(trimmed.back())))
    trimmed.pop_back();
  if (trimmed == "max") return std::nullopt;
  return parse_u64(trimmed);
}

std::optional<std::uint64_t> available_memory_bytes() {
  std::optional<std::uint64_t> headroom;
  if (const auto meminfo = read_file("/proc/meminfo")) {
    if (const auto avail = parse_meminfo_available(*meminfo))
      headroom = *avail;
  }
  // Unified-hierarchy (cgroup v2) limit for the cgroup this process runs
  // in. Nested cgroups would require walking /proc/self/cgroup; the root
  // of the mounted hierarchy is the common container case and is where
  // the OOM kill actually bites.
  const auto max_text = read_file("/sys/fs/cgroup/memory.max");
  const auto cur_text = read_file("/sys/fs/cgroup/memory.current");
  if (max_text && cur_text) {
    const auto limit = parse_cgroup_bytes(*max_text);
    const auto current = parse_cgroup_bytes(*cur_text);
    if (limit && current) {
      const std::uint64_t cg = *limit > *current ? *limit - *current : 0;
      headroom = headroom ? std::min(*headroom, cg) : cg;
    }
  }
  return headroom;
}

}  // namespace hpas::anomalies
