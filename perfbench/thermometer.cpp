#include "thermometer.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "common/error.hpp"

extern char** environ;

namespace perfbench {
namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One random cycle through `slots` slots (Sattolo's shuffle).
std::vector<std::uint32_t> make_cycle(std::size_t slots, std::uint64_t seed) {
  std::vector<std::uint32_t> next(slots);
  for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  for (std::size_t i = next.size() - 1; i > 0; --i)
    std::swap(next[i], next[splitmix(seed) % i]);
  return next;
}

std::uint32_t chase(const std::vector<std::uint32_t>& next, int steps) {
  std::uint32_t p = 0;
  for (int i = 0; i < steps; ++i) p = next[p];
  return p;
}

/// Kept so the compiler cannot drop a pass's work.
volatile std::uint64_t g_sink = 0;

void write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw hpas::SystemError("perfbench: thermometer pipe write");
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// One pass on the calling thread; returns its milliseconds.
double one_pass_ms(const std::vector<std::uint32_t>& cycle) {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t state = 0x5eedULL, sum = 0;
  for (int i = 0; i < 5'000'000; ++i) sum += splitmix(state);
  sum += chase(cycle, 150'000);
  g_sink = sum;
  return seconds_between(t0, Clock::now()) * 1e3;
}

}  // namespace

int thermometer_main() {
  // 4 MiB: past the private caches, within a shared last-level one.
  const std::vector<std::uint32_t> cycle = make_cycle(std::size_t{1} << 20, 1);
  unsigned char threads = 0;
  while (::read(STDIN_FILENO, &threads, 1) == 1) {
    std::vector<double> ms(std::max<std::size_t>(threads, 1));
    std::vector<std::thread> team;
    for (std::size_t t = 1; t < ms.size(); ++t)
      team.emplace_back([&ms, &cycle, t] { ms[t] = one_pass_ms(cycle); });
    ms[0] = one_pass_ms(cycle);
    for (std::thread& th : team) th.join();
    double sum = 0;
    for (double x : ms) sum += x;
    const std::string line =
        std::to_string(sum / static_cast<double>(ms.size())) + "\n";
    write_all(STDOUT_FILENO, line.data(), line.size());
  }
  return 0;
}

Thermometer::Thermometer(int threads)
    : threads_(static_cast<unsigned char>(std::clamp(threads, 1, 64))) {
  int down[2], up[2];
  if (::pipe2(down, O_CLOEXEC) != 0) throw hpas::SystemError("perfbench: pipe");
  if (::pipe2(up, O_CLOEXEC) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    throw hpas::SystemError("perfbench: pipe");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, down[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, up[1], STDOUT_FILENO);
  char arg0[] = "perfbench_workloads";
  char arg1[] = "--thermometer";
  char* argv[] = {arg0, arg1, nullptr};
  const int rc = posix_spawn(&child_, "/proc/self/exe", &actions, nullptr,
                             argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(down[0]);
  ::close(up[1]);
  to_child_ = down[1];
  from_child_ = up[0];
  if (rc != 0) {
    child_ = -1;
    ::close(to_child_);
    ::close(from_child_);
    throw hpas::SystemError("perfbench: cannot start the thermometer");
  }
}

Thermometer::~Thermometer() {
  // Closing its stdin ends the child's loop; wait until it has exited.
  ::close(to_child_);
  ::close(from_child_);
  int status = 0;
  while (::waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
}

double Thermometer::pass() {
  write_all(to_child_, reinterpret_cast<const char*>(&threads_), 1);
  std::string line;
  char c = 0;
  while (true) {
    const ssize_t n = ::read(from_child_, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n != 1) throw hpas::SystemError("perfbench: thermometer died");
    if (c == '\n') break;
    line.push_back(c);
  }
  const double ms = std::stod(line);
  passes_.push_back(ms);
  last_ = Clock::now();
  return ms;
}

void Thermometer::pass_every(double interval_s) {
  if (passes_.empty() || seconds_between(last_, Clock::now()) >= interval_s)
    pass();
}

}  // namespace perfbench
