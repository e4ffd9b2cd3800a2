// Runs the `hpas` CLI as a child process, for tests whose subject is a
// second process contending with this one. HPAS_BIN names the binary
// (a compile definition, see tests/CMakeLists.txt).
#pragma once

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

/// Runs `hpas args...` with stdout and stderr in `log`; returns its exit
/// status, or -1 when it did not exit normally. A child still running
/// after 60 s is killed by SIGALRM (a `serve` that should have been
/// refused would otherwise hang the test).
inline int run_hpas(const std::vector<std::string>& args,
                    const std::string& log) {
  std::vector<std::string> argv_storage = args;
  argv_storage.insert(argv_storage.begin(), HPAS_BIN);
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) ::_exit(126);
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::alarm(60);  // survives execv
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}
