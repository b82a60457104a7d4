// Child processes: the campion_serve daemon under test, and the per-run
// children the repeat, smoke and A/B modes start so that every run's peak
// RSS belongs to that run alone.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>

#include "bench/e2e/e2e.h"

extern char** environ;

namespace campion::bench_e2e {

bool SpawnWithStdoutPipe(const std::vector<std::string>& argv, Child* child,
                         std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  // dup2 clears close-on-exec on the child's copy; both originals close.
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    *error = "cannot start " + argv[0] + ": " + std::strerror(rc);
    return false;
  }
  child->pid = pid;
  child->stdout_fd = fds[0];
  return true;
}

int CollectChild(Child* child, bool echo, std::string* output) {
  char buffer[4096];
  while (true) {
    const ssize_t n = ::read(child->stdout_fd, buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    output->append(buffer, static_cast<std::size_t>(n));
    if (echo) {
      std::cout.write(buffer, n);
      std::cout.flush();
    }
  }
  ::close(child->stdout_fd);
  child->stdout_fd = -1;
  int status = 0;
  while (::waitpid(child->pid, &status, 0) < 0 && errno == EINTR) {
  }
  child->pid = -1;
  return status;
}

}  // namespace campion::bench_e2e
