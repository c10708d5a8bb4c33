#pragma once

// One wormrtd child process, owned for its whole life: started with a
// private state dir and socket, reaped on every exit path.

#include <sys/types.h>

#include <string>
#include <vector>

namespace pb {

class Daemon {
 public:
  /// \p args excludes argv[0]; stderr goes to \p log_path.  The child
  /// runs with \p workdir as its cwd, so a relative socket path stays
  /// short whatever the checkout path is.
  Daemon(std::string binary, std::vector<std::string> args,
         std::string workdir, std::string log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Forks, execs and waits for the "READY ..." line.  The child gets
  /// PR_SET_PDEATHSIG(SIGKILL), so it dies with this process even when
  /// this process is killed outright.  Call from the main thread only:
  /// the death signal follows the forking thread.
  bool start(double timeout_s, std::string* error);

  pid_t pid() const { return pid_; }

  /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double peak_rss_mb() const;

  /// SIGTERM, wait up to \p grace_s, then SIGKILL; always reaps.
  void stop(double grace_s = 5.0);

 private:
  std::string binary_;
  std::vector<std::string> args_;
  std::string workdir_;
  std::string log_path_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;

  /// SIGKILL and reap.
  void kill_hard();
  void reap_blocking();
};

/// Set by the SIGINT/SIGTERM handler; load loops poll it and unwind so
/// every Daemon destructor runs.
bool interrupted();
void install_interrupt_handlers();

}  // namespace pb
