#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common.hpp"

namespace pb {

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void on_interrupt(int) { g_interrupted = 1; }

}  // namespace

bool interrupted() { return g_interrupted != 0; }

void install_interrupt_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_interrupt;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
}

Daemon::Daemon(std::string binary, std::vector<std::string> args,
               std::string workdir, std::string log_path)
    : binary_(std::move(binary)),
      args_(std::move(args)),
      workdir_(std::move(workdir)),
      log_path_(std::move(log_path)) {}

Daemon::~Daemon() { stop(); }

bool Daemon::start(double timeout_s, std::string* error) {
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> argv_store;
  argv_store.push_back(binary_);
  argv_store.insert(argv_store.end(), args_.begin(), args_.end());
  std::vector<char*> argv;
  for (std::string& s : argv_store) {
    argv.push_back(s.data());
  }
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);  // parent already gone
    }
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGPIPE, SIG_DFL);
    if (::chdir(workdir_.c_str()) != 0) {
      ::_exit(127);
    }
    ::dup2(out_pipe[1], STDOUT_FILENO);
    const int log = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    if (log >= 0) {
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  pid_ = pid;
  stdout_fd_ = out_pipe[0];
  // A pid file beside the log lets a later run find this daemon should
  // this process die without reaping it.
  std::string pid_path = log_path_;
  const std::size_t dot = pid_path.rfind('.');
  pid_path = (dot == std::string::npos ? pid_path : pid_path.substr(0, dot)) + ".pid";
  std::ofstream(pid_path) << pid << "\n";

  // Read until the READY line (or EOF / timeout).
  std::string got;
  const double deadline = now_us() + timeout_s * 1e6;
  while (got.find('\n') == std::string::npos) {
    const double left_ms = (deadline - now_us()) / 1000.0;
    if (left_ms <= 0 || interrupted()) {
      *error = "wormrtd did not print READY within the start timeout";
      stop(0.5);
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::min(left_ms, 200.0)));
    if (rc < 0 && errno != EINTR) {
      *error = std::string("poll: ") + std::strerror(errno);
      stop(0.5);
      return false;
    }
    if (rc <= 0) {
      continue;
    }
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
    if (n <= 0) {
      *error = "wormrtd exited before READY (see " + log_path_ + ")";
      stop(0.5);
      return false;
    }
    got.append(buf, static_cast<std::size_t>(n));
  }
  if (got.rfind("READY ", 0) != 0) {
    *error = "unexpected wormrtd banner: " + got;
    stop(0.5);
    return false;
  }
  return true;
}

double Daemon::peak_rss_mb() const {
  if (pid_ <= 0) {
    return 0.0;
  }
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

void Daemon::reap_blocking() {
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

void Daemon::kill_hard() {
  if (pid_ <= 0) {
    return;
  }
  ::kill(pid_, SIGKILL);
  reap_blocking();
}

void Daemon::stop(double grace_s) {
  if (pid_ <= 0) {
    return;
  }
  ::kill(pid_, SIGTERM);
  const double deadline = now_us() + grace_s * 1e6;
  while (now_us() < deadline) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      pid_ = -1;
      if (stdout_fd_ >= 0) {
        ::close(stdout_fd_);
        stdout_fd_ = -1;
      }
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill_hard();
}

}  // namespace pb
