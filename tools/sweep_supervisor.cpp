// sweep_supervisor: a supervised-resume harness for crash-safe sweeps.
//
// Launches a sweep command (typically tools/storm_sweep.cpp) as a child
// process and keeps it honest:
//
//   * a clean exit (0) ends the supervision successfully;
//   * sim::kInterruptedExitStatus (75) means the child drained gracefully
//     after a signal and persisted its state -- the supervisor STOPS and
//     propagates 75 (the operator asked the whole tree to stop, not just the
//     child);
//   * any other exit -- a non-zero status, a SIGKILL, a SIGABRT from
//     PR_FAULT_ABORT_UNIT -- is a crash: the supervisor relaunches the child
//     with --resume-from-latest appended (when not already present), up to
//     --max-restarts times.  Every persisted checkpoint generation is a
//     canonical prefix, so each incarnation makes forward progress and a
//     crash-looping sweep still converges to the bit-identical final state;
//   * a WEDGED child (alive but no longer persisting generations) is detected
//     out-of-process: with --store and --wedge-timeout-ms, the supervisor
//     watches the store directory for new generation files and SIGKILLs the
//     child when none appears within the timeout while it is still running --
//     then resumes it like any other crash.
//
// SIGINT/SIGTERM sent to the supervisor are forwarded to the child, which is
// expected to drain and exit 75.
//
//   $ sweep_supervisor --max-restarts 5 --wedge-timeout-ms 5000
//       --store /tmp/store -- ./storm_sweep --scenarios 20000
//       --ckpt-dir /tmp/store --ckpt-every 500u
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/checkpoint_store.hpp"
#include "sim/run_control.hpp"
#include "sim/signal_guard.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::size_t max_restarts = 5;
  std::size_t wedge_timeout_ms = 0;  // 0 = wedge detection off
  std::size_t poll_ms = 20;
  std::string store;
  std::vector<std::string> child;  // everything after "--"
};

[[noreturn]] void usage_error(const std::string& detail) {
  std::cerr << "sweep_supervisor: " << detail << "\n"
            << "usage: sweep_supervisor [--max-restarts N] [--wedge-timeout-ms N]\n"
            << "                        [--poll-ms N] [--store DIR] -- CMD [ARG...]\n";
  std::exit(1);
}

std::size_t count_arg(const char* value, const char* flag, std::size_t max_value) {
  std::size_t out = 0;
  if (!pr::sim::parse_count_arg(value, max_value, out)) {
    usage_error(std::string(flag) + " expects a decimal in [0, " +
                std::to_string(max_value) + "], got '" + value + "'");
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args args;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--") {
      ++i;
      break;
    }
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(flag + " expects a value");
      return argv[++i];
    };
    if (flag == "--max-restarts") {
      args.max_restarts = count_arg(value(), "--max-restarts", 100000);
    } else if (flag == "--wedge-timeout-ms") {
      args.wedge_timeout_ms = count_arg(value(), "--wedge-timeout-ms", 86400000);
    } else if (flag == "--poll-ms") {
      args.poll_ms = count_arg(value(), "--poll-ms", 60000);
      if (args.poll_ms == 0) usage_error("--poll-ms must be > 0");
    } else if (flag == "--store") {
      args.store = value();
    } else {
      usage_error("unknown flag '" + flag + "' (child command goes after --)");
    }
  }
  for (; i < argc; ++i) args.child.emplace_back(argv[i]);
  if (args.child.empty()) usage_error("no child command given (after --)");
  if (args.wedge_timeout_ms != 0 && args.store.empty()) {
    usage_error("--wedge-timeout-ms requires --store (the generation files ARE "
                "the heartbeat)");
  }
  return args;
}

// Signal forwarding: the handler only reads/writes lock-free atomics and
// calls kill(), both async-signal-safe.  Forwarding rather than handling --
// the CHILD owns graceful drain; the supervisor just relays the request.
std::atomic<pid_t> g_child_pid{0};
std::atomic<int> g_forwarded{0};

void forward_signal(int signo) {
  g_forwarded.store(signo, std::memory_order_relaxed);
  const pid_t child = g_child_pid.load(std::memory_order_relaxed);
  if (child > 0) ::kill(child, signo);
}

/// Newest generation number in the store directory, 0 when none -- also
/// before the child has created the directory.  A fresh scan per poll: the
/// supervisor deliberately shares no state with the child but the filesystem.
std::uint64_t newest_generation(const std::string& store) {
  try {
    const std::vector<std::uint64_t> on_disk =
        pr::analysis::CheckpointStore::generations(store);
    return on_disk.empty() ? 0 : on_disk.back();
  } catch (const pr::analysis::CheckpointStoreError&) {
    return 0;
  }
}

pid_t spawn(const std::vector<std::string>& command) {
  std::vector<char*> argv;
  argv.reserve(command.size() + 1);
  for (const std::string& arg : command) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execvp(argv[0], argv.data());
    // Only reached when exec failed; 127 is the shell's "command not found".
    std::cerr << "sweep_supervisor: exec '" << command[0]
              << "' failed: " << std::strerror(errno) << "\n";
    ::_exit(127);
  }
  if (pid < 0) {
    std::cerr << "sweep_supervisor: fork failed: " << std::strerror(errno) << "\n";
    std::exit(1);
  }
  return pid;
}

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  }
  return "unknown wait status " + std::to_string(status);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  struct sigaction action {};
  action.sa_handler = forward_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: waitpid polling tolerates EINTR
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  std::vector<std::string> command = args.child;
  std::size_t restarts = 0;
  while (true) {
    const pid_t child = spawn(command);
    g_child_pid.store(child, std::memory_order_relaxed);
    // A signal delivered between spawn attempts must still reach the new
    // child -- same handoff rule as SignalGuard::rebind.
    if (const int signo = g_forwarded.load(std::memory_order_relaxed)) {
      ::kill(child, signo);
    }

    std::uint64_t last_generation =
        args.wedge_timeout_ms != 0 ? newest_generation(args.store) : 0;
    Clock::time_point last_progress = Clock::now();
    bool wedge_killed = false;
    int status = 0;
    while (true) {
      const pid_t waited = ::waitpid(child, &status, WNOHANG);
      if (waited == child) break;
      if (waited < 0 && errno != EINTR) {
        std::cerr << "sweep_supervisor: waitpid failed: " << std::strerror(errno)
                  << "\n";
        return 1;
      }
      if (args.wedge_timeout_ms != 0 && !wedge_killed) {
        const std::uint64_t now_generation = newest_generation(args.store);
        if (now_generation != last_generation) {
          last_generation = now_generation;
          last_progress = Clock::now();
        } else if (Clock::now() - last_progress >
                   std::chrono::milliseconds(args.wedge_timeout_ms)) {
          std::cerr << "sweep_supervisor: child " << child
                    << " wedged (no new generation in " << args.wedge_timeout_ms
                    << " ms), killing\n";
          ::kill(child, SIGKILL);
          wedge_killed = true;  // keep waiting for the corpse, kill only once
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(args.poll_ms));
    }
    g_child_pid.store(0, std::memory_order_relaxed);

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      std::cerr << "sweep_supervisor: child completed after " << restarts
                << " restart(s)\n";
      return 0;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == pr::sim::kInterruptedExitStatus) {
      std::cerr << "sweep_supervisor: child interrupted gracefully, state "
                   "saved; stopping\n";
      return pr::sim::kInterruptedExitStatus;
    }
    if (restarts >= args.max_restarts) {
      std::cerr << "sweep_supervisor: giving up after " << restarts
                << " restart(s); last child " << describe_exit(status) << "\n";
      return 2;
    }
    ++restarts;
    // First relaunch: make sure the child resumes instead of starting over.
    bool has_resume = false;
    for (const std::string& arg : command) {
      if (arg == "--resume-from-latest") has_resume = true;
    }
    if (!has_resume) command.emplace_back("--resume-from-latest");
    std::cerr << "sweep_supervisor: restart " << restarts << "/"
              << args.max_restarts << " after " << describe_exit(status)
              << (wedge_killed ? " (wedge kill)" : "") << "\n";
  }
}
