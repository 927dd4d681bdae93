// End-to-end crash-safety of the tool pair tools/storm_sweep.cpp +
// tools/sweep_supervisor.cpp, exercised as real processes (ctest runs from
// the build directory, so the binaries are siblings of this test; override
// with $PR_TOOL_DIR).  The contract under test is the paper's crash-only
// story applied to the analysis pipeline: SIGKILL a sweep mid-run at any
// thread count, resume from the durable store, and the final checkpoint --
// bytes AND digest -- is identical to an uninterrupted run's; a supervised
// child that keeps aborting (PR_FAULT_ABORT_UNIT) or wedging (stall + wedge
// timeout) still converges to that same state; SIGTERM drains gracefully to
// the distinct exit status 75 end to end.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

/// The directory holding storm_sweep / sweep_supervisor: the build dir ctest
/// runs from, unless $PR_TOOL_DIR points elsewhere.
std::string tool_path(const char* name) {
  const char* dir = std::getenv("PR_TOOL_DIR");
  return std::string(dir != nullptr ? dir : ".") + "/" + name;
}

struct TempDir {
  fs::path path;

  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("pr_supervisor_test_") + info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }

  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

using EnvList = std::vector<std::pair<std::string, std::string>>;

/// fork/exec with stdout+stderr redirected to `log_path` and `env` applied in
/// the child only -- fault-injection variables must never leak into this test
/// process or its siblings.
pid_t spawn_tool(const std::vector<std::string>& command,
                 const std::string& log_path, const EnvList& env) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    for (const auto& [key, value] : env) ::setenv(key.c_str(), value.c_str(), 1);
    std::vector<char*> argv;
    argv.reserve(command.size() + 1);
    for (const std::string& arg : command) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

int wait_status(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

int run_tool(const std::vector<std::string>& command, const std::string& log_path,
             const EnvList& env = {}) {
  return wait_status(spawn_tool(command, log_path, env));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The last "<key><value>" token in `text` (e.g. key "state_digest=");
/// empty when absent.
std::string last_value(const std::string& text, const std::string& key) {
  const std::size_t pos = text.rfind(key);
  if (pos == std::string::npos) return {};
  std::size_t end = pos + key.size();
  while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end]))) {
    ++end;
  }
  return text.substr(pos + key.size(), end - pos - key.size());
}

std::size_t generation_count(const fs::path& store) {
  std::size_t count = 0;
  std::error_code ec;
  fs::directory_iterator it(store, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && name.size() > 12 &&
        name.compare(name.size() - 7, 7, ".prckpt") == 0) {
      ++count;
    }
  }
  return count;
}

/// Blocks until the store holds >= `want` generation files (the out-of-process
/// progress signal) or the deadline passes.
bool wait_for_generations(const fs::path& store, std::size_t want,
                          std::chrono::seconds deadline = std::chrono::seconds(60)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (generation_count(store) >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Bytes of the highest-numbered generation file, nullopt when none.
std::optional<std::string> newest_generation_bytes(const fs::path& store) {
  std::uint64_t newest = 0;
  fs::path newest_path;
  std::error_code ec;
  fs::directory_iterator it(store, ec);
  if (ec) return std::nullopt;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0 || name.size() <= 12 ||
        name.compare(name.size() - 7, 7, ".prckpt") != 0) {
      continue;
    }
    const std::uint64_t gen = std::strtoull(name.substr(5, name.size() - 12).c_str(),
                                            nullptr, 10);
    if (gen >= newest) {
      newest = gen;
      newest_path = entry.path();
    }
  }
  if (newest == 0) return std::nullopt;
  return read_file(newest_path.string());
}

/// Common storm_sweep experiment flags (everything but threads/store knobs):
/// identical across the reference and every interrupted incarnation, which is
/// what the bit-identity claims are ABOUT.
std::vector<std::string> sweep_command(std::size_t scenarios) {
  return {tool_path("storm_sweep"),
          "--topology", "abilene",
          "--scenarios", std::to_string(scenarios),
          "--seed",      "99",
          "--top-k",     "5"};
}

/// Runs the uninterrupted reference sweep into its own store; returns the
/// printed state digest and the final generation's bytes.
std::pair<std::string, std::string> reference_run(const TempDir& dir,
                                                  std::size_t scenarios) {
  const std::string store = dir.file("reference_store");
  auto command = sweep_command(scenarios);
  command.insert(command.end(), {"--threads", "2", "--ckpt-dir", store});
  const int status = run_tool(command, dir.file("reference.log"));
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << read_file(dir.file("reference.log"));
  const std::string digest =
      last_value(read_file(dir.file("reference.log")), "state_digest=");
  EXPECT_FALSE(digest.empty());
  EXPECT_NE(digest, "0");
  const auto bytes = newest_generation_bytes(store);
  EXPECT_TRUE(bytes.has_value());
  return {digest, bytes.value_or("")};
}

TEST(SupervisorTest, SigkillMidSweepThenResumeIsBitIdentical) {
  TempDir dir;
  constexpr std::size_t kScenarios = 1200;
  const auto [ref_digest, ref_bytes] = reference_run(dir, kScenarios);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const std::string store = dir.file("store_t" + std::to_string(threads));
    auto command = sweep_command(kScenarios);
    command.insert(command.end(),
                   {"--threads", std::to_string(threads), "--ckpt-dir", store,
                    "--ckpt-every", "50u,10ms"});

    // A long stall at run-relative unit 600 pins the sweep mid-run so the
    // SIGKILL below is guaranteed to land before completion.
    const std::string kill_log = dir.file("kill_t" + std::to_string(threads) + ".log");
    const pid_t pid =
        spawn_tool(command, kill_log, {{"PR_FAULT_STALL_UNIT", "600:30000"}});
    ASSERT_TRUE(wait_for_generations(store, 1)) << read_file(kill_log);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    const int status = wait_status(pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // Resume in a fresh process (no fault plan) and finish.
    auto resume = command;
    resume.emplace_back("--resume-from-latest");
    const std::string resume_log =
        dir.file("resume_t" + std::to_string(threads) + ".log");
    const int resume_status = run_tool(resume, resume_log);
    const std::string log = read_file(resume_log);
    ASSERT_TRUE(WIFEXITED(resume_status) && WEXITSTATUS(resume_status) == 0) << log;
    EXPECT_NE(log.find("resuming from generation"), std::string::npos) << log;
    EXPECT_EQ(last_value(log, "resumed="), "1") << log;
    EXPECT_EQ(last_value(log, "completed="), std::to_string(kScenarios)) << log;

    // The proof: digest AND raw final-generation bytes match the reference.
    EXPECT_EQ(last_value(log, "state_digest="), ref_digest) << log;
    const auto bytes = newest_generation_bytes(store);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(*bytes, ref_bytes);
  }
}

TEST(SupervisorTest, RestartsAbortingChildUntilConvergence) {
  TempDir dir;
  constexpr std::size_t kScenarios = 1000;
  const auto [ref_digest, ref_bytes] = reference_run(dir, kScenarios);

  const std::string store = dir.file("store");
  std::vector<std::string> command = {tool_path("sweep_supervisor"),
                                      "--max-restarts", "10",
                                      "--store", store,
                                      "--"};
  auto child = sweep_command(kScenarios);
  child.insert(child.end(), {"--threads", "2", "--ckpt-dir", store,
                             "--ckpt-every", "40u"});
  command.insert(command.end(), child.begin(), child.end());

  // Every incarnation aborts 250 units past its resume point.  The 50 ms
  // stall at unit 200 holds the watermark still long enough for the 40u
  // cadence to seal the 200-unit prefix and for its persist (fsync
  // included) to finish before the abort, so each crash-loop incarnation
  // banks ~200 units and the sweep must converge well within the restart
  // budget.
  const std::string log_path = dir.file("supervised.log");
  const int status =
      run_tool(command, log_path,
               {{"PR_FAULT_STALL_UNIT", "200:50"}, {"PR_FAULT_ABORT_UNIT", "250"}});
  const std::string log = read_file(log_path);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << log;
  EXPECT_NE(log.find("sweep_supervisor: restart 1/10"), std::string::npos) << log;
  EXPECT_NE(log.find("child completed after"), std::string::npos) << log;

  EXPECT_EQ(last_value(log, "state_digest="), ref_digest) << log;
  const auto bytes = newest_generation_bytes(store);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, ref_bytes);
}

TEST(SupervisorTest, WedgeKillDetectsStalledChildAndResumes) {
  TempDir dir;
  constexpr std::size_t kScenarios = 600;
  const auto [ref_digest, ref_bytes] = reference_run(dir, kScenarios);

  const std::string store = dir.file("store");
  std::vector<std::string> command = {tool_path("sweep_supervisor"),
                                      "--max-restarts", "10",
                                      "--wedge-timeout-ms", "2000",
                                      "--poll-ms", "20",
                                      "--store", store,
                                      "--"};
  auto child = sweep_command(kScenarios);
  child.insert(child.end(), {"--threads", "2", "--ckpt-dir", store,
                             "--ckpt-every", "30u"});
  command.insert(command.end(), child.begin(), child.end());

  // The child wedges (60 s stall) at run-relative unit 250 every incarnation:
  // generations stop appearing, the supervisor SIGKILLs on the wedge timeout,
  // and the resume banks the ~250 units already checkpointed.  The final
  // incarnation has < 250 units left and completes.
  const std::string log_path = dir.file("supervised.log");
  const int status =
      run_tool(command, log_path, {{"PR_FAULT_STALL_UNIT", "250:60000"}});
  const std::string log = read_file(log_path);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << log;
  EXPECT_NE(log.find("wedged (no new generation in 2000 ms)"), std::string::npos)
      << log;
  EXPECT_NE(log.find("(wedge kill)"), std::string::npos) << log;
  EXPECT_NE(log.find("child completed after"), std::string::npos) << log;

  EXPECT_EQ(last_value(log, "state_digest="), ref_digest) << log;
  const auto bytes = newest_generation_bytes(store);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, ref_bytes);
}

TEST(SupervisorTest, SigtermDrainsGracefullyAndPropagates75) {
  TempDir dir;
  constexpr std::size_t kScenarios = 3000;
  const auto [ref_digest, ref_bytes] = reference_run(dir, kScenarios);

  const std::string store = dir.file("store");
  std::vector<std::string> command = {tool_path("sweep_supervisor"),
                                      "--max-restarts", "3",
                                      "--store", store,
                                      "--"};
  auto child = sweep_command(kScenarios);
  child.insert(child.end(), {"--threads", "2", "--ckpt-dir", store,
                             "--ckpt-every", "50u"});
  command.insert(command.end(), child.begin(), child.end());

  // A 3 s stall at unit 500 keeps the child mid-run while the SIGTERM lands;
  // the drain then waits out the stalled unit, persists the final prefix,
  // and exits 75 -- which the supervisor forwards and then propagates.
  const std::string log_path = dir.file("supervised.log");
  const pid_t pid =
      spawn_tool(command, log_path, {{"PR_FAULT_STALL_UNIT", "500:3000"}});
  ASSERT_TRUE(wait_for_generations(store, 1)) << read_file(log_path);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  const int status = wait_status(pid);
  const std::string log = read_file(log_path);
  ASSERT_TRUE(WIFEXITED(status)) << log;
  EXPECT_EQ(WEXITSTATUS(status), 75) << log;
  EXPECT_NE(log.find("interrupted by signal 15"), std::string::npos) << log;
  EXPECT_NE(log.find("child interrupted gracefully, state saved"),
            std::string::npos)
      << log;
  EXPECT_NE(last_value(log, "final_generation="), "0") << log;

  // The saved state resumes -- in a fresh, unsignalled, fault-free process --
  // to the uninterrupted reference.
  auto resume = sweep_command(kScenarios);
  resume.insert(resume.end(), {"--threads", "2", "--ckpt-dir", store,
                               "--resume-from-latest"});
  const std::string resume_log = dir.file("resume.log");
  const int resume_status = run_tool(resume, resume_log);
  const std::string resumed = read_file(resume_log);
  ASSERT_TRUE(WIFEXITED(resume_status) && WEXITSTATUS(resume_status) == 0)
      << resumed;
  EXPECT_EQ(last_value(resumed, "state_digest="), ref_digest) << resumed;
  const auto bytes = newest_generation_bytes(store);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, ref_bytes);
}

}  // namespace
