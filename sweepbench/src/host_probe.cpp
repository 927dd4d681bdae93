// host_probe: how fast this host runs a fixed ALU loop (integer mixing, no
// memory traffic) that touches no repository code.  sweepbench/run.py runs
// it before and after each benchmark process.  The figure is a diagnostic
// only and never scales a metric: when two sets of runs of the same code
// disagree, a matching shift here points at the host rather than the code.
// Prints one JSON object.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace {

using Clock = std::chrono::steady_clock;

double median3(double a, double b, double c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  return a > b ? a : b;
}

volatile std::uint64_t g_sink = 0;

double alu_ms() {
  const auto start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < (1 << 22); ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x *= 0x2545F4914F6CDD1DULL;
  }
  g_sink = g_sink ^ x;
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main() {
  const double alu = median3(alu_ms(), alu_ms(), alu_ms());
  std::printf("{\"alu_loop_ms\": %.6f}\n", alu);
  return 0;
}
