//===- bench/bench_codegen_parity.cpp - Compiled-RELC parity -----------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Section 6.2's parity claim measured the paper's actual deliverable:
// C++ code *compiled* from the decomposition, not an interpreted
// engine. This bench runs the same scheduler workload through
//   (a) the hand-coded baseline module,
//   (b) the dynamic engine (plan interpreter), and
//   (c) the RELC-generated class — emitted by examples/codegen_demo at
//       build time and compiled into this binary.
// The paper's claim corresponds to (c) ≈ (a).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "baselines/SchedulerBaseline.h"
#include "systems/SchedulerRelational.h"
#include "workloads/Rng.h"

// The build runs `codegen_demo > scheduler_relation_gen.h` (see
// bench/CMakeLists.txt); the header is self-contained modulo ds/.
#include "scheduler_relation_gen.h"

#include <cstdio>
#include <cstdlib>

using namespace relc;
using namespace relcbench;

namespace {

// Sink so the probe work cannot be optimized away.
int64_t BenchmarkSink = 0;

/// The op mix of bench_systems_parity's scheduler section, shaped so
/// all three implementations can run it.
template <typename AddT, typename RemoveT, typename UpdateT, typename ProbeT>
double runMix(size_t Ops, AddT &&Add, RemoveT &&Remove, UpdateT &&Update,
              ProbeT &&Probe) {
  Rng R(42);
  Clock::time_point T0 = Clock::now();
  for (size_t Op = 0; Op != Ops; ++Op) {
    int64_t Ns = static_cast<int64_t>(R.below(8));
    int64_t Pid = static_cast<int64_t>(R.below(2048));
    switch (R.below(6)) {
    case 0:
    case 1:
      Add(Ns, Pid, static_cast<int64_t>(R.chance(0.5)), 0);
      break;
    case 2:
      Remove(Ns, Pid);
      break;
    case 3:
      Update(Ns, Pid, static_cast<int64_t>(R.chance(0.5)));
      break;
    case 4:
      Update(Ns, Pid, -1); // charge cpu: keep state, bump cpu
      break;
    case 5:
      Probe(Ns, Pid);
      break;
    }
  }
  return secondsSince(T0);
}

} // namespace

int main(int argc, char **argv) {
  PositionalArgs Args(argc, argv, 1, "usage: bench_codegen_parity [ops]\n");
  size_t Ops = Args.get<size_t>(1, 200000, 1, size_t(1) << 40);

  // (a) hand-coded baseline.
  double BaseS;
  {
    SchedulerBaseline S;
    BaseS = runMix(
        Ops,
        [&](int64_t Ns, int64_t Pid, int64_t St, int64_t Cpu) {
          S.addProcess(Ns, Pid, static_cast<ProcState>(St), Cpu);
        },
        [&](int64_t Ns, int64_t Pid) { S.removeProcess(Ns, Pid); },
        [&](int64_t Ns, int64_t Pid, int64_t St) {
          if (St < 0)
            S.chargeCpu(Ns, Pid, 1);
          else
            S.setState(Ns, Pid, static_cast<ProcState>(St));
        },
        [&](int64_t Ns, int64_t Pid) { (void)S.cpuOf(Ns, Pid); });
  }

  // (b) the dynamic engine.
  double DynS;
  {
    SchedulerRelational S;
    DynS = runMix(
        Ops,
        [&](int64_t Ns, int64_t Pid, int64_t St, int64_t Cpu) {
          S.addProcess(Ns, Pid, static_cast<ProcState>(St), Cpu);
        },
        [&](int64_t Ns, int64_t Pid) { S.removeProcess(Ns, Pid); },
        [&](int64_t Ns, int64_t Pid, int64_t St) {
          if (St < 0)
            S.chargeCpu(Ns, Pid, 1);
          else
            S.setState(Ns, Pid, static_cast<ProcState>(St));
        },
        [&](int64_t Ns, int64_t Pid) { (void)S.cpuOf(Ns, Pid); });
  }

  // (c) the RELC-generated class.
  double GenS;
  {
    relcgen::scheduler_relation S;
    GenS = runMix(
        Ops,
        [&](int64_t Ns, int64_t Pid, int64_t St, int64_t Cpu) {
          bool Exists = false;
          S.query_by_ns_pid(Ns, Pid,
                            [&](int64_t, int64_t) { Exists = true; });
          if (!Exists)
            S.insert(Ns, Pid, St, Cpu);
        },
        [&](int64_t Ns, int64_t Pid) { S.remove_by_ns_pid(Ns, Pid); },
        [&](int64_t Ns, int64_t Pid, int64_t St) {
          int64_t OldState = -1, OldCpu = 0;
          S.query_by_ns_pid(Ns, Pid, [&](int64_t StOut, int64_t CpuOut) {
            OldState = StOut;
            OldCpu = CpuOut;
          });
          if (OldState < 0)
            return;
          if (St < 0)
            S.update_by_ns_pid(Ns, Pid, OldState, OldCpu + 1);
          else
            S.update_by_ns_pid(Ns, Pid, St, OldCpu);
        },
        [&](int64_t Ns, int64_t Pid) {
          int64_t Sink = 0;
          S.query_by_ns_pid(Ns, Pid,
                            [&](int64_t, int64_t Cpu) { Sink = Cpu; });
          BenchmarkSink += Sink;
        });
  }

  std::printf("# scheduler, %zu ops of the Section 6.2 mix\n", Ops);
  std::printf("hand-coded baseline : %8.4fs (%6.2f Mops/s)\n", BaseS,
              Ops / BaseS / 1e6);
  std::printf("dynamic engine      : %8.4fs (%6.2f Mops/s)  %.2fx baseline\n",
              DynS, Ops / DynS / 1e6, DynS / BaseS);
  std::printf("RELC-generated code : %8.4fs (%6.2f Mops/s)  %.2fx baseline\n",
              GenS, Ops / GenS / 1e6, GenS / BaseS);
  std::printf("\n# shape check (paper): the generated code is within a small "
              "factor of hand-written\n# performance (Section 6.2's "
              "\"equivalent performance\" claim).\n");
  if (BenchmarkSink == 0x7fffffff)
    std::printf("# (sink)\n");
  return 0;
}
