//===- tests/codegen/RelcToolTest.cpp - relc CLI integration -----*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the `relc` command-line compiler as a subprocess: check /
/// print / dot / emit modes, error reporting, and an end-to-end
/// compile of its output with the host compiler.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef RELC_TOOL_PATH
#error "RELC_TOOL_PATH must be defined by the build"
#endif
#ifndef RELC_SOURCE_DIR
#error "RELC_SOURCE_DIR must be defined by the build"
#endif

constexpr const char *SchedulerInput = R"(
relation scheduler(ns, pid, state, cpu)
fd ns, pid -> state, cpu

let w : {ns, pid, state} = unit {cpu}
let y : {ns} = map({pid}, htable, w)
let z : {state} = map({ns, pid}, ilist, w)
let x : {} = join(map({ns}, htable, y), map({state}, vector, z))

class sched
namespace toolgen
query by_state (state) -> (ns, pid)
remove ns, pid
update ns, pid
)";

/// A per-test unique file path (ctest runs these in parallel; fixed
/// names would collide).
std::string uniquePath(const std::string &Suffix) {
  const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "relc_" + Info->name() + "_" + Suffix;
}

/// Runs a shell command, returning (exit code, combined output).
std::pair<int, std::string> run(const std::string &Cmd) {
  std::string Tmp = uniquePath("out.txt");
  int Rc = std::system((Cmd + " > " + Tmp + " 2>&1").c_str());
  std::ifstream In(Tmp);
  std::stringstream Ss;
  Ss << In.rdbuf();
  return {Rc, Ss.str()};
}

std::string writeInput(const char *Name, const std::string &Text) {
  std::string Path = uniquePath(Name);
  std::ofstream Out(Path);
  Out << Text;
  return Path;
}

TEST(RelcToolTest, CheckModeAcceptsValidInput) {
  std::string In = writeInput("sched.relc", SchedulerInput);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --check " + In);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("adequate"), std::string::npos) << Out;
}

TEST(RelcToolTest, PrintModeEchoesLetLanguage) {
  std::string In = writeInput("sched.relc", SchedulerInput);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --print " + In);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("let w : {ns, pid, state} = unit {cpu}"),
            std::string::npos)
      << Out;
}

TEST(RelcToolTest, DotModeEmitsGraphviz) {
  std::string In = writeInput("sched.relc", SchedulerInput);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --dot " + In);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("digraph"), std::string::npos);
}

TEST(RelcToolTest, EmittedHeaderCompiles) {
  std::string In = writeInput("sched.relc", SchedulerInput);
  std::string Header = uniquePath("sched_gen.h");
  auto [Rc, Out] =
      run(std::string(RELC_TOOL_PATH) + " -o " + Header + " " + In);
  ASSERT_EQ(Rc, 0) << Out;
  auto [CompileRc, CompileOut] =
      run("c++ -std=c++20 -fsyntax-only -I " +
          std::string(RELC_SOURCE_DIR) + "/src -include " + Header +
          " -x c++ /dev/null");
  EXPECT_EQ(CompileRc, 0) << CompileOut;
}

TEST(RelcToolTest, ConcurrencyDirectiveEmitsCompilableFacade) {
  // The golden concurrent spec (tests/codegen/golden/ holds the ones
  // the build compiles for GeneratedConcurrentTest): the directive
  // must produce the facade class and the whole header must compile.
  std::string Text = std::string(SchedulerInput) +
                     "upsert ns, pid\nconcurrency sharded 4 on ns\n";
  std::string In = writeInput("conc.relc", Text);
  std::string Header = uniquePath("conc_gen.h");
  auto [Rc, Out] =
      run(std::string(RELC_TOOL_PATH) + " -o " + Header + " " + In);
  ASSERT_EQ(Rc, 0) << Out;

  std::ifstream HeaderIn(Header);
  std::stringstream Ss;
  Ss << HeaderIn.rdbuf();
  std::string Code = Ss.str();
  EXPECT_NE(Code.find("class sched_concurrent"), std::string::npos);
  EXPECT_NE(Code.find("upsert_by_ns_pid"), std::string::npos);
  EXPECT_NE(Code.find("by_state_parallel"), std::string::npos);

  auto [CompileRc, CompileOut] =
      run("c++ -std=c++20 -fsyntax-only -I " +
          std::string(RELC_SOURCE_DIR) + "/src -include " + Header +
          " -x c++ /dev/null");
  EXPECT_EQ(CompileRc, 0) << CompileOut;
}

TEST(RelcToolTest, ShardsFlagOverridesDirective) {
  // --shards enables the facade without a directive in the file.
  std::string In = writeInput("sched.relc", SchedulerInput);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) +
                       " --shards 2 --shard-column state " + In);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("class sched_concurrent"), std::string::npos);
  EXPECT_NE(Out.find("NumShards = 2"), std::string::npos);

  auto [Rc2, Out2] = run(std::string(RELC_TOOL_PATH) + " " + In);
  ASSERT_EQ(Rc2, 0);
  EXPECT_EQ(Out2.find("sched_concurrent"), std::string::npos);
}

TEST(RelcToolTest, ShardsZeroSuppressesDirectiveFacade) {
  std::string Text =
      std::string(SchedulerInput) + "concurrency sharded 8\n";
  std::string In = writeInput("conc.relc", Text);
  auto [Rc, Out] =
      run(std::string(RELC_TOOL_PATH) + " --shards 0 " + In);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_EQ(Out.find("sched_concurrent"), std::string::npos);
}

TEST(RelcToolTest, ShardsFlagRejectsNonNumericValues) {
  std::string In = writeInput("sched.relc", SchedulerInput);
  // 65 is one past MaxShards: a fan-out write fences one epoch gate
  // per shard and a fence holds at most 64.
  for (const char *Bad : {"four", "4x", "-1", "65", "5000"}) {
    auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --shards " +
                         Bad + " " + In);
    EXPECT_NE(Rc, 0) << Bad;
    EXPECT_NE(Out.find("--shards must be an integer in [0, 64]"),
              std::string::npos)
        << Out;
  }
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --shards 64 " + In);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("NumShards = 64"), std::string::npos);
}

TEST(RelcToolTest, ShardColumnFlagRejectsUnknownColumn) {
  std::string In = writeInput("sched.relc", SchedulerInput);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) +
                       " --shards 2 --shard-column bogus " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("not a column"), std::string::npos) << Out;
}

TEST(RelcToolTest, ShardColumnWithoutFacadeIsAnError) {
  // Without --shards or a `concurrency` directive the flag would be a
  // silent no-op; it must be rejected instead.
  std::string In = writeInput("sched.relc", SchedulerInput);
  auto [Rc, Out] =
      run(std::string(RELC_TOOL_PATH) + " --shard-column ns " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("requires a facade"), std::string::npos) << Out;
}

TEST(RelcToolTest, TransactionDirectiveEmitsCompilableTransact) {
  std::string Text = std::string(SchedulerInput) +
                     "transaction ns, pid\nconcurrency sharded 4 on ns\n";
  std::string In = writeInput("tx.relc", Text);
  std::string Header = uniquePath("tx_gen.h");
  auto [Rc, Out] =
      run(std::string(RELC_TOOL_PATH) + " -o " + Header + " " + In);
  ASSERT_EQ(Rc, 0) << Out;

  std::ifstream HeaderIn(Header);
  std::stringstream Ss;
  Ss << HeaderIn.rdbuf();
  std::string Code = Ss.str();
  EXPECT_NE(Code.find("transact_by_ns_pid"), std::string::npos);
  EXPECT_NE(Code.find("tx_apply_by_ns_pid"), std::string::npos);

  auto [CompileRc, CompileOut] =
      run("c++ -std=c++20 -fsyntax-only -I " +
          std::string(RELC_SOURCE_DIR) + "/src -include " + Header +
          " -x c++ /dev/null");
  EXPECT_EQ(CompileRc, 0) << CompileOut;
}

TEST(RelcToolTest, TransactionOnlyKeyEmitsCompilableHeader) {
  // Regression: a key that appears ONLY in a `transaction` directive
  // (no upsert/update/remove for it) must still pull in its whole
  // supporting chain — transact_by_ calls upsert_by_ calls
  // remove_by_ — or the emitted header does not compile.
  const char *TxOnly = R"(
relation account(owner, acct, balance)
fd owner, acct -> balance

let u : {owner, acct} = unit {balance}
let y : {owner} = map({acct}, htable, u)
let x : {} = map({owner}, htable, y)

class acct
namespace toolgen
query all () -> (owner, acct, balance)
transaction owner, acct
concurrency sharded 4 on owner
)";
  std::string In = writeInput("txonly.relc", TxOnly);
  std::string Header = uniquePath("txonly_gen.h");
  auto [Rc, Out] =
      run(std::string(RELC_TOOL_PATH) + " -o " + Header + " " + In);
  ASSERT_EQ(Rc, 0) << Out;
  auto [CompileRc, CompileOut] =
      run("c++ -std=c++20 -fsyntax-only -I " +
          std::string(RELC_SOURCE_DIR) + "/src -include " + Header +
          " -x c++ /dev/null");
  EXPECT_EQ(CompileRc, 0) << CompileOut;
}

TEST(RelcToolTest, TransactionWithoutFacadeIsAnError) {
  // transact_by_* lives on the facade: a spec asking for transactions
  // without a `concurrency` directive (and no --shards) must be
  // rejected with a clear diagnostic, not silently dropped.
  std::string Text = std::string(SchedulerInput) + "transaction ns, pid\n";
  std::string In = writeInput("tx.relc", Text);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("requires a concurrent facade"), std::string::npos)
      << Out;

  // --shards N supplies the facade and un-blocks the same spec.
  auto [Rc2, Out2] =
      run(std::string(RELC_TOOL_PATH) + " --shards 2 " + In);
  EXPECT_EQ(Rc2, 0) << Out2;
  EXPECT_NE(Out2.find("transact_by_ns_pid"), std::string::npos);
}

TEST(RelcToolTest, ShardsZeroRejectedWhenTransactionsPresent) {
  // --shards 0 strips the facade the `transaction` directive needs:
  // an error, not a header that silently lost its transact method.
  std::string Text = std::string(SchedulerInput) +
                     "transaction ns, pid\nconcurrency sharded 4\n";
  std::string In = writeInput("tx.relc", Text);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --shards 0 " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("requires a concurrent facade"), std::string::npos)
      << Out;
}

TEST(RelcToolTest, RejectsInadequateDecomposition) {
  // Drop the FD: Fig. 2's shape is no longer adequate.
  std::string Bad = SchedulerInput;
  size_t FdPos = Bad.find("fd ns, pid -> state, cpu");
  ASSERT_NE(FdPos, std::string::npos);
  Bad.erase(FdPos, std::string("fd ns, pid -> state, cpu").size());
  // Without the key FD, `remove ns, pid` also stops being a key, so
  // strip the remove/update lines to isolate the adequacy error.
  auto strip = [&](const char *Line) {
    size_t P = Bad.find(Line);
    ASSERT_NE(P, std::string::npos);
    Bad.erase(P, std::string(Line).size());
  };
  strip("remove ns, pid");
  strip("update ns, pid");

  std::string In = writeInput("bad.relc", Bad);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --check " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("not adequate"), std::string::npos) << Out;
}

TEST(RelcToolTest, ReportsParseErrorsWithLineAndColumn) {
  // Diagnostics use the FILE:LINE:COL: shape editors and CI
  // annotators parse.
  std::string In = writeInput("broken.relc", "relation r(a)\nbogus line\n");
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --check " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find(In + ":2:1: error:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bogus"), std::string::npos) << Out;
}

TEST(RelcToolTest, PositionlessErrorsOmitLineAndColumn) {
  std::string In = writeInput("norel.relc", "# only a comment\n");
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --check " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find(In + ": error:"), std::string::npos) << Out;
  EXPECT_EQ(Out.find(":0:"), std::string::npos) << Out;
}

TEST(RelcToolTest, MalformedTransactionDirectiveIsPositioned) {
  // The payload (not column 1) anchors the diagnostic; line 15 is the
  // appended directive (SchedulerInput opens with a newline and ends
  // with one).
  std::string Text = std::string(SchedulerInput) + "transaction ns, pid 3\n";
  std::string In = writeInput("badtx.relc", Text);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --check " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find(In + ":15:13: error:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("transaction"), std::string::npos) << Out;
}

TEST(RelcToolTest, TransactionArityOutOfRangeIsRejected) {
  std::string Text =
      std::string(SchedulerInput) + "transaction ns, pid x 99\n";
  std::string In = writeInput("badarity.relc", Text);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --check " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("arity must be in [2, 8]"), std::string::npos) << Out;
}

TEST(RelcToolTest, MalformedConcurrencyDirectiveIsPositioned) {
  std::string Text =
      std::string(SchedulerInput) + "concurrency sharded 4 off ns\n";
  std::string In = writeInput("badconc.relc", Text);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --check " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find(In + ":15:13: error:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("concurrency"), std::string::npos) << Out;
}

TEST(RelcToolTest, ShardCountAboveTheCapIsPositioned) {
  std::string Text =
      std::string(SchedulerInput) + "concurrency sharded 65\n";
  std::string In = writeInput("cap.relc", Text);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --check " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(
      Out.find(In + ":15:13: error: shard count must be in [1, 64]"),
      std::string::npos)
      << Out;
}

TEST(RelcToolTest, UnknownShardColumnIsPositionedAtTheName) {
  std::string Text =
      std::string(SchedulerInput) + "concurrency sharded 4 on bogus\n";
  std::string In = writeInput("badcol.relc", Text);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --check " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find(In + ":15:26: error:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("unknown shard column"), std::string::npos) << Out;
}

TEST(RelcToolTest, DumpIrPrintsModuleAndPassLog) {
  std::string Text = std::string(SchedulerInput) +
                     "transaction ns, pid\nconcurrency sharded 4 on ns\n";
  std::string In = writeInput("ir.relc", Text);
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --dump-ir " + In);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("module sched"), std::string::npos) << Out;
  EXPECT_NE(Out.find("shards: 4 on ns"), std::string::npos) << Out;
  EXPECT_NE(Out.find("fac transact transact_by_ns_pid"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("lock=exclusive(set)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("passes:"), std::string::npos) << Out;
  // No C++ in an IR dump.
  EXPECT_EQ(Out.find("#include"), std::string::npos) << Out;
}

TEST(RelcToolTest, NoOptSkipsDeadIndexElimination) {
  std::string Text = std::string(SchedulerInput) +
                     "transaction ns, pid\nconcurrency sharded 4 on ns\n";
  std::string In = writeInput("noopt.relc", Text);
  auto [Rc, Out] =
      run(std::string(RELC_TOOL_PATH) + " --dump-ir --no-opt " + In);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("skipped dead-index-elim (--no-opt)"),
            std::string::npos)
      << Out;
}

TEST(RelcToolTest, UnknownBackendIsRejected) {
  std::string In = writeInput("sched.relc", SchedulerInput);
  auto [Rc, Out] =
      run(std::string(RELC_TOOL_PATH) + " --backend fortran " + In);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("unknown backend 'fortran'"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("cpp"), std::string::npos) << Out;
}

TEST(RelcToolTest, MissingFileFails) {
  auto [Rc, Out] =
      run(std::string(RELC_TOOL_PATH) + " /nonexistent/file.relc");
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("cannot open"), std::string::npos) << Out;
}

TEST(RelcToolTest, UsageOnBadFlags) {
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " --frobnicate x");
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("usage"), std::string::npos) << Out;
}

} // namespace
