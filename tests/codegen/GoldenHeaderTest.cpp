//===- tests/codegen/GoldenHeaderTest.cpp - golden-header regression -*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the emitted text of the golden specs against the committed
/// reference headers in tests/codegen/golden/expected/.
///
/// The references were captured from the emitter BEFORE the IR/pass
/// refactor (settle_tri, whose `x 3` syntax the old emitter had no
/// spelling for, is pinned to the first IR-pipeline output). The
/// contract:
///
///  - `relc --no-opt` reproduces every reference byte for byte — the
///    lowering + canonicalization passes + CppBackend path is exactly
///    the old emitter, restructured;
///  - the default (optimized) output may differ ONLY by dead-index
///    elimination dropping unreachable support methods, and each
///    intended divergence is asserted here by name;
///  - both variants compile standalone under -Wall -Wextra -Werror.
///
/// An unexplained diff is a regression, not a new baseline: fix the
/// pipeline or — for an intended change — regenerate expected/ with
/// `relc --no-opt` and document the diff in the commit message.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

#ifndef RELC_TOOL_PATH
#error "RELC_TOOL_PATH must be defined by the build"
#endif
#ifndef RELC_SOURCE_DIR
#error "RELC_SOURCE_DIR must be defined by the build"
#endif

const char *const GoldenSpecs[] = {"sched_conc_ns", "sched_conc_state",
                                   "account_tx", "settle_tri",
                                   "ztopo_tiles"};

std::string goldenDir() {
  return std::string(RELC_SOURCE_DIR) + "/tests/codegen/golden/";
}

std::string uniquePath(const std::string &Suffix) {
  const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "relc_golden_" + Info->name() + "_" + Suffix;
}

std::pair<int, std::string> run(const std::string &Cmd) {
  std::string Tmp = uniquePath("out.txt");
  int Rc = std::system((Cmd + " > " + Tmp + " 2>&1").c_str());
  std::ifstream In(Tmp);
  std::stringstream Ss;
  Ss << In.rdbuf();
  return {Rc, Ss.str()};
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing " << Path;
  std::stringstream Ss;
  Ss << In.rdbuf();
  return Ss.str();
}

/// Emits `spec` with the given extra flags, returning the header text.
std::string emit(const std::string &Spec, const std::string &Flags) {
  std::string Header = uniquePath(Spec + "_gen.h");
  auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " " + Flags + " -o " +
                       Header + " " + goldenDir() + Spec + ".relc");
  EXPECT_EQ(Rc, 0) << Out;
  return slurp(Header);
}

size_t countOf(const std::string &Haystack, const std::string &Needle) {
  size_t N = 0;
  for (size_t Pos = Haystack.find(Needle); Pos != std::string::npos;
       Pos = Haystack.find(Needle, Pos + 1))
    ++N;
  return N;
}

/// Point the first divergence at a line, not a byte offset.
void expectTextEqual(const std::string &Expected, const std::string &Actual,
                     const std::string &Label) {
  if (Expected == Actual)
    return;
  std::istringstream E(Expected), A(Actual);
  std::string El, Al;
  unsigned Line = 0;
  while (true) {
    ++Line;
    bool Eok = static_cast<bool>(std::getline(E, El));
    bool Aok = static_cast<bool>(std::getline(A, Al));
    if (!Eok && !Aok)
      break;
    if (El != Al || Eok != Aok) {
      ADD_FAILURE() << Label << ": first divergence at line " << Line
                    << "\n  expected: " << (Eok ? El : "<eof>")
                    << "\n  actual:   " << (Aok ? Al : "<eof>");
      return;
    }
  }
  ADD_FAILURE() << Label << ": texts differ (whitespace only?)";
}

TEST(GoldenHeaderTest, NoOptReproducesPreRefactorHeadersByteForByte) {
  for (const char *Spec : GoldenSpecs) {
    std::string Expected = slurp(goldenDir() + "expected/" + Spec + "_gen.h");
    ASSERT_FALSE(Expected.empty()) << Spec;
    expectTextEqual(Expected, emit(Spec, "--no-opt"), Spec);
  }
}

TEST(GoldenHeaderTest, OptimizedHeadersCompileStandalone) {
  for (const char *Spec : GoldenSpecs) {
    std::string Header = uniquePath(std::string(Spec) + "_gen.h");
    auto [Rc, Out] = run(std::string(RELC_TOOL_PATH) + " -o " + Header +
                         " " + goldenDir() + Spec + ".relc");
    ASSERT_EQ(Rc, 0) << Out;
    auto [CompileRc, CompileOut] =
        run("c++ -std=c++20 -fsyntax-only -Wall -Wextra -Werror -I " +
            std::string(RELC_SOURCE_DIR) + "/src -include " + Header +
            " -x c++ /dev/null");
    EXPECT_EQ(CompileRc, 0) << Spec << ":\n" << CompileOut;
  }
}

TEST(GoldenHeaderTest, DeadIndexEliminationShrinksAccountTx) {
  // account_tx requests upsert + transaction but no remove: the facade
  // remove_by_owner_acct wrapper exists only as support for the
  // sequential chain and nothing calls it. The optimizer must drop it
  // (the sequential remove_by stays — upsert/transact bodies call it).
  std::string NoOpt = emit("account_tx", "--no-opt");
  std::string Opt = emit("account_tx", "");
  EXPECT_LT(Opt.size(), NoOpt.size());
  EXPECT_EQ(countOf(NoOpt, "bool remove_by_owner_acct("), 2u);
  EXPECT_EQ(countOf(Opt, "bool remove_by_owner_acct("), 1u);
  // The survivor is the sequential one: the facade wrapper's routed
  // body is gone.
  EXPECT_NE(NoOpt.find("remove_by_owner_acct: routed"), std::string::npos);
  EXPECT_EQ(Opt.find("remove_by_owner_acct: routed"), std::string::npos);
}

TEST(GoldenHeaderTest, DeadIndexEliminationShrinksSettleTri) {
  // settle_tri requests ONLY the 3-key transaction: both the facade
  // remove_by and upsert_by wrappers are unreachable support.
  std::string NoOpt = emit("settle_tri", "--no-opt");
  std::string Opt = emit("settle_tri", "");
  EXPECT_LT(Opt.size(), NoOpt.size());
  EXPECT_EQ(countOf(NoOpt, "bool remove_by_bank_acct("), 2u);
  EXPECT_EQ(countOf(Opt, "bool remove_by_bank_acct("), 1u);
  EXPECT_EQ(countOf(NoOpt, "bool upsert_by_bank_acct("), 2u);
  EXPECT_EQ(countOf(Opt, "bool upsert_by_bank_acct("), 1u);
  // The transact itself and its whole sequential support chain stay.
  for (const char *Kept :
       {"transact3_by_bank_acct", "tx_apply3_by_bank_acct",
        "lookup_by_bank_acct", "insert"})
    EXPECT_NE(Opt.find(Kept), std::string::npos) << Kept;
}

TEST(GoldenHeaderTest, FullyRequestedSpecsAreUnchangedByOptimization) {
  // Every method of these specs is requested or reachable:
  // the optimizer must be an exact no-op on them.
  for (const char *Spec : {"sched_conc_ns", "sched_conc_state",
                            "ztopo_tiles"}) {
    std::string NoOpt = emit(Spec, "--no-opt");
    std::string Opt = emit(Spec, "");
    EXPECT_EQ(NoOpt, Opt) << Spec;
  }
}

TEST(GoldenHeaderTest, ZtopoRemoveByTileUnlinksTheSharedNodeByNode) {
  // z→w (member e1) is the only crossing edge into the shared w for
  // {tile}. remove_by_tile finds w through y and unlinks it from its
  // state's intrusive list in O(1); a key erase there would search
  // every resident tile of that state.
  std::string Header = emit("ztopo_tiles", "");
  size_t Begin = Header.find("bool remove_by_tile(");
  ASSERT_NE(Begin, std::string::npos);
  size_t End = Header.find("bool update_by_tile(", Begin);
  ASSERT_NE(End, std::string::npos);
  std::string Body = Header.substr(Begin, End - Begin);
  EXPECT_NE(Body.find("Node_w *y_w = y_y->e0.lookup(c_state);"),
            std::string::npos)
      << Body;
  EXPECT_NE(Body.find("x_z->e1.eraseNode(y_w);"), std::string::npos) << Body;
  EXPECT_EQ(Body.find("x_z->e1.erase("), std::string::npos) << Body;
}

} // namespace
