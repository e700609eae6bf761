//===- tests/codegen/SpecFileTest.cpp - relc input file tests ----*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "codegen/SpecFile.h"

#include "codegen/Compiler.h"
#include "decomp/Adequacy.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace relc;

namespace {

constexpr const char *SchedulerFile = R"(
# The paper's scheduler.
relation scheduler(ns, pid, state, cpu)
fd ns, pid -> state, cpu

let w : {ns, pid, state} = unit {cpu}
let y : {ns} = map({pid}, htable, w)
let z : {state} = map({ns, pid}, ilist, w)
let x : {} = join(map({ns}, htable, y), map({state}, vector, z))

class scheduler_relation
namespace mygen
query query_by_state (state) -> (ns, pid)
query query_cpu (ns, pid) -> (cpu)
remove ns, pid
update ns, pid
)";

TEST(SpecFileTest, ParsesSchedulerFile) {
  SpecFileResult R = parseSpecFile(SchedulerFile);
  ASSERT_TRUE(R.ok()) << R.Error;
  const SpecFile &F = *R.File;

  EXPECT_EQ(F.Spec->name(), "scheduler");
  EXPECT_EQ(F.Spec->arity(), 4u);
  EXPECT_TRUE(F.Spec->fds().isKey(F.Spec->catalog().parseSet("ns, pid"),
                                  F.Spec->columns()));

  ASSERT_TRUE(F.Decomp.has_value());
  EXPECT_EQ(F.Decomp->numNodes(), 4u);
  EXPECT_TRUE(checkAdequacy(*F.Decomp).Ok);

  EXPECT_EQ(F.Options.ClassName, "scheduler_relation");
  EXPECT_EQ(F.Options.Namespace, "mygen");
  ASSERT_EQ(F.Options.Queries.size(), 2u);
  EXPECT_EQ(F.Options.Queries[0].Name, "query_by_state");
  EXPECT_EQ(F.Options.Queries[0].InputCols,
            F.Spec->catalog().parseSet("state"));
  EXPECT_EQ(F.Options.Queries[1].OutputCols,
            F.Spec->catalog().parseSet("cpu"));
  ASSERT_EQ(F.Options.RemoveKeys.size(), 1u);
  ASSERT_EQ(F.Options.UpdateKeys.size(), 1u);
}

TEST(SpecFileTest, ParsedFileFeedsEmitter) {
  SpecFileResult R = parseSpecFile(SchedulerFile);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Code = emitCpp(*R.File->Decomp, R.File->Options);
  EXPECT_NE(Code.find("namespace mygen"), std::string::npos);
  EXPECT_NE(Code.find("class scheduler_relation"), std::string::npos);
  EXPECT_NE(Code.find("query_by_state"), std::string::npos);
}

TEST(SpecFileTest, QueryWithEmptyInputs) {
  std::string Text = std::string(SchedulerFile) +
                     "query query_all () -> (ns, pid, state, cpu)\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.File->Options.Queries.back().InputCols, ColumnSet());
  EXPECT_EQ(R.File->Options.Queries.back().OutputCols,
            R.File->Spec->columns());
}

TEST(SpecFileTest, ErrorMissingRelation) {
  SpecFileResult R = parseSpecFile("let x : {} = unit {}\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("relation"), std::string::npos);
}

TEST(SpecFileTest, ErrorMissingDecomposition) {
  SpecFileResult R = parseSpecFile("relation r(a, b)\nfd a -> b\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("let"), std::string::npos);
}

TEST(SpecFileTest, ErrorUnknownDirective) {
  SpecFileResult R = parseSpecFile("relation r(a)\nfrobnicate a\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Line, 2u);
  EXPECT_EQ(R.Col, 1u);
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos);
  // message() folds the position back in for callers that print one
  // string.
  EXPECT_NE(R.message().find("line 2, col 1"), std::string::npos);
}

TEST(SpecFileTest, ErrorBadFd) {
  SpecFileResult R = parseSpecFile("relation r(a, b)\n"
                                   "fd a b\n"
                                   "let l : {a} = unit {b}\n"
                                   "let x : {} = map({a}, htable, l)\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("->"), std::string::npos);
}

TEST(SpecFileTest, ErrorUnknownColumnInQuery) {
  std::string Text =
      std::string(SchedulerFile) + "query q (bogus) -> (cpu)\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unknown column"), std::string::npos);
}

TEST(SpecFileTest, ErrorNonKeyRemove) {
  std::string Text = std::string(SchedulerFile) + "remove ns\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("not a key"), std::string::npos);
}

TEST(SpecFileTest, ErrorDecompositionParseErrorsSurface) {
  SpecFileResult R = parseSpecFile("relation r(a, b)\n"
                                   "fd a -> b\n"
                                   "let l : {a} = unit {zzz}\n"
                                   "let x : {} = map({a}, htable, l)\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("decomposition"), std::string::npos);
}

TEST(SpecFileTest, ParsesUpsertAndConcurrencyDirectives) {
  std::string Text = std::string(SchedulerFile) +
                     "upsert ns, pid\nconcurrency sharded 8 on state\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.File->Options.UpsertKeys.size(), 1u);
  EXPECT_EQ(R.File->Options.UpsertKeys[0],
            R.File->Spec->catalog().parseSet("ns, pid"));
  EXPECT_EQ(R.File->Options.ConcurrentShards, 8u);
  ASSERT_TRUE(R.File->Options.ConcurrentShardColumn.has_value());
  EXPECT_EQ(*R.File->Options.ConcurrentShardColumn,
            R.File->Spec->catalog().get("state"));
}

TEST(SpecFileTest, ConcurrencyDefaultShardColumn) {
  std::string Text =
      std::string(SchedulerFile) + "concurrency sharded 4\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.File->Options.ConcurrentShards, 4u);
  EXPECT_FALSE(R.File->Options.ConcurrentShardColumn.has_value());
}

TEST(SpecFileTest, ConcurrencyDirectiveFeedsEmitter) {
  std::string Text = std::string(SchedulerFile) +
                     "upsert ns, pid\nconcurrency sharded 4 on ns\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Code = emitCpp(*R.File->Decomp, R.File->Options);
  EXPECT_NE(Code.find("class scheduler_relation_concurrent"),
            std::string::npos);
  EXPECT_NE(Code.find("NumShards = 4"), std::string::npos);
  EXPECT_NE(Code.find("upsert_by_ns_pid"), std::string::npos);
  EXPECT_NE(Code.find("lookup_by_ns_pid"), std::string::npos);
  // The fan-out query gets a parallel variant; the routed one (by cpu
  // inputs that bind ns) would not.
  EXPECT_NE(Code.find("query_by_state_parallel"), std::string::npos);
  EXPECT_EQ(Code.find("query_cpu_parallel"), std::string::npos);
}

TEST(SpecFileTest, RepeatedMethodDirectivesEmitOnce) {
  // Duplicate remove/update/upsert directives must not emit duplicate
  // (un-overloadable) member functions.
  std::string Text = std::string(SchedulerFile) +
                     "remove ns, pid\nupdate ns, pid\nupsert ns, pid\n"
                     "upsert ns, pid\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Code = emitCpp(*R.File->Decomp, R.File->Options);
  auto countOf = [&](const char *Needle) {
    size_t N = 0;
    for (size_t Pos = Code.find(Needle); Pos != std::string::npos;
         Pos = Code.find(Needle, Pos + 1))
      ++N;
    return N;
  };
  EXPECT_EQ(countOf("bool remove_by_ns_pid("), 1u);
  EXPECT_EQ(countOf("bool update_by_ns_pid("), 1u);
  EXPECT_EQ(countOf("bool upsert_by_ns_pid("), 1u);
}

TEST(SpecFileTest, LaterConcurrencyDirectiveWinsOutright) {
  // A bare re-declaration must not inherit the earlier `on` clause.
  std::string Text = std::string(SchedulerFile) +
                     "concurrency sharded 8 on state\n"
                     "concurrency sharded 4\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.File->Options.ConcurrentShards, 4u);
  EXPECT_FALSE(R.File->Options.ConcurrentShardColumn.has_value());
}

TEST(SpecFileTest, ErrorNonKeyUpsert) {
  std::string Text = std::string(SchedulerFile) + "upsert state\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("not a key"), std::string::npos);
}

TEST(SpecFileTest, ErrorMalformedConcurrency) {
  for (const char *Line :
       {"concurrency 4\n", "concurrency sharded\n",
        "concurrency sharded 4 off ns\n"}) {
    SpecFileResult R = parseSpecFile(std::string(SchedulerFile) + Line);
    EXPECT_FALSE(R.ok()) << Line;
  }
}

TEST(SpecFileTest, ErrorShardCountOutOfRangeNamesTheCap) {
  // Syntactically fine, semantically out of range: the diagnostic
  // must name the cap, not claim the grammar is wrong.
  for (const char *Line :
       {"concurrency sharded 65\n", "concurrency sharded 8192\n",
        "concurrency sharded 0\n", "concurrency sharded 99999999999\n"}) {
    SpecFileResult R = parseSpecFile(std::string(SchedulerFile) + Line);
    ASSERT_FALSE(R.ok()) << Line;
    EXPECT_NE(R.Error.find("[1, 64]"), std::string::npos) << R.Error;
  }
  EXPECT_TRUE(
      parseSpecFile(std::string(SchedulerFile) + "concurrency sharded 64\n")
          .ok());
}

TEST(SpecFileTest, ErrorUnknownShardColumn) {
  std::string Text =
      std::string(SchedulerFile) + "concurrency sharded 4 on bogus\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("shard column"), std::string::npos);
}

TEST(SpecFileTest, WireIsAnUnknownDirective) {
  // `wire` is not a directive: with or without a facade, with or
  // without arguments, it fails as an ordinary unknown directive
  // anchored at its line and column.
  std::string Base = SchedulerFile;
  unsigned BaseLines =
      static_cast<unsigned>(std::count(Base.begin(), Base.end(), '\n'));
  struct Case {
    const char *Tail;
    unsigned WireLine; // 1-based within Tail
  };
  for (Case C : {Case{"concurrency sharded 4 on ns\nwire\n", 2},
                 Case{"wire\nconcurrency sharded 4\n", 1},
                 Case{"wire\n", 1},
                 Case{"concurrency sharded 4\nwire dispatch\n", 2}}) {
    SpecFileResult R = parseSpecFile(Base + C.Tail);
    ASSERT_FALSE(R.ok()) << C.Tail;
    EXPECT_NE(R.Error.find("unknown directive: 'wire"), std::string::npos)
        << R.Error;
    EXPECT_EQ(R.Line, BaseLines + C.WireLine) << C.Tail;
    EXPECT_EQ(R.Col, 1u) << C.Tail;
  }
}

TEST(SpecFileTest, ParsesTransactionDirective) {
  std::string Text = std::string(SchedulerFile) +
                     "transaction ns, pid\nconcurrency sharded 4 on ns\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.File->Options.Transactions.size(), 1u);
  EXPECT_EQ(R.File->Options.Transactions[0].Key,
            R.File->Spec->catalog().parseSet("ns, pid"));
  // No `x N` suffix: the transfer shape.
  EXPECT_EQ(R.File->Options.Transactions[0].Arity, 2u);
}

TEST(SpecFileTest, ParsesTransactionArity) {
  std::string Text = std::string(SchedulerFile) +
                     "transaction ns, pid x 3\n"
                     "concurrency sharded 4 on ns\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.File->Options.Transactions.size(), 1u);
  EXPECT_EQ(R.File->Options.Transactions[0].Key,
            R.File->Spec->catalog().parseSet("ns, pid"));
  EXPECT_EQ(R.File->Options.Transactions[0].Arity, 3u);
}

TEST(SpecFileTest, ErrorTransactionArityOutOfRange) {
  for (const char *Line :
       {"transaction ns, pid x 1\n", "transaction ns, pid x 9\n",
        "transaction ns, pid x 99999999999\n"}) {
    SpecFileResult R = parseSpecFile(std::string(SchedulerFile) + Line);
    ASSERT_FALSE(R.ok()) << Line;
    EXPECT_NE(R.Error.find("[2, 8]"), std::string::npos) << R.Error;
  }
}

TEST(SpecFileTest, ErrorTransactionArityMalformed) {
  // A trailing number without the `x` separator is a malformed column
  // list, not a silent arity.
  SpecFileResult R =
      parseSpecFile(std::string(SchedulerFile) + "transaction ns, pid 3\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("transaction"), std::string::npos) << R.Error;
}

TEST(SpecFileTest, TransactionDirectiveFeedsEmitter) {
  std::string Text = std::string(SchedulerFile) +
                     "transaction ns, pid\nconcurrency sharded 4 on ns\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Code = emitCpp(*R.File->Decomp, R.File->Options);
  // The facade grows the two-key transact and its write-back helper,
  // and the supporting lookup/upsert pair is emitted even without an
  // explicit `upsert` directive.
  EXPECT_NE(Code.find("transact_by_ns_pid"), std::string::npos);
  EXPECT_NE(Code.find("tx_apply_by_ns_pid"), std::string::npos);
  EXPECT_NE(Code.find("lookup_by_ns_pid"), std::string::npos);
  EXPECT_NE(Code.find("upsert_by_ns_pid"), std::string::npos);
}

TEST(SpecFileTest, RepeatedTransactionDirectivesEmitOnce) {
  std::string Text = std::string(SchedulerFile) +
                     "upsert ns, pid\ntransaction ns, pid\n"
                     "transaction ns, pid\nconcurrency sharded 4 on ns\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Code = emitCpp(*R.File->Decomp, R.File->Options);
  auto countOf = [&](const char *Needle) {
    size_t N = 0;
    for (size_t Pos = Code.find(Needle); Pos != std::string::npos;
         Pos = Code.find(Needle, Pos + 1))
      ++N;
    return N;
  };
  EXPECT_EQ(countOf("bool transact_by_ns_pid("), 1u);
  EXPECT_EQ(countOf("void tx_apply_by_ns_pid("), 1u);
  // The transaction key joins the upsert key list without duplicating
  // the pair: exactly one sequential upsert_by plus one facade wrapper.
  EXPECT_EQ(countOf("bool upsert_by_ns_pid(int64_t q_ns"), 2u);
}

TEST(SpecFileTest, ErrorMalformedTransaction) {
  for (const char *Line : {"transaction\n", "transaction ,\n",
                           "transaction bogus\n"}) {
    SpecFileResult R = parseSpecFile(std::string(SchedulerFile) + Line);
    ASSERT_FALSE(R.ok()) << Line;
    EXPECT_NE(R.Error.find("transaction"), std::string::npos) << R.Error;
  }
}

TEST(SpecFileTest, ErrorNonKeyTransaction) {
  std::string Text = std::string(SchedulerFile) + "transaction state\n";
  SpecFileResult R = parseSpecFile(Text);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("not a key"), std::string::npos);
}

TEST(SpecFileTest, ErrorPositionsAnchorAtThePayload) {
  // SchedulerFile opens with a blank line and closes with a newline,
  // so an appended directive lands on line 17. The column anchors at
  // the payload (or the shard column name for `concurrency ... on`),
  // not column 1.
  struct Case {
    const char *Line;
    unsigned Col;
  };
  for (const Case &C : {Case{"remove ns\n", 8u},          // "ns"
                        Case{"transaction state\n", 13u}, // "state"
                        Case{"concurrency sharded 4 on bogus\n", 26u}}) {
    SpecFileResult R = parseSpecFile(std::string(SchedulerFile) + C.Line);
    ASSERT_FALSE(R.ok()) << C.Line;
    EXPECT_EQ(R.Line, 17u) << C.Line;
    EXPECT_EQ(R.Col, C.Col) << C.Line;
  }
}

TEST(SpecFileTest, ErrorWithoutAnchorHasNoPosition) {
  SpecFileResult R = parseSpecFile("relation r(a, b)\nfd a -> b\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Line, 0u);
  EXPECT_EQ(R.message(), R.Error);
}

TEST(SpecFileTest, DirectiveWordBoundary) {
  // "classic" must not parse as the "class" directive.
  SpecFileResult R = parseSpecFile("relation r(a)\nclassic foo\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("classic"), std::string::npos);
}

} // namespace
