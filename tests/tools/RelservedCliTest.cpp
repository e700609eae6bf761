//===- tests/tools/RelservedCliTest.cpp - relserved command line -*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the built relserved binary as a subprocess: --help exits 0,
/// and a bad command line (unknown flag, missing value, non-numeric or
/// out-of-range number, a flag of another mode) exits 2 with the usage
/// before any socket is opened — a server that started anyway would
/// write its --port-file, and the timeout turns a server that never
/// returns into a failure instead of a hang.
///
//===----------------------------------------------------------------------===//

#include "RunTool.h"

#include <cstdio>
#include <fstream>
#include <string>

namespace {

#ifndef RELSERVED_PATH
#error "RELSERVED_PATH must be defined by the build"
#endif

using relctest::uniquePath;

std::pair<int, std::string> relserved(const std::string &Args) {
  return relctest::runTool(RELSERVED_PATH, Args);
}

TEST(RelservedCliTest, HelpPrintsUsageAndExitsZero) {
  for (const char *Args : {"--help", "--workload --help", "--port 7 --help"}) {
    auto [Rc, Out] = relserved(Args);
    EXPECT_EQ(Rc, 0) << Args;
    EXPECT_NE(Out.find("usage: relserved"), std::string::npos) << Out;
  }
}

TEST(RelservedCliTest, BadCommandLinesExitTwoWithoutServing) {
  std::string PortFile = uniquePath("port");
  std::remove(PortFile.c_str());
  auto ExpectRejected = [&](const std::string &Args) {
    auto [Rc, Out] = relserved(Args);
    EXPECT_EQ(Rc, 2) << Args << ":\n" << Out;
    EXPECT_NE(Out.find("usage: relserved"), std::string::npos) << Out;
    EXPECT_FALSE(std::ifstream(PortFile).good())
        << Args << ": the server started";
  };
  // Serve mode: every case would otherwise write the port file.
  for (const char *Bad :
       {"--bogus", "--port", "--port abc", "--port 12x", "--port -1",
        "--port 70000", "--shards 0", "--shards 65", "--shards 8 --shards 8",
        "--max-group ''", "--checkpoint-every 1.5", "--wal", "stray"})
    ExpectRejected("--port-file " + PortFile + " " + Bad);
  // Client modes: their own flags only.
  for (const char *Bad :
       {"--workload --accounts x", "--workload --accounts 0",
        "--workload --threads 0", "--workload --seed-batch 0",
        "--workload --port 1 --wal w.log", "--workload --port-file p",
        "--verify --transfers 5", "--verify --port", "--workload --verify"})
    ExpectRejected(Bad);
}

TEST(RelservedCliTest, ClientModesAcceptTheirFlags) {
  // Well-formed client command lines get past parsing and fail only at
  // connect (exit 1): port 1 has no relserved behind it.
  for (const char *Args :
       {"--workload --port 1 --accounts 32 --transfers 400",
        "--workload --port 1 --accounts 100000 --seed-batch 500 "
        "--transfers 1200 --threads 4 --checkpoint-during",
        "--workload --port 1 --seed-only", "--verify --port 1 --accounts 32"}) {
    auto [Rc, Out] = relserved(Args);
    EXPECT_EQ(Rc, 1) << Args << ":\n" << Out;
    EXPECT_EQ(Out.find("usage: relserved"), std::string::npos) << Out;
  }
}

} // namespace
