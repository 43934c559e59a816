//===- tests/ParserTest.cpp - textual IR round-trip tests ----------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "prof/Instrumenter.h"
#include "prof/Session.h"
#include "workloads/Examples.h"
#include "workloads/Spec.h"

#include <gtest/gtest.h>

using namespace pp;
using namespace pp::ir;

namespace {

void expectRoundTrip(const Module &M) {
  std::string First = printModule(M);
  ParseResult Parsed = parseModule(First);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*Parsed.M, Errors)) << Errors.front();
  EXPECT_EQ(printModule(*Parsed.M), First);
}

} // namespace

TEST(Parser, RoundTripsTheExampleModules) {
  expectRoundTrip(*workloads::buildFig1Module());
  expectRoundTrip(*workloads::buildFig4Module());
  expectRoundTrip(*workloads::buildFig5Module());
  expectRoundTrip(*workloads::buildLoopModule(10));
}

TEST(Parser, RoundTripsWorkloads) {
  expectRoundTrip(*workloads::buildCompress(1));
  expectRoundTrip(*workloads::buildLi(1));
  expectRoundTrip(*workloads::buildTomcatv(1));
}

TEST(Parser, RoundTripsInstrumentedModules) {
  auto M = workloads::buildLoopModule(10);
  for (prof::Mode Mo : {prof::Mode::FlowHw, prof::Mode::ContextFlow}) {
    prof::ProfileConfig Config;
    Config.M = Mo;
    prof::Instrumented Instr = prof::instrument(*M, Config);
    expectRoundTrip(*Instr.M);
  }
}

TEST(Parser, ParsedModuleRunsIdentically) {
  auto M = workloads::buildFig1Module();
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::None;
  prof::RunOutcome Original = prof::runProfile(*M, Options);

  ParseResult Parsed = parseModule(printModule(*M));
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  prof::RunOutcome Reparsed = prof::runProfile(*Parsed.M, Options);
  ASSERT_TRUE(Reparsed.Result.Ok);
  EXPECT_EQ(Reparsed.Result.ExitValue, Original.Result.ExitValue);
  EXPECT_EQ(Reparsed.Result.ExecutedInsts, Original.Result.ExecutedInsts);
}

TEST(Parser, HandWrittenProgram) {
  const char *Text = R"(
global @data 64

func @double(1) regs=2 {
entry:
  add r1, r0, r0
  ret r1
}

func @main(0) regs=8 {
entry:
  mov r0, 21
  call r1, @double (r0)
  ret r1
}

main @main
)";
  ParseResult Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::None;
  prof::RunOutcome Run = prof::runProfile(*Parsed.M, Options);
  ASSERT_TRUE(Run.Result.Ok) << Run.Result.Error;
  EXPECT_EQ(Run.Result.ExitValue, 42u);
}

TEST(Parser, ReportsUnknownInstruction) {
  ParseResult Parsed = parseModule("func @main(0) regs=1 {\nentry:\n"
                                   "  frobnicate r0\n  ret 0\n}\nmain @main\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("unknown instruction"), std::string::npos);
  EXPECT_NE(Parsed.Error.find("line 3"), std::string::npos);
}

TEST(Parser, ReportsUnknownBlock) {
  ParseResult Parsed = parseModule(
      "func @main(0) regs=1 {\nentry:\n  br @nowhere\n}\nmain @main\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("unknown block"), std::string::npos);
}

TEST(Parser, ReportsUnknownCallee) {
  ParseResult Parsed = parseModule(
      "func @main(0) regs=2 {\nentry:\n  call r0, @ghost ()\n  ret 0\n}\n"
      "main @main\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("unknown function"), std::string::npos);
}

TEST(Parser, ReportsMissingMain) {
  ParseResult Parsed =
      parseModule("main @ghost\nfunc @f(0) regs=1 {\nentry:\n  ret 0\n}\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("main"), std::string::npos);
}

TEST(Parser, ReportsDuplicateFunction) {
  ParseResult Parsed = parseModule(
      "func @f(0) regs=1 {\nentry:\n  ret 0\n}\n"
      "func @f(0) regs=1 {\nentry:\n  ret 0\n}\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("duplicate"), std::string::npos);
}

TEST(Parser, AbsoluteMemoryOperands) {
  ParseResult Parsed = parseModule(
      "func @main(0) regs=4 {\nentry:\n  mov r0, 7\n"
      "  store8 [_ + 268435456], r0\n  load8 r1, [_ + 268435456]\n"
      "  ret r1\n}\nmain @main\n");
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::None;
  prof::RunOutcome Run = prof::runProfile(*Parsed.M, Options);
  ASSERT_TRUE(Run.Result.Ok);
  EXPECT_EQ(Run.Result.ExitValue, 7u);
}

TEST(Parser, AccessWidthIsExactlyOneOfTheFourWidths) {
  auto Parse = [](const std::string &Access) {
    return parseModule("func @main(0) regs=2 {\nentry:\n  mov r0, 7\n  " +
                       Access + "\n  ret 0\n}\nmain @main\n");
  };
  for (const char *Good :
       {"load1 r1, [_ + 268435456]", "load2 r1, [_ + 268435456]",
        "load4 r1, [_ + 268435456]", "store8 [_ + 268435456], r0"})
    EXPECT_TRUE(Parse(Good).ok()) << Good << ": " << Parse(Good).Error;
  for (const char *Bad :
       {"load8zz r1, [_ + 268435456]", "load+8 r1, [_ + 268435456]",
        "load08 r1, [_ + 268435456]", "store4x [_ + 268435456], r0"}) {
    ParseResult Parsed = Parse(Bad);
    EXPECT_FALSE(Parsed.ok()) << Bad;
    EXPECT_NE(Parsed.Error.find("line 4"), std::string::npos) << Bad;
  }
}
