//===- DriverTest.cpp - CompilerPipeline driver tests -----------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The driver layer contract: stage sequencing, early stopping on errors,
// diagnostic collection and rendering, per-stage timings, the interp
// stage, and the AST -> hlsim spec extraction behind `--estimate`.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerPipeline.h"

#include "cyclesim/CycleSim.h"
#include "driver/SpecExtractor.h"
#include "hlsim/KernelAnalysis.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

using namespace dahlia;
using namespace dahlia::driver;

namespace {

const char *DotProduct = "decl A: float[8 bank 4];\n"
                         "decl B: float[8 bank 4];\n"
                         "decl out: float[1];\n"
                         "let dot = 0.0;\n"
                         "{\n"
                         "for (let i = 0..8) unroll 4 {\n"
                         "  let v = A[i] * B[i];\n"
                         "} combine {\n"
                         "  dot += v;\n"
                         "}\n"
                         "}\n"
                         "---\n"
                         "out[0] := dot;\n";

TEST(Driver, ParseErrorStopsPipeline) {
  CompileResult R = CompilerPipeline().emitHls("let = garbage ;;;");
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.Diags.hasKind(ErrorKind::Parse) ||
              R.Diags.hasKind(ErrorKind::Lex));
  EXPECT_FALSE(R.Prog.has_value());
  EXPECT_FALSE(R.HlsCpp.has_value());
  // Only the parse stage ran.
  ASSERT_EQ(R.Timings.size(), 1u);
  EXPECT_EQ(R.Timings[0].S, Stage::Parse);
}

TEST(Driver, TypeErrorStopsBeforeEmit) {
  // The Section 3.1 conflict: read and write in one logical time step.
  CompileResult R = CompilerPipeline().emitHls(
      "decl A: float[10]; let x = A[0]; A[1] := 1.0;");
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.Diags.hasKind(ErrorKind::Affine));
  EXPECT_TRUE(R.Prog.has_value()); // parsing succeeded
  EXPECT_FALSE(R.HlsCpp.has_value());
}

TEST(Driver, EmitProducesAnnotatedCpp) {
  PipelineOptions Opts;
  Opts.Emit.KernelName = "dot_product";
  CompileResult R = CompilerPipeline(Opts).emitHls(DotProduct);
  ASSERT_TRUE(R.ok()) << R.firstError();
  EXPECT_NE(R.HlsCpp->find("dot_product"), std::string::npos);
  EXPECT_NE(R.HlsCpp->find("#pragma HLS"), std::string::npos);
}

TEST(Driver, StageTimingsRecordedInOrder) {
  CompileResult R = CompilerPipeline().emitHls(DotProduct);
  ASSERT_TRUE(R.ok()) << R.firstError();
  ASSERT_EQ(R.Timings.size(), 3u);
  EXPECT_EQ(R.Timings[0].S, Stage::Parse);
  EXPECT_EQ(R.Timings[1].S, Stage::Check);
  EXPECT_EQ(R.Timings[2].S, Stage::Emit);
  for (const StageTiming &T : R.Timings)
    EXPECT_GE(T.Seconds, 0.0);
  EXPECT_GE(R.totalSeconds(), R.seconds(Stage::Check));
}

TEST(Driver, InterpExecutesProgram) {
  CompileResult R =
      CompilerPipeline().interp("decl O: bit<32>[1];\nO[0] := 7;");
  ASSERT_TRUE(R.ok()) << R.firstError();
  ASSERT_TRUE(R.Run.has_value());
  EXPECT_TRUE(bool(R.Run->Result));
  EXPECT_GT(R.Run->Steps, 0u);
  auto [Bank, Off] = R.Lowered->Mems.at("O").locate({0});
  EXPECT_EQ(std::get<int64_t>(
                R.Run->Final.Mems.at(Bank).at(static_cast<size_t>(Off))),
            7);
}

TEST(Driver, InterpHonorsFillOption) {
  PipelineOptions Opts;
  Opts.Fill = +[](const std::string &, int64_t I) { return 100 + I; };
  CompileResult R = CompilerPipeline(Opts).interp(
      "decl A: bit<32>[2];\ndecl O: bit<32>[1];\nlet x = A[1]\n---\n"
      "O[0] := x;");
  ASSERT_TRUE(R.ok()) << R.firstError();
  auto [Bank, Off] = R.Lowered->Mems.at("O").locate({0});
  EXPECT_EQ(std::get<int64_t>(
                R.Run->Final.Mems.at(Bank).at(static_cast<size_t>(Off))),
            101);
}

TEST(Driver, DiagnosticsRenderWithInputName) {
  CompileResult R =
      CompilerPipeline().check("decl A: float[10]; let x = A[0]; A[1] := 1.0;");
  ASSERT_FALSE(R.ok());
  std::string Rendered = R.Diags.render("kernel.fuse");
  EXPECT_NE(Rendered.find("kernel.fuse: "), std::string::npos);
  EXPECT_EQ(R.Diags.render().find("kernel.fuse"), std::string::npos);
  EXPECT_FALSE(R.firstError().empty());
}

TEST(Driver, ChecksSourceHelpers) {
  EXPECT_TRUE(checksSource("decl A: float[4]; A[0] := 1.0;"));
  std::string Why;
  EXPECT_FALSE(
      checksSource("decl A: float[10]; let x = A[0]; A[1] := 1.0;", Why));
  EXPECT_FALSE(Why.empty());
  EXPECT_TRUE(checkBareCommand("let x = 1; x := x + 1;").empty());
  EXPECT_FALSE(checkBareCommand("let A: float[4]; let B = A;").empty());
}

TEST(Driver, EstimateStageProducesCosts) {
  CompileResult R = CompilerPipeline().estimate(
      kernels::gemmBlockedDahlia(kernels::GemmBlockedConfig()));
  ASSERT_TRUE(R.ok()) << R.firstError();
  ASSERT_TRUE(R.Est.has_value());
  EXPECT_GT(R.Est->Cycles, 0.0);
  EXPECT_GT(R.Est->Lut, 0);
}

TEST(Driver, SpecExtractorReadsKernelStructure) {
  CompileResult R = CompilerPipeline().check(DotProduct);
  ASSERT_TRUE(R.ok()) << R.firstError();
  Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog, "dot");
  ASSERT_TRUE(bool(Spec)) << (Spec ? "" : Spec.error().str());
  EXPECT_EQ(Spec->Name, "dot");
  ASSERT_EQ(Spec->Arrays.size(), 3u);
  EXPECT_EQ(Spec->Arrays[0].Name, "A");
  EXPECT_EQ(Spec->Arrays[0].DimSizes, (std::vector<int64_t>{8}));
  EXPECT_EQ(Spec->Arrays[0].Partition, (std::vector<int64_t>{4}));
  ASSERT_EQ(Spec->Nests.size(), 1u);
  const hlsim::LoopNest &N = Spec->Nests[0];
  ASSERT_EQ(N.Loops.size(), 1u);
  EXPECT_EQ(N.Loops[0].Trip, 8);
  EXPECT_EQ(N.Loops[0].Unroll, 4);
  EXPECT_TRUE(N.HasAccumulator); // the combine block
  EXPECT_TRUE(Spec->FloatingPoint);
  EXPECT_GE(N.MulOps, 1u);
  // The body reads A[i] and B[i] and writes out[0].
  bool SawARead = false, SawOutWrite = false;
  for (const hlsim::Access &A : N.Body) {
    SawARead |= A.Array == "A" && !A.IsWrite;
    SawOutWrite |= A.Array == "out" && A.IsWrite;
  }
  EXPECT_TRUE(SawARead);
  EXPECT_TRUE(SawOutWrite);
}

TEST(Driver, PhysicalBankAccessChargesTheCheckedBank) {
  // a{1}[0] names flattened bank 1 of a 2x2-banked memory: row 0, column
  // 1. The checker charges that bank; so must both cost models.
  const char *Src = "decl a: bit<32>[8 bank 2][8 bank 2];\n"
                    "for (let i = 0..8) { a{1}[0] := 1; }\n";
  CompileResult R = CompilerPipeline().simulate(Src);
  ASSERT_TRUE(R.ok()) << R.firstError();
  ASSERT_TRUE(R.Est.has_value());
  ASSERT_TRUE(R.Sim.has_value());
  EXPECT_EQ(R.Sim->II, 1.0);

  // The same static bank with an offset that moves every iteration, on a
  // 1-D memory: the bank must still never move.
  const char *Moving = "decl b: bit<32>[8 bank 4];\n"
                       "for (let i = 0..2) { b{3}[i] := 1; }\n";
  for (auto [Text, Bank] : {std::pair{Src, int64_t(1)},
                            std::pair{Moving, int64_t(3)}}) {
    SCOPED_TRACE(Text);
    CompileResult C = CompilerPipeline().check(Text);
    ASSERT_TRUE(C.ok()) << C.firstError();
    Result<hlsim::KernelSpec> Spec = extractKernelSpec(*C.Prog);
    ASSERT_TRUE(bool(Spec)) << Spec.error().str();
    const std::vector<hlsim::Access> &Body = Spec->Nests[0].Body;
    ASSERT_EQ(Body.size(), 1u);
    ASSERT_EQ(Body[0].Idx.size(), Spec->Arrays[0].Partition.size());

    hlsim::ResolvedKernel RK;
    hlsim::resolve(*Spec, RK);
    hlsim::NestInstances Inst;
    hlsim::accessInstances(RK, RK.Nests[0], Inst);
    ASSERT_EQ(Inst.Accesses.size(), 1u);
    ASSERT_EQ(Inst.Accesses[0].Rows, 1u);
    std::vector<int64_t> Reach;
    hlsim::reachableBanks(RK, RK.Nests[0], RK.Nests[0].Body[0],
                          Inst.Residues.data(), Reach);
    EXPECT_EQ(Reach, std::vector<int64_t>{Bank});
    // Every walked group puts its one request on that bank.
    cyclesim::SimResult Sim = cyclesim::simulate(*Spec);
    ASSERT_EQ(Sim.Nests.size(), 1u);
    EXPECT_EQ(Sim.Nests[0].WalkedGroups, 1u);
    EXPECT_EQ(Sim.Nests[0].MaxPortPressure, 1);
  }
}

TEST(Driver, SpecExtractorRejectsReshapingViews) {
  // A split view reaches its 1-D memory with two indices; extraction
  // refuses it with an error instead of handing the cost models an
  // access whose arity does not match its array.
  const char *Src = "decl A: float[12 bank 4];\n"
                    "view sp = split A[by 2];\n"
                    "for (let i = 0..6) unroll 2 {\n"
                    "  let v = sp[0][i];\n"
                    "}\n";
  CompileResult C = CompilerPipeline().check(Src);
  ASSERT_TRUE(C.ok()) << C.firstError();
  Result<hlsim::KernelSpec> Spec = extractKernelSpec(*C.Prog);
  ASSERT_FALSE(bool(Spec));
  EXPECT_NE(Spec.error().message().find("'A'"), std::string::npos);
  CompileResult Est = CompilerPipeline().estimate(Src);
  EXPECT_FALSE(Est.ok());
}

TEST(Driver, SpecExtractorRejectsMoreBanksThanTheCostModelsCount) {
  // 2^21 banks: well-typed, but past the dense bank buffers' limit.
  CompileResult C = CompilerPipeline().check(
      "decl A: bit<32>[2048 bank 2048][1024 bank 1024];\n"
      "for (let i = 0..8) { A[i][0] := 1; }\n");
  ASSERT_TRUE(C.ok()) << C.firstError();
  Result<hlsim::KernelSpec> Spec = extractKernelSpec(*C.Prog);
  ASSERT_FALSE(bool(Spec));
  EXPECT_NE(Spec.error().message().find("'A'"), std::string::npos);
}

TEST(Driver, ProgramsWithoutLoopsEstimateAsOneEmptyNest) {
  // A program with memories but no loop still has one nest: an empty
  // loop list that carries any straight-line accesses. Its estimate,
  // its one-nest simulation and its cache key are pinned.
  struct Case {
    const char *Src;
    double Cycles;
    int64_t Lut, Ff;
    uint64_t Hash;
  };
  const Case Cases[] = {
      {"decl a: bit<32>[8 bank 2];\n", 13, 1444, 1603, 0x74d180a12aac4330},
      {"decl a: bit<32>[8 bank 2];\n"
       "decl b: bit<32>[4];\n"
       "let x = a[1]\n"
       "---\n"
       "b[2] := x + 1;\n",
       13, 1498, 1646, 0x778f011f1d7e1f86},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Src);
    CompileResult R = CompilerPipeline().simulate(C.Src);
    ASSERT_TRUE(R.ok()) << R.firstError();
    ASSERT_TRUE(R.Est.has_value());
    ASSERT_TRUE(R.Sim.has_value());
    EXPECT_EQ(R.Est->Cycles, C.Cycles);
    EXPECT_EQ(R.Est->Lut, C.Lut);
    EXPECT_EQ(R.Est->Ff, C.Ff);
    ASSERT_EQ(R.Sim->Nests.size(), 1u);
    EXPECT_EQ(R.Sim->Nests[0].Groups, 1.0);
    EXPECT_EQ(R.Sim->Cycles, C.Cycles);

    Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog);
    ASSERT_TRUE(bool(Spec)) << Spec.error().str();
    EXPECT_EQ(hlsim::specHash(*Spec), C.Hash)
        << std::hex << hlsim::specHash(*Spec);
  }
}

TEST(Driver, SpecExtractorRejectsUnestimableProgram) {
  CompileResult R = CompilerPipeline().check("let x = 1; let y = x + 1;");
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(bool(extractKernelSpec(*R.Prog)));
}

} // namespace
