//===- SpecValidationTest.cpp - extractKernelSpec vs. hand specs -*- C++ -*-=//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Table-driven validation of driver::extractKernelSpec against the
// hand-written kernel specs in src/kernels/: for every benchmark whose
// Dahlia port ships next to a spec (the four generator kernels and the 16
// MachSuite ports), extraction from the type-checked port must recover the
// structural facts the hand spec records — interface arrays with their
// shapes, banking, and element widths; the modelled loop nest; the
// floating-point and accumulator flags; and, where the port is written
// op-for-op against the spec, the arithmetic op counts.
//
// Extraction records *every* loop nest (multi-phase kernels like md-knn
// validate both the hoisted gather and the force nest) and recovers a
// static trip-count bound for counted `while` loops (kmp's stream walk is
// a modelled nest now). Divergences extraction cannot close are encoded
// per-entry and documented here rather than silently skipped:
//   * sort-merge / sort-radix hand specs flatten the pass loop into one
//     serial trip count, so only the iteration product is comparable;
//   * several hand specs count abstract kernel ops (e.g. aes's 4 adds per
//     round) that the simplified port does not spell out one-for-one.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerPipeline.h"
#include "driver/SpecExtractor.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

using namespace dahlia;
using namespace dahlia::driver;
using namespace dahlia::kernels;

namespace {

/// Which facts of the hand spec the port states exactly.
struct Expectation {
  bool CompareLoops = true;      ///< Exact trip/unroll sequence.
  bool CompareTotalIters = false; ///< Only the product (flattened nests).
  bool CompareOps = false;       ///< MulOps/AddOps equality.
  const char *Note = "";
};

/// Product of \p N's trip counts.
int64_t totalIters(const hlsim::LoopNest &N) {
  int64_t I = 1;
  for (const hlsim::Loop &L : N.Loops)
    I *= L.Trip;
  return I;
}

/// True when any nest of \p K carries an accumulation chain.
bool anyAccumulator(const hlsim::KernelSpec &K) {
  for (const hlsim::LoopNest &N : K.Nests)
    if (N.HasAccumulator)
      return true;
  return false;
}

/// Runs the port through the pipeline, extracts a spec, and compares it
/// against \p Expected under \p E.
void validate(const std::string &Name, const std::string &Source,
              const hlsim::KernelSpec &Expected, const Expectation &E) {
  SCOPED_TRACE(Name + (E.Note[0] ? std::string(" (") + E.Note + ")" : ""));

  CompileResult R = CompilerPipeline().check(Source);
  ASSERT_TRUE(R.ok()) << R.firstError();
  Result<hlsim::KernelSpec> ExtractedOr = extractKernelSpec(*R.Prog, Name);
  ASSERT_TRUE(bool(ExtractedOr)) << ExtractedOr.error().str();
  const hlsim::KernelSpec &Got = *ExtractedOr;

  // Every array of the hand spec must be declared by the port with the
  // same shape, banking, and element width. (The port may declare extra
  // working memories the spec folds into other costs, e.g. md-knn's
  // staging buffer.)
  for (const hlsim::ArraySpec &A : Expected.Arrays) {
    const hlsim::ArraySpec *G = Got.findArray(A.Name);
    ASSERT_NE(G, nullptr) << "port does not declare array '" << A.Name << "'";
    EXPECT_EQ(G->DimSizes, A.DimSizes) << A.Name;
    EXPECT_EQ(G->Partition, A.Partition) << A.Name;
    EXPECT_EQ(G->ElemBits, A.ElemBits) << A.Name;
  }

  if (E.CompareLoops) {
    // Every nest, in source order: trip/unroll sequence plus the
    // while-bound marker.
    ASSERT_EQ(Got.Nests.size(), Expected.Nests.size());
    for (size_t N = 0; N != Expected.Nests.size(); ++N) {
      const std::vector<hlsim::Loop> &GotL = Got.Nests[N].Loops;
      const std::vector<hlsim::Loop> &ExpL = Expected.Nests[N].Loops;
      ASSERT_EQ(GotL.size(), ExpL.size()) << "nest " << N;
      for (size_t I = 0; I != ExpL.size(); ++I) {
        EXPECT_EQ(GotL[I].Trip, ExpL[I].Trip) << "nest " << N << " loop " << I;
        EXPECT_EQ(GotL[I].Unroll, ExpL[I].Unroll)
            << "nest " << N << " loop " << I;
        EXPECT_EQ(GotL[I].IsWhile, ExpL[I].IsWhile)
            << "nest " << N << " loop " << I;
      }
    }
  } else if (E.CompareTotalIters) {
    EXPECT_EQ(totalIters(Got.Nests[0]), totalIters(Expected.Nests[0]));
    EXPECT_EQ(Got.Nests[0].totalUnroll(), Expected.Nests[0].totalUnroll());
  }

  EXPECT_EQ(Got.FloatingPoint, Expected.FloatingPoint);
  EXPECT_EQ(anyAccumulator(Got), anyAccumulator(Expected));

  if (E.CompareOps) {
    EXPECT_EQ(Got.Nests[0].MulOps, Expected.Nests[0].MulOps);
    EXPECT_EQ(Got.Nests[0].AddOps, Expected.Nests[0].AddOps);
  }
}

//===----------------------------------------------------------------------===//
// Generator kernels (the DSE sweep spaces)
//===----------------------------------------------------------------------===//

TEST(SpecValidation, GemmBlockedDefaultAndBanked) {
  Expectation E;
  E.CompareOps = true; // The port is written op-for-op against the spec.
  validate("gemm-blocked", gemmBlockedDahlia(GemmBlockedConfig()),
           gemmBlockedSpec(GemmBlockedConfig()), E);

  // An accepted non-trivial configuration (B = U on every coupled pair).
  GemmBlockedConfig C;
  C.Bank11 = C.Bank12 = C.Bank21 = C.Bank22 = 2;
  C.Unroll1 = C.Unroll2 = C.Unroll3 = 2;
  ASSERT_TRUE(checksSource(gemmBlockedDahlia(C)));
  validate("gemm-blocked-b2u2", gemmBlockedDahlia(C), gemmBlockedSpec(C), E);
}

TEST(SpecValidation, Stencil2d) {
  Expectation E;
  E.Note = "hand spec counts the two-level combine reduction as one add";
  validate("stencil2d", stencil2dDahlia(Stencil2dConfig()),
           stencil2dSpec(Stencil2dConfig()), E);
}

TEST(SpecValidation, MdKnnDefault) {
  Expectation E;
  E.Note = "both phases modelled: the hoisted gather nest and the force "
           "nest validate structurally";
  validate("md-knn", mdKnnDahlia(MdKnnConfig()), mdKnnSpec(MdKnnConfig()), E);
}

TEST(SpecValidation, MdKnnBankedAndUnrolled) {
  // An accepted non-trivial configuration: the force nest's unroll and
  // the coupled bankings must survive extraction unchanged while the
  // gather nest stays serial.
  MdKnnConfig C;
  C.UnrollI = 2;
  C.BankPos = C.BankNlPos = C.BankForce = 2;
  ASSERT_TRUE(checksSource(mdKnnDahlia(C)));
  Expectation E;
  validate("md-knn-b2u2", mdKnnDahlia(C), mdKnnSpec(C), E);
}

TEST(SpecValidation, MdGridDefault) {
  Expectation E;
  validate("md-grid", mdGridDahlia(MdGridConfig()), mdGridSpec(MdGridConfig()),
           E);
}

//===----------------------------------------------------------------------===//
// MachSuite ports (Figure 11)
//===----------------------------------------------------------------------===//

TEST(SpecValidation, MachSuitePortsMatchHandSpecs) {
  std::map<std::string, Expectation> Table;
  Table["aes"] = {true, false, false,
                  "spec counts abstract round adds the port elides"};
  Table["bfs-bulk"] = {true, false, false, ""};
  Table["bfs-queue"] = {true, false, false, ""};
  Table["fft-strided"] = {true, false, false,
                          "spec counts butterfly adds beyond the port's"};
  Table["gemm-blocked"] = {true, false, true, ""};
  Table["gemm-ncubed"] = {true, false, true, ""};
  Table["kmp"] = {true, false, false,
                  "counted while loop modelled with its static bound"};
  Table["md-grid"] = {true, false, false, ""};
  Table["md-knn"] = {true, false, false, ""};
  Table["nw"] = {true, false, false, ""};
  Table["sort-merge"] = {false, true, false, "pass loop flattened in spec"};
  Table["sort-radix"] = {false, true, false, "pass loop flattened in spec"};
  Table["spmv-crs"] = {true, false, true, ""};
  Table["spmv-ellpack"] = {true, false, true, ""};
  Table["stencil-stencil2d"] = {true, false, false, ""};
  Table["stencil-stencil3d"] = {true, false, false, ""};

  size_t Validated = 0;
  for (const MachSuiteBenchmark &B : machSuiteBenchmarks()) {
    auto It = Table.find(B.Name);
    ASSERT_NE(It, Table.end()) << "no expectation row for " << B.Name;
    // The Rewrite spec describes the Dahlia port (the Baseline describes
    // the reference HLS implementation, same structure by construction).
    validate(B.Name, B.DahliaSource, B.Rewrite, It->second);
    ++Validated;
  }
  EXPECT_EQ(Validated, 16u);
}

//===----------------------------------------------------------------------===//
// The extractor facts the comparisons above rely on
//===----------------------------------------------------------------------===//

TEST(SpecValidation, KmpWhileNestHasStaticBound) {
  // Pin the while-bound derivation: the kmp port's counted `while`
  // (`let i = 0; while (i < 32411) { ... i := i + 1; }`) is a modelled
  // serial nest with the static trip bound, flagged as a while loop.
  for (const MachSuiteBenchmark &B : machSuiteBenchmarks()) {
    if (B.Name != "kmp")
      continue;
    CompileResult R = CompilerPipeline().check(B.DahliaSource);
    ASSERT_TRUE(R.ok()) << R.firstError();
    Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog);
    ASSERT_TRUE(bool(Spec));
    ASSERT_EQ(Spec->Nests.size(), 1u);
    const std::vector<hlsim::Loop> &Loops = Spec->Nests[0].Loops;
    ASSERT_EQ(Loops.size(), 1u);
    EXPECT_EQ(Loops[0].Trip, 32411);
    EXPECT_EQ(Loops[0].Unroll, 1);
    EXPECT_TRUE(Loops[0].IsWhile);
    EXPECT_EQ(totalIters(Spec->Nests[0]), totalIters(B.Rewrite.Nests[0]));
  }
}

TEST(SpecValidation, GuardedIncrementHasNoStaticBound) {
  // An increment hidden behind an `if` with no else executes
  // data-dependently — deriving a bound from it would make the "Exact"
  // simulator rung silently wrong on a potentially unbounded loop.
  const char *Src = "decl A: bit<32>[16];\n"
                    "let i = 0;\n"
                    "while (i < 16) {\n"
                    "  let v = A[i]\n"
                    "  ---\n"
                    "  if (v == 0) { i := i + 1; }\n"
                    "}\n";
  CompileResult R = CompilerPipeline().check(Src);
  ASSERT_TRUE(R.ok()) << R.firstError();
  Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog);
  ASSERT_TRUE(bool(Spec));
  EXPECT_TRUE(Spec->Nests[0].Loops.empty());
}

TEST(SpecValidation, SequentialWhilesTrackTheCounterValue) {
  // The first while consumes i = 0..9; the second starts at the first
  // one's exit value (10), not at the stale `let` init — 10 trips each,
  // as two serial nests.
  const char *Src = "decl A: bit<32>[32];\n"
                    "let i = 0;\n"
                    "{\n"
                    "while (i < 10) {\n"
                    "  let v = A[i]\n"
                    "  ---\n"
                    "  i := i + 1;\n"
                    "}\n"
                    "---\n"
                    "while (i < 20) {\n"
                    "  let w = A[i]\n"
                    "  ---\n"
                    "  i := i + 1;\n"
                    "}\n"
                    "}\n";
  CompileResult R = CompilerPipeline().check(Src);
  ASSERT_TRUE(R.ok()) << R.firstError();
  Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog);
  ASSERT_TRUE(bool(Spec));
  ASSERT_EQ(Spec->Nests.size(), 2u);
  for (const hlsim::LoopNest &N : Spec->Nests) {
    ASSERT_EQ(N.Loops.size(), 1u);
    EXPECT_EQ(N.Loops[0].Trip, 10);
  }
}

TEST(SpecValidation, DoubleIncrementHasNoStaticBound) {
  // Two increments per iteration step the counter twice: deriving a
  // bound from either one would double-count the trips.
  const char *Src = "decl A: bit<32>[16];\n"
                    "let i = 0;\n"
                    "while (i < 10) {\n"
                    "  let v = A[i]\n"
                    "  ---\n"
                    "  i := i + 1;\n"
                    "  ---\n"
                    "  i := i + 1;\n"
                    "}\n";
  CompileResult R = CompilerPipeline().check(Src);
  ASSERT_TRUE(R.ok()) << R.firstError();
  Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog);
  ASSERT_TRUE(bool(Spec));
  EXPECT_TRUE(Spec->Nests[0].Loops.empty());
}

TEST(SpecValidation, ReassignedCounterLosesItsBound) {
  // A write between the `let` and the while invalidates the tracked
  // init, so no (wrong) bound is derived.
  const char *Src = "decl A: bit<32>[16];\n"
                    "let i = 0;\n"
                    "let x = A[0]\n"
                    "---\n"
                    "i := x;\n"
                    "---\n"
                    "while (i < 16) {\n"
                    "  let v = A[i]\n"
                    "  ---\n"
                    "  i := i + 1;\n"
                    "}\n";
  CompileResult R = CompilerPipeline().check(Src);
  ASSERT_TRUE(R.ok()) << R.firstError();
  Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog);
  ASSERT_TRUE(bool(Spec));
  EXPECT_TRUE(Spec->Nests[0].Loops.empty());
}

TEST(SpecValidation, DataDependentWhileStaysUnmodelled) {
  // A while whose counter is rewritten data-dependently has no static
  // bound: its accesses still count, but it contributes no nest level.
  const char *Src = "decl A: bit<32>[16];\n"
                    "let i = 0;\n"
                    "while (i < 16) {\n"
                    "  let v = A[i]\n"
                    "  ---\n"
                    "  if (v == 0) { i := i + 1; } else { i := 0; }\n"
                    "}\n";
  CompileResult R = CompilerPipeline().check(Src);
  ASSERT_TRUE(R.ok()) << R.firstError();
  Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog);
  ASSERT_TRUE(bool(Spec));
  EXPECT_TRUE(Spec->Nests[0].Loops.empty());
}

} // namespace
