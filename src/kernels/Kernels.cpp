//===- Kernels.cpp - Benchmark kernels of the evaluation --------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include <memory>
#include <sstream>

using namespace dahlia::kernels;
using namespace dahlia::hlsim;

//===----------------------------------------------------------------------===//
// Figure 2 / Figure 4: 512x512 dense matrix multiply
//===----------------------------------------------------------------------===//

KernelSpec dahlia::kernels::gemm512(int64_t Unroll, int64_t Partition) {
  KernelSpec K;
  LoopNest &Nest = K.Nests.front();
  K.Name = "gemm512";
  K.FloatingPoint = false; // int m1[512][512] in Figure 2.
  Nest.MulOps = 1;
  Nest.AddOps = 1;
  Nest.HasAccumulator = true;
  // SDAccel partitions on the k dimension of m1 and the k dimension of m2
  // (the dimension the unrolled loop strides over).
  K.Arrays = {
      {"m1", {512, 512}, {1, Partition}, 1, 32},
      {"m2", {512, 512}, {Partition, 1}, 1, 32},
      {"prod", {512, 512}, {1, 1}, 1, 32},
  };
  Nest.Loops = {
      {"i", 512, 1},
      {"j", 512, 1},
      {"k", 512, Unroll},
  };
  Nest.Body = {
      {"m1", {AffineExpr::var("i"), AffineExpr::var("k")}, false},
      {"m2", {AffineExpr::var("k"), AffineExpr::var("j")}, false},
      {"prod", {AffineExpr::var("i"), AffineExpr::var("j")}, true},
  };
  return K;
}

//===----------------------------------------------------------------------===//
// gemm-blocked (Figure 7, Figure 10 listing)
//===----------------------------------------------------------------------===//

std::vector<GemmBlockedConfig> dahlia::kernels::gemmBlockedSpace() {
  std::vector<GemmBlockedConfig> Space;
  const int64_t Banks[] = {1, 2, 3, 4};
  const int64_t Unrolls[] = {1, 2, 4, 6, 8};
  for (int64_t B11 : Banks)
    for (int64_t B12 : Banks)
      for (int64_t B21 : Banks)
        for (int64_t B22 : Banks)
          for (int64_t U1 : Unrolls)
            for (int64_t U2 : Unrolls)
              for (int64_t U3 : Unrolls)
                Space.push_back({B11, B12, B21, B22, U1, U2, U3});
  return Space;
}

std::string
dahlia::kernels::gemmBlockedDahlia(const GemmBlockedConfig &C) {
  std::ostringstream OS;
  OS << "decl m1: bit<32>[128 bank " << C.Bank11 << "][128 bank " << C.Bank12
     << "];\n"
     << "decl m2: bit<32>[128 bank " << C.Bank11 << "][128 bank " << C.Bank12
     << "];\n"
     << "decl prod: bit<32>[128 bank " << C.Bank21 << "][128 bank "
     << C.Bank22 << "];\n"
     << "for (let jj = 0..16) {\n"
     << "  for (let kk = 0..16) {\n"
     << "    view m1v = suffix m1[by 0][by 8 * kk];\n"
     << "    view m2v = suffix m2[by 8 * kk][by 8 * jj];\n"
     << "    view prodv = suffix prod[by 0][by 8 * jj];\n"
     << "    for (let i = 0..128) unroll " << C.Unroll1 << " {\n"
     << "      for (let j = 0..8) unroll " << C.Unroll2 << " {\n"
     << "        let sum = 0;\n"
     << "        {\n"
     << "          for (let k = 0..8) unroll " << C.Unroll3 << " {\n"
     << "            let v = m1v[i][k] * m2v[k][j];\n"
     << "          } combine {\n"
     << "            sum += v;\n"
     << "          }\n"
     << "        }\n"
     << "        ---\n"
     << "        let cur = prodv[i][j]\n"
     << "        ---\n"
     << "        prodv[i][j] := cur + sum;\n"
     << "      }\n"
     << "    }\n"
     << "  }\n"
     << "}\n";
  return OS.str();
}

KernelSpec dahlia::kernels::gemmBlockedSpec(const GemmBlockedConfig &C) {
  KernelSpec K;
  LoopNest &Nest = K.Nests.front();
  K.Name = "gemm-blocked";
  K.FloatingPoint = false;
  Nest.MulOps = 1;
  Nest.AddOps = 2;
  Nest.HasAccumulator = true;
  K.Arrays = {
      {"m1", {128, 128}, {C.Bank11, C.Bank12}, 1, 32},
      {"m2", {128, 128}, {C.Bank11, C.Bank12}, 1, 32},
      {"prod", {128, 128}, {C.Bank21, C.Bank22}, 1, 32},
  };
  Nest.Loops = {
      {"jj", 16, 1},          {"kk", 16, 1},
      {"i", 128, C.Unroll1},  {"j", 8, C.Unroll2},
      {"k", 8, C.Unroll3},
  };
  AffineExpr KkK = AffineExpr::var("kk", 8);
  KkK.Coeffs["k"] = 1;
  AffineExpr JjJ = AffineExpr::var("jj", 8);
  JjJ.Coeffs["j"] = 1;
  Nest.Body = {
      {"m1", {AffineExpr::var("i"), KkK}, false},
      {"m2", {KkK, JjJ}, false},
      {"prod", {AffineExpr::var("i"), JjJ}, false},
      {"prod", {AffineExpr::var("i"), JjJ}, true},
  };
  return K;
}

//===----------------------------------------------------------------------===//
// stencil2d (Figure 8a)
//===----------------------------------------------------------------------===//

std::vector<Stencil2dConfig> dahlia::kernels::stencil2dSpace() {
  std::vector<Stencil2dConfig> Space;
  for (int64_t O1 = 1; O1 <= 6; ++O1)
    for (int64_t O2 = 1; O2 <= 6; ++O2)
      for (int64_t F1 = 1; F1 <= 3; ++F1)
        for (int64_t F2 = 1; F2 <= 3; ++F2)
          for (int64_t U1 = 1; U1 <= 3; ++U1)
            for (int64_t U2 = 1; U2 <= 3; ++U2)
              Space.push_back({O1, O2, F1, F2, U1, U2});
  return Space;
}

std::string dahlia::kernels::stencil2dDahlia(const Stencil2dConfig &C) {
  std::ostringstream OS;
  OS << "decl orig: bit<32>[120 bank " << C.OrigBank1 << "][60 bank "
     << C.OrigBank2 << "];\n"
     << "decl sol: bit<32>[120][60];\n"
     << "decl filter: bit<32>[3 bank " << C.FilterBank1 << "][3 bank "
     << C.FilterBank2 << "];\n"
     << "for (let r = 0..118) {\n"
     << "  for (let c = 0..58) {\n"
     << "    view window = shift orig[by r][by c];\n"
     << "    let temp = 0;\n"
     << "    {\n"
     << "      for (let k1 = 0..3) unroll " << C.Unroll1 << " {\n"
     << "        let part = 0;\n"
     << "        for (let k2 = 0..3) unroll " << C.Unroll2 << " {\n"
     << "          let mul = filter[k1][k2] * window[k1][k2];\n"
     << "        } combine {\n"
     << "          part += mul;\n"
     << "        }\n"
     << "      } combine {\n"
     << "        temp += part;\n"
     << "      }\n"
     << "    }\n"
     << "    ---\n"
     << "    sol[r][c] := temp;\n"
     << "  }\n"
     << "}\n";
  return OS.str();
}

KernelSpec dahlia::kernels::stencil2dSpec(const Stencil2dConfig &C) {
  KernelSpec K;
  LoopNest &Nest = K.Nests.front();
  K.Name = "stencil2d";
  K.FloatingPoint = false;
  Nest.MulOps = 1;
  Nest.AddOps = 1;
  Nest.HasAccumulator = true;
  K.Arrays = {
      {"orig", {120, 60}, {C.OrigBank1, C.OrigBank2}, 1, 32},
      {"sol", {120, 60}, {1, 1}, 1, 32},
      {"filter", {3, 3}, {C.FilterBank1, C.FilterBank2}, 1, 32},
  };
  Nest.Loops = {
      {"r", 118, 1},
      {"c", 58, 1},
      {"k1", 3, C.Unroll1},
      {"k2", 3, C.Unroll2},
  };
  AffineExpr RK1 = AffineExpr::var("r");
  RK1.Coeffs["k1"] = 1;
  AffineExpr CK2 = AffineExpr::var("c");
  CK2.Coeffs["k2"] = 1;
  Nest.Body = {
      {"filter", {AffineExpr::var("k1"), AffineExpr::var("k2")}, false},
      {"orig", {RK1, CK2}, false},
      {"sol", {AffineExpr::var("r"), AffineExpr::var("c")}, true},
  };
  return K;
}

//===----------------------------------------------------------------------===//
// md-knn (Figure 8b)
//===----------------------------------------------------------------------===//

std::vector<MdKnnConfig> dahlia::kernels::mdKnnSpace() {
  std::vector<MdKnnConfig> Space;
  for (int64_t B1 = 1; B1 <= 4; ++B1)
    for (int64_t B2 = 1; B2 <= 4; ++B2)
      for (int64_t B3 = 1; B3 <= 4; ++B3)
        for (int64_t B4 = 1; B4 <= 4; ++B4)
          for (int64_t U1 = 1; U1 <= 8; ++U1)
            for (int64_t U2 = 1; U2 <= 8; ++U2)
              Space.push_back({B1, B2, B3, B4, U1, U2});
  return Space;
}

std::string dahlia::kernels::mdKnnDahlia(const MdKnnConfig &C) {
  std::ostringstream OS;
  // The position/force data is floating point (the spec models the
  // Lennard-Jones chain in FP); only the neighbour-index list is integer.
  OS << "decl position: float[256 bank " << C.BankPos << "];\n"
     << "decl pos_stage: float[256];\n"
     // The atom dimension's banking tracks the unroll factor (our port
     // re-banks the staging memory it owns); the neighbour dimension's
     // banking is the swept BankNlPos parameter and gates inner
     // parallelism.
     << "decl nlpos: float[256 bank " << C.UnrollI << "][16 bank "
     << C.BankNlPos << "];\n"
     << "decl nl: bit<32>[256 bank " << C.BankNl << "][16];\n"
     << "decl force: float[256 bank " << C.BankForce << "];\n"
     // Phase 1: the data-dependent gather, hoisted into its own serial
     // loop (Section 5.3: "we hoist this serial section").
     << "for (let i0 = 0..256) {\n"
     << "  for (let j0 = 0..16) {\n"
     << "    let nid = nl[i0][j0]\n"
     << "    ---\n"
     << "    let p = pos_stage[nid]\n"
     << "    ---\n"
     << "    nlpos[i0][j0] := p;\n"
     << "  }\n"
     << "}\n"
     << "---\n"
     // Phase 2: the parallelizable force computation.
     << "for (let i = 0..256) unroll " << C.UnrollI << " {\n"
     << "  let fsum = 0.0;\n"
     << "  {\n"
     << "    for (let j = 0..16) unroll " << C.UnrollJ << " {\n"
     << "      let del = position[i] - nlpos[i][j];\n"
     << "      let contrib = del * del * del;\n"
     << "    } combine {\n"
     << "      fsum += contrib;\n"
     << "    }\n"
     << "  }\n"
     << "  ---\n"
     << "  force[i] := fsum;\n"
     << "}\n";
  return OS.str();
}

KernelSpec dahlia::kernels::mdKnnSpec(const MdKnnConfig &C) {
  KernelSpec K;
  K.Name = "md-knn";
  K.FloatingPoint = true; // LJ potential in FP.
  // Two serial phases, both modelled as real nests (matching the port's
  // source order): the hoisted data-dependent gather, then the
  // parallelizable force computation.
  K.Nests.resize(2);
  // Nest 0 — the gather: 256*16 serial iterations streaming neighbour
  // positions into the staging layout.
  LoopNest &Gather = K.Nests[0];
  Gather.Loops = {
      {"i0", 256, 1},
      {"j0", 16, 1},
  };
  Gather.Body = {
      {"nl", {AffineExpr::var("i0"), AffineExpr::var("j0")}, false},
      {"nlpos", {AffineExpr::var("i0"), AffineExpr::var("j0")}, true},
  };
  // Filling the pos_stage staging copy is the serial phase the
  // restructure adds; it stays outside the nests.
  K.ExtraSerialCycles = 256.0;
  K.Arrays = {
      {"position", {256}, {C.BankPos}, 1, 32},
      {"nlpos", {256, 16}, {C.UnrollI, C.BankNlPos}, 1, 32},
      {"nl", {256, 16}, {C.BankNl, 1}, 1, 32},
      {"force", {256}, {C.BankForce}, 1, 32},
  };
  // Nest 1 — the force computation. The Lennard-Jones force chain is a
  // long dependence-bound FP pipeline.
  LoopNest &Force = K.Nests[1];
  Force.Loops = {
      {"i", 256, C.UnrollI},
      {"j", 16, C.UnrollJ},
  };
  Force.Body = {
      {"position", {AffineExpr::var("i")}, false},
      {"nlpos", {AffineExpr::var("i"), AffineExpr::var("j")}, false},
      {"force", {AffineExpr::var("i")}, true},
  };
  Force.MulOps = 3;
  Force.AddOps = 2;
  Force.HasAccumulator = true;
  Force.IterationLatency = 30.0;
  return K;
}

//===----------------------------------------------------------------------===//
// md-grid (Figure 8c)
//===----------------------------------------------------------------------===//

std::vector<MdGridConfig> dahlia::kernels::mdGridSpace() {
  std::vector<MdGridConfig> Space;
  for (int64_t B1 = 1; B1 <= 4; ++B1)
    for (int64_t B2 = 1; B2 <= 4; ++B2)
      for (int64_t B3 = 1; B3 <= 4; ++B3)
        for (int64_t U1 = 1; U1 <= 7; ++U1)
          for (int64_t U2 = 1; U2 <= 7; ++U2)
            for (int64_t U3 = 1; U3 <= 7; ++U3)
              Space.push_back({B1, B2, B3, U1, U2, U3});
  return Space;
}

std::string dahlia::kernels::mdGridDahlia(const MdGridConfig &C) {
  std::ostringstream OS;
  // Floating-point interface, matching the spec's FP force model.
  OS << "decl pos: float[4 bank " << C.Bank1 << "][4 bank " << C.Bank2
     << "][4 bank " << C.Bank3 << "][16];\n"
     << "decl frc: float[4 bank " << C.Bank1 << "][4 bank " << C.Bank2
     << "][4 bank " << C.Bank3 << "][16];\n"
     // The outer three (cell) loops are parallelizable; the inner atom
     // loop is a sequential reduction per cell.
     << "for (let i = 0..4) unroll " << C.Unroll1 << " {\n"
     << "  for (let j = 0..4) unroll " << C.Unroll2 << " {\n"
     << "    for (let k = 0..4) unroll " << C.Unroll3 << " {\n"
     << "      let acc = 0.0;\n"
     << "      {\n"
     << "        for (let a = 0..16) {\n"
     << "          let q = pos[i][j][k][a];\n"
     << "          let v = q * q;\n"
     << "        } combine {\n"
     << "          acc += v;\n"
     << "        }\n"
     << "      }\n"
     << "      ---\n"
     << "      frc[i][j][k][0] := acc;\n"
     << "    }\n"
     << "  }\n"
     << "}\n";
  return OS.str();
}

KernelSpec dahlia::kernels::mdGridSpec(const MdGridConfig &C) {
  KernelSpec K;
  LoopNest &Nest = K.Nests.front();
  K.Name = "md-grid";
  K.FloatingPoint = true;
  Nest.MulOps = 2;
  Nest.AddOps = 3;
  Nest.HasAccumulator = true;
  K.Arrays = {
      {"pos", {4, 4, 4, 16}, {C.Bank1, C.Bank2, C.Bank3, 1}, 1, 32},
      {"frc", {4, 4, 4, 16}, {C.Bank1, C.Bank2, C.Bank3, 1}, 1, 32},
  };
  Nest.Loops = {
      {"i", 4, C.Unroll1},
      {"j", 4, C.Unroll2},
      {"k", 4, C.Unroll3},
      {"a", 16, 1},
  };
  Nest.Body = {
      {"pos",
       {AffineExpr::var("i"), AffineExpr::var("j"), AffineExpr::var("k"),
        AffineExpr::var("a")},
       false},
      {"frc",
       {AffineExpr::var("i"), AffineExpr::var("j"), AffineExpr::var("k"),
        AffineExpr::constant(0)},
       true},
  };
  return K;
}

//===----------------------------------------------------------------------===//
// Exploration problems
//===----------------------------------------------------------------------===//

namespace {

template <typename Config>
dahlia::dse::DseProblem
makeProblem(std::vector<Config> Space,
            std::string (*Source)(const Config &),
            KernelSpec (*Spec)(const Config &), bool EstimateRejected) {
  auto Shared = std::make_shared<std::vector<Config>>(std::move(Space));
  dahlia::dse::DseProblem P;
  P.Size = Shared->size();
  P.Source = [Shared, Source](size_t I) { return Source((*Shared)[I]); };
  P.Spec = [Shared, Spec](size_t I) { return Spec((*Shared)[I]); };
  P.EstimateRejected = EstimateRejected;
  return P;
}

} // namespace

dahlia::dse::DseProblem dahlia::kernels::gemmBlockedProblem() {
  return makeProblem<GemmBlockedConfig>(gemmBlockedSpace(), gemmBlockedDahlia,
                                        gemmBlockedSpec,
                                        /*EstimateRejected=*/true);
}

dahlia::dse::DseProblem dahlia::kernels::stencil2dProblem() {
  return makeProblem<Stencil2dConfig>(stencil2dSpace(), stencil2dDahlia,
                                      stencil2dSpec,
                                      /*EstimateRejected=*/false);
}

dahlia::dse::DseProblem dahlia::kernels::mdKnnProblem() {
  return makeProblem<MdKnnConfig>(mdKnnSpace(), mdKnnDahlia, mdKnnSpec,
                                  /*EstimateRejected=*/false);
}

dahlia::dse::DseProblem dahlia::kernels::mdGridProblem() {
  return makeProblem<MdGridConfig>(mdGridSpace(), mdGridDahlia, mdGridSpec,
                                   /*EstimateRejected=*/false);
}
