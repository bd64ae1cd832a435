// Assembler: operand formats, labels, immediates, error reporting and
// disassembly round-trips.
#include <gtest/gtest.h>

#include "soc/proc/assembler.hpp"

namespace soc::proc {
namespace {

TEST(Assembler, RTypeFormat) {
  const auto p = assemble("add r1, r2, r3");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].op, Opcode::kAdd);
  EXPECT_EQ(p[0].rd, 1);
  EXPECT_EQ(p[0].rs1, 2);
  EXPECT_EQ(p[0].rs2, 3);
}

TEST(Assembler, ITypeImmediates) {
  const auto p = assemble(R"(
    addi r1, r0, 42
    addi r2, r0, -42
    andi r3, r1, 0xFF
    ori  r4, r1, 0x10
    lui  r5, 0xABCD
  )");
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p[0].imm, 42);
  EXPECT_EQ(p[1].imm, -42);
  EXPECT_EQ(p[2].imm, 0xFF);
  EXPECT_EQ(p[3].imm, 0x10);
  EXPECT_EQ(p[4].imm, 0xABCD);
}

TEST(Assembler, MemoryOffsetBase) {
  const auto p = assemble(R"(
    lw  r1, 8(r2)
    sw  r3, -4(r4)
    lbu r5, 0(r6)
    sb  r7, 100(r8)
    lw  r9, (r10)
  )");
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p[0].imm, 8);
  EXPECT_EQ(p[0].rs1, 2);
  EXPECT_EQ(p[0].rd, 1);
  EXPECT_EQ(p[1].imm, -4);
  EXPECT_EQ(p[1].rs2, 3);
  EXPECT_EQ(p[1].rs1, 4);
  EXPECT_EQ(p[4].imm, 0);  // empty offset defaults to 0
}

TEST(Assembler, LabelsForwardAndBackward) {
  const auto p = assemble(R"(
    start:
      addi r1, r0, 1
      beq  r1, r0, end
      j    start
    end:
      halt
  )");
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[1].imm, 3);  // end
  EXPECT_EQ(p[2].imm, 0);  // start
}

TEST(Assembler, LabelOnSameLineAsInstruction) {
  const auto p = assemble("loop: addi r1, r1, 1\n j loop");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[1].imm, 0);
}

TEST(Assembler, CommentsAndBlankLines) {
  const auto p = assemble(R"(
    ; full line comment
    # another comment style

    nop   ; trailing comment
    halt  # trailing comment
  )");
  EXPECT_EQ(p.size(), 2u);
}

TEST(Assembler, RemoteAndMessageOps) {
  const auto p = assemble(R"(
    rload  r1, 16(r2)
    rstore r3, 0(r4)
    send   r5, r6
    recv   r7, r8
  )");
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].op, Opcode::kRload);
  EXPECT_EQ(p[1].op, Opcode::kRstore);
  EXPECT_EQ(p[2].op, Opcode::kSend);
  EXPECT_EQ(p[2].rs1, 5);
  EXPECT_EQ(p[2].rs2, 6);
  EXPECT_EQ(p[3].op, Opcode::kRecv);
  EXPECT_EQ(p[3].rd, 7);
}

TEST(Assembler, XopSlots) {
  const auto p = assemble("xop0 r1, r2, r3\nxop3 r4, r5, r6");
  EXPECT_EQ(p[0].op, Opcode::kXop0);
  EXPECT_EQ(p[1].op, Opcode::kXop3);
}

TEST(Assembler, JumpVariants) {
  const auto p = assemble(R"(
    tgt:
      j   tgt
      jal r31, tgt
      jr  r31
  )");
  EXPECT_EQ(p[0].op, Opcode::kJ);
  EXPECT_EQ(p[1].op, Opcode::kJal);
  EXPECT_EQ(p[1].rd, 31);
  EXPECT_EQ(p[2].op, Opcode::kJr);
  EXPECT_EQ(p[2].rs1, 31);
}

TEST(Assembler, NumericBranchTargets) {
  const auto p = assemble("beq r1, r2, 7");
  EXPECT_EQ(p[0].imm, 7);
}

TEST(Assembler, CaseInsensitiveMnemonics) {
  const auto p = assemble("ADD r1, r2, r3\nHaLt");
  EXPECT_EQ(p[0].op, Opcode::kAdd);
  EXPECT_EQ(p[1].op, Opcode::kHalt);
}

// ----------------------------------------------------------- error paths ---

TEST(AssemblerErrors, UnknownMnemonic) {
  try {
    assemble("nop\nfrobnicate r1, r2");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
  }
}

TEST(AssemblerErrors, BadRegister) {
  EXPECT_THROW(assemble("add r1, r2, r32"), AsmError);
  EXPECT_THROW(assemble("add r1, r2, x3"), AsmError);
  EXPECT_THROW(assemble("add r1, r2, r-1"), AsmError);
}

TEST(AssemblerErrors, WrongOperandCount) {
  EXPECT_THROW(assemble("add r1, r2"), AsmError);
  EXPECT_THROW(assemble("nop r1"), AsmError);
  EXPECT_THROW(assemble("lui r1, 2, 3"), AsmError);
}

TEST(AssemblerErrors, UndefinedLabel) {
  try {
    assemble("j nowhere");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_NE(std::string(e.what()).find("nowhere"), std::string::npos);
  }
}

TEST(AssemblerErrors, DuplicateLabel) {
  EXPECT_THROW(assemble("a:\nnop\na:\nnop"), AsmError);
}

TEST(AssemblerErrors, BadImmediate) {
  EXPECT_THROW(assemble("addi r1, r0, banana"), AsmError);
  EXPECT_THROW(assemble("lw r1, x(r2)"), AsmError);
}

TEST(AssemblerErrors, MalformedOffsetBase) {
  EXPECT_THROW(assemble("lw r1, 4(r2"), AsmError);
  EXPECT_THROW(assemble("lw r1, 4 r2"), AsmError);
}

// ------------------------------------------------------------ round trip ---

TEST(Disassembler, RoundTripReassembles) {
  const char* source = R"(
    start:
      addi r1, r0, 10
      lui  r2, 0x1234
      lw   r3, 4(r1)
      sw   r3, 8(r1)
      mul  r4, r3, r3
      beq  r4, r0, start
      rload r5, 0(r4)
      send r5, r4
      recv r6, r5
      xop1 r7, r6, r5
      jal  r31, start
      jr   r31
      halt
  )";
  const Program p1 = assemble(source);
  const std::string text = disassemble(p1);
  // Disassembly uses numeric branch targets; it must reassemble to the
  // identical program.
  const Program p2 = assemble(text);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].op, p2[i].op) << "at " << i << "\n" << text;
    EXPECT_EQ(p1[i].rd, p2[i].rd) << "at " << i;
    EXPECT_EQ(p1[i].rs1, p2[i].rs1) << "at " << i;
    EXPECT_EQ(p1[i].rs2, p2[i].rs2) << "at " << i;
    EXPECT_EQ(p1[i].imm, p2[i].imm) << "at " << i;
  }
}

TEST(OpInfo, CoversAllOpcodesWithSaneCosts) {
  for (std::size_t i = 0; i < kOpcodeCount; ++i) {
    const auto& info = op_info(static_cast<Opcode>(i));
    EXPECT_FALSE(info.mnemonic.empty());
    EXPECT_GE(info.base_cycles, 1u);
    EXPECT_LE(info.base_cycles, 4u);
  }
  EXPECT_EQ(op_info(Opcode::kMul).base_cycles, 3u);
  EXPECT_EQ(op_info(Opcode::kHalt).cls, OpClass::kMisc);
  EXPECT_EQ(op_info(Opcode::kSend).cls, OpClass::kRemote);
}

}  // namespace
}  // namespace soc::proc
