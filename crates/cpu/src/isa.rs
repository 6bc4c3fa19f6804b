//! The `mini32` instruction set: a small MIPS-like 32-bit RISC ISA used both
//! by the instruction-set simulator and by the gate-level core generator.
//!
//! The ISA is deliberately conventional — the paper's case study uses a
//! Power-architecture e200z0; any 32-bit embedded RISC with an address
//! generation unit, a branch unit and a general-purpose register file
//! exercises the same untestability mechanisms.

use std::fmt;

/// A register index (0..=31). Register 0 always reads as zero.
pub type Reg = u8;

/// One `mini32` instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Instr {
    /// No operation (encoded as `sll r0, r0, 0`).
    Nop,
    /// `rd = rs + rt`
    Add {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register.
        rt: Reg,
    },
    /// `rd = rs - rt`
    Sub {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register.
        rt: Reg,
    },
    /// `rd = rs & rt`
    And {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register.
        rt: Reg,
    },
    /// `rd = rs | rt`
    Or {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register.
        rt: Reg,
    },
    /// `rd = rs ^ rt`
    Xor {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register.
        rt: Reg,
    },
    /// `rd = (rs < rt) ? 1 : 0` (unsigned compare)
    Sltu {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register.
        rt: Reg,
    },
    /// `rd = rt << shamt`
    Sll {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rt: Reg,
        /// Shift amount (0..=31).
        shamt: u8,
    },
    /// `rd = rt >> shamt` (logical)
    Srl {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rt: Reg,
        /// Shift amount (0..=31).
        shamt: u8,
    },
    /// `rt = rs + sign_extend(imm)`
    Addi {
        /// Destination register.
        rt: Reg,
        /// Source register.
        rs: Reg,
        /// Signed 16-bit immediate.
        imm: i16,
    },
    /// `rt = rs & zero_extend(imm)`
    Andi {
        /// Destination register.
        rt: Reg,
        /// Source register.
        rs: Reg,
        /// Unsigned 16-bit immediate.
        imm: u16,
    },
    /// `rt = rs | zero_extend(imm)`
    Ori {
        /// Destination register.
        rt: Reg,
        /// Source register.
        rs: Reg,
        /// Unsigned 16-bit immediate.
        imm: u16,
    },
    /// `rt = rs ^ zero_extend(imm)`
    Xori {
        /// Destination register.
        rt: Reg,
        /// Source register.
        rs: Reg,
        /// Unsigned 16-bit immediate.
        imm: u16,
    },
    /// `rt = imm << 16`
    Lui {
        /// Destination register.
        rt: Reg,
        /// Upper immediate.
        imm: u16,
    },
    /// `rt = mem[rs + sign_extend(imm)]`
    Lw {
        /// Destination register.
        rt: Reg,
        /// Base register.
        rs: Reg,
        /// Signed byte offset.
        imm: i16,
    },
    /// `mem[rs + sign_extend(imm)] = rt`
    Sw {
        /// Source register (value stored).
        rt: Reg,
        /// Base register.
        rs: Reg,
        /// Signed byte offset.
        imm: i16,
    },
    /// Branch to `pc + 4 + (sign_extend(imm) << 2)` when `rs == rt`.
    Beq {
        /// First compared register.
        rs: Reg,
        /// Second compared register.
        rt: Reg,
        /// Signed word offset.
        imm: i16,
    },
    /// Branch to `pc + 4 + (sign_extend(imm) << 2)` when `rs != rt`.
    Bne {
        /// First compared register.
        rs: Reg,
        /// Second compared register.
        rt: Reg,
        /// Signed word offset.
        imm: i16,
    },
    /// Unconditional jump to `{(pc+4)[31:28], target, 00}`.
    J {
        /// 26-bit word target.
        target: u32,
    },
    /// Jump-and-link: `r31 = pc + 4`, then jump.
    Jal {
        /// 26-bit word target.
        target: u32,
    },
    /// Stop the processor (custom opcode 0x3F); the PC holds its value.
    Halt,
}

/// Error returned when decoding an instruction word fails.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that could not be decoded.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

const OP_RTYPE: u32 = 0x00;
const OP_BEQ: u32 = 0x04;
const OP_BNE: u32 = 0x05;
const OP_ADDI: u32 = 0x08;
const OP_ANDI: u32 = 0x0c;
const OP_ORI: u32 = 0x0d;
const OP_XORI: u32 = 0x0e;
const OP_LUI: u32 = 0x0f;
const OP_LW: u32 = 0x23;
const OP_SW: u32 = 0x2b;
const OP_J: u32 = 0x02;
const OP_JAL: u32 = 0x03;
const OP_HALT: u32 = 0x3f;

const FN_SLL: u32 = 0x00;
const FN_SRL: u32 = 0x02;
const FN_ADD: u32 = 0x20;
const FN_SUB: u32 = 0x22;
const FN_AND: u32 = 0x24;
const FN_OR: u32 = 0x25;
const FN_XOR: u32 = 0x26;
const FN_SLTU: u32 = 0x2b;

fn r(op: u32, rs: Reg, rt: Reg, rd: Reg, shamt: u8, funct: u32) -> u32 {
    (op << 26)
        | ((rs as u32 & 0x1f) << 21)
        | ((rt as u32 & 0x1f) << 16)
        | ((rd as u32 & 0x1f) << 11)
        | ((shamt as u32 & 0x1f) << 6)
        | (funct & 0x3f)
}

fn i(op: u32, rs: Reg, rt: Reg, imm: u16) -> u32 {
    (op << 26) | ((rs as u32 & 0x1f) << 21) | ((rt as u32 & 0x1f) << 16) | imm as u32
}

impl Instr {
    /// Encodes the instruction into its 32-bit machine word.
    pub fn encode(self) -> u32 {
        match self {
            Instr::Nop => 0,
            Instr::Add { rd, rs, rt } => r(OP_RTYPE, rs, rt, rd, 0, FN_ADD),
            Instr::Sub { rd, rs, rt } => r(OP_RTYPE, rs, rt, rd, 0, FN_SUB),
            Instr::And { rd, rs, rt } => r(OP_RTYPE, rs, rt, rd, 0, FN_AND),
            Instr::Or { rd, rs, rt } => r(OP_RTYPE, rs, rt, rd, 0, FN_OR),
            Instr::Xor { rd, rs, rt } => r(OP_RTYPE, rs, rt, rd, 0, FN_XOR),
            Instr::Sltu { rd, rs, rt } => r(OP_RTYPE, rs, rt, rd, 0, FN_SLTU),
            Instr::Sll { rd, rt, shamt } => r(OP_RTYPE, 0, rt, rd, shamt, FN_SLL),
            Instr::Srl { rd, rt, shamt } => r(OP_RTYPE, 0, rt, rd, shamt, FN_SRL),
            Instr::Addi { rt, rs, imm } => i(OP_ADDI, rs, rt, imm as u16),
            Instr::Andi { rt, rs, imm } => i(OP_ANDI, rs, rt, imm),
            Instr::Ori { rt, rs, imm } => i(OP_ORI, rs, rt, imm),
            Instr::Xori { rt, rs, imm } => i(OP_XORI, rs, rt, imm),
            Instr::Lui { rt, imm } => i(OP_LUI, 0, rt, imm),
            Instr::Lw { rt, rs, imm } => i(OP_LW, rs, rt, imm as u16),
            Instr::Sw { rt, rs, imm } => i(OP_SW, rs, rt, imm as u16),
            Instr::Beq { rs, rt, imm } => i(OP_BEQ, rs, rt, imm as u16),
            Instr::Bne { rs, rt, imm } => i(OP_BNE, rs, rt, imm as u16),
            Instr::J { target } => (OP_J << 26) | (target & 0x03ff_ffff),
            Instr::Jal { target } => (OP_JAL << 26) | (target & 0x03ff_ffff),
            Instr::Halt => OP_HALT << 26,
        }
    }

    /// Decodes a 32-bit machine word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for opcodes or function codes outside the ISA.
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        let op = word >> 26;
        let rs = ((word >> 21) & 0x1f) as Reg;
        let rt = ((word >> 16) & 0x1f) as Reg;
        let rd = ((word >> 11) & 0x1f) as Reg;
        let shamt = ((word >> 6) & 0x1f) as u8;
        let funct = word & 0x3f;
        let imm = (word & 0xffff) as u16;
        let simm = imm as i16;
        Ok(match op {
            OP_RTYPE => match funct {
                FN_SLL => {
                    if word == 0 {
                        Instr::Nop
                    } else {
                        Instr::Sll { rd, rt, shamt }
                    }
                }
                FN_SRL => Instr::Srl { rd, rt, shamt },
                FN_ADD => Instr::Add { rd, rs, rt },
                FN_SUB => Instr::Sub { rd, rs, rt },
                FN_AND => Instr::And { rd, rs, rt },
                FN_OR => Instr::Or { rd, rs, rt },
                FN_XOR => Instr::Xor { rd, rs, rt },
                FN_SLTU => Instr::Sltu { rd, rs, rt },
                _ => return Err(DecodeError { word }),
            },
            OP_ADDI => Instr::Addi { rt, rs, imm: simm },
            OP_ANDI => Instr::Andi { rt, rs, imm },
            OP_ORI => Instr::Ori { rt, rs, imm },
            OP_XORI => Instr::Xori { rt, rs, imm },
            OP_LUI => Instr::Lui { rt, imm },
            OP_LW => Instr::Lw { rt, rs, imm: simm },
            OP_SW => Instr::Sw { rt, rs, imm: simm },
            OP_BEQ => Instr::Beq { rs, rt, imm: simm },
            OP_BNE => Instr::Bne { rs, rt, imm: simm },
            OP_J => Instr::J {
                target: word & 0x03ff_ffff,
            },
            OP_JAL => Instr::Jal {
                target: word & 0x03ff_ffff,
            },
            OP_HALT => Instr::Halt,
            _ => return Err(DecodeError { word }),
        })
    }

    /// Assembles a program (a slice of instructions) into machine words.
    pub fn assemble(program: &[Instr]) -> Vec<u32> {
        program.iter().map(|&instr| instr.encode()).collect()
    }
}

/// Instruction-field constants shared with the gate-level decoder generator.
pub mod fields {
    /// R-type opcode.
    pub const OP_RTYPE: u32 = super::OP_RTYPE;
    /// `beq` opcode.
    pub const OP_BEQ: u32 = super::OP_BEQ;
    /// `bne` opcode.
    pub const OP_BNE: u32 = super::OP_BNE;
    /// `addi` opcode.
    pub const OP_ADDI: u32 = super::OP_ADDI;
    /// `andi` opcode.
    pub const OP_ANDI: u32 = super::OP_ANDI;
    /// `ori` opcode.
    pub const OP_ORI: u32 = super::OP_ORI;
    /// `xori` opcode.
    pub const OP_XORI: u32 = super::OP_XORI;
    /// `lui` opcode.
    pub const OP_LUI: u32 = super::OP_LUI;
    /// `lw` opcode.
    pub const OP_LW: u32 = super::OP_LW;
    /// `sw` opcode.
    pub const OP_SW: u32 = super::OP_SW;
    /// `j` opcode.
    pub const OP_J: u32 = super::OP_J;
    /// `jal` opcode.
    pub const OP_JAL: u32 = super::OP_JAL;
    /// `halt` opcode.
    pub const OP_HALT: u32 = super::OP_HALT;
    /// `sll` function code.
    pub const FN_SLL: u32 = super::FN_SLL;
    /// `srl` function code.
    pub const FN_SRL: u32 = super::FN_SRL;
    /// `add` function code.
    pub const FN_ADD: u32 = super::FN_ADD;
    /// `sub` function code.
    pub const FN_SUB: u32 = super::FN_SUB;
    /// `and` function code.
    pub const FN_AND: u32 = super::FN_AND;
    /// `or` function code.
    pub const FN_OR: u32 = super::FN_OR;
    /// `xor` function code.
    pub const FN_XOR: u32 = super::FN_XOR;
    /// `sltu` function code.
    pub const FN_SLTU: u32 = super::FN_SLTU;
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Nop => write!(f, "nop"),
            Instr::Add { rd, rs, rt } => write!(f, "add r{rd}, r{rs}, r{rt}"),
            Instr::Sub { rd, rs, rt } => write!(f, "sub r{rd}, r{rs}, r{rt}"),
            Instr::And { rd, rs, rt } => write!(f, "and r{rd}, r{rs}, r{rt}"),
            Instr::Or { rd, rs, rt } => write!(f, "or r{rd}, r{rs}, r{rt}"),
            Instr::Xor { rd, rs, rt } => write!(f, "xor r{rd}, r{rs}, r{rt}"),
            Instr::Sltu { rd, rs, rt } => write!(f, "sltu r{rd}, r{rs}, r{rt}"),
            Instr::Sll { rd, rt, shamt } => write!(f, "sll r{rd}, r{rt}, {shamt}"),
            Instr::Srl { rd, rt, shamt } => write!(f, "srl r{rd}, r{rt}, {shamt}"),
            Instr::Addi { rt, rs, imm } => write!(f, "addi r{rt}, r{rs}, {imm}"),
            Instr::Andi { rt, rs, imm } => write!(f, "andi r{rt}, r{rs}, {imm:#x}"),
            Instr::Ori { rt, rs, imm } => write!(f, "ori r{rt}, r{rs}, {imm:#x}"),
            Instr::Xori { rt, rs, imm } => write!(f, "xori r{rt}, r{rs}, {imm:#x}"),
            Instr::Lui { rt, imm } => write!(f, "lui r{rt}, {imm:#x}"),
            Instr::Lw { rt, rs, imm } => write!(f, "lw r{rt}, {imm}(r{rs})"),
            Instr::Sw { rt, rs, imm } => write!(f, "sw r{rt}, {imm}(r{rs})"),
            Instr::Beq { rs, rt, imm } => write!(f, "beq r{rs}, r{rt}, {imm}"),
            Instr::Bne { rs, rt, imm } => write!(f, "bne r{rs}, r{rt}, {imm}"),
            Instr::J { target } => write!(f, "j {target:#x}"),
            Instr::Jal { target } => write!(f, "jal {target:#x}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instructions() -> Vec<Instr> {
        vec![
            Instr::Nop,
            Instr::Add {
                rd: 1,
                rs: 2,
                rt: 3,
            },
            Instr::Sub {
                rd: 31,
                rs: 30,
                rt: 29,
            },
            Instr::And {
                rd: 4,
                rs: 5,
                rt: 6,
            },
            Instr::Or {
                rd: 7,
                rs: 8,
                rt: 9,
            },
            Instr::Xor {
                rd: 10,
                rs: 11,
                rt: 12,
            },
            Instr::Sltu {
                rd: 13,
                rs: 14,
                rt: 15,
            },
            Instr::Sll {
                rd: 1,
                rt: 2,
                shamt: 31,
            },
            Instr::Srl {
                rd: 3,
                rt: 4,
                shamt: 1,
            },
            Instr::Addi {
                rt: 5,
                rs: 6,
                imm: -42,
            },
            Instr::Andi {
                rt: 7,
                rs: 8,
                imm: 0xffff,
            },
            Instr::Ori {
                rt: 9,
                rs: 10,
                imm: 0x1234,
            },
            Instr::Xori {
                rt: 11,
                rs: 12,
                imm: 0x00ff,
            },
            Instr::Lui {
                rt: 13,
                imm: 0x4000,
            },
            Instr::Lw {
                rt: 14,
                rs: 15,
                imm: 16,
            },
            Instr::Sw {
                rt: 16,
                rs: 17,
                imm: -4,
            },
            Instr::Beq {
                rs: 18,
                rt: 19,
                imm: 5,
            },
            Instr::Bne {
                rs: 20,
                rt: 21,
                imm: -5,
            },
            Instr::J { target: 0x12345 },
            Instr::Jal { target: 0x3ffffff },
            Instr::Halt,
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for instr in sample_instructions() {
            let word = instr.encode();
            let decoded = Instr::decode(word).unwrap();
            assert_eq!(decoded, instr, "word {word:#010x}");
        }
    }

    #[test]
    fn nop_encodes_to_zero() {
        assert_eq!(Instr::Nop.encode(), 0);
        assert_eq!(Instr::decode(0).unwrap(), Instr::Nop);
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        // Opcode 0x3e is not defined.
        let err = Instr::decode(0x3e << 26).unwrap_err();
        assert_eq!(err.word, 0x3e << 26);
        assert!(err.to_string().contains("cannot decode"));
        // Unknown funct in R-type.
        assert!(Instr::decode(0x0000_003f).is_err());
    }

    #[test]
    fn field_masks_are_respected() {
        let word = Instr::Add {
            rd: 63,
            rs: 63,
            rt: 63,
        }
        .encode();
        // Register fields are 5 bits: 63 wraps to 31.
        assert_eq!(
            Instr::decode(word).unwrap(),
            Instr::Add {
                rd: 31,
                rs: 31,
                rt: 31
            }
        );
        let j = Instr::J { target: u32::MAX }.encode();
        assert_eq!(
            Instr::decode(j).unwrap(),
            Instr::J {
                target: 0x03ff_ffff
            }
        );
    }

    #[test]
    fn assemble_produces_one_word_per_instruction() {
        let program = sample_instructions();
        let words = Instr::assemble(&program);
        assert_eq!(words.len(), program.len());
        assert_eq!(words[0], 0);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            Instr::Add {
                rd: 1,
                rs: 2,
                rt: 3
            }
            .to_string(),
            "add r1, r2, r3"
        );
        assert_eq!(
            Instr::Lw {
                rt: 4,
                rs: 5,
                imm: -8
            }
            .to_string(),
            "lw r4, -8(r5)"
        );
        assert_eq!(Instr::Halt.to_string(), "halt");
    }

    #[test]
    fn negative_immediates_roundtrip() {
        for imm in [-1i16, -32768, 32767, 0, 1] {
            let instr = Instr::Addi { rt: 1, rs: 2, imm };
            assert_eq!(Instr::decode(instr.encode()).unwrap(), instr);
        }
    }
}
