//! Instruction-set simulator (ISS) for the `mini32` core.
//!
//! The ISS is the architectural reference model: it executes programs one
//! instruction per cycle (exactly like the single-cycle gate-level core) and
//! records the bus transactions of every cycle. The recorded trace drives the
//! gate-level fault simulation of SBST programs and provides the expected
//! responses observed on the system bus.

use crate::isa::{DecodeError, Instr};
use crate::mem::Memory;

/// The bus activity of one executed cycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BusCycle {
    /// Program counter of the executed instruction.
    pub pc: u32,
    /// The fetched instruction word.
    pub instruction: u32,
    /// Data address driven this cycle (0 when no data access).
    pub data_addr: u32,
    /// Data read from memory (for loads; 0 otherwise).
    pub read_data: u32,
    /// Data written to memory (for stores; 0 otherwise).
    pub write_data: u32,
    /// Whether the cycle performed a load.
    pub is_load: bool,
    /// Whether the cycle performed a store.
    pub is_store: bool,
}

/// Why the simulator stopped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction was executed.
    Halted,
    /// The cycle budget ran out.
    MaxCycles,
    /// An instruction word could not be decoded.
    DecodeError(u32),
}

/// The result of running a program on the ISS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunTrace {
    /// Per-cycle bus activity, in execution order.
    pub cycles: Vec<BusCycle>,
    /// Why execution stopped.
    pub stop: StopReason,
    /// Final register file contents.
    pub registers: [u32; 32],
}

impl RunTrace {
    /// The store transactions of the run (address, value), in order — the
    /// test signature observed on the system bus.
    pub fn stores(&self) -> Vec<(u32, u32)> {
        self.cycles
            .iter()
            .filter(|c| c.is_store)
            .map(|c| (c.data_addr, c.write_data))
            .collect()
    }
}

/// The architectural state of the `mini32` processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Iss {
    /// General-purpose registers (r0 is hardwired to zero).
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// The memory the processor executes from and operates on.
    pub memory: Memory,
    /// Whether a `halt` has been executed.
    pub halted: bool,
}

impl Iss {
    /// Creates a processor with zeroed registers and the given reset PC.
    pub fn new(memory: Memory, reset_pc: u32) -> Self {
        Iss {
            regs: [0; 32],
            pc: reset_pc,
            memory,
            halted: false,
        }
    }

    fn read_reg(&self, r: u8) -> u32 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    fn write_reg(&mut self, r: u8, value: u32) {
        if r != 0 {
            self.regs[r as usize] = value;
        }
    }

    /// Executes one instruction and returns its bus activity.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the fetched word is not a valid
    /// instruction.
    pub fn step(&mut self) -> Result<BusCycle, DecodeError> {
        let pc = self.pc;
        let word = self.memory.read_word(pc);
        let instr = Instr::decode(word)?;
        let mut cycle = BusCycle {
            pc,
            instruction: word,
            data_addr: 0,
            read_data: 0,
            write_data: 0,
            is_load: false,
            is_store: false,
        };
        let mut next_pc = pc.wrapping_add(4);
        match instr {
            Instr::Nop => {}
            Instr::Add { rd, rs, rt } => {
                let v = self.read_reg(rs).wrapping_add(self.read_reg(rt));
                self.write_reg(rd, v);
            }
            Instr::Sub { rd, rs, rt } => {
                let v = self.read_reg(rs).wrapping_sub(self.read_reg(rt));
                self.write_reg(rd, v);
            }
            Instr::And { rd, rs, rt } => {
                let v = self.read_reg(rs) & self.read_reg(rt);
                self.write_reg(rd, v);
            }
            Instr::Or { rd, rs, rt } => {
                let v = self.read_reg(rs) | self.read_reg(rt);
                self.write_reg(rd, v);
            }
            Instr::Xor { rd, rs, rt } => {
                let v = self.read_reg(rs) ^ self.read_reg(rt);
                self.write_reg(rd, v);
            }
            Instr::Sltu { rd, rs, rt } => {
                let v = u32::from(self.read_reg(rs) < self.read_reg(rt));
                self.write_reg(rd, v);
            }
            Instr::Sll { rd, rt, shamt } => {
                let v = self.read_reg(rt) << (shamt & 0x1f);
                self.write_reg(rd, v);
            }
            Instr::Srl { rd, rt, shamt } => {
                let v = self.read_reg(rt) >> (shamt & 0x1f);
                self.write_reg(rd, v);
            }
            Instr::Addi { rt, rs, imm } => {
                let v = self.read_reg(rs).wrapping_add(imm as i32 as u32);
                self.write_reg(rt, v);
            }
            Instr::Andi { rt, rs, imm } => {
                let v = self.read_reg(rs) & imm as u32;
                self.write_reg(rt, v);
            }
            Instr::Ori { rt, rs, imm } => {
                let v = self.read_reg(rs) | imm as u32;
                self.write_reg(rt, v);
            }
            Instr::Xori { rt, rs, imm } => {
                let v = self.read_reg(rs) ^ imm as u32;
                self.write_reg(rt, v);
            }
            Instr::Lui { rt, imm } => {
                self.write_reg(rt, (imm as u32) << 16);
            }
            Instr::Lw { rt, rs, imm } => {
                let addr = self.read_reg(rs).wrapping_add(imm as i32 as u32) & !3;
                let value = self.memory.read_word(addr);
                self.write_reg(rt, value);
                cycle.data_addr = addr;
                cycle.read_data = value;
                cycle.is_load = true;
            }
            Instr::Sw { rt, rs, imm } => {
                let addr = self.read_reg(rs).wrapping_add(imm as i32 as u32) & !3;
                let value = self.read_reg(rt);
                self.memory.write_word(addr, value);
                cycle.data_addr = addr;
                cycle.write_data = value;
                cycle.is_store = true;
            }
            Instr::Beq { rs, rt, imm } => {
                if self.read_reg(rs) == self.read_reg(rt) {
                    next_pc = pc.wrapping_add(4).wrapping_add((imm as i32 as u32) << 2);
                }
            }
            Instr::Bne { rs, rt, imm } => {
                if self.read_reg(rs) != self.read_reg(rt) {
                    next_pc = pc.wrapping_add(4).wrapping_add((imm as i32 as u32) << 2);
                }
            }
            Instr::J { target } => {
                next_pc = (pc.wrapping_add(4) & 0xf000_0000) | (target << 2);
            }
            Instr::Jal { target } => {
                self.write_reg(31, pc.wrapping_add(4));
                next_pc = (pc.wrapping_add(4) & 0xf000_0000) | (target << 2);
            }
            Instr::Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }
        self.pc = next_pc;
        Ok(cycle)
    }

    /// Runs until `halt`, a decode error, or `max_cycles` cycles.
    pub fn run(&mut self, max_cycles: usize) -> RunTrace {
        let mut cycles = Vec::new();
        let mut stop = StopReason::MaxCycles;
        for _ in 0..max_cycles {
            if self.halted {
                stop = StopReason::Halted;
                break;
            }
            match self.step() {
                Ok(cycle) => cycles.push(cycle),
                Err(e) => {
                    stop = StopReason::DecodeError(e.word);
                    break;
                }
            }
            if self.halted {
                stop = StopReason::Halted;
            }
        }
        RunTrace {
            cycles,
            stop,
            registers: self.regs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;

    fn run_program(program: &[Instr], max: usize) -> (Iss, RunTrace) {
        let mut mem = Memory::new();
        mem.load_words(0, &Instr::assemble(program));
        let mut iss = Iss::new(mem, 0);
        let trace = iss.run(max);
        (iss, trace)
    }

    #[test]
    fn arithmetic_and_logic() {
        let program = vec![
            Instr::Addi {
                rt: 1,
                rs: 0,
                imm: 10,
            },
            Instr::Addi {
                rt: 2,
                rs: 0,
                imm: -3,
            },
            Instr::Add {
                rd: 3,
                rs: 1,
                rt: 2,
            },
            Instr::Sub {
                rd: 4,
                rs: 1,
                rt: 2,
            },
            Instr::And {
                rd: 5,
                rs: 1,
                rt: 2,
            },
            Instr::Or {
                rd: 6,
                rs: 1,
                rt: 2,
            },
            Instr::Xor {
                rd: 7,
                rs: 1,
                rt: 2,
            },
            Instr::Sltu {
                rd: 8,
                rs: 1,
                rt: 2,
            },
            Instr::Sll {
                rd: 9,
                rt: 1,
                shamt: 4,
            },
            Instr::Srl {
                rd: 10,
                rt: 2,
                shamt: 1,
            },
            Instr::Halt,
        ];
        let (iss, trace) = run_program(&program, 100);
        assert_eq!(trace.stop, StopReason::Halted);
        assert_eq!(iss.regs[1], 10);
        assert_eq!(iss.regs[2], (-3i32) as u32);
        assert_eq!(iss.regs[3], 7);
        assert_eq!(iss.regs[4], 13);
        assert_eq!(iss.regs[5], 10 & (-3i32) as u32);
        assert_eq!(iss.regs[6], 10 | (-3i32) as u32);
        assert_eq!(iss.regs[7], 10 ^ (-3i32) as u32);
        assert_eq!(iss.regs[8], 1, "10 < 0xfffffffd unsigned");
        assert_eq!(iss.regs[9], 160);
        assert_eq!(iss.regs[10], ((-3i32) as u32) >> 1);
    }

    #[test]
    fn r0_is_hardwired_to_zero() {
        let program = vec![
            Instr::Addi {
                rt: 0,
                rs: 0,
                imm: 123,
            },
            Instr::Add {
                rd: 1,
                rs: 0,
                rt: 0,
            },
            Instr::Halt,
        ];
        let (iss, _) = run_program(&program, 10);
        assert_eq!(iss.regs[0], 0);
        assert_eq!(iss.regs[1], 0);
    }

    #[test]
    fn loads_and_stores_trace_the_bus() {
        let program = vec![
            Instr::Lui { rt: 1, imm: 0x4000 }, // r1 = 0x4000_0000
            Instr::Addi {
                rt: 2,
                rs: 0,
                imm: 77,
            },
            Instr::Sw {
                rt: 2,
                rs: 1,
                imm: 8,
            },
            Instr::Lw {
                rt: 3,
                rs: 1,
                imm: 8,
            },
            Instr::Sw {
                rt: 3,
                rs: 1,
                imm: 12,
            },
            Instr::Halt,
        ];
        let (iss, trace) = run_program(&program, 20);
        assert_eq!(iss.regs[3], 77);
        assert_eq!(iss.memory.read_word(0x4000_0008), 77);
        let stores = trace.stores();
        assert_eq!(stores, vec![(0x4000_0008, 77), (0x4000_000c, 77)]);
        let load_cycle = trace.cycles.iter().find(|c| c.is_load).unwrap();
        assert_eq!(load_cycle.read_data, 77);
        assert_eq!(load_cycle.data_addr, 0x4000_0008);
    }

    #[test]
    fn branches_and_jumps() {
        // A loop that counts down from 3 and then stores a marker.
        let program = vec![
            Instr::Addi {
                rt: 1,
                rs: 0,
                imm: 3,
            }, // 0: r1 = 3
            Instr::Addi {
                rt: 2,
                rs: 0,
                imm: 0,
            }, // 4: r2 = 0
            Instr::Addi {
                rt: 2,
                rs: 2,
                imm: 1,
            }, // 8: loop: r2 += 1
            Instr::Addi {
                rt: 1,
                rs: 1,
                imm: -1,
            }, // 12: r1 -= 1
            Instr::Bne {
                rs: 1,
                rt: 0,
                imm: -3,
            }, // 16: if r1 != 0 goto 8
            Instr::Sw {
                rt: 2,
                rs: 0,
                imm: 0x100,
            }, // 20: mem[0x100] = r2
            Instr::Halt, // 24
        ];
        let (iss, trace) = run_program(&program, 100);
        assert_eq!(trace.stop, StopReason::Halted);
        assert_eq!(iss.memory.read_word(0x100), 3);
        assert_eq!(iss.regs[2], 3);
    }

    #[test]
    fn jal_links_and_jumps() {
        let program = vec![
            Instr::Jal { target: 3 }, // 0: call 12
            Instr::Halt,              // 4 (return lands here)
            Instr::Nop,               // 8
            Instr::Addi {
                rt: 5,
                rs: 0,
                imm: 99,
            }, // 12: subroutine
            Instr::Jal { target: 1 }, // 16: jump back to 4 (link clobbered, fine)
        ];
        let (iss, trace) = run_program(&program, 20);
        assert_eq!(trace.stop, StopReason::Halted);
        assert_eq!(iss.regs[5], 99);
        // First JAL stored the return address 4.
        assert_eq!(trace.cycles[1].pc, 12);
    }

    #[test]
    fn decode_error_stops_the_run() {
        let mut mem = Memory::new();
        // Opcode 0x3a is not part of the ISA.
        mem.write_word(0, 0x3a << 26);
        let mut iss = Iss::new(mem, 0);
        let trace = iss.run(10);
        assert_eq!(trace.stop, StopReason::DecodeError(0x3a << 26));
        assert!(trace.cycles.is_empty());
    }

    #[test]
    fn max_cycles_stops_the_run() {
        let program = vec![Instr::J { target: 0 }];
        let (_, trace) = run_program(&program, 25);
        assert_eq!(trace.stop, StopReason::MaxCycles);
        assert_eq!(trace.cycles.len(), 25);
    }

    #[test]
    fn halted_processor_keeps_pc() {
        let program = vec![Instr::Halt];
        let (iss, _) = run_program(&program, 5);
        assert_eq!(iss.pc, 0);
        assert!(iss.halted);
    }
}
