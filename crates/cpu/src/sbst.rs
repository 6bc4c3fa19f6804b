//! Software-based self-test (SBST) program library and stimulus extraction.
//!
//! The paper's case study starts from a "quite mature self-test program
//! suite"; this module provides a small but representative suite — ALU,
//! register-file, branch/jump and load/store test programs that accumulate
//! their results into memory-visible signatures — plus the machinery to turn
//! an ISS run of a program into cycle-by-cycle stimuli for the gate-level
//! core (the testbench-fed functional simulation used to grade fault
//! coverage on the system bus).

use crate::core_gen::CoreInterface;
use crate::isa::Instr;
use crate::iss::{Iss, RunTrace, StopReason};
use crate::mem::Memory;
use atpg::{FaultSim, InputVector};
use faultmodel::StuckAt;
use netlist::CellId;

/// A named SBST test program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SbstProgram {
    /// Short name ("alu", "regfile", …).
    pub name: String,
    /// The instructions, loaded from address 0.
    pub instructions: Vec<Instr>,
}

impl SbstProgram {
    /// Creates a program.
    pub fn new(name: impl Into<String>, instructions: Vec<Instr>) -> Self {
        SbstProgram {
            name: name.into(),
            instructions: instructions.clone(),
        }
    }

    /// The assembled machine words.
    pub fn words(&self) -> Vec<u32> {
        Instr::assemble(&self.instructions)
    }
}

/// Base address used by the test programs for their result signatures.
pub const SIGNATURE_BASE: i16 = 0x400;

fn store_sig(slot: i16, reg: u8) -> Instr {
    Instr::Sw {
        rt: reg,
        rs: 0,
        imm: SIGNATURE_BASE + slot * 4,
    }
}

/// An ALU-oriented test program: exercises add/sub/logic/compare/shift with
/// data patterns chosen to toggle both halves of the datapath, storing every
/// result to the signature area.
pub fn alu_test() -> SbstProgram {
    // Load four constants with complementary bit patterns.
    let mut p = vec![
        Instr::Lui { rt: 1, imm: 0xAAAA },
        Instr::Ori {
            rt: 1,
            rs: 1,
            imm: 0x5555,
        },
        Instr::Lui { rt: 2, imm: 0x5555 },
        Instr::Ori {
            rt: 2,
            rs: 2,
            imm: 0xAAAA,
        },
        Instr::Lui { rt: 3, imm: 0xFFFF },
        Instr::Ori {
            rt: 3,
            rs: 3,
            imm: 0xFFFF,
        },
        Instr::Addi {
            rt: 4,
            rs: 0,
            imm: 1,
        },
    ];
    let mut slot = 0i16;
    for (rs, rt) in [(1u8, 2u8), (2, 1), (1, 3), (3, 4), (2, 4)] {
        p.push(Instr::Add { rd: 10, rs, rt });
        p.push(store_sig(slot, 10));
        slot += 1;
        p.push(Instr::Sub { rd: 11, rs, rt });
        p.push(store_sig(slot, 11));
        slot += 1;
        p.push(Instr::And { rd: 12, rs, rt });
        p.push(store_sig(slot, 12));
        slot += 1;
        p.push(Instr::Or { rd: 13, rs, rt });
        p.push(store_sig(slot, 13));
        slot += 1;
        p.push(Instr::Xor { rd: 14, rs, rt });
        p.push(store_sig(slot, 14));
        slot += 1;
        p.push(Instr::Sltu { rd: 15, rs, rt });
        p.push(store_sig(slot, 15));
        slot += 1;
    }
    for shamt in [1u8, 4, 15, 31] {
        p.push(Instr::Sll {
            rd: 16,
            rt: 1,
            shamt,
        });
        p.push(store_sig(slot, 16));
        slot += 1;
        p.push(Instr::Srl {
            rd: 17,
            rt: 2,
            shamt,
        });
        p.push(store_sig(slot, 17));
        slot += 1;
    }
    p.push(Instr::Halt);
    SbstProgram::new("alu", p)
}

/// A register-file march: writes a register-unique pattern into every
/// register, then reads each back through the ALU and stores it.
pub fn regfile_march() -> SbstProgram {
    let mut p = Vec::new();
    // Phase 1: fill every register with a pattern derived from its index.
    for r in 1u8..32 {
        p.push(Instr::Lui {
            rt: r,
            imm: (0x0101u16).wrapping_mul(r as u16),
        });
        p.push(Instr::Ori {
            rt: r,
            rs: r,
            imm: (0x1010u16).wrapping_mul(r as u16) | r as u16,
        });
    }
    // Phase 2: read every register back and store it.
    for r in 1u8..32 {
        p.push(store_sig(r as i16 - 1, r));
    }
    // Phase 3: complement march — xor each register with all-ones and store.
    p.push(Instr::Lui { rt: 1, imm: 0xFFFF });
    p.push(Instr::Ori {
        rt: 1,
        rs: 1,
        imm: 0xFFFF,
    });
    for r in 2u8..32 {
        p.push(Instr::Xor {
            rd: r,
            rs: r,
            rt: 1,
        });
        p.push(store_sig(31 + r as i16 - 2, r));
    }
    p.push(Instr::Halt);
    SbstProgram::new("regfile", p)
}

/// A control-flow test: chains of taken and not-taken branches, jumps and a
/// call, accumulating an execution signature.
pub fn branch_test() -> SbstProgram {
    let p = vec![
        // 0: r1 = 0 (signature), r2 = loop counter
        Instr::Addi {
            rt: 1,
            rs: 0,
            imm: 0,
        },
        Instr::Addi {
            rt: 2,
            rs: 0,
            imm: 6,
        },
        // 2: loop: signature = signature * 2 + counter  (via shifts/adds)
        Instr::Sll {
            rd: 1,
            rt: 1,
            shamt: 1,
        },
        Instr::Add {
            rd: 1,
            rs: 1,
            rt: 2,
        },
        Instr::Addi {
            rt: 2,
            rs: 2,
            imm: -1,
        },
        Instr::Bne {
            rs: 2,
            rt: 0,
            imm: -4,
        },
        // 6: not-taken branch (r2 == 0 here, so bne falls through)
        Instr::Bne {
            rs: 2,
            rt: 0,
            imm: 10,
        },
        // 7: taken beq over a poison instruction
        Instr::Beq {
            rs: 2,
            rt: 0,
            imm: 1,
        },
        Instr::Addi {
            rt: 1,
            rs: 0,
            imm: 0x7FF,
        }, // must be skipped
        // 9: store intermediate signature
        store_sig(0, 1),
        // 10: call the subroutine at 14
        Instr::Jal { target: 14 },
        // 11: store the value produced by the subroutine and halt
        store_sig(1, 5),
        store_sig(2, 31),
        Instr::Halt,
        // 14: subroutine: r5 = r1 + 0x111, return via jump to 11
        Instr::Addi {
            rt: 5,
            rs: 1,
            imm: 0x111,
        },
        Instr::J { target: 11 },
    ];
    SbstProgram::new("branch", p)
}

/// A load/store test sweeping addresses across the data region.
pub fn memory_test() -> SbstProgram {
    let mut p = Vec::new();
    p.push(Instr::Lui { rt: 1, imm: 0xDEAD });
    p.push(Instr::Ori {
        rt: 1,
        rs: 1,
        imm: 0xBEEF,
    });
    p.push(Instr::Addi {
        rt: 2,
        rs: 0,
        imm: 0x600,
    });
    // Store the pattern at increasing strides, read each back, accumulate.
    for (slot, stride) in [0i16, 4, 8, 16, 32, 64, 128].into_iter().enumerate() {
        p.push(Instr::Sw {
            rt: 1,
            rs: 2,
            imm: stride,
        });
        p.push(Instr::Lw {
            rt: 3,
            rs: 2,
            imm: stride,
        });
        p.push(Instr::Add {
            rd: 4,
            rs: 4,
            rt: 3,
        });
        p.push(Instr::Xori {
            rt: 1,
            rs: 1,
            imm: 0x00FF,
        });
        p.push(store_sig(slot as i16, 4));
    }
    p.push(Instr::Halt);
    SbstProgram::new("memory", p)
}

/// The standard four-program suite used by the examples and benches.
pub fn standard_suite() -> Vec<SbstProgram> {
    vec![alu_test(), regfile_march(), branch_test(), memory_test()]
}

/// The result of converting an SBST program into gate-level stimuli.
#[derive(Clone, Debug)]
pub struct ProgramStimuli {
    /// One input vector per executed cycle.
    pub vectors: Vec<InputVector>,
    /// The ISS reference trace.
    pub trace: RunTrace,
}

/// Runs `program` on the ISS and converts the execution into per-cycle input
/// vectors for the gate-level core: each cycle applies the fetched
/// instruction word and the load data observed by the reference model, with
/// every test/debug input left at its mission (inactive) value.
pub fn program_stimuli(
    program: &SbstProgram,
    interface: &CoreInterface,
    max_cycles: usize,
) -> ProgramStimuli {
    let mut memory = Memory::new();
    memory.load_words(0, &program.words());
    let mut iss = Iss::new(memory, 0);
    let trace = iss.run(max_cycles);
    let mut vectors = Vec::with_capacity(trace.cycles.len());
    for cycle in &trace.cycles {
        let mut v = InputVector::new();
        v.insert(interface.clock, true);
        v.insert(interface.reset_n, true);
        for (i, &net) in interface.imem_rdata.iter().enumerate() {
            v.insert(net, (cycle.instruction >> i) & 1 == 1);
        }
        for (i, &net) in interface.dmem_rdata.iter().enumerate() {
            v.insert(net, (cycle.read_data >> i) & 1 == 1);
        }
        vectors.push(v);
    }
    ProgramStimuli { vectors, trace }
}

/// Convenience: stimuli for every program of a suite, concatenated in order
/// (each program starts again from the reset state of its own ISS run; the
/// gate-level simulation applies them back to back, which matches a test
/// scheduler that restarts the processor between SBST partitions).
pub fn suite_stimuli(
    suite: &[SbstProgram],
    interface: &CoreInterface,
    max_cycles_per_program: usize,
) -> Vec<ProgramStimuli> {
    suite
        .iter()
        .map(|p| program_stimuli(p, interface, max_cycles_per_program))
        .collect()
}

/// Grades `faults` against the stimuli of a full SBST suite on the compiled
/// packed fault simulator, observing only the given output ports (the system
/// bus during an on-line functional test). Each program restarts the core
/// from its reset state; faults detected by an earlier program are dropped
/// from the later programs' simulations, which is what makes grading a
/// mature multi-program suite cheap. Returns one detection flag per fault.
pub fn grade_suite(
    sim: &FaultSim<'_>,
    stimuli: &[ProgramStimuli],
    faults: &[StuckAt],
    observed_outputs: &[CellId],
) -> Vec<bool> {
    let batches: Vec<&[InputVector]> = stimuli.iter().map(|s| s.vectors.as_slice()).collect();
    sim.detect_batches(faults, &batches, observed_outputs)
}

/// Sanity statistics about a program's ISS execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramStats {
    /// Executed cycles.
    pub cycles: usize,
    /// Number of store transactions (signature size).
    pub stores: usize,
    /// Whether the program reached its `halt`.
    pub halted: bool,
}

/// Computes [`ProgramStats`] by running the program on the ISS.
pub fn program_stats(program: &SbstProgram, max_cycles: usize) -> ProgramStats {
    let mut memory = Memory::new();
    memory.load_words(0, &program.words());
    let mut iss = Iss::new(memory, 0);
    let trace = iss.run(max_cycles);
    ProgramStats {
        cycles: trace.cycles.len(),
        stores: trace.stores().len(),
        halted: trace.stop == StopReason::Halted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_program_halts_and_produces_a_signature() {
        for program in standard_suite() {
            let stats = program_stats(&program, 2000);
            assert!(stats.halted, "{} did not halt", program.name);
            assert!(
                stats.stores >= 3,
                "{} produced only {} signature stores",
                program.name,
                stats.stores
            );
            assert!(stats.cycles < 1500, "{} is too long", program.name);
        }
    }

    #[test]
    fn branch_test_skips_the_poison_instruction() {
        let program = branch_test();
        let mut memory = Memory::new();
        memory.load_words(0, &program.words());
        let mut iss = Iss::new(memory, 0);
        let trace = iss.run(500);
        // The poison value 0x7FF must never be stored as the signature.
        assert!(trace.stores().iter().all(|&(_, v)| v != 0x7FF));
        // The loop signature: s = ((((0*2+6)*2+5)*2+4)...)*2+1.
        let mut expected = 0u32;
        for k in (1..=6).rev() {
            expected = expected * 2 + k;
        }
        assert_eq!(trace.stores()[0].1, expected);
        // The subroutine result and the link register were stored.
        assert_eq!(trace.stores()[1].1, expected + 0x111);
        assert_eq!(trace.stores()[2].1, 11 * 4);
    }

    #[test]
    fn regfile_march_signature_is_register_unique() {
        let program = regfile_march();
        let mut memory = Memory::new();
        memory.load_words(0, &program.words());
        let mut iss = Iss::new(memory, 0);
        let trace = iss.run(2000);
        let stores = trace.stores();
        // The first 31 stores are the register patterns; all distinct.
        let mut values: Vec<u32> = stores[..31].iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 31);
    }

    #[test]
    fn stimuli_match_trace_length_and_mission_defaults() {
        let mut b = netlist::NetlistBuilder::new("core");
        let iface = crate::core_gen::generate_core(&mut b, &crate::core_gen::CoreConfig::small());
        let program = alu_test();
        let stim = program_stimuli(&program, &iface, 1000);
        assert_eq!(stim.vectors.len(), stim.trace.cycles.len());
        // Only functional inputs are driven; debug/scan inputs are absent
        // (and therefore default to their inactive value 0).
        for v in &stim.vectors {
            assert!(v.contains_key(&iface.clock));
            assert!(v.contains_key(&iface.imem_rdata[0]));
        }
    }

    #[test]
    fn memory_test_accumulates_loads() {
        let stats = program_stats(&memory_test(), 500);
        assert!(stats.halted);
        assert_eq!(stats.stores, 7 + 7, "7 pattern stores + 7 signature stores");
    }

    #[test]
    fn grade_suite_agrees_with_per_program_grading() {
        let mut b = netlist::NetlistBuilder::new("core");
        let iface = crate::core_gen::generate_core(&mut b, &crate::core_gen::CoreConfig::small());
        let netlist = b.finish();
        let sim = FaultSim::new(&netlist).unwrap();
        let stimuli = suite_stimuli(&standard_suite(), &iface, 300);
        let faults: Vec<StuckAt> = faultmodel::FaultList::full_universe(&netlist)
            .faults()
            .iter()
            .copied()
            .step_by(97)
            .take(70)
            .collect();
        let graded = grade_suite(&sim, &stimuli, &faults, &iface.bus_output_ports);
        // Reference: one full pass per program, OR-ed — dropping detected
        // faults between programs must not change the outcome.
        let mut reference = vec![false; faults.len()];
        for stim in &stimuli {
            let hits = sim.detect_at(&faults, &stim.vectors, &iface.bus_output_ports);
            for (r, h) in reference.iter_mut().zip(hits) {
                *r |= h;
            }
        }
        assert_eq!(graded, reference);
        assert!(graded.iter().any(|&d| d), "suite should detect something");
    }

    #[test]
    fn suite_stimuli_covers_all_programs() {
        let mut b = netlist::NetlistBuilder::new("core");
        let iface = crate::core_gen::generate_core(&mut b, &crate::core_gen::CoreConfig::small());
        let all = suite_stimuli(&standard_suite(), &iface, 2000);
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|s| !s.vectors.is_empty()));
    }
}
