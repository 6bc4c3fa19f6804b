//! Assembly of the complete single-cycle `mini32` processor core at gate
//! level, from the datapath generators in [`crate::rtl`].

use crate::rtl::{
    agu::generate_agu,
    alu::{generate_alu, AluControl},
    btb::generate_btb,
    decode::{generate_controls, InstrFields},
    regfile::generate_regfile,
    sign_extend_16, zero_extend_16,
};
use netlist::{CellId, CellKind, NetId, NetlistBuilder, Reset, Word};

/// Configuration of the generated core.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Number of physical general-purpose registers (2..=32).
    pub num_regs: usize,
    /// Number of branch-target-buffer entries (power of two); 0 disables the
    /// BTB entirely.
    pub btb_entries: usize,
    /// Include the free-running cycle counter special-purpose register.
    pub include_cycle_counter: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            num_regs: 32,
            btb_entries: 4,
            include_cycle_counter: true,
        }
    }
}

impl CoreConfig {
    /// A reduced configuration for fast tests and scaling studies.
    pub fn small() -> Self {
        CoreConfig {
            num_regs: 8,
            btb_entries: 2,
            include_cycle_counter: false,
        }
    }
}

/// The externally relevant nets and ports of a generated core.
#[derive(Clone, Debug)]
pub struct CoreInterface {
    /// Clock input net.
    pub clock: NetId,
    /// Active-low reset input net.
    pub reset_n: NetId,
    /// Instruction fetch address (equals the PC).
    pub imem_addr: Word,
    /// Instruction word input nets.
    pub imem_rdata: Word,
    /// Data address output nets.
    pub dmem_addr: Word,
    /// Data read input nets.
    pub dmem_rdata: Word,
    /// Data write output nets.
    pub dmem_wdata: Word,
    /// Data write strobe.
    pub dmem_we: NetId,
    /// Data read strobe.
    pub dmem_re: NetId,
    /// The PC register output nets.
    pub pc: Word,
    /// Register-file read port A (exposed to the debug observation bus).
    pub regfile_read_a: Word,
    /// The cycle-counter register outputs (empty when disabled).
    pub cycle_counter: Word,
    /// BTB hit flag (when a BTB is present).
    pub btb_hit: Option<NetId>,
    /// Asserted while a `halt` instruction is being executed.
    pub halted: NetId,
    /// The `Output` pseudo-cells of the system bus (the observation points a
    /// functional on-line test can actually use).
    pub bus_output_ports: Vec<CellId>,
}

fn placeholder_word(builder: &mut NetlistBuilder, prefix: &str, width: usize) -> Word {
    (0..width)
        .map(|i| builder.netlist_mut().add_net(format!("{prefix}{i}")))
        .collect()
}

fn drive_word(builder: &mut NetlistBuilder, prefix: &str, targets: &[NetId], sources: &[NetId]) {
    assert_eq!(targets.len(), sources.len());
    for (i, (&target, &source)) in targets.iter().zip(sources).enumerate() {
        let name = format!("u_{prefix}_drv{i}");
        builder
            .netlist_mut()
            .add_cell(CellKind::Buf, name, &[source], Some(target));
    }
}

/// Generates the complete core inside `builder` and returns its interface.
///
/// The generated logic is grouped by functional unit (`fetch.pc`, `decode`,
/// `regfile`, `alu`, `agu`, `btb`, `spr`); the primary ports are left
/// ungrouped. Primary outputs created here form the *system bus* — the only
/// observation points available to an on-line functional test.
pub fn generate_core(builder: &mut NetlistBuilder, config: &CoreConfig) -> CoreInterface {
    let clock = builder.input("clk");
    let reset_n = builder.input("rst_n");
    let imem_rdata = builder.input_bus("imem_rdata", 32);
    let dmem_rdata = builder.input_bus("dmem_rdata", 32);

    // ------------------------------------------------------------------
    // Program counter.
    // ------------------------------------------------------------------
    builder.push_group("fetch");
    builder.push_group("pc");
    let pc_d = placeholder_word(builder, "pc_d", 32);
    let pc: Word = pc_d
        .iter()
        .map(|&d| builder.dff_r(d, clock, reset_n, Reset::ActiveLow))
        .collect();
    for (i, &q) in pc.iter().enumerate() {
        if let Some(ff) = builder.netlist().driver_of(q) {
            builder.netlist_mut().set_address_bit(ff, i as u32);
        }
    }
    builder.pop_group();
    builder.pop_group();

    // ------------------------------------------------------------------
    // Decode.
    // ------------------------------------------------------------------
    let fields = InstrFields::split(&imem_rdata);
    let controls = generate_controls(builder, &fields);

    builder.push_group("decode");
    let const_31 = builder.const_word(31, 5);
    let mut dest = builder.mux2_word(&fields.rt, &fields.rd, controls.dest_is_rd);
    dest = builder.mux2_word(&dest, &const_31, controls.dest_is_link);
    let sign_ext = sign_extend_16(&fields.imm16);
    let zero_ext = zero_extend_16(builder, &fields.imm16);
    let imm_ext = builder.mux2_word(&sign_ext, &zero_ext, controls.imm_zero_extend);
    let zero16 = builder.const_word(0, 16);
    let mut lui_value: Word = zero16;
    lui_value.extend_from_slice(&fields.imm16);
    builder.pop_group();

    // ------------------------------------------------------------------
    // Register file (write-back data is driven later through placeholders).
    // ------------------------------------------------------------------
    let wb_data = placeholder_word(builder, "wb_data", 32);
    let regfile = generate_regfile(
        builder,
        clock,
        config.num_regs,
        &fields.rs,
        &fields.rt,
        &dest,
        controls.reg_write,
        &wb_data,
    );

    // ------------------------------------------------------------------
    // ALU.
    // ------------------------------------------------------------------
    builder.push_group("alu_ctl");
    let op_and = builder.or2(controls.fn_and, controls.is_andi);
    let op_or = builder.or2(controls.fn_or, controls.is_ori);
    let op_xor = builder.or2(controls.fn_xor, controls.is_xori);
    builder.pop_group();
    let alu_control = AluControl {
        op_sub: controls.fn_sub,
        op_and,
        op_or,
        op_xor,
        op_sltu: controls.fn_sltu,
        op_sll: controls.fn_sll,
        op_srl: controls.fn_srl,
    };
    let operand_b = {
        builder.push_group("alu_ctl");
        let w = builder.mux2_word(&regfile.read_b, &imm_ext, controls.alu_src_imm);
        builder.pop_group();
        w
    };
    let alu = generate_alu(
        builder,
        &regfile.read_a,
        &operand_b,
        &fields.shamt,
        &alu_control,
    );

    // ------------------------------------------------------------------
    // Address generation.
    // ------------------------------------------------------------------
    let agu = generate_agu(
        builder,
        &pc,
        &regfile.read_a,
        &fields.imm16,
        &fields.target26,
    );

    // ------------------------------------------------------------------
    // Branch resolution and next PC.
    // ------------------------------------------------------------------
    builder.push_group("fetch");
    let not_equal = builder.not(alu.equal);
    let take_beq = builder.and2(controls.is_beq, alu.equal);
    let take_bne = builder.and2(controls.is_bne, not_equal);
    let take_branch = builder.or2(take_beq, take_bne);
    let mut next_pc = builder.mux2_word(&agu.pc_plus_4, &agu.branch_target, take_branch);
    next_pc = builder.mux2_word(&next_pc, &agu.jump_target, controls.is_jump);
    next_pc = builder.mux2_word(&next_pc, &pc, controls.is_halt);
    drive_word(builder, "pc", &pc_d, &next_pc);
    builder.pop_group();

    // ------------------------------------------------------------------
    // Branch target buffer.
    // ------------------------------------------------------------------
    let btb_hit = if config.btb_entries >= 2 {
        builder.push_group("btb_ctl");
        let taken_transfer = builder.or2(take_branch, controls.is_jump);
        let update_target =
            builder.mux2_word(&agu.branch_target, &agu.jump_target, controls.is_jump);
        builder.pop_group();
        let btb = generate_btb(
            builder,
            clock,
            &pc,
            taken_transfer,
            &update_target,
            config.btb_entries,
        );
        // Export a compact view of the predictor so its logic stays
        // functionally observable: the hit flag and the target parity.
        builder.push_group("btb_ctl");
        let parity = builder.reduce_xor(&btb.predicted_target);
        builder.pop_group();
        builder.output("btb_pred_parity", parity);
        builder.output("btb_hit", btb.hit);
        Some(btb.hit)
    } else {
        None
    };

    // ------------------------------------------------------------------
    // Write-back selection.
    // ------------------------------------------------------------------
    builder.push_group("wb");
    let mut wb = alu.result.clone();
    wb = builder.mux2_word(&wb, &lui_value, controls.wb_from_lui);
    wb = builder.mux2_word(&wb, &dmem_rdata, controls.wb_from_mem);
    wb = builder.mux2_word(&wb, &agu.pc_plus_4, controls.wb_from_link);
    drive_word(builder, "wb", &wb_data, &wb);
    builder.pop_group();

    // ------------------------------------------------------------------
    // Cycle counter special-purpose register.
    // ------------------------------------------------------------------
    let cycle_counter = if config.include_cycle_counter {
        builder.push_group("spr");
        let d = placeholder_word(builder, "cycle_d", 32);
        let q: Word = d.iter().map(|&dn| builder.dff(dn, clock)).collect();
        let (inc, _) = builder.incrementer(&q);
        drive_word(builder, "cycle", &d, &inc);
        let parity = builder.reduce_xor(&q);
        builder.pop_group();
        builder.output("cycle_parity", parity);
        q
    } else {
        Vec::new()
    };

    // ------------------------------------------------------------------
    // System bus primary outputs.
    // ------------------------------------------------------------------
    let mut bus_output_ports = Vec::new();
    bus_output_ports.extend(builder.output_bus("imem_addr", &pc));
    bus_output_ports.extend(builder.output_bus("dmem_addr", &agu.data_address));
    bus_output_ports.extend(builder.output_bus("dmem_wdata", &regfile.read_b));
    bus_output_ports.push(builder.output("dmem_we", controls.mem_write));
    bus_output_ports.push(builder.output("dmem_re", controls.mem_read));
    bus_output_ports.push(builder.output("halted", controls.is_halt));

    CoreInterface {
        clock,
        reset_n,
        imem_addr: pc.clone(),
        imem_rdata,
        dmem_addr: agu.data_address,
        dmem_rdata,
        dmem_wdata: regfile.read_b,
        dmem_we: controls.mem_write,
        dmem_re: controls.mem_read,
        pc,
        regfile_read_a: regfile.read_a,
        cycle_counter,
        btb_hit,
        halted: controls.is_halt,
        bus_output_ports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;
    use crate::iss::Iss;
    use crate::mem::Memory;
    use atpg::{FaultSim, InputVector};
    use netlist::stats::stats;

    fn build_core(config: &CoreConfig) -> (netlist::Netlist, CoreInterface) {
        let mut b = NetlistBuilder::new("mini32");
        let iface = generate_core(&mut b, config);
        (b.finish(), iface)
    }

    /// Store transactions `(address, data)` observed on the bus of one run.
    type StoreLog = Vec<(u32, u32)>;

    /// Runs a program on both the ISS and the gate-level core (testbench-fed
    /// memory) and compares the store transactions observed on the bus.
    fn cosimulate(program: &[Instr], cycles: usize) -> (StoreLog, StoreLog) {
        // Reference run.
        let mut memory = Memory::new();
        memory.load_words(0, &Instr::assemble(program));
        let mut iss = Iss::new(memory, 0);
        let trace = iss.run(cycles);

        // Gate-level run: per cycle, feed the instruction and load data the
        // ISS saw and observe the data-bus outputs. The full register file is
        // needed because some programs use r31 (the link register).
        let config = CoreConfig {
            num_regs: 32,
            btb_entries: 2,
            include_cycle_counter: false,
        };
        let (netlist, iface) = build_core(&config);
        let sim = FaultSim::new(&netlist).unwrap();
        let mut vectors: Vec<InputVector> = Vec::new();
        for cycle in &trace.cycles {
            let mut v = InputVector::new();
            v.insert(iface.clock, true);
            v.insert(iface.reset_n, true);
            for (i, &net) in iface.imem_rdata.iter().enumerate() {
                v.insert(net, (cycle.instruction >> i) & 1 == 1);
            }
            for (i, &net) in iface.dmem_rdata.iter().enumerate() {
                v.insert(net, (cycle.read_data >> i) & 1 == 1);
            }
            vectors.push(v);
        }
        let responses = sim.good_responses(&vectors);
        // Interpret the responses: find dmem_addr/dmem_wdata/dmem_we columns.
        let outputs = netlist.primary_outputs();
        let col = |name: &str| -> usize {
            outputs
                .iter()
                .position(|&po| netlist.cell(po).name() == name)
                .unwrap_or_else(|| panic!("missing output {name}"))
        };
        let we_col = col("dmem_we");
        let addr_cols: Vec<usize> = (0..32).map(|i| col(&format!("dmem_addr[{i}]"))).collect();
        let data_cols: Vec<usize> = (0..32).map(|i| col(&format!("dmem_wdata[{i}]"))).collect();
        let mut gate_stores = Vec::new();
        for row in &responses {
            if row[we_col] {
                let addr: u32 = addr_cols
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (row[c] as u32) << i)
                    .sum();
                let data: u32 = data_cols
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (row[c] as u32) << i)
                    .sum();
                gate_stores.push((addr, data));
            }
        }
        (trace.stores(), gate_stores)
    }

    #[test]
    fn core_has_expected_structure() {
        let (netlist, iface) = build_core(&CoreConfig::default());
        let s = stats(&netlist);
        assert!(
            s.flip_flops > 1000,
            "expected > 1000 FFs, got {}",
            s.flip_flops
        );
        assert!(s.combinational_cells > 4000);
        assert!(s.stuck_at_faults() > 20_000);
        assert_eq!(iface.pc.len(), 32);
        assert!(iface.btb_hit.is_some());
        // Functional groups exist.
        for group in [
            "regfile",
            "alu",
            "agu",
            "agu.branch",
            "btb",
            "decode",
            "fetch.pc",
            "spr",
        ] {
            assert!(
                !netlist.cells_in_group(group).is_empty(),
                "group {group} is empty"
            );
        }
        // The design levelizes and validates.
        let issues =
            netlist::validate::validate(&netlist, netlist::validate::ValidateOptions::default());
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn small_config_is_smaller() {
        let (full, _) = build_core(&CoreConfig::default());
        let (small, iface) = build_core(&CoreConfig::small());
        assert!(stats(&small).total_cells < stats(&full).total_cells);
        assert!(iface.cycle_counter.is_empty());
    }

    #[test]
    fn gate_level_matches_iss_on_arithmetic_program() {
        let program = vec![
            Instr::Addi {
                rt: 1,
                rs: 0,
                imm: 10,
            },
            Instr::Addi {
                rt: 2,
                rs: 0,
                imm: 32,
            },
            Instr::Add {
                rd: 3,
                rs: 1,
                rt: 2,
            },
            Instr::Sub {
                rd: 4,
                rs: 2,
                rt: 1,
            },
            Instr::Xor {
                rd: 5,
                rs: 3,
                rt: 4,
            },
            Instr::Sltu {
                rd: 6,
                rs: 1,
                rt: 2,
            },
            Instr::Sll {
                rd: 7,
                rt: 1,
                shamt: 3,
            },
            Instr::Sw {
                rt: 3,
                rs: 0,
                imm: 0x100,
            },
            Instr::Sw {
                rt: 4,
                rs: 0,
                imm: 0x104,
            },
            Instr::Sw {
                rt: 5,
                rs: 0,
                imm: 0x108,
            },
            Instr::Sw {
                rt: 6,
                rs: 0,
                imm: 0x10c,
            },
            Instr::Sw {
                rt: 7,
                rs: 0,
                imm: 0x110,
            },
            Instr::Halt,
        ];
        let (iss_stores, gate_stores) = cosimulate(&program, 40);
        assert_eq!(iss_stores.len(), 5);
        assert_eq!(iss_stores, gate_stores);
    }

    #[test]
    fn gate_level_matches_iss_on_branchy_program() {
        let program = vec![
            Instr::Addi {
                rt: 1,
                rs: 0,
                imm: 5,
            },
            Instr::Addi {
                rt: 2,
                rs: 0,
                imm: 0,
            },
            // loop: r2 += r1; r1 -= 1; bne r1, r0, loop
            Instr::Add {
                rd: 2,
                rs: 2,
                rt: 1,
            },
            Instr::Addi {
                rt: 1,
                rs: 1,
                imm: -1,
            },
            Instr::Bne {
                rs: 1,
                rt: 0,
                imm: -3,
            },
            Instr::Sw {
                rt: 2,
                rs: 0,
                imm: 0x200,
            },
            Instr::Jal { target: 8 },
            Instr::Halt,
            Instr::Sw {
                rt: 31,
                rs: 0,
                imm: 0x204,
            }, // 8: store the link register
            Instr::J { target: 7 },
        ];
        let (iss_stores, gate_stores) = cosimulate(&program, 100);
        assert_eq!(iss_stores, gate_stores);
        // 5+4+3+2+1 = 15 and the link register value 28.
        assert_eq!(iss_stores[0], (0x200, 15));
        assert_eq!(iss_stores[1].1, 28);
    }

    #[test]
    fn gate_level_matches_iss_on_memory_program() {
        let program = vec![
            Instr::Lui { rt: 1, imm: 0x1234 },
            Instr::Ori {
                rt: 1,
                rs: 1,
                imm: 0x5678,
            },
            Instr::Sw {
                rt: 1,
                rs: 0,
                imm: 0x300,
            },
            Instr::Lw {
                rt: 2,
                rs: 0,
                imm: 0x300,
            },
            Instr::Addi {
                rt: 2,
                rs: 2,
                imm: 1,
            },
            Instr::Sw {
                rt: 2,
                rs: 0,
                imm: 0x304,
            },
            Instr::Andi {
                rt: 3,
                rs: 1,
                imm: 0xff00,
            },
            Instr::Sw {
                rt: 3,
                rs: 0,
                imm: 0x308,
            },
            Instr::Halt,
        ];
        let (iss_stores, gate_stores) = cosimulate(&program, 40);
        assert_eq!(iss_stores, gate_stores);
        assert_eq!(iss_stores[0], (0x300, 0x1234_5678));
        assert_eq!(iss_stores[1], (0x304, 0x1234_5679));
        assert_eq!(iss_stores[2], (0x308, 0x5600));
    }
}
