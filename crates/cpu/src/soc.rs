//! SoC assembly: the `mini32` core plus every design-for-test / design-for-
//! debug structure of the paper's industrial case study — full scan, a
//! Nexus-style debug unit with register access and observation buses, a JTAG
//! access port, a logic-BIST block — together with the mission memory map.

use crate::core_gen::{generate_core, CoreConfig, CoreInterface};
use crate::mem::MemoryMap;
use dft::bist::{generate_bist, BistBlock, BistConfig};
use dft::debug::{insert_debug_access, DebugConfig, DebugUnit};
use dft::jtag::{generate_jtag, JtagConfig, JtagPort};
use dft::scan::{insert_scan, ScanConfig, ScanInsertion};
use netlist::{CellId, CellKind, NetId, Netlist, NetlistBuilder};

/// Configuration of the generated SoC.
#[derive(Clone, Debug)]
pub struct SocConfig {
    /// The processor core configuration.
    pub core: CoreConfig,
    /// Scan-insertion configuration.
    pub scan: ScanConfig,
    /// Debug-unit configuration.
    pub debug: DebugConfig,
    /// JTAG port configuration (`None` omits the TAP).
    pub jtag: Option<JtagConfig>,
    /// BIST configuration (`None` omits the LFSR/MISR pair).
    pub bist: Option<BistConfig>,
    /// The mission memory map.
    pub memory_map: MemoryMap,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            core: CoreConfig::default(),
            scan: ScanConfig::default(),
            debug: DebugConfig::default(),
            jtag: Some(JtagConfig::default()),
            bist: Some(BistConfig::default()),
            memory_map: MemoryMap::date13_case_study(),
        }
    }
}

/// The assembled SoC: the flat netlist plus handles to every inserted
/// structure.
#[derive(Clone, Debug)]
pub struct Soc {
    /// The complete gate-level design.
    pub netlist: Netlist,
    /// The processor-core interface nets.
    pub interface: CoreInterface,
    /// The inserted scan structure.
    pub scan: ScanInsertion,
    /// The inserted debug unit.
    pub debug: DebugUnit,
    /// The JTAG port, when present.
    pub jtag: Option<JtagPort>,
    /// The BIST block, when present.
    pub bist: Option<BistBlock>,
    /// The mission memory map.
    pub memory_map: MemoryMap,
    /// The configuration the SoC was built from.
    pub config: SocConfig,
}

impl Soc {
    /// The debug/test control input nets that are tied off in mission mode,
    /// with the constant value they take: debug enable and data, JTAG pins,
    /// BIST enable, scan enable and scan inputs.
    ///
    /// This is the "ground truth" list; the identification flow re-derives an
    /// equivalent list from toggle analysis, as the paper does.
    pub fn mission_tied_inputs(&self) -> Vec<(NetId, bool)> {
        let mut tied = Vec::new();
        tied.push((
            self.debug.enable_net,
            self.debug.config.mission_enable_value,
        ));
        for &net in &self.debug.data_nets {
            tied.push((net, false));
        }
        if let Some(jtag) = &self.jtag {
            for &net in &jtag.input_nets {
                tied.push((net, false));
            }
        }
        if let Some(bist) = &self.bist {
            tied.push((bist.enable, false));
        }
        if let Some(se) = self.scan.scan_enable_net {
            tied.push((se, self.scan.config.mission_scan_enable_value));
        }
        for chain in &self.scan.chains {
            tied.push((chain.scan_in_net, false));
        }
        tied
    }

    /// The observation-only output ports that nothing reads in mission mode:
    /// the debug observation buses, the scan-out ports and the JTAG TDO.
    pub fn mission_unobserved_outputs(&self) -> Vec<CellId> {
        let mut outputs = self.debug.observation_ports.clone();
        for chain in &self.scan.chains {
            outputs.push(chain.scan_out_port);
        }
        if let Some(jtag) = &self.jtag {
            for load in self.netlist.loads_of(jtag.tdo) {
                if self.netlist.cell(load.cell).kind() == CellKind::Output {
                    outputs.push(load.cell);
                }
            }
        }
        outputs
    }

    /// Flip-flops that hold memory addresses (tagged with their address bit):
    /// the PC and the branch-target-buffer tag/target registers.
    pub fn address_registers(&self) -> Vec<(CellId, u32)> {
        self.netlist
            .live_cells()
            .filter(|(_, c)| c.kind().is_sequential())
            .filter_map(|(id, c)| c.attrs().address_bit.map(|bit| (id, bit)))
            .collect()
    }

    /// The primary input nets the mission application actually drives (clock,
    /// reset and the two memory read buses).
    pub fn functional_inputs(&self) -> Vec<NetId> {
        let mut nets = vec![self.interface.clock, self.interface.reset_n];
        nets.extend(&self.interface.imem_rdata);
        nets.extend(&self.interface.dmem_rdata);
        nets
    }
}

/// Builder for [`Soc`] instances.
#[derive(Clone, Debug, Default)]
pub struct SocBuilder {
    config: SocConfig,
}

impl SocBuilder {
    /// A builder with the given configuration.
    pub fn new(config: SocConfig) -> Self {
        SocBuilder { config }
    }

    /// The full-size industrial-like configuration used for the Table I
    /// reproduction: 32-register core, 4-entry BTB, full scan in four chains,
    /// Nexus-style debug unit, JTAG, BIST, and the case-study memory map.
    pub fn industrial() -> Self {
        SocBuilder {
            config: SocConfig::default(),
        }
    }

    /// A reduced configuration for quick tests and examples.
    pub fn small() -> Self {
        SocBuilder {
            config: SocConfig {
                core: CoreConfig::small(),
                scan: ScanConfig {
                    num_chains: 2,
                    ..ScanConfig::default()
                },
                debug: DebugConfig {
                    data_width: 8,
                    ..DebugConfig::default()
                },
                jtag: Some(JtagConfig::default()),
                bist: None,
                memory_map: MemoryMap::date13_case_study(),
            },
        }
    }

    /// Overrides the memory map.
    pub fn memory_map(mut self, map: MemoryMap) -> Self {
        self.config.memory_map = map;
        self
    }

    /// Overrides the core configuration.
    pub fn core_config(mut self, core: CoreConfig) -> Self {
        self.config.core = core;
        self
    }

    /// Overrides the scan configuration.
    pub fn scan_config(mut self, scan: ScanConfig) -> Self {
        self.config.scan = scan;
        self
    }

    /// The configuration that will be built.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Builds the SoC.
    pub fn build(&self) -> Soc {
        let config = self.config.clone();
        let mut builder = NetlistBuilder::new("soc_mini32");
        let interface = generate_core(&mut builder, &config.core);

        let jtag = config
            .jtag
            .as_ref()
            .map(|jtag_config| generate_jtag(&mut builder, interface.clock, jtag_config));

        let bist = config.bist.as_ref().map(|bist_config| {
            // The BIST compacts the low bits of the data-address bus.
            let observed: Vec<NetId> =
                interface.dmem_addr[..16.min(interface.dmem_addr.len())].to_vec();
            generate_bist(&mut builder, interface.clock, &observed, bist_config)
        });

        let mut netlist = builder.finish();

        // Debug register access: the external debugger can force the PC and
        // the special-purpose cycle counter, and observes the register-file
        // read port and the PC on two dedicated buses (the "general and
        // special purpose register values" of §4).
        let mut control_targets: Vec<CellId> = Vec::new();
        for group in ["fetch.pc", "spr"] {
            control_targets.extend(
                netlist
                    .cells_in_group(group)
                    .into_iter()
                    .filter(|&c| netlist.cell(c).kind().is_sequential()),
            );
        }
        let mut observe_nets: Vec<NetId> = Vec::new();
        observe_nets.extend(&interface.regfile_read_a);
        observe_nets.extend(&interface.pc);
        let debug =
            insert_debug_access(&mut netlist, &control_targets, &observe_nets, &config.debug);

        // Scan insertion last, so the debug and JTAG flip-flops are stitched
        // into the chains as well.
        let scan = insert_scan(&mut netlist, &config.scan);

        Soc {
            netlist,
            interface,
            scan,
            debug,
            jtag,
            bist,
            memory_map: config.memory_map.clone(),
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::stats::stats;
    use netlist::validate::{validate, ValidateOptions};

    #[test]
    fn small_soc_builds_and_validates() {
        let soc = SocBuilder::small().build();
        let s = stats(&soc.netlist);
        assert!(s.scan_flip_flops > 100);
        assert_eq!(s.flip_flops, 0, "every flip-flop must be scanned");
        let issues = validate(&soc.netlist, ValidateOptions::default());
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn industrial_soc_is_large() {
        let soc = SocBuilder::industrial().build();
        let s = stats(&soc.netlist);
        assert!(
            s.stuck_at_faults() > 50_000,
            "expected a fault universe above 50k, got {}",
            s.stuck_at_faults()
        );
        assert!(s.scan_flip_flops > 1_000);
        assert!(soc.jtag.is_some());
        assert!(soc.bist.is_some());
    }

    #[test]
    fn mission_tied_inputs_cover_all_test_interfaces() {
        let soc = SocBuilder::small().build();
        let tied = soc.mission_tied_inputs();
        let names: Vec<String> = tied
            .iter()
            .map(|&(net, _)| soc.netlist.net(net).name().to_string())
            .collect();
        assert!(names.iter().any(|n| n.contains("dbg_enable")));
        assert!(names.iter().any(|n| n.contains("jtag_tms")));
        assert!(names.iter().any(|n| n.contains("scan_enable")));
        assert!(names.iter().any(|n| n.contains("scan_in")));
        // Every tied net is a primary input of the design.
        let pi_nets = soc.netlist.primary_input_nets();
        for (net, _) in tied {
            assert!(pi_nets.contains(&net));
        }
    }

    #[test]
    fn mission_unobserved_outputs_are_output_ports() {
        let soc = SocBuilder::small().build();
        let outputs = soc.mission_unobserved_outputs();
        assert!(!outputs.is_empty());
        for po in &outputs {
            assert_eq!(soc.netlist.cell(*po).kind(), netlist::CellKind::Output);
        }
        // Observation buses + scan outs + TDO.
        assert!(outputs.len() >= soc.debug.observation_ports.len() + soc.scan.chains.len());
    }

    #[test]
    fn address_registers_cover_pc_and_btb() {
        let soc = SocBuilder::small().build();
        let regs = soc.address_registers();
        assert!(
            regs.len() >= 32,
            "at least the 32 PC bits, got {}",
            regs.len()
        );
        let groups: Vec<String> = regs
            .iter()
            .map(|&(c, _)| soc.netlist.cell(c).attrs().group.clone())
            .collect();
        assert!(groups.iter().any(|g| g.starts_with("fetch.pc")));
        assert!(groups.iter().any(|g| g.starts_with("btb")));
    }

    #[test]
    fn functional_inputs_do_not_overlap_tied_inputs() {
        let soc = SocBuilder::small().build();
        let functional = soc.functional_inputs();
        for (net, _) in soc.mission_tied_inputs() {
            assert!(!functional.contains(&net));
        }
    }

    #[test]
    fn builder_overrides_apply() {
        let map = MemoryMap::date13_example();
        let soc = SocBuilder::small()
            .memory_map(map.clone())
            .core_config(CoreConfig {
                num_regs: 4,
                btb_entries: 2,
                include_cycle_counter: false,
            })
            .build();
        assert_eq!(soc.memory_map, map);
        assert!(soc.interface.cycle_counter.is_empty());
    }
}
