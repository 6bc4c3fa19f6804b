//! Nexus-style debug infrastructure (Fig. 3 / Fig. 4 of the paper):
//!
//! * **control access**: selected flip-flops get a debug multiplexer in front
//!   of their data pin so that an external debugger can force register
//!   contents (`DE` / `DI` in Fig. 4);
//! * **observation access**: selected internal nets are exported on dedicated
//!   observation buses that only an external debugger ever reads.
//!
//! In mission mode the debug enable is tied off and the observation buses are
//! not connected to anything — precisely the two situations §3.2 turns into
//! on-line functionally untestable faults.

use netlist::{CellAttrs, CellId, CellKind, NetId, Netlist};

/// Configuration of the debug-access insertion.
#[derive(Clone, Debug)]
pub struct DebugConfig {
    /// Name of the debug-enable primary input (Fig. 4's `DE`).
    pub enable_name: String,
    /// Width of the debug data-in bus (Fig. 4's `DI`); register bits share
    /// bus bits round-robin.
    pub data_width: usize,
    /// Prefix of the debug data-in bus ports.
    pub data_prefix: String,
    /// Prefix of the observation bus ports.
    pub observation_prefix: String,
    /// Value the debug enable holds in mission mode (0: debugger absent).
    pub mission_enable_value: bool,
}

impl Default for DebugConfig {
    fn default() -> Self {
        DebugConfig {
            enable_name: "dbg_enable".to_string(),
            data_width: 32,
            data_prefix: "dbg_di".to_string(),
            observation_prefix: "dbg_obs".to_string(),
            mission_enable_value: false,
        }
    }
}

/// The structure created by [`insert_debug_access`].
#[derive(Clone, Debug)]
pub struct DebugUnit {
    /// The debug-enable `Input` pseudo-cell.
    pub enable_port: CellId,
    /// The net it drives.
    pub enable_net: NetId,
    /// The debug data-in `Input` pseudo-cells.
    pub data_ports: Vec<CellId>,
    /// The nets they drive.
    pub data_nets: Vec<NetId>,
    /// The observation `Output` pseudo-cells (one per observed net).
    pub observation_ports: Vec<CellId>,
    /// The debug multiplexers inserted in front of flip-flop data pins.
    pub control_muxes: Vec<CellId>,
    /// The buffers driving the observation ports.
    pub observation_buffers: Vec<CellId>,
    /// The configuration used.
    pub config: DebugConfig,
}

impl DebugUnit {
    /// All primary-input nets belonging to the debug control interface
    /// (enable + data bus) — the signals §3.2.1 ties to constants.
    pub fn control_input_nets(&self) -> Vec<NetId> {
        let mut nets = vec![self.enable_net];
        nets.extend(&self.data_nets);
        nets
    }
}

/// Inserts debug register access and observation buses.
///
/// * Every flip-flop in `control_targets` gets `D_eff = DE ? DI[i] : D`.
/// * Every net in `observe_nets` is buffered out to a dedicated observation
///   output port.
///
/// All created cells are tagged with the `debug.control` / `debug.observe`
/// groups.
pub fn insert_debug_access(
    netlist: &mut Netlist,
    control_targets: &[CellId],
    observe_nets: &[NetId],
    config: &DebugConfig,
) -> DebugUnit {
    let (enable_port, enable_net) = netlist.add_input(&config.enable_name);
    netlist.set_attrs(enable_port, CellAttrs::with_group("debug.control"));

    let width = config.data_width.max(1);
    let mut data_ports = Vec::with_capacity(width);
    let mut data_nets = Vec::with_capacity(width);
    for i in 0..width {
        let (port, net) = netlist.add_input(format!("{}[{}]", config.data_prefix, i));
        netlist.set_attrs(port, CellAttrs::with_group("debug.control"));
        data_ports.push(port);
        data_nets.push(net);
    }

    let mut control_muxes = Vec::with_capacity(control_targets.len());
    for (i, &ff) in control_targets.iter().enumerate() {
        let kind = netlist.cell(ff).kind();
        let Some(d_pin) = kind.data_pin() else {
            continue;
        };
        let d_net = netlist.input_net(ff, d_pin);
        let di_net = data_nets[i % width];
        let mux_out = netlist.add_net(format!("dbg_mux_{i}"));
        let mux = netlist.add_cell(
            CellKind::Mux2,
            format!("u_dbg_mux_{i}"),
            &[d_net, di_net, enable_net],
            Some(mux_out),
        );
        netlist.set_attrs(mux, CellAttrs::with_group("debug.control"));
        netlist.set_cell_input(ff, d_pin, mux_out);
        control_muxes.push(mux);
    }

    let mut observation_ports = Vec::with_capacity(observe_nets.len());
    let mut observation_buffers = Vec::with_capacity(observe_nets.len());
    for (i, &net) in observe_nets.iter().enumerate() {
        let buf_out = netlist.add_net(format!("{}_int[{}]", config.observation_prefix, i));
        let buf = netlist.add_cell(
            CellKind::Buf,
            format!("u_dbg_obs_buf_{i}"),
            &[net],
            Some(buf_out),
        );
        netlist.set_attrs(buf, CellAttrs::with_group("debug.observe"));
        let port = netlist.add_output(format!("{}[{}]", config.observation_prefix, i), buf_out);
        netlist.set_attrs(port, CellAttrs::with_group("debug.observe"));
        observation_ports.push(port);
        observation_buffers.push(buf);
    }

    DebugUnit {
        enable_port,
        enable_net,
        data_ports,
        data_nets,
        observation_ports,
        control_muxes,
        observation_buffers,
        config: config.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    fn base_design() -> (Netlist, Vec<CellId>, Vec<NetId>) {
        let mut b = NetlistBuilder::new("regs");
        let ck = b.input("ck");
        let d = b.input_bus("d", 8);
        let q = b.register(&d, ck);
        b.output_bus("q", &q);
        let n = b.finish();
        let flops = n.sequential_cells();
        (n, flops, q)
    }

    #[test]
    fn control_muxes_sit_in_front_of_data_pins() {
        let (mut n, flops, _q) = base_design();
        let config = DebugConfig {
            data_width: 4,
            ..DebugConfig::default()
        };
        let unit = insert_debug_access(&mut n, &flops, &[], &config);
        assert_eq!(unit.control_muxes.len(), 8);
        assert_eq!(unit.data_ports.len(), 4);
        for (&ff, &mux) in flops.iter().zip(&unit.control_muxes) {
            let d_pin = n.cell(ff).kind().data_pin().unwrap();
            assert_eq!(n.input_net(ff, d_pin), n.output_net(mux).unwrap());
            assert!(n.cell(mux).attrs().in_group("debug.control"));
            // The mux select is the debug enable.
            assert_eq!(n.cell(mux).inputs()[2], unit.enable_net);
        }
        // Data bus bits are shared round-robin.
        assert_eq!(n.cell(unit.control_muxes[0]).inputs()[1], unit.data_nets[0]);
        assert_eq!(n.cell(unit.control_muxes[5]).inputs()[1], unit.data_nets[1]);
    }

    #[test]
    fn observation_buses_are_buffered_outputs() {
        let (mut n, _flops, q) = base_design();
        let unit = insert_debug_access(&mut n, &[], &q, &DebugConfig::default());
        assert_eq!(unit.observation_ports.len(), 8);
        assert_eq!(unit.observation_buffers.len(), 8);
        for (&port, &buf) in unit.observation_ports.iter().zip(&unit.observation_buffers) {
            assert_eq!(n.cell(port).kind(), CellKind::Output);
            assert_eq!(n.cell(port).inputs()[0], n.output_net(buf).unwrap());
            assert!(n.cell(buf).attrs().in_group("debug.observe"));
        }
    }

    #[test]
    fn control_input_nets_lists_enable_and_data() {
        let (mut n, flops, _) = base_design();
        let config = DebugConfig {
            data_width: 2,
            ..DebugConfig::default()
        };
        let unit = insert_debug_access(&mut n, &flops, &[], &config);
        let nets = unit.control_input_nets();
        assert_eq!(nets.len(), 3);
        assert_eq!(nets[0], unit.enable_net);
    }

    #[test]
    fn mission_behaviour_unchanged_when_enable_low() {
        use atpg::{FaultSim, InputVector};
        let (mut n, flops, _) = base_design();
        let before = {
            let sim = FaultSim::new(&n).unwrap();
            let d0 = n.find_net("d[0]").unwrap();
            let vectors: Vec<InputVector> = (0..4)
                .map(|i| {
                    let mut v = InputVector::new();
                    v.insert(d0, i % 2 == 0);
                    v.insert(n.find_net("ck").unwrap(), true);
                    v
                })
                .collect();
            sim.good_responses(&vectors)
        };
        insert_debug_access(&mut n, &flops, &[], &DebugConfig::default());
        let after = {
            let sim = FaultSim::new(&n).unwrap();
            let d0 = n.find_net("d[0]").unwrap();
            let vectors: Vec<InputVector> = (0..4)
                .map(|i| {
                    let mut v = InputVector::new();
                    v.insert(d0, i % 2 == 0);
                    v.insert(n.find_net("ck").unwrap(), true);
                    // dbg_enable defaults to 0 (absent from the vector).
                    v
                })
                .collect();
            sim.good_responses(&vectors)
        };
        assert_eq!(before, after, "debug logic must be transparent when DE=0");
    }

    #[test]
    fn flops_without_data_pin_are_skipped_gracefully() {
        let (mut n, mut flops, _) = base_design();
        // Append a combinational cell id on purpose: it has no data pin and
        // must simply be skipped.
        let a = n.primary_inputs()[0];
        flops.push(a);
        let unit = insert_debug_access(&mut n, &flops, &[], &DebugConfig::default());
        assert_eq!(unit.control_muxes.len(), 8);
    }
}
