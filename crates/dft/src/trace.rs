//! Scan-chain tracing — the "ad-hoc tool able to trace the chain" of §4.
//!
//! Given a netlist containing mux-scan flip-flops, the tracer reconstructs
//! every scan chain starting from its scan-in port, walking through scan-path
//! buffers and inverters, and records per flip-flop which net feeds the SI
//! and SE pins. The on-line untestable scan rule (§3.1) consumes this
//! information to prune the corresponding faults.

use netlist::{CellId, CellKind, NetId, Netlist};
use std::collections::HashSet;
use std::fmt;

/// One element encountered while walking a scan chain.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScanElement {
    /// A mux-scan flip-flop.
    Flop(CellId),
    /// A buffer or inverter on the scan path.
    Buffer(CellId),
}

impl ScanElement {
    /// The cell id of the element.
    pub fn cell(self) -> CellId {
        match self {
            ScanElement::Flop(c) | ScanElement::Buffer(c) => c,
        }
    }
}

/// A fully traced scan chain.
#[derive(Clone, Debug)]
pub struct TracedChain {
    /// The scan-in `Input` pseudo-cell the trace started from.
    pub scan_in_port: CellId,
    /// Flip-flops and scan-path buffers in shift order.
    pub elements: Vec<ScanElement>,
    /// The scan-out `Output` pseudo-cell, if the chain terminates at one.
    pub scan_out_port: Option<CellId>,
}

impl TracedChain {
    /// Only the flip-flops of the chain, in shift order.
    pub fn flops(&self) -> Vec<CellId> {
        self.elements
            .iter()
            .filter_map(|e| match e {
                ScanElement::Flop(c) => Some(*c),
                ScanElement::Buffer(_) => None,
            })
            .collect()
    }

    /// Only the scan-path buffers of the chain.
    pub fn buffers(&self) -> Vec<CellId> {
        self.elements
            .iter()
            .filter_map(|e| match e {
                ScanElement::Buffer(c) => Some(*c),
                ScanElement::Flop(_) => None,
            })
            .collect()
    }
}

/// The result of tracing every chain of a design.
#[derive(Clone, Debug)]
pub struct ScanTrace {
    /// The traced chains, one per scan-in port.
    pub chains: Vec<TracedChain>,
    /// The distinct nets driving scan-enable pins.
    pub scan_enable_nets: Vec<NetId>,
}

impl ScanTrace {
    /// Total number of scan flip-flops reached by the trace.
    pub fn num_flops(&self) -> usize {
        self.chains.iter().map(|c| c.flops().len()).sum()
    }
}

/// Error produced by the tracer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A chain could not be followed (no SI pin, buffer or output reachable).
    BrokenChain {
        /// The scan-in port whose chain broke.
        scan_in: String,
        /// How many elements were traced before the break.
        traced: usize,
    },
    /// The given cell is not a primary input.
    NotAnInput {
        /// Name of the offending cell.
        cell: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BrokenChain { scan_in, traced } => write!(
                f,
                "scan chain from `{scan_in}` breaks after {traced} element(s)"
            ),
            TraceError::NotAnInput { cell } => {
                write!(f, "`{cell}` is not a primary input")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Finds the primary inputs whose name starts with `prefix` (candidate
/// scan-in ports).
pub fn find_scan_in_ports(netlist: &Netlist, prefix: &str) -> Vec<CellId> {
    let mut ports: Vec<CellId> = netlist
        .primary_inputs()
        .into_iter()
        .filter(|&pi| netlist.cell(pi).name().starts_with(prefix))
        .collect();
    ports.sort_by_key(|&pi| netlist.cell(pi).name().to_string());
    ports
}

/// Traces the scan chains rooted at the given scan-in ports.
///
/// `scan_out_prefix` disambiguates the chain terminus when the last scan
/// cell's output also feeds functional primary outputs: an output port whose
/// name starts with the prefix is preferred as the scan-out.
///
/// # Errors
///
/// Returns [`TraceError::NotAnInput`] if a given port is not a primary input
/// and [`TraceError::BrokenChain`] if a chain cannot be followed to a
/// flip-flop or output port.
pub fn trace_scan_chains(
    netlist: &Netlist,
    scan_in_ports: &[CellId],
    scan_out_prefix: &str,
) -> Result<ScanTrace, TraceError> {
    let mut chains = Vec::with_capacity(scan_in_ports.len());
    let mut scan_enable_nets: Vec<NetId> = Vec::new();

    for &port in scan_in_ports {
        let cell = netlist.cell(port);
        if cell.kind() != CellKind::Input {
            return Err(TraceError::NotAnInput {
                cell: cell.name().to_string(),
            });
        }
        let mut elements = Vec::new();
        let mut scan_out_port = None;
        let mut current_net = cell.output().expect("input drives a net");
        let mut visited: HashSet<CellId> = HashSet::new();

        loop {
            match next_element(netlist, current_net, &visited, scan_out_prefix) {
                Some(NextHop::Flop { buffers, flop }) => {
                    for b in buffers {
                        visited.insert(b);
                        elements.push(ScanElement::Buffer(b));
                    }
                    visited.insert(flop);
                    elements.push(ScanElement::Flop(flop));
                    if let Some(se_pin) = netlist.cell(flop).kind().scan_enable_pin() {
                        let se_net = netlist.input_net(flop, se_pin);
                        if !scan_enable_nets.contains(&se_net) {
                            scan_enable_nets.push(se_net);
                        }
                    }
                    current_net = netlist
                        .output_net(flop)
                        .expect("flip-flops always drive a net");
                }
                Some(NextHop::Terminal { buffers, port }) => {
                    for b in buffers {
                        visited.insert(b);
                        elements.push(ScanElement::Buffer(b));
                    }
                    scan_out_port = Some(port);
                    break;
                }
                None => {
                    if elements.is_empty() {
                        return Err(TraceError::BrokenChain {
                            scan_in: cell.name().to_string(),
                            traced: 0,
                        });
                    }
                    break;
                }
            }
        }

        chains.push(TracedChain {
            scan_in_port: port,
            elements,
            scan_out_port,
        });
    }

    Ok(ScanTrace {
        chains,
        scan_enable_nets,
    })
}

enum NextHop {
    Flop { buffers: Vec<CellId>, flop: CellId },
    Terminal { buffers: Vec<CellId>, port: CellId },
}

/// Finds the next scan element reachable from `net`: preferably a scan
/// flip-flop SI pin (possibly through buffers/inverters), otherwise an output
/// port (the scan-out, preferring names starting with `scan_out_prefix`).
fn next_element(
    netlist: &Netlist,
    net: NetId,
    visited: &HashSet<CellId>,
    scan_out_prefix: &str,
) -> Option<NextHop> {
    // Depth-first search through buffers/inverters, bounded by design size.
    fn dfs(
        netlist: &Netlist,
        net: NetId,
        visited: &HashSet<CellId>,
        buffers: &mut Vec<CellId>,
        depth: usize,
        scan_out_prefix: &str,
    ) -> Option<NextHop> {
        if depth > netlist.num_cells() {
            return None;
        }
        // Pass 1: a direct SI pin.
        for load in netlist.loads_of(net) {
            let cell = netlist.cell(load.cell);
            if cell.is_dead() || visited.contains(&load.cell) {
                continue;
            }
            if let Some(si_pin) = cell.kind().scan_in_pin() {
                if si_pin == load.pin {
                    return Some(NextHop::Flop {
                        buffers: buffers.clone(),
                        flop: load.cell,
                    });
                }
            }
        }
        // Pass 2: through buffers / inverters.
        for load in netlist.loads_of(net) {
            let cell = netlist.cell(load.cell);
            if cell.is_dead() || visited.contains(&load.cell) {
                continue;
            }
            if matches!(cell.kind(), CellKind::Buf | CellKind::Not) && !buffers.contains(&load.cell)
            {
                if let Some(out) = cell.output() {
                    buffers.push(load.cell);
                    if let Some(hit) =
                        dfs(netlist, out, visited, buffers, depth + 1, scan_out_prefix)
                    {
                        return Some(hit);
                    }
                    buffers.pop();
                }
            }
        }
        // Pass 3: an output port terminates the chain. Prefer ports whose
        // name matches the scan-out naming convention.
        let mut fallback = None;
        for load in netlist.loads_of(net) {
            let cell = netlist.cell(load.cell);
            if cell.is_dead() || visited.contains(&load.cell) {
                continue;
            }
            if cell.kind() == CellKind::Output {
                if cell.name().starts_with(scan_out_prefix) {
                    return Some(NextHop::Terminal {
                        buffers: buffers.clone(),
                        port: load.cell,
                    });
                }
                if fallback.is_none() {
                    fallback = Some(load.cell);
                }
            }
        }
        fallback.map(|port| NextHop::Terminal {
            buffers: buffers.clone(),
            port,
        })
    }
    let mut buffers = Vec::new();
    dfs(netlist, net, visited, &mut buffers, 0, scan_out_prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{insert_scan, ScanConfig};
    use netlist::NetlistBuilder;

    fn scanned_design(
        n_ffs: usize,
        chains: usize,
        buffers: bool,
    ) -> (Netlist, crate::scan::ScanInsertion) {
        let mut b = NetlistBuilder::new("seq");
        let ck = b.input("ck");
        let d = b.input_bus("d", n_ffs);
        let q = b.register(&d, ck);
        b.output_bus("q", &q);
        let mut netlist = b.finish();
        let insertion = insert_scan(
            &mut netlist,
            &ScanConfig {
                num_chains: chains,
                insert_path_buffers: buffers,
                ..ScanConfig::default()
            },
        );
        (netlist, insertion)
    }

    #[test]
    fn trace_recovers_inserted_chains() {
        let (n, insertion) = scanned_design(12, 3, false);
        let ports = find_scan_in_ports(&n, "scan_in");
        assert_eq!(ports.len(), 3);
        let trace = trace_scan_chains(&n, &ports, "scan_out").unwrap();
        assert_eq!(trace.chains.len(), 3);
        assert_eq!(trace.num_flops(), 12);
        // Flip-flop order matches the insertion order chain by chain.
        for (traced, inserted) in trace.chains.iter().zip(&insertion.chains) {
            assert_eq!(traced.flops(), inserted.cells);
            assert_eq!(traced.scan_out_port, Some(inserted.scan_out_port));
        }
        assert_eq!(trace.scan_enable_nets.len(), 1);
        assert_eq!(
            trace.scan_enable_nets[0],
            insertion.scan_enable_net.unwrap()
        );
    }

    #[test]
    fn trace_records_scan_path_buffers() {
        let (n, insertion) = scanned_design(6, 1, true);
        let ports = find_scan_in_ports(&n, "scan_in");
        let trace = trace_scan_chains(&n, &ports, "scan_out").unwrap();
        let chain = &trace.chains[0];
        assert_eq!(chain.flops().len(), 6);
        assert_eq!(chain.buffers().len(), 5);
        let inserted: Vec<_> = insertion.chains[0].path_buffers.clone();
        assert_eq!(chain.buffers(), inserted);
    }

    #[test]
    fn trace_follows_inverter_pairs() {
        // Hand-build a chain with an inverter pair between two scan FFs.
        let mut b = NetlistBuilder::new("inv_chain");
        let ck = b.input("ck");
        let d0 = b.input("d0");
        let d1 = b.input("d1");
        let si = b.input("si_port");
        let se = b.input("se");
        let q0 = b.sdff(d0, si, se, ck);
        let inv1 = b.not(q0);
        let inv2 = b.not(inv1);
        let q1 = b.sdff(d1, inv2, se, ck);
        b.output("so", q1);
        b.output("q0", q0);
        let n = b.finish();
        let port = n.find_input("si_port").unwrap();
        let trace = trace_scan_chains(&n, &[port], "so").unwrap();
        let chain = &trace.chains[0];
        assert_eq!(chain.flops().len(), 2);
        assert_eq!(chain.buffers().len(), 2);
        assert!(chain.scan_out_port.is_some());
    }

    #[test]
    fn broken_chain_is_reported() {
        let mut b = NetlistBuilder::new("broken");
        let dangling = b.input("scan_in0");
        let a = b.input("a");
        let y = b.and2(a, dangling);
        b.output("y", y);
        let n = b.finish();
        let port = n.find_input("scan_in0").unwrap();
        let err = trace_scan_chains(&n, &[port], "scan_out").unwrap_err();
        assert!(matches!(err, TraceError::BrokenChain { .. }));
        assert!(err.to_string().contains("scan_in0"));
    }

    #[test]
    fn non_input_port_is_rejected() {
        let (n, _) = scanned_design(4, 1, false);
        let some_ff = n.sequential_cells()[0];
        let err = trace_scan_chains(&n, &[some_ff], "scan_out").unwrap_err();
        assert!(matches!(err, TraceError::NotAnInput { .. }));
    }

    #[test]
    fn find_scan_in_ports_filters_by_prefix() {
        let (n, _) = scanned_design(4, 2, false);
        assert_eq!(find_scan_in_ports(&n, "scan_in").len(), 2);
        assert!(find_scan_in_ports(&n, "nonexistent").is_empty());
    }
}
