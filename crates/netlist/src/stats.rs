//! Design statistics: cell counts per category, pin counts and the size of
//! the stuck-at fault universe implied by the pin-fault model.

use crate::{CellKind, Netlist};
use std::fmt;

/// Summary statistics of a netlist.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Live combinational gates (including buffers, inverters and muxes).
    pub combinational_cells: usize,
    /// Live flip-flops (plain DFF).
    pub flip_flops: usize,
    /// Live mux-scan flip-flops.
    pub scan_flip_flops: usize,
    /// Tie cells.
    pub tie_cells: usize,
    /// Primary inputs.
    pub primary_inputs: usize,
    /// Primary outputs.
    pub primary_outputs: usize,
    /// Total live cells.
    pub total_cells: usize,
    /// Total nets.
    pub nets: usize,
    /// Total connected cell pins (inputs + outputs) over live cells: each is
    /// two stuck-at fault sites under the uncollapsed pin-fault model.
    pub pins: usize,
    /// Maximum combinational logic depth (0 if the design is purely
    /// sequential or levelization failed).
    pub max_logic_depth: u32,
}

impl NetlistStats {
    /// Number of uncollapsed stuck-at faults implied by the pin-fault model
    /// (two per pin).
    pub fn stuck_at_faults(&self) -> usize {
        self.pins * 2
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cells          : {}", self.total_cells)?;
        writeln!(f, "  combinational: {}", self.combinational_cells)?;
        writeln!(f, "  flip-flops   : {}", self.flip_flops)?;
        writeln!(f, "  scan FFs     : {}", self.scan_flip_flops)?;
        writeln!(f, "  ties         : {}", self.tie_cells)?;
        writeln!(f, "primary inputs : {}", self.primary_inputs)?;
        writeln!(f, "primary outputs: {}", self.primary_outputs)?;
        writeln!(f, "nets           : {}", self.nets)?;
        writeln!(f, "pins           : {}", self.pins)?;
        writeln!(f, "stuck-at faults: {}", self.stuck_at_faults())?;
        write!(f, "logic depth    : {}", self.max_logic_depth)
    }
}

/// Computes [`NetlistStats`] for a design.
pub fn stats(netlist: &Netlist) -> NetlistStats {
    let mut s = NetlistStats {
        nets: netlist.num_nets(),
        ..NetlistStats::default()
    };
    for (_, cell) in netlist.live_cells() {
        s.total_cells += 1;
        match cell.kind() {
            CellKind::Input => s.primary_inputs += 1,
            CellKind::Output => s.primary_outputs += 1,
            CellKind::Tie0 | CellKind::Tie1 => s.tie_cells += 1,
            CellKind::Dff { .. } => s.flip_flops += 1,
            CellKind::Sdff { .. } => s.scan_flip_flops += 1,
            _ => s.combinational_cells += 1,
        }
        s.pins += cell.inputs().len() + usize::from(cell.output().is_some());
    }
    s.max_logic_depth = crate::graph::levelize(netlist)
        .map(|l| l.max_level)
        .unwrap_or(0);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn counts_are_consistent() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let ck = b.input("ck");
        let x = b.and2(a, c);
        let q = b.dff(x, ck);
        let z = b.tie0();
        let y = b.or2(q, z);
        let y2 = b.and2(y, x);
        b.output("y", y2);
        let n = b.finish();
        let s = stats(&n);
        assert_eq!(s.primary_inputs, 3);
        assert_eq!(s.primary_outputs, 1);
        assert_eq!(s.combinational_cells, 3);
        assert_eq!(s.flip_flops, 1);
        assert_eq!(s.scan_flip_flops, 0);
        assert_eq!(s.tie_cells, 1);
        assert_eq!(
            s.total_cells,
            s.primary_inputs
                + s.primary_outputs
                + s.combinational_cells
                + s.flip_flops
                + s.tie_cells
        );
        // pins: 3 inputs (1 out each) + and(3) + dff(3) + tie(1) + or(3) + and(3) + output(1)
        assert_eq!(s.pins, 3 + 3 + 3 + 1 + 3 + 3 + 1);
        assert_eq!(s.stuck_at_faults(), s.pins * 2);
        assert!(s.max_logic_depth >= 1);
        let text = s.to_string();
        assert!(text.contains("stuck-at faults"));
    }

    #[test]
    fn dead_cells_excluded() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.not(a);
        b.output("y", x);
        let mut n = b.finish();
        let before = stats(&n).total_cells;
        let inv = n.driver_of(x).unwrap();
        n.remove_cell(inv);
        assert_eq!(stats(&n).total_cells, before - 1);
    }
}
