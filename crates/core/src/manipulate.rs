//! Circuit manipulation — the paper's central mechanism (§3): connect
//! mission-constant signals to fixed values and disconnect mission-unobserved
//! outputs, so that on-line functional untestability becomes *structural*
//! untestability that a conventional tool can identify.
//!
//! Two equivalent application styles are provided:
//!
//! * [`Manipulation::to_constraints`] expresses the manipulation as an
//!   [`atpg::ConstraintSet`] without touching the netlist (the style the
//!   identification flow uses internally), and
//! * [`Manipulation::apply`] physically edits a copy of the netlist — tie
//!   cells are inserted and debug outputs are removed — which mirrors what
//!   the paper feeds to TetraMAX and is useful for exporting the manipulated
//!   design.

use atpg::ConstraintSet;
use netlist::{CellId, CellKind, NetId, Netlist};

/// One elementary manipulation step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManipulationStep {
    /// Force a net to a constant logic value (tie to ground / Vdd).
    TieNet {
        /// The net to tie.
        net: NetId,
        /// The constant value.
        value: bool,
    },
    /// Stop observing a primary output (leave it floating / unconnected).
    FloatOutput {
        /// The `Output` pseudo-cell to disconnect.
        output: CellId,
    },
}

/// An ordered collection of manipulation steps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manipulation {
    steps: Vec<ManipulationStep>,
}

impl Manipulation {
    /// An empty manipulation.
    pub fn new() -> Self {
        Manipulation::default()
    }

    /// Adds a tie step.
    pub fn tie_net(&mut self, net: NetId, value: bool) -> &mut Self {
        self.steps.push(ManipulationStep::TieNet { net, value });
        self
    }

    /// Adds a float-output step.
    pub fn float_output(&mut self, output: CellId) -> &mut Self {
        self.steps.push(ManipulationStep::FloatOutput { output });
        self
    }

    /// The recorded steps.
    pub fn steps(&self) -> &[ManipulationStep] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no step was recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Merges another manipulation after this one.
    pub fn extend(&mut self, other: &Manipulation) {
        self.steps.extend(other.steps.iter().cloned());
    }

    /// Expresses the manipulation as analysis constraints over the
    /// *unmodified* netlist (full-scan defaults).
    pub fn to_constraints(&self) -> ConstraintSet {
        let mut constraints = ConstraintSet::full_scan();
        for step in &self.steps {
            match *step {
                ManipulationStep::TieNet { net, value } => {
                    constraints.tie_net(net, value);
                }
                ManipulationStep::FloatOutput { output } => {
                    constraints.mask_output(output);
                }
            }
        }
        constraints
    }

    /// Physically applies the manipulation to a copy of `netlist` and returns
    /// the modified design: tied nets get their original driver detached and
    /// a tie cell connected instead; floated outputs are removed.
    pub fn apply(&self, netlist: &Netlist) -> Netlist {
        let mut modified = netlist.clone();
        modified.set_name(format!("{}_manipulated", netlist.name()));
        for step in &self.steps {
            match *step {
                ManipulationStep::TieNet { net, value } => {
                    // Disconnect whatever drove the net and re-drive it from a
                    // dedicated tie cell through a buffer (so the tied net
                    // keeps its identity and loads).
                    modified.detach_driver(net);
                    let tie = modified.tie_net(value);
                    let name = format!("u_manip_tie_{}", net.index());
                    modified.add_cell(CellKind::Buf, name, &[tie], Some(net));
                }
                ManipulationStep::FloatOutput { output } => {
                    modified.remove_cell(output);
                }
            }
        }
        modified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg::{propagate_constants, Logic};
    use netlist::NetlistBuilder;

    fn design() -> (Netlist, NetId, NetId, CellId) {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let dbg = b.not(y);
        b.output("y", y);
        let dbg_po = b.output("dbg", dbg);
        (b.finish(), a, y, dbg_po)
    }

    #[test]
    fn constraints_reflect_steps() {
        let (_, a, _, dbg_po) = design();
        let mut m = Manipulation::new();
        m.tie_net(a, true).float_output(dbg_po);
        assert_eq!(m.len(), 2);
        let constraints = m.to_constraints();
        assert_eq!(constraints.forced_nets.get(&a), Some(&Logic::One));
        assert!(constraints.masked_outputs.contains(&dbg_po));
    }

    #[test]
    fn physical_apply_ties_and_floats() {
        let (n, a, y, dbg_po) = design();
        let mut m = Manipulation::new();
        m.tie_net(a, false).float_output(dbg_po);
        let modified = m.apply(&n);
        // The original netlist is untouched.
        assert!(n.driver_of(a).is_some());
        assert!(!n.cell(dbg_po).is_dead());
        // In the modified copy `a` is driven by a tie-buffer and the debug
        // output is gone.
        let driver = modified.driver_of(a).unwrap();
        assert_eq!(modified.cell(driver).kind(), CellKind::Buf);
        assert!(modified.cell(dbg_po).is_dead());
        // And constant propagation (without extra constraints) now sees the
        // AND output as constant 0.
        let consts = propagate_constants(&modified, &ConstraintSet::full_scan()).unwrap();
        assert_eq!(consts.value(y), Logic::Zero);
    }

    #[test]
    fn constraint_and_physical_styles_agree() {
        let (n, a, y, _) = design();
        let mut m = Manipulation::new();
        m.tie_net(a, false);
        // Style 1: constraints over the original design.
        let consts1 = propagate_constants(&n, &m.to_constraints()).unwrap();
        // Style 2: physical edit, default constraints.
        let modified = m.apply(&n);
        let consts2 = propagate_constants(&modified, &ConstraintSet::full_scan()).unwrap();
        assert_eq!(consts1.value(y), consts2.value(y));
        assert_eq!(consts1.value(a), consts2.value(a));
    }

    #[test]
    fn extend_concatenates() {
        let (_, a, y, dbg_po) = design();
        let mut m1 = Manipulation::new();
        m1.tie_net(a, true);
        let mut m2 = Manipulation::new();
        m2.tie_net(y, false).float_output(dbg_po);
        m1.extend(&m2);
        assert_eq!(m1.len(), 3);
        assert!(!m1.is_empty());
        assert!(Manipulation::new().is_empty());
    }
}
