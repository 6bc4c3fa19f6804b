//! Stuck-at fault sites under the pin-fault model.

use netlist::{CellId, Netlist, PinIndex};
use std::fmt;

/// A location where a stuck-at fault can occur: a cell input pin (a *branch*
/// of the driving net) or a cell output pin (the *stem*).
///
/// Primary-port faults are represented through the `Input` / `Output`
/// pseudo-cells of the netlist: a fault on a primary input is the output-pin
/// fault of its `Input` cell, a fault on a primary output is the input-pin
/// fault of its `Output` cell.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum FaultSite {
    /// Input pin `pin` of `cell`.
    CellInput {
        /// The cell owning the pin.
        cell: CellId,
        /// The input pin index.
        pin: PinIndex,
    },
    /// The output pin of `cell`.
    CellOutput {
        /// The cell owning the pin.
        cell: CellId,
    },
}

impl FaultSite {
    /// The cell this site belongs to.
    pub fn cell(self) -> CellId {
        match self {
            FaultSite::CellInput { cell, .. } | FaultSite::CellOutput { cell } => cell,
        }
    }

    /// Human-readable description of the site (`instance.PIN`).
    pub fn describe(self, netlist: &Netlist) -> String {
        match self {
            FaultSite::CellInput { cell, pin } => {
                let c = netlist.cell(cell);
                format!("{}.{}", c.name(), c.kind().input_pin_name(pin as usize))
            }
            FaultSite::CellOutput { cell } => {
                let c = netlist.cell(cell);
                format!("{}.{}", c.name(), c.kind().output_pin_name())
            }
        }
    }
}

/// A single stuck-at fault: a [`FaultSite`] stuck at a logic value.
///
/// # Examples
///
/// ```
/// use faultmodel::{FaultSite, StuckAt};
/// use netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("t");
/// let a = b.input("a");
/// let y = b.not(a);
/// b.output("y", y);
/// let n = b.finish();
/// let inv = n.driver_of(y).unwrap();
/// let fault = StuckAt::new(FaultSite::CellOutput { cell: inv }, true);
/// assert_eq!(fault.describe(&n), "u_inv_1.Y stuck-at-1");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StuckAt {
    /// Where the fault sits.
    pub site: FaultSite,
    /// The value the signal is stuck at.
    pub value: bool,
}

impl StuckAt {
    /// Creates a stuck-at fault.
    pub fn new(site: FaultSite, value: bool) -> Self {
        StuckAt { site, value }
    }

    /// Convenience constructor for an output-pin (stem) stuck-at fault.
    pub fn output(cell: CellId, value: bool) -> Self {
        StuckAt {
            site: FaultSite::CellOutput { cell },
            value,
        }
    }

    /// Convenience constructor for an input-pin (branch) stuck-at fault.
    pub fn input(cell: CellId, pin: PinIndex, value: bool) -> Self {
        StuckAt {
            site: FaultSite::CellInput { cell, pin },
            value,
        }
    }

    /// Human-readable description (`instance.PIN stuck-at-v`).
    pub fn describe(self, netlist: &Netlist) -> String {
        format!(
            "{} stuck-at-{}",
            self.site.describe(netlist),
            u8::from(self.value)
        )
    }
}

impl fmt::Display for StuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.site {
            FaultSite::CellInput { cell, pin } => {
                write!(f, "{cell}.in{pin} s-a-{}", u8::from(self.value))
            }
            FaultSite::CellOutput { cell } => write!(f, "{cell}.out s-a-{}", u8::from(self.value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    #[test]
    fn describe_names_pins() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(y).unwrap();
        assert_eq!(
            StuckAt::input(and, 1, false).describe(&n),
            format!("{}.A1 stuck-at-0", n.cell(and).name())
        );
        assert_eq!(
            StuckAt::output(and, true).describe(&n),
            format!("{}.Y stuck-at-1", n.cell(and).name())
        );
    }

    #[test]
    fn display_is_compact() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let n = b.finish();
        let inv = n.driver_of(y).unwrap();
        let f = StuckAt::output(inv, false);
        assert!(format!("{f}").contains("s-a-0"));
        assert_eq!(f.site.cell(), inv);
    }
}
