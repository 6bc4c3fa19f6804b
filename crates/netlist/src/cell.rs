//! Cell library: the primitive gate, flip-flop and port pseudo-cell kinds a
//! [`Netlist`](crate::Netlist) is made of, together with their pin naming and
//! two-valued evaluation functions.

use std::borrow::Cow;
use std::fmt;

/// Asynchronous reset configuration of a flip-flop.
///
/// A reset always forces the stored value to `0`; only its polarity varies.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Reset {
    /// Reset pin is active low (`RSTN = 0` clears the flip-flop).
    ActiveLow,
    /// Reset pin is active high (`RST = 1` clears the flip-flop).
    ActiveHigh,
}

/// The primitive kinds of cells supported by the netlist data model.
///
/// The library is deliberately small — the standard set a structural test
/// tool needs — but complete enough to express every circuit described by
/// the DATE 2013 paper: plain gates, a 2-to-1 multiplexer, D flip-flops with
/// optional asynchronous reset, mux-scan flip-flops (`Sdff`), tie cells and
/// port pseudo-cells.
///
/// Multi-input gates carry their arity (2..=32).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CellKind {
    /// Primary input pseudo-cell: no input pins, drives one net.
    Input,
    /// Primary output pseudo-cell: one input pin, drives nothing.
    Output,
    /// Constant logic 0 driver.
    Tie0,
    /// Constant logic 1 driver.
    Tie1,
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Not,
    /// N-input AND gate.
    And(u8),
    /// N-input NAND gate.
    Nand(u8),
    /// N-input OR gate.
    Or(u8),
    /// N-input NOR gate.
    Nor(u8),
    /// N-input XOR gate.
    Xor(u8),
    /// N-input XNOR gate.
    Xnor(u8),
    /// 2-to-1 multiplexer; pins `D0`, `D1`, `S`, output `Y = S ? D1 : D0`.
    Mux2,
    /// D flip-flop; pins `D`, `CK` and optionally a reset pin.
    Dff {
        /// Optional asynchronous reset (clears to 0).
        reset: Option<Reset>,
    },
    /// Mux-scan D flip-flop; pins `D`, `SI`, `SE`, `CK` and optionally a
    /// reset pin. When `SE = 1` the flip-flop captures `SI`, otherwise `D`.
    Sdff {
        /// Optional asynchronous reset (clears to 0).
        reset: Option<Reset>,
    },
}

impl CellKind {
    /// Number of input pins of a cell of this kind.
    pub fn num_inputs(self) -> usize {
        match self {
            CellKind::Input | CellKind::Tie0 | CellKind::Tie1 => 0,
            CellKind::Output | CellKind::Buf | CellKind::Not => 1,
            CellKind::And(n)
            | CellKind::Nand(n)
            | CellKind::Or(n)
            | CellKind::Nor(n)
            | CellKind::Xor(n)
            | CellKind::Xnor(n) => n as usize,
            CellKind::Mux2 => 3,
            CellKind::Dff { reset } => 2 + usize::from(reset.is_some()),
            CellKind::Sdff { reset } => 4 + usize::from(reset.is_some()),
        }
    }

    /// Whether a cell of this kind drives a net (everything except `Output`).
    pub fn has_output(self) -> bool {
        !matches!(self, CellKind::Output)
    }

    /// Whether this kind is a state-holding element (flip-flop).
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff { .. } | CellKind::Sdff { .. })
    }

    /// Whether this kind is a constant driver.
    pub fn is_tie(self) -> bool {
        matches!(self, CellKind::Tie0 | CellKind::Tie1)
    }

    /// Whether this kind is a port pseudo-cell.
    pub fn is_port(self) -> bool {
        matches!(self, CellKind::Input | CellKind::Output)
    }

    /// Whether this kind is a combinational gate (has an output, is neither
    /// sequential, nor a tie, nor a port).
    pub fn is_combinational(self) -> bool {
        self.has_output() && !self.is_sequential() && !self.is_tie() && !self.is_port()
    }

    /// The reset configuration for flip-flop kinds, `None` otherwise.
    pub fn reset(self) -> Option<Reset> {
        match self {
            CellKind::Dff { reset } | CellKind::Sdff { reset } => reset,
            _ => None,
        }
    }

    /// Index of the clock pin for sequential kinds.
    pub fn clock_pin(self) -> Option<crate::PinIndex> {
        match self {
            CellKind::Dff { .. } => Some(1),
            CellKind::Sdff { .. } => Some(3),
            _ => None,
        }
    }

    /// Index of the data (`D`) pin for sequential kinds.
    pub fn data_pin(self) -> Option<crate::PinIndex> {
        match self {
            CellKind::Dff { .. } | CellKind::Sdff { .. } => Some(0),
            _ => None,
        }
    }

    /// Index of the scan-in (`SI`) pin for `Sdff`, `None` otherwise.
    pub fn scan_in_pin(self) -> Option<crate::PinIndex> {
        match self {
            CellKind::Sdff { .. } => Some(1),
            _ => None,
        }
    }

    /// Index of the scan-enable (`SE`) pin for `Sdff`, `None` otherwise.
    pub fn scan_enable_pin(self) -> Option<crate::PinIndex> {
        match self {
            CellKind::Sdff { .. } => Some(2),
            _ => None,
        }
    }

    /// Index of the reset pin for sequential kinds that have one.
    pub fn reset_pin(self) -> Option<crate::PinIndex> {
        match self {
            CellKind::Dff { reset: Some(_) } => Some(2),
            CellKind::Sdff { reset: Some(_) } => Some(4),
            _ => None,
        }
    }

    /// Name of the `index`-th input pin.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_inputs()`.
    pub fn input_pin_name(self, index: usize) -> Cow<'static, str> {
        assert!(
            index < self.num_inputs(),
            "pin index {index} out of range for {self:?}"
        );
        match self {
            CellKind::Output | CellKind::Buf | CellKind::Not => Cow::Borrowed("A"),
            CellKind::And(_)
            | CellKind::Nand(_)
            | CellKind::Or(_)
            | CellKind::Nor(_)
            | CellKind::Xor(_)
            | CellKind::Xnor(_) => Cow::Owned(format!("A{index}")),
            CellKind::Mux2 => Cow::Borrowed(["D0", "D1", "S"][index]),
            CellKind::Dff { reset } => {
                let pins: &[&'static str] = if reset.is_some() {
                    &["D", "CK", "RST"]
                } else {
                    &["D", "CK"]
                };
                Cow::Borrowed(pins[index])
            }
            CellKind::Sdff { reset } => {
                let pins: &[&'static str] = if reset.is_some() {
                    &["D", "SI", "SE", "CK", "RST"]
                } else {
                    &["D", "SI", "SE", "CK"]
                };
                Cow::Borrowed(pins[index])
            }
            CellKind::Input | CellKind::Tie0 | CellKind::Tie1 => unreachable!(),
        }
    }

    /// Name of the output pin (`Y` for gates, `Q` for flip-flops).
    pub fn output_pin_name(self) -> &'static str {
        match self {
            CellKind::Dff { .. } | CellKind::Sdff { .. } => "Q",
            _ => "Y",
        }
    }

    /// The library cell name used by the structural Verilog reader/writer.
    pub fn lib_name(self) -> Cow<'static, str> {
        match self {
            CellKind::Input => Cow::Borrowed("INPUT"),
            CellKind::Output => Cow::Borrowed("OUTPUT"),
            CellKind::Tie0 => Cow::Borrowed("TIE0"),
            CellKind::Tie1 => Cow::Borrowed("TIE1"),
            CellKind::Buf => Cow::Borrowed("BUF"),
            CellKind::Not => Cow::Borrowed("INV"),
            CellKind::And(n) => Cow::Owned(format!("AND{n}")),
            CellKind::Nand(n) => Cow::Owned(format!("NAND{n}")),
            CellKind::Or(n) => Cow::Owned(format!("OR{n}")),
            CellKind::Nor(n) => Cow::Owned(format!("NOR{n}")),
            CellKind::Xor(n) => Cow::Owned(format!("XOR{n}")),
            CellKind::Xnor(n) => Cow::Owned(format!("XNOR{n}")),
            CellKind::Mux2 => Cow::Borrowed("MUX2"),
            CellKind::Dff { reset: None } => Cow::Borrowed("DFF"),
            CellKind::Dff {
                reset: Some(Reset::ActiveLow),
            } => Cow::Borrowed("DFFRN"),
            CellKind::Dff {
                reset: Some(Reset::ActiveHigh),
            } => Cow::Borrowed("DFFR"),
            CellKind::Sdff { reset: None } => Cow::Borrowed("SDFF"),
            CellKind::Sdff {
                reset: Some(Reset::ActiveLow),
            } => Cow::Borrowed("SDFFRN"),
            CellKind::Sdff {
                reset: Some(Reset::ActiveHigh),
            } => Cow::Borrowed("SDFFR"),
        }
    }

    /// Parses a library cell name back into a kind (inverse of [`lib_name`]).
    ///
    /// Returns `None` for unknown names.
    ///
    /// [`lib_name`]: CellKind::lib_name
    pub fn from_lib_name(name: &str) -> Option<CellKind> {
        let fixed = match name {
            "INPUT" => Some(CellKind::Input),
            "OUTPUT" => Some(CellKind::Output),
            "TIE0" => Some(CellKind::Tie0),
            "TIE1" => Some(CellKind::Tie1),
            "BUF" => Some(CellKind::Buf),
            "INV" | "NOT" => Some(CellKind::Not),
            "MUX2" => Some(CellKind::Mux2),
            "DFF" => Some(CellKind::Dff { reset: None }),
            "DFFRN" => Some(CellKind::Dff {
                reset: Some(Reset::ActiveLow),
            }),
            "DFFR" => Some(CellKind::Dff {
                reset: Some(Reset::ActiveHigh),
            }),
            "SDFF" => Some(CellKind::Sdff { reset: None }),
            "SDFFRN" => Some(CellKind::Sdff {
                reset: Some(Reset::ActiveLow),
            }),
            "SDFFR" => Some(CellKind::Sdff {
                reset: Some(Reset::ActiveHigh),
            }),
            _ => None,
        };
        if fixed.is_some() {
            return fixed;
        }
        let parse_arity = |prefix: &str| -> Option<u8> {
            name.strip_prefix(prefix)?
                .parse::<u8>()
                .ok()
                .filter(|&n| (2..=32).contains(&n))
        };
        if let Some(n) = parse_arity("NAND") {
            return Some(CellKind::Nand(n));
        }
        if let Some(n) = parse_arity("XNOR") {
            return Some(CellKind::Xnor(n));
        }
        if let Some(n) = parse_arity("AND") {
            return Some(CellKind::And(n));
        }
        if let Some(n) = parse_arity("NOR") {
            return Some(CellKind::Nor(n));
        }
        if let Some(n) = parse_arity("XOR") {
            return Some(CellKind::Xor(n));
        }
        if let Some(n) = parse_arity("OR") {
            return Some(CellKind::Or(n));
        }
        None
    }

    /// Two-valued evaluation of a combinational cell.
    ///
    /// Returns `None` for sequential cells and for `Output` pseudo-cells
    /// (which do not produce a value). `Input` cells have no inputs and
    /// cannot be evaluated here either.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval_bool(self, inputs: &[bool]) -> Option<bool> {
        assert_eq!(
            inputs.len(),
            self.num_inputs(),
            "wrong number of input values for {self:?}"
        );
        match self {
            CellKind::Tie0 => Some(false),
            CellKind::Tie1 => Some(true),
            CellKind::Buf => Some(inputs[0]),
            CellKind::Not => Some(!inputs[0]),
            CellKind::And(_) => Some(inputs.iter().all(|&v| v)),
            CellKind::Nand(_) => Some(!inputs.iter().all(|&v| v)),
            CellKind::Or(_) => Some(inputs.iter().any(|&v| v)),
            CellKind::Nor(_) => Some(!inputs.iter().any(|&v| v)),
            CellKind::Xor(_) => Some(inputs.iter().fold(false, |acc, &v| acc ^ v)),
            CellKind::Xnor(_) => Some(!inputs.iter().fold(false, |acc, &v| acc ^ v)),
            CellKind::Mux2 => Some(if inputs[2] { inputs[1] } else { inputs[0] }),
            CellKind::Input | CellKind::Output | CellKind::Dff { .. } | CellKind::Sdff { .. } => {
                None
            }
        }
    }

    /// The controlling value of the gate, if it has one (AND/NAND → 0,
    /// OR/NOR → 1). Used by fault collapsing and SCOAP.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            CellKind::And(_) | CellKind::Nand(_) => Some(false),
            CellKind::Or(_) | CellKind::Nor(_) => Some(true),
            _ => None,
        }
    }

    /// Whether the gate output inverts relative to its inputs (NAND, NOR,
    /// XNOR, NOT).
    pub fn is_inverting(self) -> Option<bool> {
        match self {
            CellKind::And(_) | CellKind::Or(_) | CellKind::Buf => Some(false),
            CellKind::Nand(_) | CellKind::Nor(_) | CellKind::Not => Some(true),
            CellKind::Xor(_) => Some(false),
            CellKind::Xnor(_) => Some(true),
            _ => None,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lib_name())
    }
}

/// User-assignable attributes attached to a cell.
///
/// The on-line-untestability identification flow uses these to locate
/// functional groups ("agu", "btb", "debug", …) and address-holding
/// registers without re-deriving them from names.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CellAttrs {
    /// Functional group this cell belongs to (e.g. `"alu"`, `"agu.adder"`,
    /// `"debug"`, `"btb"`). Empty string means "no group".
    pub group: String,
    /// For flip-flops that store one bit of a memory address: the bit index
    /// within the address word.
    pub address_bit: Option<u32>,
}

impl CellAttrs {
    /// Attributes with only a group set.
    pub fn with_group(group: impl Into<String>) -> Self {
        CellAttrs {
            group: group.into(),
            address_bit: None,
        }
    }

    /// True if the cell's group equals `group` or is nested below it
    /// (dot-separated, e.g. `"agu.adder"` is in group `"agu"`).
    pub fn in_group(&self, group: &str) -> bool {
        self.group == group
            || (self.group.len() > group.len()
                && self.group.starts_with(group)
                && self.group.as_bytes()[group.len()] == b'.')
    }
}

/// A cell instance inside a [`Netlist`](crate::Netlist).
#[derive(Clone, Debug)]
pub struct Cell {
    pub(crate) kind: CellKind,
    pub(crate) name: String,
    pub(crate) inputs: Vec<crate::NetId>,
    pub(crate) output: Option<crate::NetId>,
    pub(crate) attrs: CellAttrs,
    pub(crate) dead: bool,
}

impl Cell {
    /// The primitive kind of this cell.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The instance name of this cell.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The nets connected to the input pins, in pin order.
    pub fn inputs(&self) -> &[crate::NetId] {
        &self.inputs
    }

    /// The net driven by this cell, if any.
    pub fn output(&self) -> Option<crate::NetId> {
        self.output
    }

    /// The attributes attached to this cell.
    pub fn attrs(&self) -> &CellAttrs {
        &self.attrs
    }

    /// Whether the cell was removed from the design by a manipulation step.
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_counts() {
        assert_eq!(CellKind::Input.num_inputs(), 0);
        assert_eq!(CellKind::Output.num_inputs(), 1);
        assert_eq!(CellKind::And(3).num_inputs(), 3);
        assert_eq!(CellKind::Mux2.num_inputs(), 3);
        assert_eq!(CellKind::Dff { reset: None }.num_inputs(), 2);
        assert_eq!(
            CellKind::Dff {
                reset: Some(Reset::ActiveLow)
            }
            .num_inputs(),
            3
        );
        assert_eq!(CellKind::Sdff { reset: None }.num_inputs(), 4);
        assert_eq!(
            CellKind::Sdff {
                reset: Some(Reset::ActiveHigh)
            }
            .num_inputs(),
            5
        );
    }

    #[test]
    fn classification_predicates() {
        assert!(CellKind::Dff { reset: None }.is_sequential());
        assert!(!CellKind::And(2).is_sequential());
        assert!(CellKind::Tie1.is_tie());
        assert!(CellKind::Input.is_port());
        assert!(CellKind::Xor(2).is_combinational());
        assert!(!CellKind::Tie0.is_combinational());
        assert!(!CellKind::Output.has_output());
    }

    #[test]
    fn pin_names() {
        assert_eq!(CellKind::Mux2.input_pin_name(2), "S");
        assert_eq!(CellKind::And(4).input_pin_name(3), "A3");
        let sdff = CellKind::Sdff {
            reset: Some(Reset::ActiveLow),
        };
        assert_eq!(sdff.input_pin_name(1), "SI");
        assert_eq!(sdff.input_pin_name(2), "SE");
        assert_eq!(sdff.input_pin_name(4), "RST");
        assert_eq!(sdff.output_pin_name(), "Q");
        assert_eq!(CellKind::Or(2).output_pin_name(), "Y");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pin_name_out_of_range_panics() {
        CellKind::Buf.input_pin_name(1);
    }

    #[test]
    fn lib_name_roundtrip() {
        let kinds = [
            CellKind::Input,
            CellKind::Output,
            CellKind::Tie0,
            CellKind::Tie1,
            CellKind::Buf,
            CellKind::Not,
            CellKind::And(2),
            CellKind::Nand(5),
            CellKind::Or(3),
            CellKind::Nor(2),
            CellKind::Xor(2),
            CellKind::Xnor(4),
            CellKind::Mux2,
            CellKind::Dff { reset: None },
            CellKind::Dff {
                reset: Some(Reset::ActiveLow),
            },
            CellKind::Dff {
                reset: Some(Reset::ActiveHigh),
            },
            CellKind::Sdff { reset: None },
            CellKind::Sdff {
                reset: Some(Reset::ActiveLow),
            },
            CellKind::Sdff {
                reset: Some(Reset::ActiveHigh),
            },
        ];
        for kind in kinds {
            let name = kind.lib_name();
            assert_eq!(
                CellKind::from_lib_name(&name),
                Some(kind),
                "roundtrip {name}"
            );
        }
        assert_eq!(CellKind::from_lib_name("FOO"), None);
        assert_eq!(CellKind::from_lib_name("AND1"), None);
        assert_eq!(CellKind::from_lib_name("AND99"), None);
    }

    #[test]
    fn eval_basic_gates() {
        assert_eq!(CellKind::And(2).eval_bool(&[true, true]), Some(true));
        assert_eq!(CellKind::And(2).eval_bool(&[true, false]), Some(false));
        assert_eq!(CellKind::Nand(2).eval_bool(&[true, true]), Some(false));
        assert_eq!(CellKind::Or(3).eval_bool(&[false, false, true]), Some(true));
        assert_eq!(CellKind::Nor(2).eval_bool(&[false, false]), Some(true));
        assert_eq!(CellKind::Xor(3).eval_bool(&[true, true, true]), Some(true));
        assert_eq!(CellKind::Xnor(2).eval_bool(&[true, false]), Some(false));
        assert_eq!(CellKind::Not.eval_bool(&[true]), Some(false));
        assert_eq!(CellKind::Buf.eval_bool(&[true]), Some(true));
        assert_eq!(CellKind::Tie0.eval_bool(&[]), Some(false));
        assert_eq!(CellKind::Tie1.eval_bool(&[]), Some(true));
        assert_eq!(
            CellKind::Mux2.eval_bool(&[false, true, true]),
            Some(true),
            "S=1 selects D1"
        );
        assert_eq!(CellKind::Mux2.eval_bool(&[false, true, false]), Some(false));
        assert_eq!(
            CellKind::Dff { reset: None }.eval_bool(&[true, false]),
            None
        );
    }

    #[test]
    fn controlling_values() {
        assert_eq!(CellKind::And(2).controlling_value(), Some(false));
        assert_eq!(CellKind::Nor(2).controlling_value(), Some(true));
        assert_eq!(CellKind::Xor(2).controlling_value(), None);
    }

    #[test]
    fn group_nesting() {
        let attrs = CellAttrs::with_group("agu.adder");
        assert!(attrs.in_group("agu"));
        assert!(attrs.in_group("agu.adder"));
        assert!(!attrs.in_group("ag"));
        assert!(!attrs.in_group("btb"));
    }

    #[test]
    fn special_pin_indices() {
        let sdff = CellKind::Sdff { reset: None };
        assert_eq!(sdff.data_pin(), Some(0));
        assert_eq!(sdff.scan_in_pin(), Some(1));
        assert_eq!(sdff.scan_enable_pin(), Some(2));
        assert_eq!(sdff.clock_pin(), Some(3));
        assert_eq!(sdff.reset_pin(), None);
        let dffr = CellKind::Dff {
            reset: Some(Reset::ActiveHigh),
        };
        assert_eq!(dffr.reset_pin(), Some(2));
        assert_eq!(CellKind::And(2).data_pin(), None);
    }
}
