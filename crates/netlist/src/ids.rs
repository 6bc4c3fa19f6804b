//! Strongly typed arena indices used throughout the netlist data model.
//!
//! All identifiers are thin newtypes over `u32`; they are only meaningful
//! with respect to the [`Netlist`](crate::Netlist) that produced them.

use std::fmt;

/// Identifier of a net (a single-bit wire) inside a [`Netlist`](crate::Netlist).
///
/// # Examples
///
/// ```
/// use netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("t");
/// let a = b.input("a");
/// let y = b.not(a);
/// assert_ne!(a, y);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

/// Identifier of a cell (gate, flip-flop, tie or port pseudo-cell) inside a
/// [`Netlist`](crate::Netlist).
///
/// # Examples
///
/// ```
/// use netlist::{Netlist, CellKind};
///
/// let mut n = Netlist::new("t");
/// let w = n.add_net("w");
/// let c = n.add_cell(CellKind::Tie0, "tie", &[], Some(w));
/// assert_eq!(n.cell(c).kind(), CellKind::Tie0);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

/// Index of an input pin within a cell (0-based, in declaration order).
pub type PinIndex = u16;

/// A reference to one input pin of one cell: the canonical way to identify a
/// *load* of a net, and one of the two flavours of stuck-at fault sites.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PinRef {
    /// The cell owning the pin.
    pub cell: CellId,
    /// The input pin index within the cell.
    pub pin: PinIndex,
}

impl NetId {
    /// Creates an id from a raw arena index.
    ///
    /// The index is only meaningful for the [`Netlist`](crate::Netlist) it
    /// was obtained from (e.g. via [`index`](Self::index) or the dense
    /// iteration order of `net_ids()`).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NetId(u32::try_from(index).expect("netlist exceeds u32::MAX nets"))
    }

    /// Returns the raw arena index of this net.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CellId {
    /// Creates an id from a raw arena index.
    ///
    /// The index is only meaningful for the [`Netlist`](crate::Netlist) it
    /// was obtained from.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        CellId(u32::try_from(index).expect("netlist exceeds u32::MAX cells"))
    }

    /// Returns the raw arena index of this cell.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PinRef {
    /// Convenience constructor.
    #[inline]
    pub fn new(cell: CellId, pin: PinIndex) -> Self {
        PinRef { cell, pin }
    }
}

impl fmt::Debug for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_index() {
        assert_eq!(NetId::from_index(42).index(), 42);
        assert_eq!(CellId::from_index(7).index(), 7);
    }

    #[test]
    fn ids_order_follows_index() {
        assert!(NetId::from_index(1) < NetId::from_index(2));
        assert!(CellId::from_index(0) < CellId::from_index(9));
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", NetId::from_index(3)), "n3");
        assert_eq!(format!("{:?}", CellId::from_index(5)), "c5");
        assert_eq!(format!("{}", NetId::from_index(3)), "n3");
    }

    #[test]
    fn pinref_equality() {
        let a = PinRef::new(CellId::from_index(1), 0);
        let b = PinRef::new(CellId::from_index(1), 0);
        let c = PinRef::new(CellId::from_index(1), 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
