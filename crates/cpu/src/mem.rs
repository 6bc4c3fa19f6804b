//! Memory models: the sparse word-addressed memory used by the instruction
//! set simulator, and the SoC memory map with the address-bit analysis of
//! §3.3.

use std::collections::BTreeMap;
use std::fmt;

/// The kind of a mapped memory region.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// Non-volatile program memory.
    Flash,
    /// Volatile data memory.
    Ram,
    /// Memory-mapped peripheral registers.
    Peripheral,
}

/// One contiguous region of the memory map.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemRegion {
    /// First byte address of the region.
    pub base: u32,
    /// Size in bytes (must be non-zero).
    pub size: u32,
    /// What the region is.
    pub kind: RegionKind,
}

impl MemRegion {
    /// Creates a region.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the region wraps past the end of the
    /// address space.
    pub fn new(base: u32, size: u32, kind: RegionKind) -> Self {
        assert!(size > 0, "memory region must have a non-zero size");
        assert!(
            base.checked_add(size - 1).is_some(),
            "memory region wraps around the address space"
        );
        MemRegion { base, size, kind }
    }

    /// Last byte address of the region (inclusive).
    pub fn last(&self) -> u32 {
        self.base + (self.size - 1)
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr <= self.last()
    }
}

/// Whether the contiguous range `[lo, hi]` contains an address whose bit
/// `bit` equals `value`.
fn range_has_bit_value(lo: u32, hi: u32, bit: u32, value: bool) -> bool {
    debug_assert!(lo <= hi);
    let period = 1u64 << (bit + 1);
    let half = 1u64 << bit;
    // Addresses with bit==1 form blocks [k*period + half, k*period + period-1].
    // Walk at most two blocks around lo.
    let lo = lo as u64;
    let hi = hi as u64;
    let len = hi - lo + 1;
    if len >= period {
        return true;
    }
    // Phase-space view: the range occupies [phase, end_phase] where
    // end_phase may exceed the period (wrap-around into the next block).
    let phase = lo % period;
    let end_phase = phase + len - 1;
    if value {
        // Overlap with the bit==1 half-block [half, period-1], either in the
        // un-wrapped part of the range or in the wrapped part.
        end_phase.min(period - 1) >= half || end_phase >= period + half
    } else {
        // Overlap with the bit==0 half-block [0, half-1].
        phase < half || end_phase >= period
    }
}

/// The SoC memory map: the set of address ranges that the processor can
/// legally access in mission mode.
///
/// # Examples
///
/// The configuration of the paper's case study (§4):
///
/// ```
/// use cpu::mem::{MemoryMap, MemRegion, RegionKind};
///
/// let map = MemoryMap::new(vec![
///     MemRegion::new(0x0007_8000, 0x0000_8000, RegionKind::Flash),
///     MemRegion::new(0x4000_0000, 0x0002_0000, RegionKind::Ram),
/// ]);
/// let toggling = map.toggling_address_bits();
/// // The low address bits and bit 30 can change; the bits in between are
/// // frozen (the paper reports "the 18 less significant bits and the 30th").
/// assert!(toggling.contains(&0));
/// assert!(toggling.contains(&30));
/// assert!(!toggling.contains(&25));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryMap {
    regions: Vec<MemRegion>,
}

impl MemoryMap {
    /// Creates a memory map from its regions.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty.
    pub fn new(regions: Vec<MemRegion>) -> Self {
        assert!(!regions.is_empty(), "memory map needs at least one region");
        MemoryMap { regions }
    }

    /// The paper's case-study map: 32 KiB of flash at `0x0007_8000` and
    /// 128 KiB of RAM at `0x4000_0000`.
    pub fn date13_case_study() -> Self {
        MemoryMap::new(vec![
            MemRegion::new(0x0007_8000, 0x0000_8000, RegionKind::Flash),
            MemRegion::new(0x4000_0000, 0x0002_0000, RegionKind::Ram),
        ])
    }

    /// The small explanatory map of §3.3: a 4 KiB flash and a 1 KiB RAM
    /// mapped one after the other from address 0.
    pub fn date13_example() -> Self {
        MemoryMap::new(vec![
            MemRegion::new(0x0000_0000, 0x0000_1000, RegionKind::Flash),
            MemRegion::new(0x0000_1000, 0x0000_0400, RegionKind::Ram),
        ])
    }

    /// The regions of the map.
    pub fn regions(&self) -> &[MemRegion] {
        &self.regions
    }

    /// The first region of the given kind, if any.
    pub fn region_of_kind(&self, kind: RegionKind) -> Option<&MemRegion> {
        self.regions.iter().find(|r| r.kind == kind)
    }

    /// Whether `addr` is mapped.
    pub fn contains(&self, addr: u32) -> bool {
        self.regions.iter().any(|r| r.contains(addr))
    }

    /// Address bits that can legally take both values somewhere in the map.
    pub fn toggling_address_bits(&self) -> Vec<u32> {
        (0..32)
            .filter(|&bit| {
                let has0 = self
                    .regions
                    .iter()
                    .any(|r| range_has_bit_value(r.base, r.last(), bit, false));
                let has1 = self
                    .regions
                    .iter()
                    .any(|r| range_has_bit_value(r.base, r.last(), bit, true));
                has0 && has1
            })
            .collect()
    }

    /// Address bits that are frozen to a constant over every mapped address,
    /// with that constant value. These are the bits §3.3 ties off in address
    /// registers and address-manipulation logic.
    pub fn constant_address_bits(&self) -> Vec<(u32, bool)> {
        (0..32)
            .filter_map(|bit| {
                let has0 = self
                    .regions
                    .iter()
                    .any(|r| range_has_bit_value(r.base, r.last(), bit, false));
                let has1 = self
                    .regions
                    .iter()
                    .any(|r| range_has_bit_value(r.base, r.last(), bit, true));
                match (has0, has1) {
                    (true, false) => Some((bit, false)),
                    (false, true) => Some((bit, true)),
                    _ => None,
                }
            })
            .collect()
    }
}

impl fmt::Display for MemoryMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for region in &self.regions {
            writeln!(
                f,
                "{:?}: {:#010x}..={:#010x} ({} bytes)",
                region.kind,
                region.base,
                region.last(),
                region.size
            )?;
        }
        write!(
            f,
            "toggling address bits: {:?}",
            self.toggling_address_bits()
        )
    }
}

/// Sparse word-addressed memory used by the instruction-set simulator.
///
/// Addresses are byte addresses; accesses must be 4-byte aligned.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Memory {
    words: BTreeMap<u32, u32>,
}

impl Memory {
    /// Creates an empty memory (all words read as zero).
    pub fn new() -> Self {
        Memory::default()
    }

    /// Reads the aligned word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn read_word(&self, addr: u32) -> u32 {
        assert_eq!(addr % 4, 0, "unaligned read at {addr:#010x}");
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Writes the aligned word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn write_word(&mut self, addr: u32, value: u32) {
        assert_eq!(addr % 4, 0, "unaligned write at {addr:#010x}");
        self.words.insert(addr, value);
    }

    /// Loads a program image (one word per instruction) starting at `base`.
    pub fn load_words(&mut self, base: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.write_word(base + (i as u32) * 4, w);
        }
    }

    /// Iterates over all explicitly written words in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.words.iter().map(|(&a, &v)| (a, v))
    }

    /// Number of explicitly written words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if no word was ever written.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_bounds() {
        let r = MemRegion::new(0x1000, 0x100, RegionKind::Ram);
        assert_eq!(r.last(), 0x10ff);
        assert!(r.contains(0x1000));
        assert!(r.contains(0x10ff));
        assert!(!r.contains(0x1100));
        assert!(!r.contains(0xfff));
    }

    #[test]
    #[should_panic(expected = "non-zero size")]
    fn zero_size_region_panics() {
        MemRegion::new(0, 0, RegionKind::Ram);
    }

    #[test]
    fn range_bit_values_brute_force() {
        // Compare the analytic helper against brute force on small ranges.
        for lo in 0u32..48 {
            for hi in lo..48 {
                for bit in 0..7u32 {
                    for value in [false, true] {
                        let expected = (lo..=hi).any(|a| ((a >> bit) & 1 == 1) == value);
                        assert_eq!(
                            range_has_bit_value(lo, hi, bit, value),
                            expected,
                            "lo={lo} hi={hi} bit={bit} value={value}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn case_study_map_matches_paper_shape() {
        let map = MemoryMap::date13_case_study();
        let toggling = map.toggling_address_bits();
        // Low bits toggle inside the RAM region (it is 128 KiB = 2^17).
        for bit in 0..17 {
            assert!(toggling.contains(&bit), "bit {bit} should toggle");
        }
        // Bit 30 distinguishes flash from RAM.
        assert!(toggling.contains(&30));
        // Bits 20..=29 and 31 never change.
        for bit in (20..30).chain([31]) {
            assert!(!toggling.contains(&bit), "bit {bit} should be constant");
        }
        let constants = map.constant_address_bits();
        assert!(
            constants.iter().all(|&(_, v)| !v),
            "all frozen bits are 0 here"
        );
        assert!(constants.iter().any(|&(b, _)| b == 31));
        // Sanity: toggling + constant = 32 bits.
        assert_eq!(toggling.len() + constants.len(), 32);
    }

    #[test]
    fn example_map_uses_low_bits_only() {
        let map = MemoryMap::date13_example();
        let toggling = map.toggling_address_bits();
        // 4 KiB + 1 KiB mapped from 0: only bits 0..=12 can change
        // (0x0000..0x13FF).
        assert_eq!(toggling.iter().max(), Some(&12));
        let constants = map.constant_address_bits();
        assert_eq!(constants.len(), 32 - toggling.len());
    }

    #[test]
    fn map_lookup() {
        let map = MemoryMap::date13_case_study();
        assert!(map.contains(0x0007_8000));
        assert!(map.contains(0x4001_ffff));
        assert!(!map.contains(0x4002_0000));
        assert!(!map.contains(0x0));
        assert_eq!(
            map.region_of_kind(RegionKind::Flash).unwrap().base,
            0x0007_8000
        );
        assert!(map.region_of_kind(RegionKind::Peripheral).is_none());
        let text = map.to_string();
        assert!(text.contains("Flash"));
    }

    #[test]
    fn memory_read_write() {
        let mut mem = Memory::new();
        assert_eq!(mem.read_word(0x100), 0);
        mem.write_word(0x100, 0xdeadbeef);
        assert_eq!(mem.read_word(0x100), 0xdeadbeef);
        mem.load_words(0x200, &[1, 2, 3]);
        assert_eq!(mem.read_word(0x208), 3);
        assert_eq!(mem.len(), 4);
        assert!(!mem.is_empty());
        assert_eq!(mem.iter().count(), 4);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let mem = Memory::new();
        mem.read_word(0x102);
    }
}
