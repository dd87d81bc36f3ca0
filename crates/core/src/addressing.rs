//! Row address grouping and the B-group decoder (paper Section 5.1,
//! Table 1, Figure 7).
//!
//! Each subarray's address space is split into three groups:
//!
//! * **B-group** — 16 reserved addresses `B0..B15` that map onto the eight
//!   special wordlines (designated rows `T0..T3`, and the d-/n-wordlines of
//!   the two dual-contact rows `DCC0`/`DCC1`), singly or in pre-wired
//!   pairs/triples. Triple addresses trigger triple-row activations.
//! * **C-group** — two pre-initialized control rows: `C0` (all zeros) and
//!   `C1` (all ones).
//! * **D-group** — the remaining addresses, exposed to software as regular
//!   data rows.

use ambit_dram::Wordline;

use crate::error::{AmbitError, Result};

/// A row address within one subarray, as seen by the Ambit controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowAddress {
    /// A bitwise-group reserved address, `B0`–`B15`.
    B(u8),
    /// A control-group address: `C(0)` = all zeros, `C(1)` = all ones.
    C(u8),
    /// A data-group address, `D0`–`D(n-1)`.
    D(usize),
}

impl std::fmt::Display for RowAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowAddress::B(i) => write!(f, "B{i}"),
            RowAddress::C(i) => write!(f, "C{i}"),
            RowAddress::D(i) => write!(f, "D{i}"),
        }
    }
}

/// The wordlines one row address raises: one, or a pre-wired pair or
/// triple of the B-group. Stored inline, so decoding an address allocates
/// nothing; it dereferences to the raised `&[Wordline]`.
#[derive(Clone, Copy)]
pub struct Wordlines {
    lines: [Wordline; 3],
    len: u8,
}

impl Wordlines {
    fn of<const N: usize>(raised: [Wordline; N]) -> Self {
        let mut lines = [Wordline::data(0); 3];
        lines[..N].copy_from_slice(&raised);
        Wordlines {
            lines,
            len: N as u8,
        }
    }
}

impl std::ops::Deref for Wordlines {
    type Target = [Wordline];

    fn deref(&self) -> &[Wordline] {
        &self.lines[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for Wordlines {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Physical placement of the special rows within each subarray, and the
/// B-group decode table.
///
/// The layout puts the eight special row-equivalents and the two control
/// rows at the bottom of the subarray, directly adjacent to the sense
/// amplifiers as in the paper's Figure 7, followed by the data rows:
///
/// | physical row | contents |
/// |---|---|
/// | 0–3 | designated rows T0–T3 |
/// | 4 | DCC0 (d- and n-wordline) |
/// | 5 | DCC1 (d- and n-wordline) |
/// | 6 | C0 (all zeros) |
/// | 7 | C1 (all ones) |
/// | 8… | data rows D0… |
///
/// Of the `rows_per_subarray` physical rows, `rows_per_subarray − 18` are
/// exposed as D-group addresses, matching the paper's 1006 data addresses
/// for a 1024-row subarray (1024 − 16 B-addresses − 2 C-addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubarrayLayout {
    rows_per_subarray: usize,
}

/// Physical row index of designated row T0.
pub const ROW_T0: usize = 0;
/// Physical row index of designated row T1.
pub const ROW_T1: usize = 1;
/// Physical row index of designated row T2.
pub const ROW_T2: usize = 2;
/// Physical row index of designated row T3.
pub const ROW_T3: usize = 3;
/// Physical row index of dual-contact row DCC0.
pub const ROW_DCC0: usize = 4;
/// Physical row index of dual-contact row DCC1.
pub const ROW_DCC1: usize = 5;
/// Physical row index of control row C0 (all zeros).
pub const ROW_C0: usize = 6;
/// Physical row index of control row C1 (all ones).
pub const ROW_C1: usize = 7;
/// Physical row index of the first data row (D0).
pub const ROW_D0: usize = 8;

impl SubarrayLayout {
    /// Creates the layout for subarrays of `rows_per_subarray` rows.
    ///
    /// # Panics
    ///
    /// Panics if the subarray is too small to hold the reserved rows plus
    /// at least one data row.
    pub fn new(rows_per_subarray: usize) -> Self {
        assert!(
            rows_per_subarray > 18,
            "subarray of {rows_per_subarray} rows cannot hold the Ambit reserved rows and address groups"
        );
        SubarrayLayout { rows_per_subarray }
    }

    /// Number of D-group addresses exposed to software per subarray.
    ///
    /// Reserves 16 B-group and 2 C-group addresses out of the row address
    /// space (paper: 1006 of 1024).
    pub fn data_rows(&self) -> usize {
        self.rows_per_subarray - 18
    }

    /// Physical rows per subarray.
    pub fn rows_per_subarray(&self) -> usize {
        self.rows_per_subarray
    }

    /// Physical row index of data address `Dk`.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::DataRowOutOfRange`] if `k` exceeds the D-group.
    pub fn data_row(&self, k: usize) -> Result<usize> {
        if k >= self.data_rows() {
            return Err(AmbitError::DataRowOutOfRange {
                index: k,
                available: self.data_rows(),
            });
        }
        Ok(ROW_D0 + k)
    }

    /// Decodes a row address into the set of wordlines the split row
    /// decoder raises (paper Table 1).
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::Dram`] with an unmapped-address error for
    /// B-group indices above 15 or C-group indices above 1, and
    /// [`AmbitError::DataRowOutOfRange`] for bad D indices.
    pub fn decode(&self, address: RowAddress) -> Result<Wordlines> {
        use ambit_dram::DramError::UnmappedAddress;
        let (d, n) = (Wordline::data, Wordline::negated);
        Ok(match address {
            RowAddress::B(0) => Wordlines::of([d(ROW_T0)]),
            RowAddress::B(1) => Wordlines::of([d(ROW_T1)]),
            RowAddress::B(2) => Wordlines::of([d(ROW_T2)]),
            RowAddress::B(3) => Wordlines::of([d(ROW_T3)]),
            RowAddress::B(4) => Wordlines::of([d(ROW_DCC0)]),
            RowAddress::B(5) => Wordlines::of([n(ROW_DCC0)]),
            RowAddress::B(6) => Wordlines::of([d(ROW_DCC1)]),
            RowAddress::B(7) => Wordlines::of([n(ROW_DCC1)]),
            RowAddress::B(8) => Wordlines::of([n(ROW_DCC0), d(ROW_T0)]),
            RowAddress::B(9) => Wordlines::of([n(ROW_DCC1), d(ROW_T1)]),
            RowAddress::B(10) => Wordlines::of([d(ROW_T2), d(ROW_T3)]),
            RowAddress::B(11) => Wordlines::of([d(ROW_T0), d(ROW_T3)]),
            RowAddress::B(12) => Wordlines::of([d(ROW_T0), d(ROW_T1), d(ROW_T2)]),
            RowAddress::B(13) => Wordlines::of([d(ROW_T1), d(ROW_T2), d(ROW_T3)]),
            RowAddress::B(14) => Wordlines::of([d(ROW_DCC0), d(ROW_T1), d(ROW_T2)]),
            RowAddress::B(15) => Wordlines::of([d(ROW_DCC1), d(ROW_T0), d(ROW_T3)]),
            RowAddress::B(i) => {
                return Err(UnmappedAddress { address: i as usize }.into());
            }
            RowAddress::C(0) => Wordlines::of([d(ROW_C0)]),
            RowAddress::C(1) => Wordlines::of([d(ROW_C1)]),
            RowAddress::C(i) => {
                return Err(UnmappedAddress { address: i as usize }.into());
            }
            RowAddress::D(k) => Wordlines::of([d(self.data_row(k)?)]),
        })
    }

    /// Number of wordlines raised by an address — the activation-energy
    /// multiplier of Section 7 ("22 % for each additional wordline").
    ///
    /// # Errors
    ///
    /// Same conditions as [`decode`](Self::decode).
    pub fn wordline_count(&self, address: RowAddress) -> Result<usize> {
        Ok(self.decode(address)?.len())
    }

    /// Whether `address` is decoded by the small B-group decoder (true) or
    /// the regular C/D decoder (false) — the split of Section 5.3.
    pub fn uses_b_decoder(&self, address: RowAddress) -> bool {
        matches!(address, RowAddress::B(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambit_dram::BitlineSide;

    fn layout() -> SubarrayLayout {
        SubarrayLayout::new(1024)
    }

    #[test]
    fn d_group_matches_paper_1006() {
        assert_eq!(layout().data_rows(), 1006, "paper: 1006 D addresses per 1024-row subarray");
    }

    #[test]
    fn single_b_addresses_map_to_individual_wordlines() {
        // Table 1, B0–B7: each activates one wordline.
        let l = layout();
        for i in 0..8u8 {
            let wls = l.decode(RowAddress::B(i)).unwrap();
            assert_eq!(wls.len(), 1, "B{i}");
        }
        // B5/B7 are the n-wordlines.
        assert_eq!(l.decode(RowAddress::B(5)).unwrap()[0].side, BitlineSide::BitlineBar);
        assert_eq!(l.decode(RowAddress::B(7)).unwrap()[0].side, BitlineSide::BitlineBar);
        assert_eq!(l.decode(RowAddress::B(4)).unwrap()[0].side, BitlineSide::Bitline);
    }

    #[test]
    fn dual_b_addresses_match_table1() {
        let l = layout();
        // B8 = {DCC0-bar, T0}.
        let b8 = l.decode(RowAddress::B(8)).unwrap();
        assert_eq!(*b8, [Wordline::negated(ROW_DCC0), Wordline::data(ROW_T0)]);
        // B9 = {DCC1-bar, T1}; B10 = {T2, T3}; B11 = {T0, T3}.
        assert_eq!(
            *l.decode(RowAddress::B(9)).unwrap(),
            [Wordline::negated(ROW_DCC1), Wordline::data(ROW_T1)]
        );
        assert_eq!(
            *l.decode(RowAddress::B(10)).unwrap(),
            [Wordline::data(ROW_T2), Wordline::data(ROW_T3)]
        );
        assert_eq!(
            *l.decode(RowAddress::B(11)).unwrap(),
            [Wordline::data(ROW_T0), Wordline::data(ROW_T3)]
        );
    }

    #[test]
    fn triple_b_addresses_match_table1() {
        let l = layout();
        for (addr, rows) in [
            (12u8, [ROW_T0, ROW_T1, ROW_T2]),
            (13, [ROW_T1, ROW_T2, ROW_T3]),
            (14, [ROW_DCC0, ROW_T1, ROW_T2]),
            (15, [ROW_DCC1, ROW_T0, ROW_T3]),
        ] {
            let wls = l.decode(RowAddress::B(addr)).unwrap();
            assert_eq!(wls.len(), 3, "B{addr}");
            let got: Vec<usize> = wls.iter().map(|w| w.row).collect();
            assert_eq!(got, rows.to_vec(), "B{addr}");
            assert!(
                wls.iter().all(|w| w.side == BitlineSide::Bitline),
                "TRAs use d-wordlines"
            );
        }
    }

    #[test]
    fn wordline_counts_for_energy_model() {
        let l = layout();
        assert_eq!(l.wordline_count(RowAddress::B(0)).unwrap(), 1);
        assert_eq!(l.wordline_count(RowAddress::B(8)).unwrap(), 2);
        assert_eq!(l.wordline_count(RowAddress::B(12)).unwrap(), 3);
        assert_eq!(l.wordline_count(RowAddress::C(1)).unwrap(), 1);
        assert_eq!(l.wordline_count(RowAddress::D(100)).unwrap(), 1);
    }

    #[test]
    fn data_rows_come_after_reserved_rows() {
        let l = layout();
        assert_eq!(l.data_row(0).unwrap(), ROW_D0);
        assert_eq!(l.data_row(1005).unwrap(), ROW_D0 + 1005);
        assert!(l.data_row(1006).is_err());
    }

    #[test]
    fn invalid_addresses_rejected() {
        let l = layout();
        assert!(l.decode(RowAddress::B(16)).is_err());
        assert!(l.decode(RowAddress::C(2)).is_err());
        assert!(l.decode(RowAddress::D(5000)).is_err());
    }

    #[test]
    fn b_decoder_split() {
        let l = layout();
        assert!(l.uses_b_decoder(RowAddress::B(3)));
        assert!(!l.uses_b_decoder(RowAddress::C(0)));
        assert!(!l.uses_b_decoder(RowAddress::D(9)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(RowAddress::B(12).to_string(), "B12");
        assert_eq!(RowAddress::C(1).to_string(), "C1");
        assert_eq!(RowAddress::D(42).to_string(), "D42");
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn tiny_subarray_rejected() {
        SubarrayLayout::new(8);
    }
}
