//! A DRAM bank: a set of subarrays sharing command/address logic.
//!
//! The bank enforces the one-open-row discipline of the DRAM protocol: all
//! ACTIVATEs between two PRECHARGEs must target the same subarray (the
//! paper's AAP primitive relies on exactly this — the second ACTIVATE of an
//! AAP reaches a subarray whose sense amplifiers are already driving data).

use crate::bitrow::BitRow;
use crate::error::{DramError, Result};
use crate::subarray::{Subarray, SubarrayStats, Wordline};

/// A bank of subarrays with at most one subarray activated at a time.
///
/// # Examples
///
/// ```
/// use ambit_dram::{Bank, BitRow, Wordline};
///
/// let mut bank = Bank::new(2, 16, 64);
/// bank.subarray_mut(0).poke_row(3, BitRow::ones(64));
/// // RowClone-FPM within subarray 0: copy row 3 into row 4.
/// bank.activate(0, &[Wordline::data(3)])?;
/// bank.activate(0, &[Wordline::data(4)])?;
/// bank.precharge()?;
/// assert_eq!(bank.subarray(0).peek_row(4), BitRow::ones(64));
/// # Ok::<(), ambit_dram::DramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Bank {
    subarrays: Vec<Subarray>,
    /// Currently activated subarrays, in activation order (the last one is
    /// the column-access target). Without SALP at most one is open.
    open: Vec<usize>,
    /// Subarray-level parallelism (SALP, Kim et al. ISCA'12): when enabled,
    /// multiple subarrays of the bank may hold open rows simultaneously.
    salp: bool,
}

impl Bank {
    /// Creates a bank of `subarrays` subarrays, each with `rows` rows of
    /// `bits` bits.
    pub fn new(subarrays: usize, rows: usize, bits: usize) -> Self {
        Bank {
            subarrays: (0..subarrays).map(|_| Subarray::new(rows, bits)).collect(),
            open: Vec::new(),
            salp: false,
        }
    }

    /// Enables or disables subarray-level parallelism (SALP). Must be
    /// toggled while the bank is precharged.
    ///
    /// # Panics
    ///
    /// Panics if any subarray is currently activated.
    pub fn set_salp(&mut self, salp: bool) {
        assert!(self.open.is_empty(), "toggle SALP on a precharged bank");
        self.salp = salp;
    }

    /// Whether SALP is enabled.
    pub fn salp(&self) -> bool {
        self.salp
    }

    /// Number of subarrays.
    pub fn subarray_count(&self) -> usize {
        self.subarrays.len()
    }

    /// Immutable access to a subarray.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn subarray(&self, index: usize) -> &Subarray {
        &self.subarrays[index]
    }

    /// Mutable access to a subarray (for test setup / driver backdoors).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn subarray_mut(&mut self, index: usize) -> &mut Subarray {
        &mut self.subarrays[index]
    }

    /// Index of the current column-access subarray (the most recently
    /// activated one), if any.
    pub fn open_subarray(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// All currently open subarrays, in activation order.
    pub fn open_subarrays(&self) -> &[usize] {
        &self.open
    }

    /// Returns `true` if some subarray in the bank is activated.
    pub fn is_activated(&self) -> bool {
        !self.open.is_empty()
    }

    /// Issues an ACTIVATE to `subarray`, raising `wordlines`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::SubarrayConflict`] if a different subarray is
    /// already open, plus any error from
    /// [`Subarray::activate`].
    pub fn activate(&mut self, subarray: usize, wordlines: &[Wordline]) -> Result<&BitRow> {
        if subarray >= self.subarrays.len() {
            return Err(DramError::RowOutOfRange {
                row: subarray,
                rows: self.subarrays.len(),
            });
        }
        if !self.salp {
            if let Some(&open) = self.open.last() {
                if open != subarray {
                    return Err(DramError::SubarrayConflict {
                        open,
                        requested: subarray,
                    });
                }
            }
        }
        let sense = self.subarrays[subarray].activate(wordlines)?;
        if !self.open.contains(&subarray) {
            self.open.push(subarray);
        }
        Ok(sense)
    }

    /// Runs one AAP in `subarray` as one call: ACTIVATE `src`, ACTIVATE
    /// `dst`, then a precharge of that subarray under SALP or of the bank
    /// without it (see [`Subarray::aap`]). Rows, stats, errors and the
    /// bank's open list are those of the three protocol calls.
    ///
    /// A bank with a subarray open, or a subarray index out of range,
    /// takes the three calls themselves, so a conflict surfaces as their
    /// error and leaves their state.
    ///
    /// # Errors
    ///
    /// Any error of [`activate`](Bank::activate),
    /// [`precharge`](Bank::precharge) or
    /// [`precharge_subarray`](Bank::precharge_subarray).
    pub fn aap(&mut self, subarray: usize, src: &[Wordline], dst: &[Wordline]) -> Result<()> {
        if let Some(sa) = self.idle_subarray(subarray) {
            let result = sa.aap(src, dst);
            // A rejected second ACTIVATE leaves the subarray open, as the
            // first protocol call would have recorded it.
            if sa.is_activated() {
                self.open.push(subarray);
            }
            return result;
        }
        self.activate(subarray, src)?;
        self.activate(subarray, dst)?;
        self.close(subarray)
    }

    /// Runs one AP in `subarray` as one call: ACTIVATE `wordlines`, then
    /// the precharge [`aap`](Bank::aap) issues, with the rows, stats,
    /// errors and open list of the two protocol calls.
    ///
    /// # Errors
    ///
    /// Any error of [`activate`](Bank::activate),
    /// [`precharge`](Bank::precharge) or
    /// [`precharge_subarray`](Bank::precharge_subarray).
    pub fn ap(&mut self, subarray: usize, wordlines: &[Wordline]) -> Result<()> {
        if let Some(sa) = self.idle_subarray(subarray) {
            return sa.ap(wordlines);
        }
        self.activate(subarray, wordlines)?;
        self.close(subarray)
    }

    /// `subarray`, when it exists and neither it nor any other subarray of
    /// the bank is open: the state in which an AAP or AP runs in one call.
    fn idle_subarray(&mut self, subarray: usize) -> Option<&mut Subarray> {
        if !self.open.is_empty() {
            return None;
        }
        self.subarrays
            .get_mut(subarray)
            .filter(|sa| !sa.is_activated())
    }

    /// The precharge that ends an AAP or AP: of `subarray` alone under
    /// SALP, of the whole bank without it.
    fn close(&mut self, subarray: usize) -> Result<()> {
        if self.salp {
            self.precharge_subarray(subarray)
        } else {
            self.precharge()
        }
    }

    /// Issues a SALP-style precharge to one subarray, leaving others open.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotActivated`] if that subarray is not
    /// open.
    pub fn precharge_subarray(&mut self, subarray: usize) -> Result<()> {
        match self.open.iter().position(|&s| s == subarray) {
            Some(pos) => {
                self.open.remove(pos);
                self.subarrays[subarray].precharge()
            }
            None => Err(DramError::BankNotActivated),
        }
    }

    /// Issues a bank-level PRECHARGE, closing every open subarray.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotActivated`] if no subarray is open.
    pub fn precharge(&mut self) -> Result<()> {
        if self.open.is_empty() {
            return Err(DramError::BankNotActivated);
        }
        // Drained in place so `open` keeps its capacity for the next
        // ACTIVATE; on an error the drop of the drain still empties it.
        let subarrays = &mut self.subarrays;
        self.open
            .drain(..)
            .try_for_each(|idx| subarrays[idx].precharge())
    }

    /// Reads bytes from the open row buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotActivated`] if no subarray is open, or a
    /// column-range error.
    pub fn read_bytes(&mut self, byte_offset: usize, out: &mut [u8]) -> Result<()> {
        match self.open.last().copied() {
            Some(idx) => self.subarrays[idx].read_bytes(byte_offset, out),
            None => Err(DramError::BankNotActivated),
        }
    }

    /// Writes bytes into the open row buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotActivated`] if no subarray is open, or a
    /// column-range error.
    pub fn write_bytes(&mut self, byte_offset: usize, data: &[u8]) -> Result<()> {
        match self.open.last().copied() {
            Some(idx) => self.subarrays[idx].write_bytes(byte_offset, data),
            None => Err(DramError::BankNotActivated),
        }
    }

    /// Sense-amplifier contents of the column-access subarray, if any.
    pub fn sense(&self) -> Option<&BitRow> {
        self.open
            .last()
            .and_then(|&idx| self.subarrays[idx].sense())
    }

    /// Aggregated command statistics across all subarrays.
    pub fn stats(&self) -> SubarrayStats {
        let mut total = SubarrayStats::default();
        for sa in &self.subarrays {
            total += sa.stats();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subarray_conflict_detected() {
        let mut bank = Bank::new(2, 8, 8);
        bank.activate(0, &[Wordline::data(0)]).unwrap();
        let err = bank.activate(1, &[Wordline::data(0)]).unwrap_err();
        assert_eq!(
            err,
            DramError::SubarrayConflict {
                open: 0,
                requested: 1
            }
        );
        bank.precharge().unwrap();
        bank.activate(1, &[Wordline::data(0)]).unwrap();
        assert_eq!(bank.open_subarray(), Some(1));
    }

    #[test]
    fn same_subarray_back_to_back_is_allowed() {
        let mut bank = Bank::new(2, 8, 8);
        bank.subarray_mut(0).poke_row(1, BitRow::ones(8));
        bank.activate(0, &[Wordline::data(1)]).unwrap();
        bank.activate(0, &[Wordline::data(2)]).unwrap();
        bank.precharge().unwrap();
        assert_eq!(bank.subarray(0).peek_row(2), BitRow::ones(8));
        assert!(!bank.is_activated());
    }

    #[test]
    fn reads_and_writes_require_open_row() {
        let mut bank = Bank::new(1, 4, 64);
        let mut buf = [0u8; 4];
        assert_eq!(
            bank.read_bytes(0, &mut buf).unwrap_err(),
            DramError::BankNotActivated
        );
        bank.activate(0, &[Wordline::data(0)]).unwrap();
        bank.write_bytes(0, &[1, 2, 3, 4]).unwrap();
        bank.read_bytes(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert!(bank.sense().is_some());
    }

    #[test]
    fn salp_allows_multiple_open_subarrays() {
        let mut bank = Bank::new(4, 8, 8);
        bank.set_salp(true);
        bank.subarray_mut(0).poke_row(1, BitRow::ones(8));
        bank.subarray_mut(2).poke_row(1, BitRow::ones(8));
        bank.activate(0, &[Wordline::data(1)]).unwrap();
        bank.activate(2, &[Wordline::data(1)]).unwrap();
        assert_eq!(bank.open_subarrays(), &[0, 2]);
        // Copy in each open subarray independently.
        bank.activate(0, &[Wordline::data(3)]).unwrap();
        bank.activate(2, &[Wordline::data(4)]).unwrap();
        bank.precharge_subarray(0).unwrap();
        assert_eq!(bank.open_subarrays(), &[2]);
        bank.precharge().unwrap();
        assert_eq!(bank.subarray(0).peek_row(3), BitRow::ones(8));
        assert_eq!(bank.subarray(2).peek_row(4), BitRow::ones(8));
    }

    #[test]
    fn salp_precharge_closes_every_open_subarray_in_activation_order() {
        let mut bank = Bank::new(4, 8, 8);
        bank.set_salp(true);
        for sa in [3, 0, 2] {
            bank.activate(sa, &[Wordline::data(1)]).unwrap();
        }
        assert_eq!(bank.open_subarrays(), &[3, 0, 2]);
        bank.precharge().unwrap();
        assert!(bank.open_subarrays().is_empty());
        assert!(!bank.is_activated());
        for sa in [3, 0, 2] {
            assert!(bank.subarray(sa).sense().is_none(), "subarray {sa} closed");
            assert_eq!(bank.subarray(sa).stats().precharges, 1);
        }
        // The list was drained in place, so reopening reuses its buffer.
        assert!(bank.open.capacity() >= 3);
        bank.activate(1, &[Wordline::data(2)]).unwrap();
        bank.activate(3, &[Wordline::data(2)]).unwrap();
        assert_eq!(bank.open_subarrays(), &[1, 3]);
        bank.precharge().unwrap();
        assert_eq!(bank.subarray(3).stats().precharges, 2);

        // A subarray closed behind the bank's back fails the precharge at
        // its place in the order: the earlier one is closed, the later one
        // stays active, and the bank's open list is empty either way.
        for sa in [2, 1, 0] {
            bank.activate(sa, &[Wordline::data(1)]).unwrap();
        }
        bank.subarray_mut(1).precharge().unwrap();
        assert_eq!(bank.precharge().unwrap_err(), DramError::BankNotActivated);
        assert!(bank.subarray(2).sense().is_none());
        assert!(bank.subarray(0).sense().is_some());
        assert!(bank.open_subarrays().is_empty());
    }

    #[test]
    fn salp_toggle_requires_precharged_bank() {
        let mut bank = Bank::new(2, 8, 8);
        bank.activate(0, &[Wordline::data(0)]).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bank.set_salp(true);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn precharge_subarray_requires_open() {
        let mut bank = Bank::new(2, 8, 8);
        assert_eq!(
            bank.precharge_subarray(0).unwrap_err(),
            DramError::BankNotActivated
        );
    }

    #[test]
    fn invalid_subarray_index() {
        let mut bank = Bank::new(2, 8, 8);
        assert!(bank.activate(5, &[Wordline::data(0)]).is_err());
    }

    #[test]
    fn stats_aggregate_across_subarrays() {
        let mut bank = Bank::new(2, 8, 8);
        bank.activate(0, &[Wordline::data(0)]).unwrap();
        bank.precharge().unwrap();
        bank.activate(1, &[Wordline::data(0)]).unwrap();
        bank.precharge().unwrap();
        assert_eq!(bank.stats().activations, 2);
        assert_eq!(bank.stats().precharges, 2);
    }
}
