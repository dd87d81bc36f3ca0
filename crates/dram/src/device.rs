//! A whole DRAM device: channels → ranks → banks → subarrays.

use ambit_telemetry::Registry;

use crate::bank::Bank;
use crate::bitrow::BitRow;
use crate::error::Result;
use crate::geometry::{BankId, DramGeometry, RowLocation};
use crate::subarray::{SubarrayStats, TieBreak, Wordline};

/// A functional DRAM device laid out per a [`DramGeometry`].
///
/// Rows are stored sparsely, so instantiating a multi-gigabyte geometry is
/// cheap until rows are actually written.
///
/// # Examples
///
/// ```
/// use ambit_dram::{DramDevice, DramGeometry, RowLocation, BitRow, Wordline};
///
/// let mut dev = DramDevice::new(DramGeometry::tiny());
/// let loc = RowLocation::in_bank0(0, 5);
/// dev.poke(loc, BitRow::ones(dev.geometry().row_bits()));
/// assert_eq!(dev.peek(loc).count_ones(), dev.geometry().row_bits());
/// ```
#[derive(Debug, Clone)]
pub struct DramDevice {
    geometry: DramGeometry,
    banks: Vec<Bank>,
}

impl DramDevice {
    /// Creates a device with all cells zero.
    pub fn new(geometry: DramGeometry) -> Self {
        let banks = (0..geometry.total_banks())
            .map(|bank| {
                let mut b = Bank::new(
                    geometry.subarrays_per_bank,
                    geometry.rows_per_subarray,
                    geometry.row_bits(),
                );
                // Decorrelate each subarray's tie/fault RNG: physically
                // independent arrays must not share a fault stream, or one
                // transient fault pattern repeats across TMR replicas and
                // defeats majority voting. Flat index 0 keeps the
                // documented default stream.
                for s in 0..geometry.subarrays_per_bank {
                    b.subarray_mut(s)
                        .reseed_rng((bank * geometry.subarrays_per_bank + s) as u64);
                }
                b
            })
            .collect();
        DramDevice { geometry, banks }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Immutable access to a bank.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the geometry.
    pub fn bank(&self, id: BankId) -> &Bank {
        &self.banks[id.flat_index(&self.geometry)]
    }

    /// Mutable access to a bank.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the geometry.
    pub fn bank_mut(&mut self, id: BankId) -> &mut Bank {
        let idx = id.flat_index(&self.geometry);
        &mut self.banks[idx]
    }

    /// Iterates over all bank ids in flat order.
    pub fn bank_ids(&self) -> impl Iterator<Item = BankId> + '_ {
        (0..self.geometry.total_banks()).map(|i| BankId::from_flat_index(i, &self.geometry))
    }

    /// Mutable access to every bank at once, in flat-index order.
    ///
    /// This is the ownership-splitting hook for wall-clock parallel
    /// execution: banks share no state, so `iter_mut()` over this slice
    /// hands each OS thread exclusive `&mut Bank` access to a distinct
    /// bank while the borrow checker proves the split is race-free.
    pub fn banks_mut(&mut self) -> &mut [Bank] {
        &mut self.banks
    }

    /// Issues an ACTIVATE to the subarray holding `location.bank`,
    /// raising `wordlines` in `location.subarray`.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors from the bank/subarray model.
    pub fn activate(&mut self, bank: BankId, subarray: usize, wordlines: &[Wordline]) -> Result<()> {
        self.bank_mut(bank).activate(subarray, wordlines)?;
        Ok(())
    }

    /// Issues a PRECHARGE to a bank.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors from the bank model.
    pub fn precharge(&mut self, bank: BankId) -> Result<()> {
        self.bank_mut(bank).precharge()
    }

    /// Reads a full row through the command protocol: ACTIVATE, column reads,
    /// PRECHARGE. Returns the row contents.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors; the bank must be precharged on entry.
    pub fn read_row(&mut self, loc: RowLocation) -> Result<BitRow> {
        let bank = self.bank_mut(loc.bank);
        bank.activate(loc.subarray, &[Wordline::data(loc.row)])?;
        let sense = bank
            .sense()
            .expect("bank is activated; sense buffer present")
            .clone();
        bank.precharge()?;
        Ok(sense)
    }

    /// Writes a full row through the command protocol: ACTIVATE, column
    /// writes, PRECHARGE.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors; the bank must be precharged on entry.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not match the row width.
    pub fn write_row(&mut self, loc: RowLocation, data: &BitRow) -> Result<()> {
        assert_eq!(data.len(), self.geometry.row_bits(), "row width mismatch");
        let bank = self.bank_mut(loc.bank);
        bank.activate(loc.subarray, &[Wordline::data(loc.row)])?;
        bank.write_bytes(0, &data.to_bytes())?;
        bank.precharge()
    }

    /// Direct cell read bypassing the protocol (test/initialization path).
    pub fn peek(&self, loc: RowLocation) -> BitRow {
        self.bank(loc.bank).subarray(loc.subarray).peek_row(loc.row)
    }

    /// Direct cell write bypassing the protocol (test/initialization path).
    ///
    /// # Panics
    ///
    /// Panics if `data` does not match the row width.
    pub fn poke(&mut self, loc: RowLocation, data: BitRow) {
        self.bank_mut(loc.bank)
            .subarray_mut(loc.subarray)
            .poke_row(loc.row, data);
    }

    /// Applies a tie-break policy to every subarray.
    pub fn set_tie_break(&mut self, policy: TieBreak) {
        for bank in &mut self.banks {
            for i in 0..bank.subarray_count() {
                bank.subarray_mut(i).set_tie_break(policy);
            }
        }
    }

    /// Applies a retention window (or disables checking) device-wide.
    pub fn set_retention_window(&mut self, window_ns: Option<u64>) {
        for bank in &mut self.banks {
            for i in 0..bank.subarray_count() {
                bank.subarray_mut(i).set_retention_window(window_ns);
            }
        }
    }

    /// Advances simulated time device-wide (for retention checks).
    pub fn advance_time_ns(&mut self, delta_ns: u64) {
        for bank in &mut self.banks {
            for i in 0..bank.subarray_count() {
                bank.subarray_mut(i).advance_time_ns(delta_ns);
            }
        }
    }

    /// Refreshes every row in the device.
    pub fn refresh_all(&mut self) {
        for bank in &mut self.banks {
            for i in 0..bank.subarray_count() {
                bank.subarray_mut(i).refresh_all();
            }
        }
    }

    /// Aggregated statistics over all banks.
    pub fn stats(&self) -> SubarrayStats {
        let mut total = SubarrayStats::default();
        for bank in &self.banks {
            total += bank.stats();
        }
        total
    }

    /// Registers the charge-share path-split counters
    /// (`ambit_charge_share_path_total{path=...}`) with `registry` and
    /// installs them in every subarray, making the word-parallel vs scalar
    /// split observable in the Prometheus exposition. `path="scalar"` is
    /// the path that consumes the fault RNG: fault-armed TRAs count there
    /// although the word kernel resolves them.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        let help = "Multi-row charge shares by resolution path";
        let word_parallel = registry.counter(
            "ambit_charge_share_path_total",
            help,
            &[("path", "word_parallel")],
        );
        let scalar = registry.counter("ambit_charge_share_path_total", help, &[("path", "scalar")]);
        for bank in &mut self.banks {
            for i in 0..bank.subarray_count() {
                bank.subarray_mut(i)
                    .set_charge_share_counters(word_parallel.clone(), scalar.clone());
            }
        }
    }
}

// The data plane is plain owned data (telemetry counters are atomics
// behind `Arc`), so the whole device hierarchy is `Send + Sync` by
// construction. Assert it at compile time: a field regressing to `Rc`,
// `Cell`, or a raw pointer would break the batch fan-out.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<crate::subarray::Subarray>();
    assert_send_sync::<crate::bank::Bank>();
    assert_send_sync::<DramDevice>();
    assert_send_sync::<crate::controller::CommandTimer>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_row_roundtrip() {
        let g = DramGeometry::tiny();
        let mut dev = DramDevice::new(g);
        let loc = RowLocation::in_bank0(1, 7);
        let data = BitRow::from_fn(g.row_bits(), |i| i % 3 == 0);
        dev.write_row(loc, &data).unwrap();
        assert_eq!(dev.read_row(loc).unwrap(), data);
    }

    #[test]
    fn banks_are_independent() {
        let g = DramGeometry::tiny();
        let mut dev = DramDevice::new(g);
        let b0 = BankId::zero();
        let b1 = BankId {
            channel: 0,
            rank: 0,
            bank: 1,
        };
        // Both banks can hold an open row simultaneously.
        dev.activate(b0, 0, &[Wordline::data(0)]).unwrap();
        dev.activate(b1, 1, &[Wordline::data(3)]).unwrap();
        assert!(dev.bank(b0).is_activated());
        assert!(dev.bank(b1).is_activated());
        dev.precharge(b0).unwrap();
        dev.precharge(b1).unwrap();
    }

    #[test]
    fn peek_poke_roundtrip_sparse() {
        let g = DramGeometry::micro17();
        let mut dev = DramDevice::new(g); // 2 GiB logical; sparse storage
        let loc = RowLocation {
            bank: BankId {
                channel: 0,
                rank: 0,
                bank: 15,
            },
            subarray: 15,
            row: 1023,
        };
        assert_eq!(dev.peek(loc).count_ones(), 0);
        dev.poke(loc, BitRow::ones(g.row_bits()));
        assert_eq!(dev.peek(loc).count_ones(), g.row_bits());
    }

    #[test]
    fn stats_aggregate_device_wide() {
        let mut dev = DramDevice::new(DramGeometry::tiny());
        for id in dev.bank_ids().collect::<Vec<_>>() {
            dev.activate(id, 0, &[Wordline::data(0)]).unwrap();
            dev.precharge(id).unwrap();
        }
        assert_eq!(dev.stats().activations, 2);
    }
}
