//! DDR3-style DRAM timing model.
//!
//! Models the paper's `DDR3-1600 11-11-11-28 800MHz` part (Table I): per-bank
//! row buffers with activate/precharge/CAS timing and a shared data bus.
//! Banks are selected by permutation-based (XOR) interleaving, as in real controllers, so power-of-two-strided streams spread across banks.

use crate::time::{Freq, Time};

/// Static DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks.
    pub banks: usize,
    /// CAS latency in DRAM-clock cycles.
    pub t_cas: u64,
    /// RAS-to-CAS (activate) latency in cycles.
    pub t_rcd: u64,
    /// Precharge latency in cycles.
    pub t_rp: u64,
    /// Data-bus occupancy of one burst (64-byte line) in cycles.
    pub burst_cycles: u64,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// DRAM command/data clock.
    pub clock: Freq,
}

impl DramConfig {
    /// The paper's DDR3-1600 11-11-11-28 configuration at 800 MHz.
    pub fn ddr3_1600() -> DramConfig {
        DramConfig {
            banks: 8,
            t_cas: 11,
            t_rcd: 11,
            t_rp: 11,
            // 64B line over a 64-bit DDR bus: 8 beats = 4 clock cycles.
            burst_cycles: 4,
            row_bytes: 8192,
            clock: Freq::from_mhz(800),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Time,
}

/// Running DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total requests served.
    pub requests: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that required precharge + activate.
    pub row_conflicts: u64,
    /// Requests to an idle (closed) bank.
    pub row_empty: u64,
}

/// A multi-bank DRAM device with open-page policy.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_free: Time,
    /// Statistics (public for the experiment harness).
    pub stats: DramStats,
}

impl Dram {
    /// Creates an idle DRAM device.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or `row_bytes` is not a power
    /// of two.
    pub fn new(cfg: DramConfig) -> Dram {
        assert!(cfg.banks.is_power_of_two(), "bank count must be a power of two");
        assert!(cfg.row_bytes.is_power_of_two(), "row size must be a power of two");
        Dram {
            banks: vec![Bank::default(); cfg.banks],
            bus_free: Time::ZERO,
            stats: DramStats::default(),
            cfg,
        }
    }

    /// This device's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn map(&self, addr: u64) -> (usize, u64) {
        let row_shift = self.cfg.row_bytes.trailing_zeros();
        let bank_bits = (self.cfg.banks as u64).trailing_zeros();
        let mask = self.cfg.banks as u64 - 1;
        let row = addr >> (row_shift + bank_bits);
        // Permutation-based interleaving (XOR of the bank field with low
        // row bits, as in real DDR controllers): power-of-two-strided
        // streams spread across banks instead of colliding in one.
        let bank = (((addr >> row_shift) & mask) ^ (row & mask)) as usize;
        (bank, row)
    }

    /// Performs a timed access (reads and writes are costed identically,
    /// as is standard for close-page-free models at this fidelity).
    ///
    /// Returns the absolute completion time of the data transfer.
    pub fn access(&mut self, addr: u64, now: Time) -> Time {
        self.stats.requests += 1;
        let (bank_idx, row) = self.map(addr);
        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.busy_until);
        let cycles = match bank.open_row {
            Some(r) if r == row => {
                self.stats.row_hits += 1;
                self.cfg.t_cas
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
            }
            None => {
                self.stats.row_empty += 1;
                self.cfg.t_rcd + self.cfg.t_cas
            }
        };
        bank.open_row = Some(row);
        let data_ready = start + self.cfg.clock.cycles(cycles);
        // Serialize bursts on the shared data bus.
        let burst_start = data_ready.max(self.bus_free);
        let done = burst_start + self.cfg.clock.cycles(self.cfg.burst_cycles);
        self.bus_free = done;
        bank.busy_until = done;
        done
    }

    /// Timed *observation*: computes when a read of `addr` would complete
    /// against the current bank/bus state without mutating it — no row is
    /// opened, no bus or bank occupancy is reserved, no statistics move.
    /// The counterpart of [`Cache::observe`](crate::Cache::observe) for
    /// secondary clock domains sharing the primary run's DRAM state.
    pub fn observe(&self, addr: u64, now: Time) -> Time {
        let (bank_idx, row) = self.map(addr);
        let bank = &self.banks[bank_idx];
        let start = now.max(bank.busy_until);
        let cycles = match bank.open_row {
            Some(r) if r == row => self.cfg.t_cas,
            Some(_) => self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas,
            None => self.cfg.t_rcd + self.cfg.t_cas,
        };
        let data_ready = start + self.cfg.clock.cycles(cycles);
        data_ready.max(self.bus_free) + self.cfg.clock.cycles(self.cfg.burst_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::ddr3_1600())
    }

    /// 800 MHz clock period.
    fn cyc(n: u64) -> Time {
        Freq::from_mhz(800).cycles(n)
    }

    #[test]
    fn first_access_is_row_empty() {
        let mut d = dram();
        let done = d.access(0x0, Time::ZERO);
        // RCD + CAS + burst = 11 + 11 + 4 cycles @ 800MHz
        assert_eq!(done, cyc(26));
        assert_eq!(d.stats.row_empty, 1);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = dram();
        let t1 = d.access(0x0, Time::ZERO);
        let t2 = d.access(0x40, t1);
        assert_eq!(t2 - t1, cyc(11 + 4)); // CAS + burst
        assert_eq!(d.stats.row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dram();
        let t1 = d.access(0x0, Time::ZERO); // bank 0, row 0

        // Same bank, different row under XOR interleave: row 1 with bank
        // field 1 maps back to bank 1^1 = 0.
        let conflict_addr = (1u64 << 16) + (1u64 << 13);
        assert_eq!(d.map(conflict_addr).0, 0);
        let t2 = d.access(conflict_addr, t1);
        assert_eq!(t2 - t1, cyc(11 + 11 + 11 + 4));
        assert_eq!(d.stats.row_conflicts, 1);
    }

    #[test]
    fn different_banks_overlap_but_share_bus() {
        let mut d = dram();
        let a = d.access(0x0, Time::ZERO); // bank 0

        // Bank 1, issued the same instant: its CAS overlaps bank 0's, but
        // the burst must wait for the bus.
        let b = d.access(8192, Time::ZERO);
        assert_eq!(a, cyc(26));
        assert_eq!(b, cyc(30)); // burst serialized: 26 + 4
    }

    #[test]
    fn busy_bank_queues() {
        let mut d = dram();
        let t1 = d.access(0x0, Time::ZERO);
        let t2 = d.access(0x80, Time::ZERO); // same bank, same row, issued at 0
        assert_eq!(t2, t1 + cyc(11 + 4)); // waits for bank, then row hit
    }

    #[test]
    fn mapping_spreads_banks() {
        let d = dram();
        let (b0, _) = d.map(0);
        let (b1, _) = d.map(8192);
        let (b7, _) = d.map(8192 * 7);
        assert_eq!(b0, 0);
        assert_eq!(b1, 1);
        assert_eq!(b7, 7);
        // XOR interleave: consecutive rows permute the bank assignment, so
        // 64KiB-strided streams do not pile onto one bank.
        let (b_next_row, r1) = d.map(8192 * 8);
        assert_eq!(r1, 1);
        assert_eq!(b_next_row, 1);
        // Two 128KiB-apart addresses (same bank field, rows 0 and 2) land
        // on different banks.
        assert_ne!(d.map(0x100000).0, d.map(0x120000).0);
    }
}
