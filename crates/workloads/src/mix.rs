//! Workload shapes (§IV-A2): operation mixes and the operation type.

/// A single index operation in a generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup of a key.
    Read(u64),
    /// Insert of a fresh key with a value.
    Insert(u64, u64),
    /// Remove of a key (shift workloads; the classic mixes never
    /// generate it).
    Remove(u64),
    /// Scan `n` entries starting at the key.
    Scan(u64, usize),
}

/// An operation mix in percent (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Percent point reads.
    pub read_pct: u8,
    /// Percent inserts.
    pub insert_pct: u8,
    /// Percent scans.
    pub scan_pct: u8,
}

impl Mix {
    /// 100% reads (Fig 7(a)).
    pub const READ_ONLY: Mix = Mix::new(100, 0, 0);
    /// 80% reads / 20% inserts (Fig 7(b)).
    pub const READ_HEAVY: Mix = Mix::new(80, 20, 0);
    /// 50/50 (Fig 7(c), Table I, Fig 9).
    pub const BALANCED: Mix = Mix::new(50, 50, 0);
    /// 20% reads / 80% inserts (Fig 7(d)).
    pub const WRITE_HEAVY: Mix = Mix::new(20, 80, 0);
    /// 100% inserts (Fig 7(e)).
    pub const WRITE_ONLY: Mix = Mix::new(0, 100, 0);
    /// 100% scans of 100 keys (Fig 8(c)).
    pub const SCAN: Mix = Mix::new(0, 0, 100);

    /// A custom mix; percentages must sum to 100.
    pub const fn new(read_pct: u8, insert_pct: u8, scan_pct: u8) -> Mix {
        assert!(read_pct as u16 + insert_pct as u16 + scan_pct as u16 == 100);
        Mix {
            read_pct,
            insert_pct,
            scan_pct,
        }
    }

    /// Display label matching the paper's terminology.
    pub fn label(&self) -> &'static str {
        match (self.read_pct, self.insert_pct, self.scan_pct) {
            (100, 0, 0) => "read-only",
            (80, 20, 0) => "read-heavy",
            (50, 50, 0) => "balanced",
            (20, 80, 0) => "write-heavy",
            (0, 100, 0) => "write-only",
            (0, 0, 100) => "scan",
            _ => "custom",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_ratios() {
        assert_eq!(Mix::READ_ONLY.label(), "read-only");
        assert_eq!(Mix::BALANCED.label(), "balanced");
        assert_eq!(Mix::SCAN.label(), "scan");
        assert_eq!(Mix::new(30, 70, 0).label(), "custom");
    }
}
