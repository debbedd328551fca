//! A sector-version mirror used by tests and crash verification: every
//! acknowledged write records the expected generation per sector, every
//! read's [`crate::scheme::ServedSector`] list is checked against it. This
//! proves read-your-writes through across-page remapping, AMerge,
//! ARollback, read-modify-write and GC migration.

use std::collections::HashMap;

use crate::request::HostRequest;
use crate::scheme::ServedSector;

/// The expected state of the logical address space.
#[derive(Debug, Default)]
pub struct Oracle {
    expected: HashMap<u64, u64>,
    /// Latest generation issued (0 before the first stamp).
    version: u64,
}

/// A mismatch between what a read served and what the oracle expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// The logical sector that was misread.
    pub sector: u64,
    /// Write generation the oracle expected.
    pub expected: u64,
    /// Write generation the device actually served.
    pub served: u64,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sector {}: served version {} but expected {}",
            self.sector, self.served, self.expected
        )
    }
}

impl Oracle {
    /// An empty oracle (no sectors written yet).
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Stamp a write request with the next generation and record it.
    /// Call *before* handing the request to the scheme.
    pub fn stamp_write(&mut self, req: &mut HostRequest) {
        self.stamp(req);
        self.acknowledge(req);
    }

    /// Stamp a write request with the next generation without recording
    /// it: its sectors are expected only once [`Self::acknowledge`]d, so
    /// a write a power cut tore is never expected.
    pub fn stamp(&mut self, req: &mut HostRequest) {
        self.version += 1;
        req.version = self.version;
    }

    /// Record an acknowledged write's sectors at its stamped generation.
    pub fn acknowledge(&mut self, req: &HostRequest) {
        for s in req.sector..req.end_sector() {
            self.expected.insert(s, req.version);
        }
    }

    /// Every sector ever recorded, in ascending order.
    pub fn sectors(&self) -> Vec<u64> {
        let mut sectors: Vec<u64> = self.expected.keys().copied().collect();
        sectors.sort_unstable();
        sectors
    }

    /// Check a read's provenance; returns every violation (empty = pass).
    pub fn check_read(&self, req: &HostRequest, served: &[ServedSector]) -> Vec<OracleViolation> {
        let mut violations = Vec::new();
        // Every requested sector must be reported exactly once.
        if served.len() as u64 != u64::from(req.sectors) {
            violations.push(OracleViolation {
                sector: req.sector,
                expected: u64::from(req.sectors),
                served: served.len() as u64,
            });
        }
        for s in served {
            let want = self.expected.get(&s.sector).copied().unwrap_or(0);
            if s.version != want {
                violations.push(OracleViolation {
                    sector: s.sector,
                    expected: want,
                    served: s.version,
                });
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_and_check_happy_path() {
        let mut o = Oracle::new();
        let mut w = HostRequest::write(0, 10, 2);
        o.stamp_write(&mut w);
        assert_eq!(w.version, 1);
        let r = HostRequest::read(0, 10, 2);
        let served = vec![
            ServedSector {
                sector: 10,
                version: 1,
            },
            ServedSector {
                sector: 11,
                version: 1,
            },
        ];
        assert!(o.check_read(&r, &served).is_empty());
    }

    #[test]
    fn stale_read_detected() {
        let mut o = Oracle::new();
        let mut w1 = HostRequest::write(0, 10, 2);
        o.stamp_write(&mut w1);
        let mut w2 = HostRequest::write(0, 10, 1);
        o.stamp_write(&mut w2);
        let r = HostRequest::read(0, 10, 2);
        // Sector 10 stale (v1 instead of v2).
        let served = vec![
            ServedSector {
                sector: 10,
                version: 1,
            },
            ServedSector {
                sector: 11,
                version: 1,
            },
        ];
        let v = o.check_read(&r, &served);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].sector, 10);
        assert_eq!(v[0].expected, 2);
    }

    #[test]
    fn an_unacknowledged_write_is_never_expected() {
        let mut o = Oracle::new();
        let mut acked = HostRequest::write(0, 10, 2);
        o.stamp(&mut acked);
        o.acknowledge(&acked);
        let mut torn = HostRequest::write(0, 11, 2);
        o.stamp(&mut torn);
        assert_eq!((acked.version, torn.version), (1, 2));
        assert_eq!(o.sectors(), vec![10, 11]);
        let r = HostRequest::read(0, 10, 3);
        let served = |v11| {
            [(10, 1), (11, v11), (12, 0)].map(|(sector, version)| ServedSector { sector, version })
        };
        assert!(o.check_read(&r, &served(1)).is_empty());
        assert_eq!(
            o.check_read(&r, &served(2)).len(),
            1,
            "torn generation served"
        );
    }

    #[test]
    fn missing_sector_detected() {
        let o = Oracle::new();
        let r = HostRequest::read(0, 0, 4);
        let served = vec![ServedSector {
            sector: 0,
            version: 0,
        }];
        assert!(!o.check_read(&r, &served).is_empty());
    }

    #[test]
    fn unwritten_sectors_expect_zero() {
        let o = Oracle::new();
        let r = HostRequest::read(0, 5, 1);
        let ok = vec![ServedSector {
            sector: 5,
            version: 0,
        }];
        assert!(o.check_read(&r, &ok).is_empty());
        let bad = vec![ServedSector {
            sector: 5,
            version: 3,
        }];
        assert_eq!(o.check_read(&r, &bad).len(), 1);
    }
}
