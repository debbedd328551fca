//! Helpers shared by the integration tests that include this module.

use std::collections::HashMap;

use aftl_core::request::HostRequest;
use aftl_core::LOST_VERSION;
use aftl_flash::FlashError;
use aftl_sim::Ssd;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Drive `n` seeded random requests through `ssd`, shadowing each
/// sector's last acknowledged version. A read must serve that version, or
/// the version of a write the device rejected mid-flight (the write that
/// trips read-only mode may have reached flash for some of its sectors),
/// or — when `lossy` (faults injected) — the acknowledged-loss marker
/// [`LOST_VERSION`]. Anything else is silent corruption, and `Err` says
/// where.
pub fn shadowed_workload(ssd: &mut Ssd, lossy: bool, seed: u64, n: usize) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spp = u64::from(ssd.spp());
    let span_sectors = ssd.logical_sectors() * 6 / 10;

    let mut committed: HashMap<u64, u64> = HashMap::new();
    let mut tentative: HashMap<u64, u64> = HashMap::new();
    let mut next_version = 0u64;
    for i in 0..n {
        let sectors = *[1u32, 2, 4, 6, 8, 10, 12, 16]
            .iter()
            .filter(|&&z| u64::from(z) <= 2 * spp)
            .nth(rng.random_range(0..6))
            .unwrap();
        let sector = rng.random_range(0..span_sectors - u64::from(sectors));
        if rng.random_bool(0.6) {
            let mut req = HostRequest::write(i as u64, sector, sectors);
            next_version += 1;
            req.version = next_version;
            match ssd.submit(&req) {
                Ok(_) => {
                    for s in req.sector..req.end_sector() {
                        committed.insert(s, next_version);
                        tentative.remove(&s);
                    }
                }
                Err(FlashError::ReadOnlyMode) => {
                    for s in req.sector..req.end_sector() {
                        tentative.insert(s, next_version);
                    }
                }
                Err(e) => return Err(format!("write failed: {e}")),
            }
        } else {
            let req = HostRequest::read(i as u64, sector, sectors);
            let done = ssd.submit(&req).map_err(|e| format!("read failed: {e}"))?;
            if done.served.len() != sectors as usize {
                return Err(format!("read {sector}+{sectors} served {:?}", done.served));
            }
            for s in &done.served {
                let want = committed.get(&s.sector).copied().unwrap_or(0);
                let tent = tentative.get(&s.sector).copied();
                let lost = lossy && s.version == LOST_VERSION;
                if !(s.version == want || Some(s.version) == tent || lost) {
                    return Err(format!(
                        "{}: sector {} served version {} (committed {}, tentative {:?})",
                        ssd.config().scheme.name(),
                        s.sector,
                        s.version,
                        want,
                        tent
                    ));
                }
            }
        }
    }
    Ok(())
}
