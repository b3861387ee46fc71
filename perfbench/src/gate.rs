//! The correctness gate: digests of the simulated output, the stored
//! references they must match, and the failures a run collects.
//!
//! Simulated statistics are not metrics here. A speed or simplicity
//! change must leave them byte-identical, so each run folds every cell's
//! `Metrics` (through `fleet::metrics_digest`) into one digest and
//! compares it with `references.txt`.

/// The stored references: `<workload> <seed> <digest>` lines.
const REFERENCES: &str = include_str!("../references.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of `parts`, in order.
pub fn combine(parts: impl IntoIterator<Item = u64>) -> u64 {
    parts.into_iter().fold(FNV_OFFSET, |h, part| {
        part.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    })
}

/// The line `references.txt` stores for a digest.
pub fn reference_line(workload: &str, seed: u64, digest: u64) -> String {
    format!("{workload} {seed} {digest:016x}")
}

/// The stored digest of `workload` at `seed`, if any.
pub fn reference(workload: &str, seed: u64) -> Option<u64> {
    REFERENCES
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [w, n, d] = fields[..] else {
                return None;
            };
            if w == workload && n.parse::<u64>().ok()? == seed {
                u64::from_str_radix(d, 16).ok()
            } else {
                None
            }
        })
}

/// The failures one run found; any one makes the run incorrect.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// Records `what` as a failure unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Records a failure, once however many repetitions repeat it.
    pub fn fail(&mut self, what: String) {
        if !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }

    /// Every failure recorded, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
