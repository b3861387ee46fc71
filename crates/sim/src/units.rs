//! Data-size and bandwidth units.
//!
//! The paper quotes sizes in "Kbytes"/"Mbytes" (binary: 1 Kbyte = 1024 bytes)
//! and bandwidths in Kbytes/s. This module provides the conversion helpers
//! used throughout the simulator.

use core::fmt;

use crate::time::SimDuration;

/// Bytes per kilobyte (binary).
pub const KIB: u64 = 1024;
/// Bytes per megabyte (binary).
pub const MIB: u64 = 1024 * 1024;

/// A transfer rate in bytes per second.
///
/// # Examples
///
/// ```
/// use mobistore_sim::units::Bandwidth;
/// use mobistore_sim::time::SimDuration;
///
/// let bw = Bandwidth::from_kib_per_s(512.0);
/// assert_eq!(bw.transfer_time(512 * 1024), SimDuration::from_secs(1));
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not finite and positive.
    pub fn from_bytes_per_s(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be finite and positive, got {bytes_per_sec}"
        );
        Bandwidth(bytes_per_sec)
    }

    /// Creates a bandwidth from Kbytes (1024 bytes) per second, the unit used
    /// throughout the paper.
    pub fn from_kib_per_s(kib_per_sec: f64) -> Self {
        Bandwidth::from_bytes_per_s(kib_per_sec * KIB as f64)
    }

    /// Returns the rate in bytes per second.
    pub fn bytes_per_s(self) -> f64 {
        self.0
    }

    /// Returns the rate in Kbytes per second.
    pub fn kib_per_s(self) -> f64 {
        self.0 / KIB as f64
    }

    /// Returns the time needed to transfer `bytes` at this rate.
    #[inline]
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.0)
    }

    /// Returns how many bytes can be transferred in `dur` at this rate.
    pub fn bytes_in(self, dur: SimDuration) -> u64 {
        (self.0 * dur.as_secs_f64()).floor() as u64
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}KB/s", self.kib_per_s())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} Kbytes/s", self.kib_per_s())
    }
}

/// Formats a byte count using the paper's binary units.
///
/// # Examples
///
/// ```
/// assert_eq!(mobistore_sim::units::format_bytes(4 * 1024), "4.0 KB");
/// ```
pub fn format_bytes(bytes: u64) -> String {
    if bytes >= MIB {
        format!("{:.1} MB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1} KB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_linear() {
        let bw = Bandwidth::from_kib_per_s(100.0);
        let t1 = bw.transfer_time(100 * KIB);
        let t2 = bw.transfer_time(200 * KIB);
        assert_eq!(t1, SimDuration::from_secs(1));
        assert_eq!(t2, SimDuration::from_secs(2));
    }

    #[test]
    fn bytes_in_inverts_transfer_time() {
        let bw = Bandwidth::from_kib_per_s(75.0);
        let n = 64 * KIB;
        let t = bw.transfer_time(n);
        let back = bw.bytes_in(t);
        // Rounding in the ns clock may lose at most a few bytes.
        assert!(back.abs_diff(n) <= 2, "{back} vs {n}");
    }

    #[test]
    fn unit_conversions() {
        let bw = Bandwidth::from_kib_per_s(2125.0);
        assert!((bw.bytes_per_s() - 2125.0 * 1024.0).abs() < 1e-6);
        assert!((bw.kib_per_s() - 2125.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        let _ = Bandwidth::from_bytes_per_s(0.0);
    }

    #[test]
    fn format_bytes_picks_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(4 * KIB), "4.0 KB");
        assert_eq!(format_bytes(10 * MIB), "10.0 MB");
    }
}
