//! Byte-size and rate helpers.

/// Bytes, as a plain u64 with readable constructors.
pub type Bytes64 = u64;

/// Kibibytes → bytes.
pub const fn kib(n: u64) -> Bytes64 {
    n * 1024
}

/// Mebibytes → bytes.
pub const fn mib(n: u64) -> Bytes64 {
    n * 1024 * 1024
}

/// Gibibytes → bytes.
pub const fn gib(n: u64) -> Bytes64 {
    n * 1024 * 1024 * 1024
}

/// A transfer rate in bytes per second.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Rate(pub f64);

impl Rate {
    /// Megabytes (decimal) per second.
    pub const fn mb_per_s(v: f64) -> Rate {
        Rate(v * 1e6)
    }

    /// Gigabits per second (network convention).
    pub const fn gbit_per_s(v: f64) -> Rate {
        Rate(v * 1e9 / 8.0)
    }

    /// Seconds needed to move `bytes` at this rate.
    pub fn time_for(self, bytes: Bytes64) -> f64 {
        if self.0 <= 0.0 {
            return 0.0;
        }
        bytes as f64 / self.0
    }
}

/// Render a byte count human-readably (reporting only).
pub fn human_bytes(b: Bytes64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b}B")
    } else {
        format!("{v:.1}{}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_constructors() {
        assert_eq!(kib(2), 2048);
        assert_eq!(mib(1), 1_048_576);
        assert_eq!(gib(1), 1_073_741_824);
    }

    #[test]
    fn rate_times() {
        let r = Rate::mb_per_s(100.0);
        assert!((r.time_for(100_000_000) - 1.0).abs() < 1e-9);
        let g = Rate::gbit_per_s(10.0);
        assert!((g.time_for(1_250_000_000) - 1.0).abs() < 1e-9);
        assert_eq!(Rate(0.0).time_for(100), 0.0);
    }

    #[test]
    fn human_rendering() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.0KiB");
        assert_eq!(human_bytes(mib(3)), "3.0MiB");
    }
}
