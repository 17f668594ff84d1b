//! Order statistics over timing samples. The benchmark keeps its own
//! copy so that a change to the program's statistics code cannot move
//! the yardstick.

use std::time::Instant;

/// Quantile `q` in `[0, 1]` by linear interpolation between closest
/// ranks. NaN for an empty sample; `+inf` entries sort last.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || s[hi] == s[lo] {
        s[lo]
    } else {
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    }
}

/// Median of a sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`) in MB of 10^6
/// bytes, NaN where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Bytes the allocator holds for live allocations (glibc's `mallinfo2`:
/// in use in every arena plus mmapped blocks), NaN on other platforms.
pub fn heap_in_use() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// glibc's `struct mallinfo2`, all `size_t`.
        #[repr(C)]
        struct MallInfo2 {
            arena: usize,
            ordblks: usize,
            smblks: usize,
            hblks: usize,
            hblkhd: usize,
            usmblks: usize,
            fsmblks: usize,
            uordblks: usize,
            fordblks: usize,
            keepcost: usize,
        }
        extern "C" {
            fn mallinfo2() -> MallInfo2;
        }
        // SAFETY: `mallinfo2` takes no arguments, only reads allocator
        // state under its own locks, and returns the struct by value.
        let m = unsafe { mallinfo2() };
        (m.uordblks + m.hblkhd) as f64
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
    }
}
