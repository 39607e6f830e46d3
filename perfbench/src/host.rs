//! Host measurements: peak resident set and a STREAM-triad bandwidth probe.

use std::time::Instant;

/// Process peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    fg_telemetry::read_rss().map_or(f64::NAN, |r| r.peak_bytes as f64 / (1 << 20) as f64)
}

/// Process resident set (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    fg_telemetry::read_rss().map_or(f64::NAN, |r| r.current_bytes as f64 / (1 << 20) as f64)
}

/// Summed size of the distinct last-level caches, in bytes, read from
/// sysfs. Caches shared by several CPUs are counted once.
pub fn last_level_cache_bytes() -> Option<u64> {
    let root = std::path::Path::new("/sys/devices/system/cpu");
    let mut best_level = 0;
    let mut seen = std::collections::BTreeMap::<String, u64>::new();
    for cpu in std::fs::read_dir(root).ok()?.flatten() {
        let name = cpu.file_name().to_string_lossy().into_owned();
        if name
            .strip_prefix("cpu")
            .is_none_or(|n| n.parse::<u32>().is_err())
        {
            continue;
        }
        let Ok(indexes) = std::fs::read_dir(cpu.path().join("cache")) else {
            continue;
        };
        for idx in indexes.flatten() {
            let read = |f: &str| std::fs::read_to_string(idx.path().join(f)).ok();
            let (Some(level), Some(size), Some(shared)) =
                (read("level"), read("size"), read("shared_cpu_list"))
            else {
                continue;
            };
            if read("type").is_some_and(|t| t.trim() == "Instruction") {
                continue;
            }
            let level: u32 = level.trim().parse().ok()?;
            let size = parse_size(size.trim())?;
            if level > best_level {
                best_level = level;
                seen.clear();
            }
            if level == best_level {
                seen.insert(shared.trim().to_string(), size);
            }
        }
    }
    let total: u64 = seen.values().sum();
    (total > 0).then_some(total)
}

/// `"107520K"` → bytes.
fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Result of the triad probe.
pub struct Stream {
    /// Best sustained triad bandwidth over the repetitions, GB/s
    /// (10^9 bytes), counting two reads and one write per element.
    pub gbps: f64,
    /// Bytes per array.
    pub array_bytes: u64,
    /// Summed last-level cache the arrays were sized against.
    pub llc_bytes: u64,
}

/// Fallback last-level cache size when sysfs does not say.
const DEFAULT_LLC: u64 = 32 << 20;

/// STREAM triad `a[i] = b[i] + s * c[i]` on one thread, over three `f64`
/// arrays each at least four times the summed last-level cache, so every
/// pass streams from memory. Reports the best of `reps` passes, as STREAM
/// does.
pub fn stream_triad(reps: usize) -> Stream {
    let llc_bytes = last_level_cache_bytes().unwrap_or(DEFAULT_LLC);
    let array_bytes = 4 * llc_bytes;
    let n = (array_bytes / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = std::hint::black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(a.iter().step_by(4096).all(|&x| x == 7.0), "triad result");
    Stream {
        gbps: 3.0 * array_bytes as f64 / best / 1e9,
        array_bytes,
        llc_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("xK"), None);
    }
}
