//! Small numeric and host helpers: order statistics, the simulated-result
//! fingerprint, peak memory and the machine fingerprint.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(xs.iter().all(|&x| x > 0.0), "geomean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Nearest-rank percentile `p` (0–100) of `sorted`, which must be sorted
/// ascending; `u64::MAX` entries stand for refused requests.
pub fn percentile(sorted: &[u64], p: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[((sorted.len() as u64 - 1) * p / 100) as usize]
}

/// FNV-1a over 64-bit words and strings: the simulated-statistics
/// fingerprint. Host times never enter it, so it repeats bit-for-bit for a
/// fixed seed unless the simulated model changes.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// About the median seconds of [`calibrate`] on a shared 2-vCPU Intel Xeon
/// VM. Host times are reported at this speed.
pub const CALIB_REF_S: f64 = 0.002;

/// Times a fixed loop of dependent random updates over a 256 KiB table:
/// a sample of how fast the machine runs right now. The loop is the
/// benchmark's own code, so a change to the repository cannot move it; on a
/// shared machine whose speed drifts by 20–30% over seconds, dividing a
/// unit's host time by the sample taken right after it removes most of that
/// drift.
pub fn calibrate() -> f64 {
    let t = std::time::Instant::now();
    let mut table = vec![0u32; 1 << 16];
    let mut x = 12_345u32;
    for i in 0..1_000_000u32 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let j = (x >> 16) as usize;
        table[j] = table[j].wrapping_add(i ^ table[(j * 7) & 0xffff]);
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64()
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and rustc version, recorded with every result.
pub fn machine_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
    }

    #[test]
    fn fnv_separates_strings_by_length() {
        let mut a = Fnv::new();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
