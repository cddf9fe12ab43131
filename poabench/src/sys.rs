//! Process and machine readings from `/proc`, order statistics, and a
//! minimal JSON writer.

use std::fmt::Write as _;
use std::time::Instant;

/// `/proc/<pid>/<file>`, or this process's own when `pid` is `None`.
fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User+system CPU time of a process in seconds (all threads).
pub fn cpu_s(pid: Option<u32>) -> f64 {
    let stat = std::fs::read_to_string(proc_path(pid, "stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / clock_ticks_per_s()
}

/// `USER_HZ`, which Linux fixes at 100 on every architecture it exports
/// `/proc` tick counts for.
fn clock_ticks_per_s() -> f64 {
    100.0
}

/// Resets a process's peak-RSS mark so [`peak_rss_mb`] covers only
/// what follows. Returns `false` where the kernel refuses.
pub fn reset_peak_rss(pid: Option<u32>) -> bool {
    std::fs::write(proc_path(pid, "clear_refs"), "5").is_ok()
}

/// Peak resident set of a process since it started or since the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    std::fs::read_to_string(proc_path(pid, "status"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
        / 1024.0
}

/// Machine-wide steal ticks so far (`/proc/stat`, 8th cpu field).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times a fixed single-thread integer loop, in milliseconds. Recorded
/// beside results as a reading of host speed, never used to scale them.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    for i in 0..200_000_000u64 {
        x = x.rotate_left(7) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Order statistics over one set of samples.
#[derive(Debug, Clone)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut v: Vec<f64>) -> Dist {
        v.sort_by(f64::total_cmp);
        Dist { sorted: v }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.len();
        if n.is_multiple_of(2) && (q - 0.5).abs() < f64::EPSILON {
            return (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0;
        }
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// The tail quantile: `preferred` when at least ten samples lie
    /// beyond it, else the highest of a fixed ladder that has ten.
    pub fn tail(&self, preferred: f64) -> (f64, f64) {
        let ladder = [0.99, 0.95, 0.9, 0.75, 0.5];
        let q = ladder
            .iter()
            .copied()
            .filter(|&q| q <= preferred)
            .find(|&q| (self.len() as f64 * (1.0 - q)).floor() >= 10.0)
            .unwrap_or(0.5);
        (q, self.quantile(q))
    }
}

/// A tiny JSON object writer: keys in insertion order.
#[derive(Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        let _ = write!(self.buf, "\"{}\":", escape(k));
    }

    pub fn num(mut self, k: &str, v: f64) -> Obj {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Obj {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Obj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    pub fn raw(mut self, k: &str, json: &str) -> Obj {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let d = Dist::new((1..=200).map(f64::from).collect());
        assert_eq!(d.tail(0.99).0, 0.95);
        let v = d.quantile(0.95);
        assert!(d.sorted.iter().filter(|&&x| x > v).count() >= 10);
        let d = Dist::new((1..=2000).map(f64::from).collect());
        assert_eq!(d.tail(0.99).0, 0.99);
        assert_eq!(d.median(), 1000.5);
    }
}
