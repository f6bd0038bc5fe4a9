//! Statistics, process memory and the hardware probe.

use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Size of the last-level data/unified cache of CPU 0, in KB (0 when
/// sysfs does not say).
pub fn llc_kb() -> f64 {
    let mut best = (0u32, 0.0);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let kb = match size.strip_suffix('K') {
            Some(k) => k.parse().unwrap_or(0.0),
            None => {
                size.strip_suffix('M').and_then(|m| m.parse::<f64>().ok()).unwrap_or(0.0) * 1024.0
            }
        };
        if level > best.0 {
            best = (level, kb);
        }
    }
    best.1
}

/// STREAM triad `a = b + s·c` bandwidth in GB/s (best of five passes,
/// 24 bytes per element: two reads and a write), over three arrays of
/// `array_kb` KB each.
pub fn stream_triad_gbs(array_kb: f64) -> f64 {
    let n = (array_kb * 1024.0 / 8.0) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..5 {
        let s = 3.0 + f64::from(pass);
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (24 * n) as f64 / best / 1e9
}

/// Array size for the triad: the three arrays together span at least
/// four times the last-level cache (at least 64 MB in all).
pub fn stream_array_kb(llc_kb: f64) -> f64 {
    (4.0 * llc_kb / 3.0).max(64.0 * 1024.0 / 3.0).ceil()
}

/// Collapses an error message into a class: digits and quoted names
/// dropped, so `block "B3" failed: ...` and `block "B7" failed: ...`
/// count as one kind.
pub fn message_class(message: &str) -> String {
    let mut out = String::new();
    let mut quoted = None;
    for ch in message.chars() {
        match quoted {
            Some(q) if ch == q => quoted = None,
            Some(_) => {}
            None if ch == '"' || ch == '`' => {
                quoted = Some(ch);
                out.push_str("<name>");
            }
            None if ch.is_ascii_digit() => {
                if !out.ends_with('#') {
                    out.push('#');
                }
            }
            None => out.push(ch),
        }
    }
    out
}
