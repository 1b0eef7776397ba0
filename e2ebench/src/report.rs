//! Metric collection, order statistics and the result line.

use std::fmt::Write as _;

/// Named metrics with units, in the order they were produced.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric. Non-finite values (a ratio over nothing) read 0 so
    /// the result stays valid JSON.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    /// Prints every metric as `name<TAB>value<TAB>unit`.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("{name}\t{value}\t{unit}");
        }
    }

    /// The final result line the benchmark contract asks for.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run (`steal` of `/proc/stat`), in clock ticks of 1/100
/// s; 0 where the kernel does not report it.
pub fn stolen_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.split_whitespace().collect::<Vec<_>>();
            (cpu.first() == Some(&"cpu")).then(|| cpu.get(8)?.parse().ok())?
        })
        .unwrap_or(0)
}

/// Share of the machine's CPU time stolen over `wall` seconds, given the
/// steal counter before and after.
pub fn stolen_share(before: u64, after: u64, wall: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    ratio(after.saturating_sub(before) as f64 / 100.0, wall * cpus)
}

/// Nearest-rank percentile `p` in `[0, 1]`; 0 when empty.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
