//! The repository benchmark: three simulator workloads and the `bbsched
//! serve` daemon in a closed loop.
//!
//! ```text
//! perfbench --workload <name|all> --seed N --seconds S --trace 0|1 \
//!           --bbsched PATH --workdir DIR
//! ```
//!
//! Every input is generated from `--seed`. A run replays its workload
//! back to back for `--seconds`, checks every replay's output, prints each
//! metric by name with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` makes a separate traced run and
//! reports per-layer counts, busy time and self time. `perfbench/run.py`
//! builds the binaries and passes `--bbsched` and `--workdir`; see
//! `perfbench/README.md` for the design and the noise findings behind it.

mod checks;
mod durable;
mod serve;
mod sim;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one message each.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// Settings shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub bbsched: PathBuf,
    pub workdir: PathBuf,
}

/// Fewest replays a run makes, however long they take: the timing
/// metrics are the best of these, and the checks compare them.
pub const MIN_REPLAYS: usize = 3;

impl Run {
    /// Whether another replay fits: always below [`MIN_REPLAYS`], then
    /// only while one more replay of the last one's length ends inside
    /// the measuring time.
    pub fn another(&self, started: std::time::Instant, done: usize, last: Duration) -> bool {
        done < MIN_REPLAYS || started.elapsed() + last <= self.seconds
    }
}

const WORKLOADS: [&str; 4] =
    ["sim_conservative_wfp", "sim_bbsched_easy", "sim_ssd_conservative", "serve_daemon"];

fn run_workload(name: &str, run: &Run, traced: bool) -> Result<Report, String> {
    match name {
        "serve_daemon" if traced => serve::traced(run),
        "serve_daemon" => serve::measure(run),
        _ => {
            let spec = sim::SPECS
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("unknown workload '{name}' ({})", WORKLOADS.join("|")))?;
            if traced {
                sim::traced(spec, run)
            } else {
                sim::measure(spec, run)
            }
        }
    }
}

/// Median of unsorted samples (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size, in MB, from a `/proc/<pid>/status` file
/// (`VmHWM`). A process that has exited has no such line.
pub fn peak_rss_mb(status: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(status)
        .map_err(|e| format!("cannot read {}: {e}", status.display()))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {}", status.display()))
}

/// Peak resident set size of this process, in MB.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    peak_rss_mb(Path::new("/proc/self/status"))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_report(label: &str, r: &Report) {
    for m in &r.metrics {
        println!("{label:<22} {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &r.errors {
        println!("{label:<22} CHECK FAILED: {e}");
    }
    println!(
        "{label:<22} {} ops attempted, {} failed, correct: {}",
        r.attempted,
        r.failed,
        r.correct()
    );
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", json_number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": \
         {{{}}}}}",
        body.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    bbsched: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let num =
        |key: &str| -> Result<u64, String> { get(key)?.parse().map_err(|e| format!("{key}: {e}")) };
    let traced = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        traced,
        bbsched: PathBuf::from(get("--bbsched")?),
        workdir: PathBuf::from(get("--workdir")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        std::process::exit(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        bbsched: args.bbsched,
        workdir: args.workdir,
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };

    let mut reports = Vec::new();
    for name in &names {
        match run_workload(name, &run, args.traced) {
            Ok(r) => {
                print_report(name, &r);
                reports.push((*name, r));
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(1);
            }
        }
    }

    let correct = reports.iter().all(|(_, r)| r.correct());
    let attempted = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed = reports.iter().map(|(_, r)| r.failed).sum();
    let prefix = names.len() > 1;
    let metrics: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|(name, r)| {
            r.metrics.iter().map(move |m| {
                (if prefix { format!("{name}/{}", m.name) } else { m.name.clone() }, m)
            })
        })
        .collect();
    println!("{}", result_line(correct, attempted, failed, &metrics));
}
