//! Subcommand implementations.

use crate::args::Args;
use crate::error::CliError;
use bbsched_metrics::{DistributionStats, MeasurementWindow, MethodSummary, UsageKind};
use bbsched_policies::{GaParams, PolicyKind, SelectionPolicy};
use bbsched_sched::durability;
use bbsched_sim::{
    BackfillAlgorithm, BaseScheduler, DynamicWindow, SimConfig, SimResult, Simulator,
};
use bbsched_workloads::{generate, swf, GeneratorConfig, MachineProfile, Trace, Workload};
use std::path::Path;

/// Top-level dispatch. The error's [`CliError::exit_code`] becomes the
/// process exit code.
pub fn run(args: &Args) -> Result<(), CliError> {
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "stats" => cmd_stats(args),
        "simulate" => cmd_simulate(args),
        "compare" => cmd_compare(args),
        "replay" | "serve" => crate::serve::cmd_serve(args),
        "snapshot" => cmd_snapshot(args),
        "timeline" => cmd_timeline(args),
        "gantt" => cmd_gantt(args),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'\n\n{}", usage()))),
    }
}

/// Usage text.
pub fn usage() -> String {
    "\
bbsched — multi-resource HPC scheduling toolkit (BBSched, HPDC'19)

USAGE: bbsched <command> [--option value]... [--flag]...

COMMANDS
  generate   Generate a calibrated synthetic trace
             --machine cori|theta  --jobs N  --seed S  --scale F
             --load F  --workload Original|S1..S7  --out PATH  [--swf]
  stats      Print trace statistics (Table-2 style)
             --trace PATH
  simulate   Run one policy over a trace and print its metrics
             --trace PATH | (--machine + --jobs [--workload])
             --machine cori|theta  --scale F  --policy NAME  --gens G
             --window N  --starvation-bound N
             --backfill easy|conservative
             --backfill-scope window|queue
             --dynamic-window MIN,MAX,FRAC  [--out result.json]
  compare    Run the full §4.3 roster on one workload and print the grid
             --machine cori|theta  --workload W  --jobs N  --scale F
             --gens G  --threads T  (same scheduler knobs as simulate)
  serve      Drive the scheduler core online from a job-event stream and
             print one JSON decision per line to stdout (summary on
             stderr); optionally durable (DESIGN.md \u{a7}13)
             --events PATH|-  --machine cori|theta  --scale F
             --policy NAME  --gens G  (same scheduler knobs as simulate;
               a fresh start only)
             --journal DIR          write-ahead journal + snapshots here
             --snapshot-every N     rolling snapshot every N input lines
             --snapshot-retain K    keep the newest K snapshots (default 3)
             --snapshot-format json|binary  (default binary)
             --recover DIR          resume from DIR's newest valid
               snapshot + journal tail, then continue with --events
             --stop-after N         end after N input lines as SIGTERM
               does (N >= 1)
             --stats-every N        JSON stats line to stderr every N
               scheduling invocations
             Events (one JSON object per line):
               {\"type\":\"submit\",\"job\":{...}} | {\"type\":\"finish\",\"id\":N,\"time\":T}
             Control events (journaled, replayed on recovery):
               {\"type\":\"set-policy\",\"name\":\"Baseline\"}
             SIGTERM drains gracefully: final snapshot, then exit 0.
  replay     Alias of serve.
  snapshot   Inspect checkpoint/snapshot files without loading a core
             snapshot inspect FILE   print schema version, encoding,
               invocations, queue depth, running jobs
  timeline   Export a utilization timeline CSV from a saved result
             --result PATH  --resource nodes|bb  --dt SECONDS  --out PATH
  gantt      ASCII utilization chart of a saved result
             --result PATH  [--width N]  [--resource nodes|bb|ssd]
  help       This text.

Policies: Baseline, Weighted, Weighted_CPU, Weighted_BB, Constrained_CPU,
Constrained_BB, Constrained_SSD, Bin_Packing, BBSched
"
    .to_string()
}

pub(crate) fn parse_machine(name: &str) -> Result<MachineProfile, String> {
    match name.to_ascii_lowercase().as_str() {
        "cori" => Ok(MachineProfile::cori()),
        "theta" => Ok(MachineProfile::theta()),
        other => Err(format!("unknown machine '{other}' (cori|theta)")),
    }
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    match name.to_ascii_uppercase().as_str() {
        "ORIGINAL" => Ok(Workload::Original),
        "S1" => Ok(Workload::S1),
        "S2" => Ok(Workload::S2),
        "S3" => Ok(Workload::S3),
        "S4" => Ok(Workload::S4),
        "S5" => Ok(Workload::S5),
        "S6" => Ok(Workload::S6),
        "S7" => Ok(Workload::S7),
        other => Err(format!("unknown workload '{other}' (Original, S1..S7)")),
    }
}

pub(crate) fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    let all = [
        PolicyKind::Baseline,
        PolicyKind::Weighted,
        PolicyKind::WeightedCpu,
        PolicyKind::WeightedBb,
        PolicyKind::ConstrainedCpu,
        PolicyKind::ConstrainedBb,
        PolicyKind::ConstrainedSsd,
        PolicyKind::BinPacking,
        PolicyKind::BbSched,
    ];
    all.into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown policy '{name}'"))
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    let p = Path::new(path);
    let result = if path.ends_with(".swf") { swf::read_swf(p) } else { Trace::load_jsonl(p) };
    result.map_err(|e| CliError::Input(format!("cannot load trace '{path}': {e}")))
}

/// Builds a trace either from `--trace` or by generation.
fn trace_from_args(args: &Args) -> Result<(Trace, MachineProfile), CliError> {
    let scale: f64 = args.get_parsed("scale", 0.05)?;
    let machine = parse_machine(args.get_or("machine", "theta"))?;
    let profile = if (scale - 1.0).abs() < f64::EPSILON { machine } else { machine.scaled(scale) };
    let trace = match args.get("trace") {
        Some(path) => load_trace(path)?,
        None => {
            let n_jobs = args.get_parsed("jobs", 1_000usize)?;
            let seed = args.get_parsed("seed", 7u64)?;
            let load_factor = args.get_parsed("load", 1.15f64)?;
            let base = generate(
                &profile,
                &GeneratorConfig { n_jobs, seed, load_factor, ..GeneratorConfig::default() },
            );
            let workload = parse_workload(args.get_or("workload", "Original"))?;
            workload.apply_scaled(&base, seed ^ 0x5eed, scale)
        }
    };
    Ok((trace, profile))
}

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    args.check_known(&["machine", "jobs", "seed", "scale", "load", "workload", "out", "swf"])?;
    let (trace, _) = trace_from_args(args)?;
    let out = args.require("out")?;
    let result = if args.flag("swf") || out.ends_with(".swf") {
        swf::write_swf(&trace, Path::new(out))
    } else {
        trace.save_jsonl(Path::new(out))
    };
    result.map_err(|e| CliError::Output(format!("cannot write '{out}': {e}")))?;
    let s = trace.stats();
    println!(
        "wrote {} jobs to {out} ({:.2}% with burst buffer, span {:.1} days)",
        s.n_jobs,
        s.bb_fraction() * 100.0,
        s.span_seconds / 86_400.0
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    args.check_known(&["trace"])?;
    let trace = load_trace(args.require("trace")?)?;
    let s = trace.stats();
    println!("jobs:                {}", s.n_jobs);
    println!("span:                {:.2} days", s.span_seconds / 86_400.0);
    println!("node-seconds:        {:.3e}", s.total_node_seconds);
    println!("jobs with BB:        {} ({:.3}%)", s.jobs_with_bb, s.bb_fraction() * 100.0);
    println!("jobs with BB > 1TB:  {}", s.jobs_with_bb_over_1tb);
    println!("jobs with local SSD: {}", s.jobs_with_ssd);
    match s.bb_range_gb {
        Some((lo, hi)) => println!("BB range:            [{lo:.1} GB, {:.2} TB]", hi / 1000.0),
        None => println!("BB range:            -"),
    }
    println!("aggregate BB:        {:.2} TB", s.total_bb_gb / 1000.0);
    Ok(())
}

/// The scheduler knobs shared by `simulate`, `compare` and `serve`
/// (alias `replay`).
pub(crate) const SCHED_ARGS: &[&str] =
    &["base", "window", "starvation-bound", "backfill", "backfill-scope", "dynamic-window"];

/// Loads a saved [`SimResult`] JSON file.
fn load_result(path: &str) -> Result<SimResult, CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Input(format!("cannot read '{path}': {e}")))?;
    serde_json::from_slice(&bytes)
        .map_err(|e| CliError::Input(format!("cannot parse '{path}': {e}")))
}

/// Parses `--dynamic-window min,max,frac` (e.g. `10,50,0.25`).
fn parse_dynamic_window(spec: &str) -> Result<DynamicWindow, String> {
    let parts: Vec<&str> = spec.split(',').map(str::trim).collect();
    if parts.len() != 3 {
        return Err(format!("--dynamic-window wants 'min,max,frac', got '{spec}'"));
    }
    let min: usize =
        parts[0].parse().map_err(|e| format!("--dynamic-window min '{}': {e}", parts[0]))?;
    let max: usize =
        parts[1].parse().map_err(|e| format!("--dynamic-window max '{}': {e}", parts[1]))?;
    let queue_fraction: f64 =
        parts[2].parse().map_err(|e| format!("--dynamic-window frac '{}': {e}", parts[2]))?;
    let dw = DynamicWindow { min, max, queue_fraction };
    dw.validate().map_err(|e| e.to_string())?;
    Ok(dw)
}

#[allow(clippy::field_reassign_with_default)]
pub(crate) fn sim_config(args: &Args, machine: &MachineProfile) -> Result<SimConfig, String> {
    let mut cfg = SimConfig::default();
    cfg.base =
        match args.get_or("base", if machine.system.name == "theta" { "wfp" } else { "fcfs" }) {
            b if b.eq_ignore_ascii_case("fcfs") => BaseScheduler::Fcfs,
            b if b.eq_ignore_ascii_case("wfp") => BaseScheduler::Wfp,
            other => return Err(format!("unknown base scheduler '{other}' (fcfs|wfp)")),
        };
    cfg.window.size = args.get_parsed("window", cfg.window.size)?;
    cfg.window.starvation_bound =
        args.get_parsed("starvation-bound", cfg.window.starvation_bound)?;
    cfg.backfill_algorithm = match args.get_or("backfill", "easy") {
        b if b.eq_ignore_ascii_case("easy") => BackfillAlgorithm::Easy,
        b if b.eq_ignore_ascii_case("conservative") => BackfillAlgorithm::Conservative,
        other => return Err(format!("unknown backfill algorithm '{other}' (easy|conservative)")),
    };
    cfg.backfill = match args.get_or("backfill-scope", "window") {
        s if s.eq_ignore_ascii_case("window") => bbsched_sim::BackfillScope::Window,
        s if s.eq_ignore_ascii_case("queue") => bbsched_sim::BackfillScope::Queue,
        other => return Err(format!("unknown backfill scope '{other}' (window|queue)")),
    };
    if let Some(spec) = args.get("dynamic-window") {
        cfg.dynamic_window = Some(parse_dynamic_window(spec)?);
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn print_summary(result: &SimResult) {
    let m = MethodSummary::from_result(result, MeasurementWindow::default());
    let waits = DistributionStats::of_waits(&result.records);
    println!("policy:          {} (base {})", result.policy, result.base);
    println!(
        "jobs:            {} ({} backfilled, {} starvation-forced)",
        result.records.len(),
        result.backfilled,
        result.starvation_forced
    );
    println!("node usage:      {:.2}%", m.node_usage() * 100.0);
    println!("BB usage:        {:.2}%", m.bb_usage() * 100.0);
    if result.system.has_local_ssd() {
        println!(
            "SSD usage:       {:.2}% (wasted {:.2}%)",
            m.ssd_usage() * 100.0,
            m.ssd_wasted() * 100.0
        );
    }
    println!("avg wait:        {:.2} h", m.avg_wait / 3600.0);
    println!(
        "wait P50/P90/P99: {:.2} / {:.2} / {:.2} h",
        waits.p50 / 3600.0,
        waits.p90 / 3600.0,
        waits.p99 / 3600.0
    );
    println!("avg slowdown:    {:.2}", m.avg_slowdown);
    println!("makespan:        {:.2} days", result.makespan / 86_400.0);
}

/// Parses `compare --threads` (worker threads that run the roster's
/// simulations side by side; 1 = serial, the default).
pub(crate) fn parse_threads(args: &Args) -> Result<usize, String> {
    let threads: usize = args.get_parsed("threads", 1usize)?;
    if threads == 0 {
        return Err("--threads must be >= 1".to_string());
    }
    Ok(threads)
}

fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let mut known = vec![
        "trace", "machine", "jobs", "seed", "scale", "load", "workload", "policy", "gens", "out",
    ];
    known.extend_from_slice(SCHED_ARGS);
    args.check_known(&known)?;
    let (trace, profile) = trace_from_args(args)?;
    let kind = parse_policy(args.get_or("policy", "BBSched"))?;
    let cfg = sim_config(args, &profile)?;
    let ga = GaParams {
        generations: args.get_parsed("gens", 500usize)?,
        base_seed: args.get_parsed("seed", 7u64)?,
        ..GaParams::default()
    };
    let policy: Box<dyn SelectionPolicy> = kind.build(ga);
    let result = Simulator::new(&profile.system, &trace, cfg)
        .map_err(|e| CliError::Run(e.to_string()))?
        .run(policy);
    print_summary(&result);
    if let Some(out) = args.get("out") {
        let bytes = serde_json::to_vec_pretty(&result)
            .map_err(|e| CliError::Output(format!("serialize: {e}")))?;
        std::fs::write(out, bytes)
            .map_err(|e| CliError::Output(format!("cannot write '{out}': {e}")))?;
        println!("full result written to {out}");
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), CliError> {
    let mut known =
        vec!["trace", "machine", "jobs", "seed", "scale", "load", "workload", "gens", "threads"];
    known.extend_from_slice(SCHED_ARGS);
    args.check_known(&known)?;
    let (trace, profile) = trace_from_args(args)?;
    let cfg = sim_config(args, &profile)?;
    let threads = parse_threads(args)?;
    let ga = GaParams {
        generations: args.get_parsed("gens", 200usize)?,
        base_seed: args.get_parsed("seed", 7u64)?,
        ..GaParams::default()
    };
    let roster: Vec<PolicyKind> = if profile.system.has_local_ssd() {
        PolicyKind::ssd_roster().to_vec()
    } else {
        PolicyKind::main_roster().to_vec()
    };
    // Each roster entry is an independent full simulation; whole-task
    // batch jobs in roster order keep the grid byte-identical whatever the
    // thread count.
    let sim =
        Simulator::new(&profile.system, &trace, cfg).map_err(|e| CliError::Run(e.to_string()))?;
    let jobs: Vec<_> = roster
        .iter()
        .map(|&kind| {
            let sim = &sim;
            move || sim.run(kind.build(ga))
        })
        .collect();
    let results: Vec<SimResult> = bbsched_core::parallel::run_batch(threads, jobs);
    println!("{:<16} {:>9} {:>9} {:>10} {:>10}", "Method", "Node", "BB", "Avg wait", "Slowdown");
    for (kind, result) in roster.iter().zip(&results) {
        let m = MethodSummary::from_result(result, MeasurementWindow::default());
        println!(
            "{:<16} {:>8.2}% {:>8.2}% {:>9.2}h {:>10.2}",
            kind.name(),
            m.node_usage() * 100.0,
            m.bb_usage() * 100.0,
            m.avg_wait / 3600.0,
            m.avg_slowdown
        );
    }
    Ok(())
}

/// `snapshot inspect FILE`: shallow facts about a checkpoint/snapshot
/// file — schema version, encoding, invocation count, queue depth,
/// running jobs — read from the value tree without ever constructing a
/// scheduler core.
fn cmd_snapshot(args: &Args) -> Result<(), CliError> {
    args.check_known_with(&[], 2)?;
    let [verb, file] = args.positionals() else {
        return Err(CliError::Usage("usage: snapshot inspect FILE".to_string()));
    };
    if verb != "inspect" {
        return Err(CliError::Usage(format!("unknown snapshot verb '{verb}' (inspect)")));
    }
    let bytes =
        std::fs::read(file).map_err(|e| CliError::Input(format!("cannot read '{file}': {e}")))?;
    let info = durability::inspect_bytes(&bytes)
        .map_err(|e| CliError::Input(format!("cannot inspect '{file}': {e}")))?;
    let opt = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    println!("file:           {file} ({} bytes)", bytes.len());
    println!("kind:           {}", info.kind);
    println!("encoding:       {}", info.encoding);
    println!("schema version: {}", opt(info.schema_version.map(|v| v.to_string())));
    println!("policy:         {}", opt(info.policy));
    println!("invocations:    {}", opt(info.invocations.map(|v| v.to_string())));
    println!("clock:          {}", opt(info.clock.map(|v| format!("{v:.1} s"))));
    println!("jobs submitted: {}", opt(info.jobs_submitted.map(|v| v.to_string())));
    println!("queue depth:    {}", opt(info.queue_depth.map(|v| v.to_string())));
    println!("running jobs:   {}", opt(info.running_jobs.map(|v| v.to_string())));
    Ok(())
}

fn cmd_timeline(args: &Args) -> Result<(), CliError> {
    args.check_known(&["result", "resource", "dt", "out"])?;
    let path = args.require("result")?;
    let result: SimResult = load_result(path)?;
    let kind = match args.get_or("resource", "nodes") {
        "nodes" => UsageKind::Nodes,
        "bb" => UsageKind::BurstBuffer,
        "ssd" => UsageKind::LocalSsdUsed,
        other => return Err(CliError::Usage(format!("unknown resource '{other}' (nodes|bb|ssd)"))),
    };
    let dt: f64 = args.get_parsed("dt", 600.0)?;
    let t1 = result.makespan;
    let series = bbsched_metrics::stats::utilization_timeline(
        &result.records,
        &result.system,
        kind,
        0.0,
        t1,
        dt,
    );
    let out = args.require("out")?;
    bbsched_metrics::stats::write_timeline_csv(&series, Path::new(out))
        .map_err(|e| CliError::Output(format!("cannot write '{out}': {e}")))?;
    println!("wrote {} samples to {out}", series.len());
    Ok(())
}

fn cmd_gantt(args: &Args) -> Result<(), CliError> {
    args.check_known(&["result", "width", "resource"])?;
    let path = args.require("result")?;
    let result: SimResult = load_result(path)?;
    let width: usize = args.get_parsed("width", 72usize)?;
    let kind = match args.get_or("resource", "nodes") {
        "nodes" => UsageKind::Nodes,
        "bb" => UsageKind::BurstBuffer,
        "ssd" => UsageKind::LocalSsdUsed,
        other => return Err(CliError::Usage(format!("unknown resource '{other}' (nodes|bb|ssd)"))),
    };
    let t1 = result.makespan.max(1.0);
    let dt = t1 / width.max(1) as f64;
    let series = bbsched_metrics::stats::utilization_timeline(
        &result.records,
        &result.system,
        kind,
        0.0,
        t1,
        dt,
    );
    println!(
        "{} utilization over {:.2} days ({} on {}, each column {:.1} h):\n",
        args.get_or("resource", "nodes"),
        t1 / 86_400.0,
        result.policy,
        result.system.name,
        dt / 3_600.0,
    );
    const LEVELS: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    for row in (0..5).rev() {
        let lo = row as f64 * 0.2;
        let mut line = String::with_capacity(width + 8);
        line.push_str(&format!("{:>3.0}% |", (lo + 0.2) * 100.0));
        for &(_, u) in series.iter().take(width) {
            let within = ((u - lo) / 0.2).clamp(0.0, 1.0);
            let idx = (within * (LEVELS.len() - 1) as f64).round() as usize;
            line.push(LEVELS[idx]);
        }
        println!("{line}");
    }
    println!("     +{}", "-".repeat(width));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsers_accept_paper_names() {
        assert!(parse_machine("Cori").is_ok());
        assert!(parse_machine("THETA").is_ok());
        assert!(parse_machine("summit").is_err());
        assert!(parse_workload("s4").is_ok());
        assert!(parse_workload("original").is_ok());
        assert!(parse_workload("s9").is_err());
        assert_eq!(parse_policy("bbsched").unwrap(), PolicyKind::BbSched);
        assert_eq!(parse_policy("Bin_Packing").unwrap(), PolicyKind::BinPacking);
        assert!(parse_policy("magic").is_err());
    }

    #[test]
    fn generate_stats_simulate_pipeline() {
        let dir = std::env::temp_dir().join(format!("bbsched_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        let args = Args::parse([
            "generate",
            "--machine",
            "theta",
            "--jobs",
            "80",
            "--scale",
            "0.02",
            "--workload",
            "S2",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();
        run(&args).unwrap();
        assert!(trace_path.exists());

        let args = Args::parse(["stats", "--trace", trace_path.to_str().unwrap()]).unwrap();
        run(&args).unwrap();

        let result_path = dir.join("r.json");
        let args = Args::parse([
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--machine",
            "theta",
            "--scale",
            "0.02",
            "--policy",
            "Baseline",
            "--out",
            result_path.to_str().unwrap(),
        ])
        .unwrap();
        run(&args).unwrap();
        assert!(result_path.exists());

        let csv_path = dir.join("tl.csv");
        let args = Args::parse([
            "timeline",
            "--result",
            result_path.to_str().unwrap(),
            "--resource",
            "nodes",
            "--dt",
            "1000",
            "--out",
            csv_path.to_str().unwrap(),
        ])
        .unwrap();
        run(&args).unwrap();
        assert!(csv_path.exists());

        let args =
            Args::parse(["gantt", "--result", result_path.to_str().unwrap(), "--width", "40"])
                .unwrap();
        run(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swf_generation() {
        let dir = std::env::temp_dir().join(format!("bbsched_cli_swf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.swf");
        let args = Args::parse([
            "generate",
            "--machine",
            "cori",
            "--jobs",
            "50",
            "--scale",
            "0.02",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        run(&args).unwrap();
        let trace = load_trace(path.to_str().unwrap()).unwrap();
        assert_eq!(trace.len(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scheduler_knobs_parse() {
        let profile = MachineProfile::cori();
        let args = Args::parse([
            "simulate",
            "--window",
            "30",
            "--starvation-bound",
            "17",
            "--backfill",
            "conservative",
            "--backfill-scope",
            "queue",
            "--dynamic-window",
            "5,40,0.3",
        ])
        .unwrap();
        let cfg = sim_config(&args, &profile).unwrap();
        assert_eq!(cfg.window.size, 30);
        assert_eq!(cfg.window.starvation_bound, 17);
        assert_eq!(cfg.backfill_algorithm, BackfillAlgorithm::Conservative);
        assert_eq!(cfg.backfill, bbsched_sim::BackfillScope::Queue);
        assert_eq!(
            cfg.dynamic_window,
            Some(DynamicWindow { min: 5, max: 40, queue_fraction: 0.3 })
        );
    }

    /// The removed spellings `--conservative`, `--queue-backfill`,
    /// `--backfill conservative-rebuild`, and `--threads` on `simulate`
    /// and `serve` are usage errors.
    #[test]
    fn removed_backfill_spellings_are_usage_errors() {
        for removed in [
            &["simulate", "--conservative"][..],
            &["simulate", "--queue-backfill"],
            &["simulate", "--threads", "2"],
            &["serve", "--threads", "2"],
        ] {
            let args = Args::parse(removed.iter().copied()).unwrap();
            assert!(
                matches!(run(&args), Err(CliError::Usage(_))),
                "{removed:?} has an unknown option"
            );
        }
        let args = Args::parse(["simulate", "--backfill", "conservative-rebuild"]).unwrap();
        let cfg = sim_config(&args, &MachineProfile::cori()).map_err(CliError::from);
        assert!(
            matches!(cfg, Err(CliError::Usage(_))),
            "conservative-rebuild is no algorithm name"
        );
    }

    #[test]
    fn bad_scheduler_knobs_are_rejected() {
        let profile = MachineProfile::cori();
        for bad in [
            vec!["simulate", "--backfill", "aggressive"],
            vec!["simulate", "--backfill-scope", "galaxy"],
            vec!["simulate", "--dynamic-window", "50,10,0.25"],
            vec!["simulate", "--dynamic-window", "5,40"],
            vec!["simulate", "--dynamic-window", "5,40,NaN,9"],
        ] {
            let args = Args::parse(bad.clone()).unwrap();
            assert!(sim_config(&args, &profile).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        let args = Args::parse(["compare", "--threads", "4"]).unwrap();
        assert_eq!(parse_threads(&args).unwrap(), 4);
        let args = Args::parse(["compare"]).unwrap();
        assert_eq!(parse_threads(&args).unwrap(), 1, "default is serial");
        let args = Args::parse(["compare", "--threads", "0"]).unwrap();
        assert!(parse_threads(&args).is_err());
    }

    #[test]
    fn compare_runs_with_worker_threads() {
        let args = Args::parse([
            "compare",
            "--machine",
            "theta",
            "--jobs",
            "40",
            "--scale",
            "0.02",
            "--gens",
            "20",
            "--threads",
            "4",
        ])
        .unwrap();
        run(&args).unwrap();
    }

    #[test]
    fn unknown_command_and_typo_errors() {
        let args = Args::parse(["frobnicate"]).unwrap();
        assert!(run(&args).is_err());
        let args = Args::parse(["stats", "--trase", "x"]).unwrap();
        assert!(run(&args).is_err());
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        for cmd in
            ["generate", "stats", "simulate", "compare", "replay", "serve", "snapshot", "timeline"]
        {
            assert!(u.contains(cmd), "usage must document '{cmd}'");
        }
    }
}
