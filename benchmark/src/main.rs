//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! symnet-benchmark                      all five workloads, each in a child process, then a traced run of each
//! symnet-benchmark --aa                 the end-to-end set twice on this build; fails if the two disagree
//! symnet-benchmark --selftest           plants a wrong expected port; must exit non-zero
//! symnet-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                       one run; the last line of stdout is the result as JSON
//! ```

mod adapter;
mod gen;
mod jsoncheck;
mod oracle;
mod phases;
mod pin;
mod scenario;
mod stats;
mod trace;

use phases::{Ready, Tally};
use scenario::{Workload, RUN_SECONDS, WORKLOADS};
use serde_json::{json, Value};
use stats::{median, summarize};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Rows, Tracer};

/// `(name, unit, better, bound)`: the end-to-end metrics, exactly as
/// `BENCHMARK.json` lists them. The bound is the share of the parent's median
/// by which a metric may get worse before a change counts as a regression.
const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("verdict_ms", "ms", "lower", 0.25),
    ("report_ms", "ms", "lower", 0.25),
    ("reverify_ms", "ms", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
];

/// The seed of a run that names none.
const DEFAULT_SEED: u64 = 1;
/// Set-up repetitions: `setup_s` is the median of at least five, and of as
/// many more (up to forty) as fit into one second.
const SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 40;
const SETUP_BUDGET_S: f64 = 1.0;
/// The traced run does this share of the operations.
const TRACED_SHARE: f64 = 0.25;
/// Where runs leave their detail files (relative to the checkout's root).
const OUT_DIR: &str = "benchmark/out";

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: bool,
    selftest: bool,
    disk_child: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        aa: false,
        selftest: false,
        disk_child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds takes 1 to 60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.aa = true,
            "--selftest" => args.selftest = true,
            "--disk-child" => args.disk_child = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    Workload::named(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some(dir) = &args.disk_child {
            return disk_child(&args, dir);
        }
        if args.selftest {
            return selftest(&args);
        }
        match &args.workload {
            Some(name) => {
                let run = run_workload(workload_named(name)?, &args, false)?;
                println!("{}", run.result_line());
                if run.correct() {
                    Ok(())
                } else {
                    Err(format!(
                        "{} of {} operations failed",
                        run.tally.failed, run.tally.attempted
                    ))
                }
            }
            None if args.aa => aa(&args),
            None => all(&args),
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("symnet-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

// -- one run of one workload ---------------------------------------------------

/// A metric as measured: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Run {
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Run {
    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The one-line JSON result the driver reads.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Op count for this run: the workload's base count scaled by `--seconds`
/// (and by the traced share), rounded up to a multiple of `step`.
fn scaled(base: usize, args: &Args, step: usize) -> usize {
    let share = if args.trace { TRACED_SHARE } else { 1.0 };
    let ops = (base as f64 * args.seconds as f64 / RUN_SECONDS as f64 * share).ceil() as usize;
    ops.max(1).div_ceil(step) * step
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn run_workload(workload: &'static Workload, args: &Args, plant: bool) -> Result<Run, String> {
    let origin = Instant::now();
    // Every thread of the run inherits this (see `pin`).
    if !pin::to_one_cpu() {
        println!("note: this platform offers no way to pin the run to one CPU; timings will be less steady");
    }
    println!(
        "== {} (seed {}, {} s{}) ==\n   {}",
        workload.name,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        workload.why
    );

    // Set-up, several times over; the last one is the one measured on. A
    // set-up of a few milliseconds is repeated more often, for a steady median.
    let mut setup_s = Vec::new();
    let mut ready = None;
    while setup_s.len() < SETUP_REPS
        || (setup_s.len() < MAX_SETUP_REPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(phases::set_up(workload, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut ready: Ready = ready.expect("at least one set-up");
    phases::establish_truth(&mut ready).map_err(|e| format!("set-up oracle: {e}"))?;
    if plant {
        ready.scenario.truth.plant_wrong_port();
        ready.served.truth.plant_wrong_port();
    }

    let set_up_done = origin.elapsed();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut one_shot = phases::one_shot(&ready, scaled(workload.inject_ops, args, 1), &mut tracer);
    let one_shot_done = origin.elapsed();
    let mut resident = phases::resident(
        &mut ready,
        scaled(workload.reverify_ops, args, 2),
        &mut tracer,
    );
    let resident_done = origin.elapsed();
    let queries = scaled(
        workload.queries_per_client,
        args,
        scenario::QUERIES_PER_DELTA,
    );
    let mut served = phases::served(&mut ready, queries, args.trace, origin);
    println!(
        "   wall: set-up {:.1} s, one-shot {:.1} s, resident {:.1} s, served {:.1} s (checks included)",
        set_up_done.as_secs_f64(),
        (one_shot_done - set_up_done).as_secs_f64(),
        (resident_done - one_shot_done).as_secs_f64(),
        (origin.elapsed() - resident_done).as_secs_f64()
    );

    let mut tally = Tally::default();
    for part in [&mut one_shot.tally, &mut resident.tally, &mut served.tally] {
        tally.absorb(std::mem::take(part));
    }
    for reason in &tally.reasons {
        println!("   FAILED {reason}");
    }
    println!(
        "   failed_ops / attempted_ops = {} / {}",
        tally.failed, tally.attempted
    );
    if one_shot.verdict_ms.is_empty()
        || resident.reverify_ms.is_empty()
        || served.wall_ms.is_empty()
    {
        return Err("a phase completed no operation; there is nothing to report".to_string());
    }

    let verdict = summarize(&one_shot.verdict_ms);
    let report = summarize(&one_shot.report_ms);
    let reverify = summarize(&resident.reverify_ms);
    let query = summarize(&served.latency_ms);
    let queries_per_s = served.latency_ms.len() as f64 / served.elapsed.as_secs_f64();
    println!(
        "   setup_s        median {:.4} s  (n={})",
        median(&setup_s),
        setup_s.len()
    );
    println!("   verdict_ms     {}", verdict.render("ms"));
    println!("   report_ms      {}", report.render("ms"));
    println!("   reverify_ms    {}", reverify.render("ms"));
    println!("   query_p50_ms   {}", query.render("ms"));
    println!(
        "   queries_per_s  {queries_per_s:.2} 1/s  ({} queries, {} closed-loop clients)",
        query.samples,
        phases::CLIENTS
    );

    let metrics = if !args.trace {
        let rss = peak_rss_mb()?;
        println!("   peak_rss_mb    {rss:.1} MB");
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("verdict_ms", verdict.median, "ms"),
            ("report_ms", report.median, "ms"),
            ("reverify_ms", reverify.median, "ms"),
            ("query_p50_ms", query.median, "ms"),
            ("queries_per_s", queries_per_s, "1/s"),
            ("peak_rss_mb", rss, "MB"),
        ]
    } else {
        let mut spans = Vec::new();
        tracer.drain_into(&mut spans);
        trace::append(&mut spans, std::mem::take(&mut served.spans));
        let mut metrics = layer_metrics(&ready, args, &spans, &one_shot, &resident, &served)?;
        // The traced medians; against the untraced run's they give the
        // tracing overhead.
        metrics.extend([
            ("trace.verdict_ms", verdict.median, "ms"),
            ("trace.report_ms", report.median, "ms"),
            ("trace.reverify_ms", reverify.median, "ms"),
            ("trace.query_p50_ms", query.median, "ms"),
        ]);
        for (name, value, unit) in &metrics {
            println!("   {name:<28} {value:>16.4} {unit}");
        }
        write_out(
            &format!("trace-{}.json", workload.name),
            &trace::to_json(workload.name, args.seed, &spans),
        )?;
        metrics
    };
    ready.server.shutdown();
    Ok(Run { tally, metrics })
}

/// The per-layer metrics of a traced run: span medians, the reports' own
/// counters, and the extra probes only a traced run makes. Fails if the
/// spans' self times do not add up to the operations' wall time.
fn layer_metrics(
    ready: &Ready,
    args: &Args,
    spans: &[trace::Span],
    one_shot: &phases::OneShot,
    resident: &phases::Resident,
    served: &phases::Served,
) -> Result<Vec<Metric>, String> {
    let wall_ms: f64 = one_shot.report_ms.iter().sum::<f64>()
        + resident.reverify_ms.iter().sum::<f64>()
        + served.latency_ms.iter().sum::<f64>()
        + served.publish_us.iter().sum::<f64>() / 1e3;
    let rows = Rows::from_spans(spans);
    println!("   self time by span ({} spans):", spans.len());
    print!("{}", rows.render());
    println!(
        "   rows sum to {:.1} ms, the operations' wall time is {wall_ms:.1} ms",
        rows.sum_ms()
    );

    let per = |total: u64| total as f64 / one_shot.verdict_ms.len() as f64;
    let med = |name: &str| median_or_zero(&trace::durations(spans, name));
    let solver = &one_shot.counters.solver;
    let inject_ms: f64 = trace::durations(spans, "engine.inject").iter().sum();
    let queries_ms = rows.self_ms("verify.queries");
    let render_ms = rows.self_ms("report.render");
    let (check_cold_ms, check_warm_us) = phases::solver_sweeps(ready)?;
    let solo_ms = phases::solo_query(ready)?;
    let (explore_2t_ms, threaded) = phases::threaded_explore(ready)?;
    let per_threaded = |total: u64| total as f64 / phases::THREADED_RUNS as f64;
    let (disk_cold, disk) = disk_layer(ready.workload, args)?;
    let p99 = {
        let mut v = served.latency_ms.clone();
        v.sort_by(f64::total_cmp);
        v[(v.len() * 99 / 100).min(v.len() - 1)]
    };
    let metrics = vec![
        ("solver.check_cold_ms", check_cold_ms, "ms"),
        ("solver.check_warm_us", check_warm_us, "us"),
        ("solver.calls", per(solver.calls), "count"),
        ("solver.cubes_examined", per(solver.cubes_examined), "count"),
        ("solver.prefix_hits", per(solver.prefix_hits), "count"),
        ("solver.prefix_misses", per(solver.prefix_misses), "count"),
        ("solver.content_hits", per(solver.content_hits), "count"),
        ("solver.content_misses", per(solver.content_misses), "count"),
        ("engine.explore_ms", med("engine.inject"), "ms"),
        (
            "engine.nonsolver_ms",
            median_or_zero(&trace::self_times(spans, "engine.inject")),
            "ms",
        ),
        ("engine.explore_2t_ms", explore_2t_ms, "ms"),
        (
            "engine.paths_per_s",
            one_shot.counters.paths as f64 / (inject_ms / 1e3),
            "1/s",
        ),
        // The sequential loop has no scheduler; these come from the
        // two-thread explorations.
        (
            "sched.local_hits",
            per_threaded(threaded.local_hits),
            "count",
        ),
        ("sched.steals", per_threaded(threaded.steals), "count"),
        (
            "sched.batch_stolen",
            per_threaded(threaded.batch_stolen),
            "count",
        ),
        ("sched.overflow", per_threaded(threaded.overflow), "count"),
        ("report.render_ms", med("report.render"), "ms"),
        ("report.bytes", one_shot.bytes as f64, "bytes"),
        (
            "report.mb_per_s",
            one_shot.bytes as f64 / 1e6 / (med("report.render") / 1e3),
            "MB/s",
        ),
        ("verify.query_us", med("verify.queries") * 1e3, "us"),
        ("parsers.parse_ms", ready.scenario.cost.parse_ms, "ms"),
        ("models.compile_ms", ready.scenario.cost.compile_ms, "ms"),
        (
            "models.program_instrs",
            ready.scenario.cost.program_instrs as f64,
            "count",
        ),
        (
            "models.delta_compile_us",
            med("models.delta_compile") * 1e3,
            "us",
        ),
        (
            "service.apply_update_us",
            med("service.apply_update") * 1e3,
            "us",
        ),
        ("service.verify_us", med("service.verify") * 1e3, "us"),
        (
            "service.kept_ratio",
            resident.kept as f64 / (resident.kept + resident.reexplored) as f64,
            "ratio",
        ),
        (
            "service.scratch_ms",
            median_or_zero(&resident.scratch_ms),
            "ms",
        ),
        ("server.wall_ms", median(&served.wall_ms), "ms"),
        ("server.solo_ms", solo_ms, "ms"),
        (
            "server.queue_ratio",
            median(&served.wall_ms) / solo_ms,
            "ratio",
        ),
        (
            "server.delta_publish_us",
            med("server.delta_publish") * 1e3,
            "us",
        ),
        ("server.query_p99_ms", p99, "ms"),
        ("server.rejected", served.rejected as f64, "count"),
        ("store.open_ms", disk.open_ms, "ms"),
        ("cache.persisted_hits", disk.persisted_hits as f64, "count"),
        ("cache.cold_disk_verdict_ms", disk_cold.verdict_ms, "ms"),
        ("cache.warm_disk_verdict_ms", disk.verdict_ms, "ms"),
        // Shares of the one-shot operation, for the predicted dominance.
        (
            "share.solver_of_verdict",
            rows.self_ms("solver.in_inject") / (inject_ms + queries_ms),
            "ratio",
        ),
        (
            "share.engine_of_verdict",
            rows.self_ms("engine.inject") / (inject_ms + queries_ms),
            "ratio",
        ),
        (
            "share.render_of_report",
            render_ms / (inject_ms + queries_ms + render_ms + rows.self_ms("one_shot")),
            "ratio",
        ),
        ("trace.rows_over_wall", rows.sum_ms() / wall_ms, "ratio"),
    ];
    if (rows.sum_ms() / wall_ms - 1.0).abs() > 0.05 {
        return Err(format!(
            "the trace's rows sum to {:.1} ms, more than 5 % off the wall time {wall_ms:.1} ms",
            rows.sum_ms()
        ));
    }
    Ok(metrics)
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn write_out(name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

// -- the disk layer: traced run only, in child processes -----------------------

/// Runs this executable as a child and returns its standard output; the
/// child's standard error passes through.
fn child(arguments: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(arguments)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.success() {
        Ok(stdout)
    } else {
        print!("{stdout}");
        Err(format!(
            "child run {arguments:?} ended with {}",
            output.status
        ))
    }
}

/// A first child process fills a fresh cache directory; a second one, which
/// finds it primed, reports what a warm disk buys a cold process. Returns
/// both probes, the cold one first.
fn disk_layer(
    workload: &Workload,
    args: &Args,
) -> Result<(phases::DiskProbe, phases::DiskProbe), String> {
    let dir = Path::new(OUT_DIR).join(format!("cache-{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let arguments = [
        "--workload".to_string(),
        workload.name.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--disk-child".to_string(),
        dir.display().to_string(),
    ];
    let probe = || {
        let stdout = child(&arguments)?;
        let fields: Vec<f64> = stdout
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        match fields[..] {
            [open_ms, verdict_ms, hits] => Ok(phases::DiskProbe {
                open_ms,
                verdict_ms,
                persisted_hits: hits as u64,
            }),
            _ => Err(format!("unreadable disk-child output: {stdout}")),
        }
    };
    let both = probe().and_then(|cold| Ok((cold, probe()?)));
    let _ = std::fs::remove_dir_all(&dir);
    both
}

fn disk_child(args: &Args, dir: &Path) -> Result<(), String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("--disk-child needs --workload")?;
    let probe = phases::disk_probe(workload_named(name)?, args.seed, dir)?;
    println!(
        "{} {} {}",
        probe.open_ms, probe.verdict_ms, probe.persisted_hits
    );
    Ok(())
}

// -- the one command: every workload, each in its own process ------------------

/// One child run's result line, parsed.
struct Parsed {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Parsed {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }
}

fn run_child(workload: &Workload, args: &Args, trace: bool) -> Result<Parsed, String> {
    let stdout = child(&[
        "--workload".to_string(),
        workload.name.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        (trace as u8).to_string(),
    ])?;
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or("a child run printed no result")?;
    println!("{report}");
    let value: Value = serde_json::from_str(line).map_err(|e| format!("result line: {}", e.0))?;
    let metrics = value
        .get_key("metrics")
        .as_object()
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let number = match m.get_key("value") {
                Value::Number(serde_json::Number::Int(v)) => *v as f64,
                Value::Number(serde_json::Number::Float(v)) => *v,
                _ => f64::NAN,
            };
            (
                name.clone(),
                number,
                m.get_key("unit").as_str().unwrap_or("").to_string(),
            )
        })
        .collect();
    Ok(Parsed {
        attempted: value.get_key("attempted").as_u64().unwrap_or(0),
        failed: value.get_key("failed").as_u64().unwrap_or(0),
        metrics,
    })
}

fn tool_line(program: &str, arguments: &[&str]) -> String {
    Command::new(program)
        .args(arguments)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// End-to-end results of one pass over the workloads: per workload, the
/// metrics by name.
type Pass = Vec<(&'static str, Parsed)>;

fn end_to_end_pass(args: &Args) -> Result<Pass, String> {
    WORKLOADS
        .iter()
        .map(|w| run_child(w, args, false).map(|parsed| (w.name, parsed)))
        .collect()
}

fn metrics_json(parsed: &Parsed) -> Value {
    let mut map = serde_json::Map::new();
    for (name, value, unit) in &parsed.metrics {
        map.insert(name.clone(), json!({"value": *value, "unit": unit.clone()}));
    }
    Value::Object(map)
}

fn all(args: &Args) -> Result<(), String> {
    check_manifest()?;
    let pass = end_to_end_pass(args)?;
    let mut traced = Vec::new();
    for w in &WORKLOADS {
        traced.push(run_child(w, args, true)?);
    }

    println!(
        "\n== end-to-end (seed {}, {} s per run) ==",
        args.seed, args.seconds
    );
    print!("{:<18}", "workload");
    for (name, unit, ..) in END_TO_END {
        print!(" {:>19}", format!("{name} [{unit}]"));
    }
    println!(" {:>17}", "failed/attempted");
    for (workload, parsed) in &pass {
        print!("{workload:<18}");
        for (_, value, _) in &parsed.metrics {
            print!(" {value:>19.4}");
        }
        println!(" {:>17}", format!("{}/{}", parsed.failed, parsed.attempted));
    }
    println!("\n== tracing overhead: traced median minus untraced median ==");
    for ((workload, plain), traced) in pass.iter().zip(&traced) {
        print!("{workload:<18}");
        for name in ["verdict_ms", "report_ms", "reverify_ms", "query_p50_ms"] {
            let with = traced.value(&format!("trace.{name}"));
            print!(" {name} {:+.4} ms", with - plain.value(name));
        }
        println!();
    }

    let mut workloads = serde_json::Map::new();
    for ((workload, plain), traced) in pass.iter().zip(&traced) {
        workloads.insert(
            workload.to_string(),
            json!({
                "attempted": plain.attempted,
                "failed": plain.failed,
                "end_to_end": metrics_json(plain),
                "per_layer": metrics_json(traced),
            }),
        );
    }
    let results = json!({
        "commit": tool_line("git", &["rev-parse", "HEAD"]),
        "rustc": tool_line("rustc", &["--version"]),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": Value::Object(workloads),
    });
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.0)?;
    write_out("results.json", &text)?;
    println!("\nresults written to {OUT_DIR}/results.json");
    let failed: u64 = pass.iter().map(|(_, p)| p.failed).sum::<u64>()
        + traced.iter().map(|p| p.failed).sum::<u64>();
    if failed > 0 {
        return Err(format!("{failed} operations failed"));
    }
    Ok(())
}

/// `BENCHMARK.json`, when the run starts from a checkout's root, must list the
/// metrics and bounds this program uses.
fn check_manifest() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let manifest: Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {}", e.0))?;
    let listed = manifest
        .get_key("end_to_end")
        .as_array()
        .cloned()
        .unwrap_or_default();
    for (name, unit, better, bound) in END_TO_END {
        let ok = listed.iter().any(|m| {
            m.get_key("name").as_str() == Some(name)
                && m.get_key("unit").as_str() == Some(unit)
                && m.get_key("better").as_str() == Some(better)
                && *m.get_key("bound") == json!(bound)
        });
        if !ok {
            return Err(format!(
                "BENCHMARK.json does not list {name} [{unit}, {better}, {bound}]"
            ));
        }
    }
    Ok(())
}

// -- A/A: the same build against itself ----------------------------------------

fn aa(args: &Args) -> Result<(), String> {
    println!("== A/A: pass 1 ==");
    let first = end_to_end_pass(args)?;
    println!("== A/A: pass 2 ==");
    let second = end_to_end_pass(args)?;
    println!("\n== A/A: how much worse pass 2 is than pass 1, beside the bound ==");
    let mut broken = Vec::new();
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        if a.failed + b.failed > 0 {
            broken.push(format!(
                "{workload}: {} failed operations",
                a.failed + b.failed
            ));
        }
        for ((name, _, better, bound), ((_, x, _), (_, y, _))) in
            END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics))
        {
            let worse = if *better == "lower" {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let verdict = if worse > *bound { "EXCEEDS" } else { "ok" };
            println!(
                "{workload:<18} {name:<14} {x:>14.4} {y:>14.4}  {:>+7.2} %  bound {:>4.0} %  {verdict}",
                100.0 * worse,
                100.0 * bound
            );
            if worse > *bound {
                broken.push(format!("{workload} {name}: {:+.2} %", 100.0 * worse));
            }
        }
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!("A/A disagreement: {}", broken.join("; ")))
    }
}

// -- selftest: the oracle must notice a wrong reference ------------------------

fn selftest(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().unwrap_or("router_lpm_cold");
    let workload = workload_named(name)?;
    let short = Args {
        seconds: 1,
        trace: false,
        ..args.clone()
    };
    let run = run_workload(workload, &short, true)?;
    if run.correct() {
        eprintln!("selftest: a wrong expected port went unnoticed — the oracle is blind");
        std::process::exit(2);
    }
    Err(format!(
        "selftest passed: the planted wrong port failed {} of {} operations on {} (non-zero exit as designed)",
        run.tally.failed, run.tally.attempted, workload.name
    ))
}
