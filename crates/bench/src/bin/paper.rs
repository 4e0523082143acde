//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p symnet-bench --bin paper -- all
//! cargo run --release -p symnet-bench --bin paper -- table1 fig8 table2
//! cargo run --release -p symnet-bench --bin paper -- --full all
//! ```
//!
//! Without `--full`, reduced workload sizes are used so that every experiment
//! finishes in seconds on a laptop; `--full` uses the paper-scale parameters
//! (hundreds of thousands of MAC-table entries and prefixes).
//!
//! `fuzz --seed S --iters N` runs the differential fuzzing campaign instead
//! of a paper experiment: N mutated scenarios rotating over the generator
//! family, every delivered symbolic path concretized and replayed against the
//! reference network (see `symnet_testgen::fuzz`). Exits non-zero on any
//! symbolic-vs-concrete divergence, or if the built-in canary bug goes
//! undetected. `fuzz` only runs when requested explicitly — it is not part
//! of `all`.
//!
//! `--cache-dir DIR` activates the persistent (disk-backed) solver cache for
//! the whole invocation: a second run pointed at the same directory reads
//! the first run's verdicts from disk and reports the same paths and
//! outcomes. A summary of persistent-cache traffic is printed on exit.
//! `sec85 --report-json FILE` additionally dumps the sec85 experiment as
//! deterministic JSON (timing zeroed) — the byte-comparison artifact CI uses
//! to assert cold-vs-warm identity.

use symnet_bench::{
    fig8, sec83, sec84, sec85, sec85_report_json, table1, table2, table3, table4, table5,
};
use symnet_solver::cache;
use symnet_testgen::fuzz::{run_canary, run_fuzz, FuzzConfig};

/// Every experiment name `paper` accepts.
const EXPERIMENTS: &[&str] = &[
    "table1", "fig8", "table2", "table3", "table4", "table5", "sec83", "sec84", "sec85", "fuzz",
    "all",
];

/// Rejects a misspelt argument instead of silently running nothing.
fn usage_error(what: &str) -> ! {
    eprintln!(
        "{what}; experiments: {}; options: --full --cache-dir DIR --report-json FILE \
         --seed S --iters N",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn parse_u64(value: &str) -> Option<u64> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full = false;
    let mut seed: Option<u64> = None;
    let mut iters: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut report_json: Option<String> = None;
    let mut selected: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--full" {
            full = true;
        } else if arg == "--cache-dir" {
            cache_dir = iter.next().cloned();
            if cache_dir.is_none() {
                eprintln!("--cache-dir expects a directory path");
                std::process::exit(2);
            }
        } else if let Some(v) = arg.strip_prefix("--cache-dir=") {
            cache_dir = Some(v.to_string());
        } else if arg == "--report-json" {
            report_json = iter.next().cloned();
            if report_json.is_none() {
                eprintln!("--report-json expects a file path");
                std::process::exit(2);
            }
        } else if let Some(v) = arg.strip_prefix("--report-json=") {
            report_json = Some(v.to_string());
        } else if arg == "--seed" {
            seed = iter.next().and_then(|v| parse_u64(v));
            if seed.is_none() {
                eprintln!("--seed expects an integer (decimal or 0x-hex)");
                std::process::exit(2);
            }
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            seed = parse_u64(v);
            if seed.is_none() {
                eprintln!("--seed expects an integer (decimal or 0x-hex)");
                std::process::exit(2);
            }
        } else if arg == "--iters" {
            iters = iter.next().and_then(|v| v.parse().ok());
            if iters.is_none() {
                eprintln!("--iters expects a positive integer");
                std::process::exit(2);
            }
        } else if let Some(v) = arg.strip_prefix("--iters=") {
            match v.parse() {
                Ok(n) => iters = Some(n),
                Err(_) => {
                    eprintln!("--iters expects a positive integer");
                    std::process::exit(2);
                }
            }
        } else if arg.starts_with("--") {
            usage_error(&format!("unknown option {arg}"));
        } else if EXPERIMENTS.contains(&arg.as_str()) {
            selected.push(arg.as_str());
        } else {
            usage_error(&format!("unknown experiment {arg}"));
        }
    }

    if let Some(dir) = &cache_dir {
        match cache::configure(std::path::Path::new(dir)) {
            Ok(true) => println!("persistent-cache: active at {dir}"),
            Ok(false) => {
                eprintln!("persistent-cache: {dir} is locked by another live process; running cold")
            }
            Err(e) => {
                eprintln!("persistent-cache: cannot open {dir}: {e}");
                std::process::exit(2);
            }
        }
    }

    if selected.contains(&"fuzz") {
        let code = fuzz_campaign(seed, iters);
        finish_cache();
        std::process::exit(code);
    }
    let all = selected.is_empty() || selected.contains(&"all");
    let want = |name: &str| all || selected.contains(&name);

    if want("table1") {
        // The paper runs Klee for lengths 1..=7; length 6-7 take a very long
        // time even for the paper (≥30 minutes), so the quick mode stops at 5.
        let max_length = if full { 7 } else { 5 };
        println!("{}", table1(max_length).render());
    }
    if want("fig8") {
        let sizes: &[usize] = if full {
            &[440, 1_000, 10_000, 100_000, 480_000]
        } else {
            &[440, 1_000, 10_000, 50_000]
        };
        let basic_cutoff = 1_000;
        println!("{}", fig8(sizes, basic_cutoff).render());
    }
    if want("table2") {
        let total = if full { 188_500 } else { 20_000 };
        println!("{}", table2(total, total / 50).render());
    }
    if want("table3") {
        let (zones, prefixes) = if full { (14, 10_000) } else { (8, 1_000) };
        println!("{}", table3(zones, prefixes).render());
    }
    if want("table4") {
        println!("{}", table4(if full { 4 } else { 3 }).render());
    }
    if want("table5") {
        println!("{}", table5().render());
    }
    if want("sec83") {
        println!("{}", sec83().render());
    }
    if want("sec84") {
        println!("{}", sec84().render());
    }
    if want("sec85") {
        let (sw, macs, routes) = if full { (15, 6_000, 400) } else { (6, 600, 50) };
        println!("{}", sec85(sw, macs, routes).render());
        if let Some(path) = &report_json {
            let json = sec85_report_json(sw, macs, routes);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("--report-json: cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("sec85 report written to {path}");
        }
    }
    if full {
        // The formula interner's eviction counters tell whether the
        // paper-scale working set actually fit (evicted == 0).
        print_eviction_stats();
    }
    finish_cache();
}

/// Prints the process-wide interner eviction counters (see
/// `symnet_solver::eviction_stats`).
fn print_eviction_stats() {
    let ev = symnet_solver::eviction_stats();
    println!(
        "interner evictions: formulas {}/{} (evicted/sweeps)",
        ev.evicted, ev.sweeps
    );
}

/// Flushes the persistent cache and prints its traffic summary, if active.
fn finish_cache() {
    if !cache::active() {
        return;
    }
    cache::flush();
    let c = cache::counters();
    println!(
        "persistent-cache: verdict hits={} misses={} stores={}, projection hits={} misses={} stores={}",
        c.verdict_hits,
        c.verdict_misses,
        c.verdict_stores,
        c.projection_hits,
        c.projection_misses,
        c.projection_stores
    );
    cache::deactivate();
}

/// Runs the differential fuzzing campaign; returns the process exit code.
fn fuzz_campaign(seed: Option<u64>, iters: Option<usize>) -> i32 {
    let config = FuzzConfig {
        seed: seed.unwrap_or(FuzzConfig::default().seed),
        iters: iters.unwrap_or(500),
        ..FuzzConfig::default()
    };

    // The canary proves the oracle can see: a planted TTL double-decrement
    // must be reported before any clean campaign result is believable.
    match run_canary() {
        Ok(failure) => println!(
            "canary: planted TTL bug detected ({})",
            failure.detail.split(':').next_back().unwrap_or("").trim()
        ),
        Err(e) => {
            eprintln!("canary FAILED: {e}");
            return 1;
        }
    }

    println!(
        "fuzz campaign: seed {:#x}, {} iterations, up to {} mutations/case",
        config.seed, config.iters, config.max_mutations
    );
    let report = run_fuzz(&config);
    for (generator, cases) in &report.per_generator {
        println!("  {generator:<20} {cases} cases");
    }
    println!(
        "  {} cases, {} delivered paths replayed, {} mutations applied, {} failure(s)",
        report.cases,
        report.paths_checked,
        report.mutations_applied,
        report.failures.len()
    );
    // Campaigns churn through thousands of interned formulas; surface whether
    // the interner had to evict.
    print_eviction_stats();
    if report.is_clean() {
        println!("fuzz: every symbolic path agreed with its concrete replay");
        0
    } else {
        for failure in &report.failures {
            eprintln!("{failure}");
        }
        1
    }
}
