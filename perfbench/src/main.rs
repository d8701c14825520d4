//! `perfbench` — the repository benchmark: two PropHunt workloads measured
//! end to end, plus a traced run that splits their time across the crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <surface|ldpc|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the benchmark repeats the workload on fresh seeded inputs
//! until `--seconds` have passed. Each repetition sets up a cold `Session`
//! and runs the jobs one after another from this one caller (a closed loop),
//! then runs the output checks outside the timed region. It prints the
//! end-to-end metrics as trimmed means over the repetitions, with times
//! scaled to the reference host speed of `probe.rs` (the raw wall times are
//! printed beside them). With `--trace 1` it runs the traced run of
//! `traced.rs` and prints the per-layer metrics. The
//! last line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

mod probe;
mod replica;
mod traced;
mod workload;

use probe::{probe, PROBE_REF_S};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use traced::{traced_run, PER_LAYER};
use workload::{
    check_rep, median, rep_seed, run_rep, trimmed_mean, Specs, Tally, Workload, CHUNK_SIZE, THREADS,
};

/// The end-to-end metrics every workload reports; the JSON line carries
/// exactly these.
const END_TO_END: [&str; 5] = [
    "total_s",
    "setup_s",
    "optimize_s",
    "ler_shots_per_s",
    "peak_rss_mb",
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One reported metric: name, value, unit and sample count.
type Reported = (String, f64, &'static str, usize);

/// Repeats `workload` on fresh seeded inputs for `seconds` and returns its
/// end-to-end and workload-specific metrics, each the trimmed mean over the
/// repetitions (`setup_s`: the median over every set-up), or `None` when no
/// repetition succeeded.
fn timed_run(
    workload: Workload,
    specs: &Specs,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Option<Vec<Reported>> {
    let start = Instant::now();
    let mut samples: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    // Every set-up of the run, at reference speed; `setup_s` is their median.
    let mut setups = Vec::new();
    let mut rep = 0;
    // Start another repetition only while the mean one still fits.
    while rep == 0 || start.elapsed().as_secs_f64() * (rep as f64 + 1.0) / rep as f64 <= seconds {
        let seed = rep_seed(seed, rep);
        rep += 1;
        let before = probe();
        let outcome = run_rep(workload, specs, seed, THREADS);
        let probe_s = (before + probe()) / 2.0;
        let Some(mut r) = tally.record(outcome) else {
            continue;
        };
        // The per-shot oracle is slow on BP+OSD, so only the first
        // repetition of a run pays for it.
        check_rep(workload, specs, &mut r, seed, rep == 1, tally);
        // Times at the probe's reference speed (see `probe.rs`).
        let scale = PROBE_REF_S / probe_s;
        setups.extend(r.setups.iter().map(|s| s * scale));
        let optimize_s = r.optimize.wall.as_secs_f64();
        let mut s = vec![
            ("total_s", r.total_s * scale, "s"),
            ("setup_s", r.setup_s * scale, "s"),
            ("optimize_s", optimize_s * scale, "s"),
            ("ler_shots_per_s", r.ler_shots_per_s() / scale, "shots/s"),
        ];
        if let Some(search) = &r.search {
            s.push(("search_s", search.wall.as_secs_f64() * scale, "s"));
            s.push(("search_depth", search.result.best.depth as f64, "layers"));
        }
        if let Some(gain) = r.ler_gain() {
            s.push(("ler_gain", gain, "ratio"));
        }
        s.extend([
            ("probe_s", probe_s, "s"),
            ("wall.total_s", r.total_s, "s"),
            ("wall.setup_s", r.setup_s, "s"),
            ("wall.optimize_s", optimize_s, "s"),
            ("wall.ler_shots_per_s", r.ler_shots_per_s(), "shots/s"),
        ]);
        if let Some(search) = &r.search {
            s.push(("wall.search_s", search.wall.as_secs_f64(), "s"));
        }
        let line: Vec<String> = s.iter().map(|(n, v, _)| format!("{n}={v:.6}")).collect();
        println!("rep {rep} seed={seed} {}", line.join(" "));
        samples.push(s);
    }
    let first = samples.first()?;
    let mut out: Vec<Reported> = first
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
            (name.to_string(), trimmed_mean(&values), unit, values.len())
        })
        .collect();
    if let Some(setup) = out.iter_mut().find(|m| m.0 == "setup_s") {
        setup.3 = setups.len();
        setup.1 = median(setups);
    }
    let rss = tally.record(peak_rss_mb())?;
    out.push(("peak_rss_mb".into(), rss, "MB", 1));
    Some(out)
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut tally = Tally::default();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let prefixed = args.workloads.len() > 1;
    for &workload in &args.workloads {
        println!(
            "perfbench workload={} seed={} seconds={} trace={} threads={THREADS} nproc={nproc} chunk_size={CHUNK_SIZE}",
            workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
        );
        let mut own = Tally::default();
        let name = |metric: &str| {
            if prefixed {
                format!("{}.{metric}", workload.name())
            } else {
                metric.to_string()
            }
        };
        let Some(specs) = own.record(workload.specs()) else {
            tally.add(own);
            continue;
        };
        if args.trace {
            let (m, n) = traced_run(workload, &specs, args.seed, args.seconds, &mut own);
            for (metric, unit) in PER_LAYER {
                let value = m.get(metric).copied().unwrap_or(0.0);
                println!("{metric:<28} {value:>16.6} {unit:<8} n={n}");
                metrics.push((name(metric), value, unit));
            }
        } else if let Some(reported) =
            timed_run(workload, &specs, args.seed, args.seconds, &mut own)
        {
            for (metric, value, unit, n) in &reported {
                println!("{metric:<22} {value:>16.6} {unit:<8} n={n}");
                if END_TO_END.contains(&metric.as_str()) {
                    metrics.push((name(metric), *value, unit));
                }
            }
        }
        println!(
            "failed_frac {} ({} of {} operations)",
            own.failed as f64 / own.attempted.max(1) as f64,
            own.failed,
            own.attempted
        );
        tally.add(own);
    }
    let expected = if args.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    let correct = tally.failed == 0 && metrics.len() == expected * args.workloads.len();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
