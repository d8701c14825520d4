//! `prophunt report` — render a human-readable summary of a metrics stream
//! written by `--metrics` (or any report file containing `metrics` records):
//! counter totals, cache hit rates, and histogram quantiles. With a second
//! file, also prints a diff of the deterministic counters, the gauges and the
//! histogram shapes against that baseline.

use crate::args::CliError;
use crate::common::read_file;
use prophunt_formats::parse_report;
use prophunt_formats::report::{MetricsHistogram, ReportRecord};

pub const USAGE: &str = "\
prophunt report <metrics.jsonl> [<baseline.jsonl>]

Summarizes a JSON-lines metrics file (written by the --metrics flag of
ler/optimize/search/sweep, or any report stream carrying a `metrics` record):

  * the `meta` provenance line (crate version, seed, threads, chunk size, engine)
  * counter totals — the deterministic subset, bit-identical at any thread count
  * hit rates for every `<name>.hit` / `<name>.miss` counter pair
  * gauges, and histogram count / p50 / p90 / p99 / mean (`.ns` names are
    rendered as durations)

With a second path the counters, gauges and histograms of <metrics.jsonl> are
diffed against <baseline.jsonl>: counters should match exactly across thread
counts at a fixed seed; gauges and timing histograms are expected to differ.";

/// Everything `report` reads out of one metrics file.
struct MetricsFile {
    meta: Option<(String, u64, u64, u64, String)>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<MetricsHistogram>,
}

fn load(path: &str) -> Result<MetricsFile, CliError> {
    parse_metrics(path, &read_file(path)?)
}

fn parse_metrics(path: &str, text: &str) -> Result<MetricsFile, CliError> {
    let records = parse_report(text).map_err(|e| CliError::failure(format!("{path}: {e}")))?;
    let meta = records.iter().find_map(|r| match r {
        ReportRecord::Meta {
            version,
            seed,
            threads,
            chunk_size,
            engine,
            ..
        } => Some((
            version.clone(),
            *seed,
            *threads,
            *chunk_size,
            engine.clone(),
        )),
        _ => None,
    });
    // The last metrics record wins: a stream that snapshots repeatedly ends
    // with the most complete registry state.
    let metrics = records
        .iter()
        .rev()
        .find_map(|r| match r {
            ReportRecord::Metrics {
                counters,
                gauges,
                histograms,
            } => Some((counters.clone(), gauges.clone(), histograms.clone())),
            _ => None,
        })
        .ok_or_else(|| {
            CliError::failure(format!(
                "{path}: no metrics record found (was this written with --metrics?)"
            ))
        })?;
    Ok(MetricsFile {
        meta,
        counters: metrics.0,
        gauges: metrics.1,
        histograms: metrics.2,
    })
}

/// Percentage rates derived from the deterministic counters: one
/// `<prefix> hit rate` per `<prefix>.hit` / `<prefix>.miss` sibling pair
/// (session caches, the frames-engine syndrome-dedup cache), plus the batch
/// decode pipeline's BP convergence rate — the fraction of non-trivial
/// distinct syndromes min-sum BP resolved without the OSD-0 fallback
/// (`ler.decode.bp.converged` out of converged + `ler.decode.osd.calls`).
///
/// Derived from deterministic inputs, these rates are themselves bit-identical
/// at any thread count for a fixed (seed, chunk_size, engine), so the diff
/// mode treats them like counters: any drift is a real behavior change.
fn derived_rates(counters: &[(String, u64)]) -> Vec<(String, f64)> {
    let lookup = |name: &str| counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    let mut rates = Vec::new();
    for (name, hits) in counters {
        let Some(prefix) = name.strip_suffix(".hit") else {
            continue;
        };
        let misses = lookup(&format!("{prefix}.miss")).unwrap_or(0);
        let total = hits + misses;
        if total > 0 {
            rates.push((
                format!("{prefix} hit rate"),
                100.0 * *hits as f64 / total as f64,
            ));
        }
    }
    if let Some(converged) = lookup("ler.decode.bp.converged") {
        let osd = lookup("ler.decode.osd.calls").unwrap_or(0);
        let total = converged + osd;
        if total > 0 {
            rates.push((
                "ler.decode.bp convergence rate".into(),
                100.0 * converged as f64 / total as f64,
            ));
        }
    }
    rates
}

/// Formats a value that may be a duration: `.ns`-suffixed instruments render
/// as human-readable times, everything else as a plain count.
fn fmt_value(name: &str, v: f64) -> String {
    if !name.ends_with(".ns") {
        return format!("{v:.0}");
    }
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{v:.0}ns")
    }
}

fn print_summary(path: &str, file: &MetricsFile) {
    println!("{path}");
    if let Some((version, seed, threads, chunk_size, engine)) = &file.meta {
        let engine = if engine.is_empty() { "-" } else { engine };
        println!(
            "  meta: v{version} seed={seed} threads={threads} chunk_size={chunk_size} \
             engine={engine}"
        );
    }
    if !file.counters.is_empty() {
        println!("  counters (deterministic at fixed seed/chunk-size):");
        for (name, value) in &file.counters {
            println!("    {name:<36} {value:>14}");
        }
        for (name, rate) in derived_rates(&file.counters) {
            println!("    {name:<36} {rate:>13.1}%");
        }
    }
    if !file.gauges.is_empty() {
        println!("  gauges:");
        for (name, value) in &file.gauges {
            println!("    {name:<36} {value:>14}");
        }
    }
    if !file.histograms.is_empty() {
        println!(
            "  histograms: {:<24} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "", "count", "p50", "p90", "p99", "mean"
        );
        for h in &file.histograms {
            println!(
                "    {:<36} {:>10} {:>10} {:>10} {:>10} {:>10}",
                h.name,
                h.count,
                fmt_value(&h.name, h.quantile(0.5) as f64),
                fmt_value(&h.name, h.quantile(0.9) as f64),
                fmt_value(&h.name, h.quantile(0.99) as f64),
                fmt_value(&h.name, h.mean()),
            );
        }
    }
}

fn print_diff(current: &MetricsFile, baseline: &MetricsFile) {
    println!("diff (current vs baseline):");
    let mut names: Vec<&String> = current
        .counters
        .iter()
        .chain(baseline.counters.iter())
        .map(|(n, _)| n)
        .collect();
    names.sort();
    names.dedup();
    let value_in = |file: &MetricsFile, name: &str| {
        file.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let mut identical = 0usize;
    for name in names {
        let (a, b) = (value_in(current, name), value_in(baseline, name));
        if a == b {
            identical += 1;
        } else {
            println!(
                "  counter {name:<28} {b:>12} -> {a:>12} ({:+})",
                a as i128 - b as i128
            );
        }
    }
    println!("  {identical} counters identical");
    // Derived rates are pure functions of the counters, so like the counters
    // they must agree across thread counts at a fixed (seed, chunk_size,
    // engine); a drifting hit or convergence rate is a real behavior change.
    let current_rates = derived_rates(&current.counters);
    let baseline_rates = derived_rates(&baseline.counters);
    let rate_in = |rates: &[(String, f64)], name: &str| {
        rates.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };
    let mut rates_identical = 0usize;
    for (name, a) in &current_rates {
        match rate_in(&baseline_rates, name) {
            Some(b) if b == *a => rates_identical += 1,
            Some(b) => {
                println!(
                    "  rate    {name:<28} {b:>11.1}% -> {a:>11.1}% ({:+.1}pp)",
                    a - b
                )
            }
            None => println!("  rate    {name:<28} {:>12} -> {a:>11.1}%", "-"),
        }
    }
    for (name, b) in &baseline_rates {
        if rate_in(&current_rates, name).is_none() {
            println!("  rate    {name:<28} {b:>11.1}% -> {:>12}", "-");
        }
    }
    println!("  {rates_identical} derived rates identical");
    // Gauge deltas, mirroring the counter loop. Gauges are thread-dependent
    // (occupancy, peaks), so differences are expected — the diff makes them
    // visible instead of silently dropping the class.
    let mut gauge_names: Vec<&String> = current
        .gauges
        .iter()
        .chain(baseline.gauges.iter())
        .map(|(n, _)| n)
        .collect();
    gauge_names.sort();
    gauge_names.dedup();
    let gauge_in = |file: &MetricsFile, name: &str| {
        file.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let mut gauges_identical = 0usize;
    for name in gauge_names {
        let (a, b) = (gauge_in(current, name), gauge_in(baseline, name));
        if a == b {
            gauges_identical += 1;
        } else {
            println!(
                "  gauge   {name:<28} {b:>12} -> {a:>12} ({:+})",
                a as i128 - b as i128
            );
        }
    }
    println!("  {gauges_identical} gauges identical");
    for h in &current.histograms {
        let Some(base) = baseline.histograms.iter().find(|b| b.name == h.name) else {
            continue;
        };
        println!(
            "  hist {:<31} count {} -> {}, mean {} -> {}",
            h.name,
            base.count,
            h.count,
            fmt_value(&h.name, base.mean()),
            fmt_value(&h.name, h.mean()),
        );
    }
}

pub fn run(args: &[String]) -> Result<(), CliError> {
    // `report` takes positional paths, not `--flag value` pairs.
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(CliError::usage(format!(
            "report takes file paths, not flags (got {flag:?})"
        )));
    }
    let (path, baseline_path) = match args {
        [path] => (path, None),
        [path, baseline] => (path, Some(baseline)),
        _ => {
            return Err(CliError::usage(
                "report needs one metrics file (and optionally a baseline to diff against)",
            ))
        }
    };
    let current = load(path)?;
    print_summary(path, &current);
    if let Some(baseline_path) = baseline_path {
        let baseline = load(baseline_path)?;
        println!();
        print_summary(baseline_path, &baseline);
        println!();
        print_diff(&current, &baseline);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A golden `--metrics` stream from a frames-engine LER run: the meta
    /// provenance line plus one metrics record carrying the batch decode
    /// pipeline's deterministic counters (4096 shots: 781 all-zero syndromes,
    /// 3315 non-trivial of which 352 were chunk-local cache hits, and of the
    /// 2963 decoded distinct syndromes 2170 converged in BP while 793 fell
    /// through to OSD-0).
    const GOLDEN_METRICS: &str = concat!(
        r#"{"type":"meta","version":"0.1.0","seed":7,"threads":8,"chunk_size":64,"#,
        r#""engine":"frames"}"#,
        "\n",
        r#"{"type":"metrics","counters":{"ler.chunks":64,"ler.shots":4096,"#,
        r#""ler.failures":21,"ler.decode.zero":781,"ler.decode.cache.hit":352,"#,
        r#""ler.decode.cache.miss":2963,"ler.decode.bp.converged":2170,"#,
        r#""ler.decode.osd.calls":793,"session.dem.hit":3,"session.dem.miss":1},"#,
        r#""gauges":{},"histograms":[]}"#,
        "\n",
    );

    #[test]
    fn derived_rates_are_pinned_on_the_golden_metrics_fixture() {
        let file = parse_metrics("golden.jsonl", GOLDEN_METRICS).expect("fixture parses");
        assert_eq!(file.meta, Some(("0.1.0".into(), 7, 8, 64, "frames".into())));
        let rates = derived_rates(&file.counters);
        // One rate per .hit/.miss pair (in counter order) plus the BP
        // convergence rate, each an exact function of the counters.
        assert_eq!(rates.len(), 3);
        let rate = |name: &str| {
            rates
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing derived rate {name}"))
                .1
        };
        assert_eq!(
            rate("ler.decode.cache hit rate"),
            100.0 * 352.0 / (352.0 + 2963.0)
        );
        assert_eq!(rate("session.dem hit rate"), 100.0 * 3.0 / 4.0);
        assert_eq!(
            rate("ler.decode.bp convergence rate"),
            100.0 * 2170.0 / (2170.0 + 793.0)
        );
    }

    #[test]
    fn bp_convergence_rate_needs_batch_counters() {
        // A stream recorded by the retired scalar engine has no ler.decode.*
        // counters: no convergence rate row, and no division by an all-zero
        // total.
        let counters = vec![("ler.shots".to_string(), 4096u64)];
        assert!(derived_rates(&counters).is_empty());
        let zeroed = vec![
            ("ler.decode.bp.converged".to_string(), 0u64),
            ("ler.decode.osd.calls".to_string(), 0u64),
        ];
        assert!(derived_rates(&zeroed).is_empty());
    }
}
