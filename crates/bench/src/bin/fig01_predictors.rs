//! Figure 1: circuit depth and effective distance are imperfect predictors of the
//! logical error rate. Generates many valid schedules for a surface code and prints
//! (depth, d_eff estimate, LER) triples; the paper's counterexamples correspond to rows
//! with equal depth / d_eff but different LER.

use prophunt::{PropHunt, PropHuntConfig};
use prophunt_api::{NoiseSpec, ShotBudget};
use prophunt_bench::{bench_session, run_ler_point, stage_seed};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_qec::surface::rotated_surface_code_with_layout;
use prophunt_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = std::env::var("PROPHUNT_FULL").is_err();
    let d = if quick { 3 } else { 5 };
    let shots = if quick { 800 } else { 5_000 };
    let num_schedules = if quick { 6 } else { 20 };
    let mut session = bench_session();
    let runtime = *session.runtime().config();
    let (code, layout) = rotated_surface_code_with_layout(d);
    let prophunt = PropHunt::new(
        code.clone(),
        PropHuntConfig::quick(d),
        Runtime::new(runtime.with_seed(stage_seed(&runtime, 0x5eed_0001))),
    );
    let mut rng = StdRng::seed_from_u64(2024);

    let mut schedules = vec![
        (
            "hand_designed".to_string(),
            ScheduleSpec::surface_hand_designed(&code, &layout),
        ),
        (
            "poor".to_string(),
            ScheduleSpec::surface_poor(&code, &layout),
        ),
        ("coloration".to_string(), ScheduleSpec::coloration(&code)),
    ];
    let mut added = 0;
    while added < num_schedules {
        let s = ScheduleSpec::random(&code, &mut rng);
        if s.validate(&code).is_ok() {
            schedules.push((format!("random_{added}"), s));
            added += 1;
        }
    }

    println!("Figure 1: depth and d_eff vs logical error rate (surface code d = {d}, p = 1e-3)");
    println!(
        "{:<16} {:>6} {:>6} {:>10}",
        "schedule", "depth", "d_eff", "LER"
    );
    for (name, schedule) in schedules {
        let depth = schedule.depth().unwrap();
        let deff = prophunt
            .estimate_effective_distance(&schedule, 8)
            .unwrap_or(0);
        let ler = run_ler_point(
            &mut session,
            &code,
            &schedule,
            d,
            NoiseSpec::uniform(1e-3),
            ShotBudget::fixed(shots),
            5,
        )
        .combined
        .rate();
        println!("{name:<16} {depth:>6} {deff:>6} {ler:>10.5}");
    }
}
