//! Figure 13: PropHunt's robustness to the choice of (random) coloration circuit used as
//! the optimization starting point.

use prophunt::{PropHunt, PropHuntConfig};
use prophunt_api::{NoiseSpec, ShotBudget};
use prophunt_bench::{bench_session, benchmark_suite, run_ler_point, stage_seed};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let full = std::env::var("PROPHUNT_FULL").is_ok();
    let shots = if full { 10_000 } else { 1_000 };
    let starts = if full { 3 } else { 2 };
    let p = 2e-3;
    println!("Figure 13: start/end LER over {starts} random coloration circuits (p = {p})");
    println!(
        "{:<14} {:>5} {:>14} {:>14}",
        "code", "start#", "LER(start)", "LER(end)"
    );
    let mut session = bench_session();
    let runtime = *session.runtime().config();
    let mut rng = StdRng::seed_from_u64(99);
    for bench in benchmark_suite(false) {
        let code = &bench.code;
        let rounds = bench.rounds.min(3);
        for s in 0..starts {
            let baseline = ScheduleSpec::coloration_random(code, &mut rng);
            let config = PropHuntConfig {
                iterations: 3,
                samples_per_iteration: 30,
                ..PropHuntConfig::quick(rounds)
            };
            let seed = stage_seed(&runtime, 1000 + s as u64);
            let prophunt =
                PropHunt::new(code.clone(), config, Runtime::new(runtime.with_seed(seed)));
            let result = prophunt
                .try_optimize(baseline.clone())
                .expect("random coloration baseline is valid");
            let mut ler = |schedule| {
                run_ler_point(
                    &mut session,
                    code,
                    schedule,
                    rounds,
                    NoiseSpec::uniform(p),
                    ShotBudget::fixed(shots),
                    3,
                )
                .combined
                .rate()
            };
            let before = ler(&baseline);
            let after = ler(&result.final_schedule);
            println!("{:<14} {s:>5} {before:>14.5} {after:>14.5}", code.name());
        }
    }
}
