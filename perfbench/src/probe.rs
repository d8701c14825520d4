//! A fixed reference probe of how fast the host runs at the moment.
//!
//! On a shared host the speed of a core drifts by up to about 1.8x over
//! minutes (busy neighbours on the same cores, caches and memory), and every
//! stage of the program slows with it. The probe is a small, fixed piece of
//! work that does not call the program: a pointer chase through a cache-sized
//! random cycle, `BTreeMap` churn and a sort. Timed right before and right
//! after each repetition, it tells how fast the host ran around that
//! repetition, and the benchmark scales the repetition's times to what they
//! would have been at the probe's reference speed. A change to the program
//! moves these scaled times exactly as much as the wall times; a change in
//! the host's load moves them much less.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The probe's time at the reference speed: the median of [`probe`] on the
/// 2-core VM the baseline was measured on. Scaled times are in seconds at
/// this speed.
pub const PROBE_REF_S: f64 = 0.04;

/// Entries of the pointer-chase cycle (512 KiB of `u32`).
const CHASE_LEN: usize = 1 << 17;
/// Dependent loads per probe.
const CHASE_STEPS: usize = 1_500_000;
/// `BTreeMap` updates and lookups per probe.
const MAP_OPS: u64 = 100_000;
/// Keys of the `BTreeMap`.
const MAP_KEYS: u64 = 20_000;
/// Values sorted per probe.
const SORT_LEN: u64 = 100_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One random cycle through `0..CHASE_LEN` (Sattolo's shuffle, fixed seed).
fn cycle() -> &'static [u32] {
    static CYCLE: OnceLock<Vec<u32>> = OnceLock::new();
    CYCLE.get_or_init(|| {
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15;
        for i in (1..CHASE_LEN).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            next.swap(i, j);
        }
        next
    })
}

/// Runs the probe once and returns its wall time in seconds.
pub fn probe() -> f64 {
    let next = cycle();
    let start = Instant::now();
    let mut i = 0u32;
    for _ in 0..CHASE_STEPS {
        i = next[i as usize];
    }
    black_box(i);

    let mut x = 0x2545_f491_4f6c_dd1d;
    let mut map = BTreeMap::new();
    let mut hits = 0u64;
    for _ in 0..MAP_OPS {
        let r = xorshift(&mut x);
        *map.entry(r % MAP_KEYS).or_insert(0u64) += 1;
        hits = hits.wrapping_add(map.get(&((r >> 32) % MAP_KEYS)).copied().unwrap_or(0));
    }
    black_box(hits);

    let mut values: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut x)).collect();
    values.sort_unstable();
    black_box(&values);
    start.elapsed().as_secs_f64()
}
