//! Host-speed probe: a fixed CPU kernel that uses no dta crate code.
//!
//! The benchmark host is a shared virtual machine whose speed drifts by
//! a third and more over minutes, which moves every host time of a
//! pass by about the same factor. A pass times this kernel before and
//! after its workload; `perfbench/run.py` scales the pass's host times
//! by the reference probe time over the pass's median probe time, so
//! they read as seconds on a reference host: a change of host speed
//! cancels, while a change of the program's own speed does not (the
//! kernel never calls the program).
//!
//! The kernel mixes what the simulator's hot path does: scattered reads
//! and writes over a table larger than L1, Q6.10 fixed-point
//! multiply-accumulate with saturation and data-dependent branches, a
//! sigmoid in `f64`, and small heap allocations.

use std::hint::black_box;
use std::time::Instant;

/// Timed kernel runs per probe.
const REPS: usize = 5;

const TABLE_WORDS: usize = 1 << 17;
const STEPS: usize = 1_500_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn kernel(table: &mut [u32]) -> u64 {
    for (i, w) in table.iter_mut().enumerate() {
        *w = (i as u32).wrapping_mul(2_654_435_761);
    }
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc: i32 = 0;
    let mut out = 0u64;
    for step in 0..STEPS {
        let r = xorshift(&mut rng);
        let i = (r as usize) & (TABLE_WORDS - 1);
        let w = table[i];
        // Q6.10 multiply-accumulate, saturated to 16 bits.
        let prod = ((w as i16 as i32) * ((r >> 32) as i16 as i32)) >> 10;
        acc = (acc + prod).clamp(-32_768, 32_767);
        if acc & 1 == 0 {
            table[(i + (r >> 20) as usize) & (TABLE_WORDS - 1)] ^= acc as u32;
        } else {
            acc = acc.rotate_left(3) >> 4;
        }
        if step % 16 == 0 {
            let s = 1.0 / (1.0 + (-(acc as f64) / 1024.0).exp());
            let v: Vec<u16> = (0..(r & 31) as u16).collect();
            out = out.wrapping_add((s * 1e6) as u64 + v.len() as u64);
        }
    }
    out ^ acc as u64
}

/// Seconds of each of `REPS` kernel runs, after one untimed warm-up run.
pub fn probe() -> Vec<f64> {
    let mut table = vec![0u32; TABLE_WORDS];
    black_box(kernel(&mut table));
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(&mut table));
            t.elapsed().as_secs_f64()
        })
        .collect()
}
