//! One cold pass of one benchmark workload.
//!
//! ```sh
//! perfbench-runner --workload fig10 --seed 7 --trace 0 [--spans FILE]
//! ```
//!
//! Builds the workload's inputs from `--seed` (several times, to time
//! set-up), runs every unit of work once through the dta crates'
//! public functions, and prints one JSON object on stdout: set-up
//! times, timed-phase wall time, host-speed probe times, per-unit
//! times, simulated rows, peak RSS, the result digest and, with `--trace 1`, the per-layer
//! metrics. `perfbench/run.py` starts one such process per pass, so
//! every pass starts with the process-wide memos empty.

mod calibrate;
mod digest;
mod fig10;
mod memfault;
mod mission;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use digest::Digest;

/// Set-up is repeated this many times per pass; the first build is the
/// one the pass uses.
const SETUP_REPS: usize = 9;

/// Wall-clock budget given to every recovery rung and mission probe:
/// far beyond any run's length, so the watchdogs never fire under
/// benchmark load (a watchdog that fires changes results).
pub const WATCHDOG_MS: u64 = 3_600_000;

/// One unit of work, timed by one call.
pub struct Unit {
    pub id: String,
    pub ms: f64,
    pub failed: bool,
    /// Simulated forward-pass rows the unit stands for.
    pub rows: u64,
}

/// Everything one pass produces.
#[derive(Default)]
pub struct Pass {
    pub units: Vec<Unit>,
    /// Rows simulated outside any unit (commissioning).
    pub extra_rows: u64,
    pub digest: Digest,
    /// Layer statistics the workload reads off its results.
    pub stats: BTreeMap<&'static str, f64>,
}

/// Times `f` as the unit that will be pushed as `pass.units[index]`,
/// inside a `harness.unit` span; returns its result and milliseconds.
pub fn time_unit<T>(index: usize, f: impl FnOnce() -> T) -> (T, f64) {
    trace::set_unit(index + 1);
    let started = Instant::now();
    let out = trace::span("harness.unit", f);
    (out, started.elapsed().as_secs_f64() * 1e3)
}

impl Pass {
    pub fn push(&mut self, id: String, ms: f64, failed: bool, rows: u64) {
        self.units.push(Unit {
            id,
            ms,
            failed,
            rows,
        });
    }

    pub fn stat(&mut self, name: &'static str, by: f64) {
        *self.stats.entry(name).or_insert(0.0) += by;
    }

    pub fn stat_max(&mut self, name: &'static str, v: f64) {
        let e = self.stats.entry(name).or_insert(v);
        *e = e.max(v);
    }
}

/// A workload: inputs built from the seed, and the pass that runs them.
pub trait Workload {
    /// Workload parameters, as `(key, JSON value)` pairs.
    fn params(&self) -> Vec<(&'static str, String)>;
    fn run(&self, traced: bool, pass: &mut Pass);
}

fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fig10" => Box::new(fig10::Fig10::new(seed, false)),
        "fig10_transient" => Box::new(fig10::Fig10::new(seed, true)),
        "memfault" => Box::new(memfault::MemFault::new(seed)),
        "mission" => Box::new(mission::Mission::new(seed)),
        _ => return None,
    })
}

/// SplitMix64 finalizer: spreads a benchmark seed into a crate seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A dataset spec of the Table II suite with its generator seed drawn
/// from the benchmark seed.
pub fn seeded_spec(name: &str, seed: u64) -> dta_datasets::TaskSpec {
    let mut spec = dta_datasets::suite::specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("task is in the Table II suite");
    spec.seed = mix(seed, spec.seed);
    spec
}

/// Process high-water resident set size, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A finite number as JSON (`null` otherwise).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-runner --workload fig10|fig10_transient|memfault|mission \
         --seed N --trace 0|1 [--spans FILE]"
    );
    std::process::exit(2);
}

fn main() {
    // Host-speed probes bracket set-up and the timed phase, outside both.
    let probe_before = calibrate::probe();
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = arg("--workload").unwrap_or_else(|| usage());
    let seed: u64 = arg("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let traced = match arg("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        _ => usage(),
    };
    let spans_path = arg("--spans");
    trace::set_enabled(traced);
    let lut0 = dta_logic::program_cache_stats();
    let fused0 = dta_ann::fused_cache_stats();

    // Set-up: the first build is the pass's inputs and is traced; the
    // rest only time it again.
    let wl = trace::span("harness.setup", || build(&workload, seed)).unwrap_or_else(|| usage());
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    trace::set_enabled(false);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box(build(&workload, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(traced);

    let mut pass = Pass::default();
    let timed = Instant::now();
    wl.run(traced, &mut pass);
    let wall_s = timed.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let mut probe_s = probe_before;
    probe_s.extend(calibrate::probe());

    let rows: u64 = pass.units.iter().map(|u| u.rows).sum::<u64>() + pass.extra_rows;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"setup_s\":[{}],\
         \"wall_s\":{},\"probe_s\":[{}],\"peak_rss_mb\":{},\"rows\":{rows},\"digest\":\"{}\",\"params\":{{{}}},\
         \"units\":[{}]",
        u8::from(traced),
        setup_s
            .iter()
            .map(|&s| num(s))
            .collect::<Vec<_>>()
            .join(","),
        num(wall_s),
        probe_s
            .iter()
            .map(|&s| num(s))
            .collect::<Vec<_>>()
            .join(","),
        num(rss),
        pass.digest.hex(),
        wl.params()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
        pass.units
            .iter()
            .map(|u| format!(
                "{{\"id\":\"{}\",\"ms\":{},\"failed\":{},\"rows\":{}}}",
                u.id,
                num(u.ms),
                u.failed,
                u.rows
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    if traced {
        let lut1 = dta_logic::program_cache_stats();
        let fused1 = dta_ann::fused_cache_stats();
        let layers = layer_metrics(&pass, setup_s[0] + wall_s, (lut0, lut1), (fused0, fused1));
        let _ = write!(
            out,
            ",\"layers\":{{{}}}",
            layers
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
                .collect::<Vec<_>>()
                .join(",")
        );
        if let Some(path) = spans_path {
            let ids: Vec<String> = pass.units.iter().map(|u| u.id.clone()).collect();
            if let Err(e) = trace::write_jsonl(std::path::Path::new(&path), &ids) {
                eprintln!("perfbench-runner: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    out.push('}');
    println!("{out}");
}

type Stats = ((u64, u64), (u64, u64));

/// The per-layer metrics of a traced pass. Times are self times except
/// `core.recover_s` and the `core.mission_*_s` pair, which are the
/// inclusive durations of those driver calls.
fn layer_metrics(
    pass: &Pass,
    traced_wall_s: f64,
    lut: Stats,
    fused: Stats,
) -> Vec<(&'static str, f64)> {
    let sum = trace::summarize();
    let stat = |k: &str| pass.stats.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let fused_hits = (fused.1 .0 - fused.0 .0) as f64 - sum.counter("harness.fused_lookup_hits");
    let fused_misses = (fused.1 .1 - fused.0 .1) as f64;
    let fwd_s = sum.self_of("ann.fwd");
    vec![
        ("datasets.gen_s", sum.self_of("datasets.gen")),
        ("circuits.inject_s", sum.self_of("circuits.inject")),
        (
            "circuits.inject_calls",
            sum.calls_of("circuits.inject") as f64,
        ),
        ("logic.lut_hits", (lut.1 .0 - lut.0 .0) as f64),
        ("logic.lut_misses", (lut.1 .1 - lut.0 .1) as f64),
        ("ann.fused_compile_s", sum.self_of("ann.fused_compile")),
        ("ann.fused_hits", fused_hits),
        ("ann.fused_misses", fused_misses),
        (
            "ann.fused_hit_ratio",
            ratio(fused_hits, fused_hits + fused_misses),
        ),
        ("ann.fused_refused", sum.counter("ann.fused_refused")),
        ("logic.opt_instrs_in", sum.counter("logic.opt_instrs_in")),
        ("logic.opt_instrs_out", sum.counter("logic.opt_instrs_out")),
        ("ann.fwd_s", fwd_s),
        ("ann.fwd_rows", sum.counter("ann.fwd_rows")),
        (
            "ann.fwd_rows_per_s",
            ratio(sum.counter("ann.fwd_rows"), fwd_s),
        ),
        ("ann.backprop_s", sum.self_of("ann.backprop")),
        ("ann.eval_s", sum.self_of("ann.eval")),
        ("ann.eval_rows", sum.counter("ann.eval_rows")),
        (
            "mem.defects_mean",
            ratio(stat("mem.defects"), stat("mem.stores")),
        ),
        ("mem.defects_max", stat("mem.defects_max")),
        ("mem.ecc_corrected", stat("mem.ecc_corrected")),
        ("mem.ecc_uncorrectable", stat("mem.ecc_uncorrectable")),
        ("core.bist_s", sum.self_of("core.bist")),
        ("core.bist_calls", sum.counter("core.bist_calls")),
        ("core.bist_flagged", sum.counter("core.bist_flagged")),
        ("core.recover_s", sum.total_of("core.recover")),
        ("core.rungs_run", stat("core.rungs_run")),
        ("core.rungs_improved", stat("core.rungs_improved")),
        ("core.rung_timeouts", stat("core.rung_timeouts")),
        (
            "core.mission_spatial_s",
            sum.total_of("core.mission_spatial"),
        ),
        (
            "core.mission_systolic_s",
            sum.total_of("core.mission_systolic"),
        ),
        ("systolic.eval_s", sum.self_of("systolic.eval")),
        ("systolic.eval_rows", sum.counter("systolic.eval_rows")),
        ("core.mission_batches", stat("core.mission_batches")),
        ("core.mission_probes", stat("core.mission_probes")),
        ("core.mission_episodes", stat("core.mission_episodes")),
        ("core.mission_quarantines", stat("core.mission_quarantines")),
        (
            "core.detect_latency_batches",
            ratio(
                stat("core.detect_latency_sum"),
                stat("core.detect_latency_n"),
            ),
        ),
        ("unattributed_s", traced_wall_s - sum.layer_self_s()),
    ]
}
