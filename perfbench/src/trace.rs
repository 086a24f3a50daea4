//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans from its own code, around each call it
//! makes into a layer; nothing inside the crates is instrumented. A
//! span holds a name, start and end (nanoseconds since the recorder's
//! epoch), the span that was open when it started (its parent) and the
//! unit of work it belongs to. Calls too hot to record one by one (the
//! per-sample forward pass inside training) are aggregated per
//! (name, parent) into a call count and a busy time instead.
//!
//! A layer's self time is its spans' durations minus the time covered
//! by their child spans and child busy aggregates. When tracing is off
//! every entry point is a plain call of the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Span names starting with this prefix are the benchmark's own glue,
/// not a layer: their self time counts as unattributed.
pub const HARNESS: &str = "harness.";

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    unit: usize,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// (name, parent span) -> (calls, busy ns, unit).
    busy: BTreeMap<(&'static str, Option<usize>), (u64, u64, usize)>,
    counters: BTreeMap<&'static str, f64>,
    unit: usize,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        busy: BTreeMap::new(),
        counters: BTreeMap::new(),
        unit: 0,
    });
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on or off for this thread (the whole benchmark runs
/// on one thread; campaign `threads` is 1).
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

/// Tags every span opened from now on with unit `id`.
pub fn set_unit(id: usize) {
    REC.with(|r| r.borrow_mut().unit = id);
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.spans.len();
        let span = Span {
            name,
            start_ns: ns_since(r.epoch),
            end_ns: 0,
            parent: r.stack.last().copied(),
            unit: r.unit,
        };
        r.spans.push(span);
        r.stack.push(id);
        id
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[id].end_ns = ns_since(r.epoch);
        r.stack.pop();
    });
    out
}

/// Runs `f` and adds its duration to the busy aggregate of `name`
/// under the currently open span.
pub fn busy<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let started = Instant::now();
    let out = f();
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let key = (name, r.stack.last().copied());
        let unit = r.unit;
        let e = r.busy.entry(key).or_insert((0, 0, unit));
        e.0 += 1;
        e.1 += ns;
    });
    out
}

/// Adds `by` to the counter `name` (only while tracing).
pub fn count(name: &'static str, by: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            *r.counters.entry(name).or_insert(0.0) += by;
        }
    });
}

/// Time totals per layer name, in seconds.
#[derive(Default)]
pub struct Summary {
    /// Self time: duration minus child spans and child busy time.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Inclusive time: the spans' own durations.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Spans (or busy calls) per name.
    pub calls: BTreeMap<&'static str, u64>,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Summary {
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn total_of(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn calls_of(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the self times of every layer (harness glue excluded).
    pub fn layer_self_s(&self) -> f64 {
        self.self_s
            .iter()
            .filter(|(name, _)| !name.starts_with(HARNESS))
            .map(|(_, s)| s)
            .sum()
    }
}

/// Computes per-layer self and inclusive times from what was recorded.
pub fn summarize() -> Summary {
    REC.with(|r| {
        let r = r.borrow();
        let mut sum = Summary {
            counters: r.counters.clone(),
            ..Summary::default()
        };
        let charge = |sum: &mut Summary, name: &'static str, parent: Option<usize>, ns: u64| {
            let s = ns as f64 * 1e-9;
            *sum.self_s.entry(name).or_insert(0.0) += s;
            *sum.total_s.entry(name).or_insert(0.0) += s;
            if let Some(p) = parent {
                *sum.self_s.entry(r.spans[p].name).or_insert(0.0) -= s;
            }
        };
        for span in &r.spans {
            charge(
                &mut sum,
                span.name,
                span.parent,
                span.end_ns - span.start_ns,
            );
            *sum.calls.entry(span.name).or_insert(0) += 1;
        }
        for (&(name, parent), &(calls, ns, _)) in &r.busy {
            charge(&mut sum, name, parent, ns);
            *sum.calls.entry(name).or_insert(0) += calls;
        }
        sum
    })
}

/// Writes every span and busy aggregate as JSON lines:
/// `{"kind":"span","id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,"unit":..}`
/// and `{"kind":"busy","name":..,"parent":..,"unit":..,"calls":..,"busy_ns":..}`.
pub fn write_jsonl(path: &std::path::Path, units: &[String]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    // Unit 0 is set-up; unit `i + 1` is `units[i]`.
    let unit_name = |u: usize| match u {
        0 => "setup",
        u => units.get(u - 1).map_or("?", String::as_str),
    };
    let parent = |p: Option<usize>| p.map_or("null".to_string(), |p| p.to_string());
    REC.with(|r| -> std::io::Result<()> {
        let r = r.borrow();
        for (id, s) in r.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":\"{}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent(s.parent),
                unit_name(s.unit)
            )?;
        }
        for (&(name, p), &(calls, ns, unit)) in &r.busy {
            writeln!(
                out,
                "{{\"kind\":\"busy\",\"name\":\"{name}\",\"parent\":{},\"unit\":\"{}\",\"calls\":{calls},\"busy_ns\":{ns}}}",
                parent(p),
                unit_name(unit)
            )?;
        }
        Ok(())
    })?;
    out.flush()
}
