//! Engine identity: every batch engine of the faulty-evaluation ladder
//! reproduces scalar evaluation bit-for-bit.
//!
//! A faulty operator's batch path is native → LUT → cone → scalar, and a
//! network's batch path is fused → scalar; each rung is chosen from what
//! the installed plan lowers to. These seeded checks sweep both fault
//! models under permanent, transient and intermittent activation, with
//! and without a defective weight store attached (itself permanent or
//! transient), and compare every
//! batch entry point against row-by-row scalar evaluation, resetting
//! the fault state before each side.
//!
//! The scalar faulty forward itself walks only the faulty synapses
//! beyond the task width. A test-local dense walk over every physical
//! synapse, built from the public per-synapse accessors, pins that walk
//! to the original semantics: the same traces, and the same activation
//! and store state left behind.
//!
//! A scalar operator call settles only the fan-in of its defective cells
//! and returns native arithmetic when no defect is excited; under a
//! permanent plan it answers recurring (operands, live cell state) keys
//! from a memo. It races a simulator that sweeps every gate on every
//! call, across plan swaps.

use std::sync::Arc;

use dta::ann::{FaultPlan, ForwardTrace, FusedForward, Layer, Mlp, Topology, UnitKind};
use dta::circuits::{
    Activation, DefectPlan, FaultModel, FxMulCircuit, HwAdder, HwMultiplier, HwSigmoid,
    SatAdderCircuit, SigmoidUnitCircuit,
};
use dta::core::{MemGeometry, WeightMemory};
use dta::fixed::{Fx, SigmoidLut};
use dta::logic::{SettleMode, Simulator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const MODELS: [FaultModel; 2] = [FaultModel::TransistorLevel, FaultModel::GateLevel];

const ACTIVATIONS: [Activation; 3] = [
    Activation::Permanent,
    Activation::Transient {
        per_eval_probability: 0.3,
    },
    Activation::Intermittent { period: 5, duty: 2 },
];

/// Four hidden-stage defects (plus one output activation defect at the
/// transistor level, the only model that site takes), and optionally a raw (no ECC) weight store carrying twelve defects with
/// their own lifetime, so a permanent operator plan can meet a dynamic
/// store and the other way round.
fn network_plan(
    topo: Topology,
    model: FaultModel,
    activation: Activation,
    mem: Option<Activation>,
    seed: u64,
) -> FaultPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut plan = FaultPlan::new(topo.inputs + 2);
    for _ in 0..4 {
        plan.inject_random_hidden_with(topo.hidden, model, activation, &mut rng);
    }
    if model == FaultModel::TransistorLevel {
        plan.inject_output_activation(seed as usize % topo.outputs, &mut rng);
    }
    if let Some(mem_activation) = mem {
        let geom = MemGeometry::for_network(plan.hw_inputs(), topo.hidden, topo.outputs, false);
        let mut store = WeightMemory::new(geom);
        store.inject_many(12, mem_activation, &mut rng);
        plan.attach_memory(store);
    }
    plan
}

#[test]
fn network_batch_equals_scalar_rows() {
    let topo = Topology::new(6, 5, 3);
    let lut = SigmoidLut::new();
    // More than 64 rows, so the fused stream runs a partial last word.
    let rows: Vec<Vec<f64>> = (0..70)
        .map(|r| {
            (0..topo.inputs)
                .map(|i| ((r * 7 + i * 5) % 19) as f64 / 9.5 - 1.0)
                .collect()
        })
        .collect();
    let (mut fused, mut row_mapped, mut stateful_permanent) = (0, 0, 0);
    for model in MODELS {
        for activation in ACTIVATIONS {
            for mem in [None, Some(ACTIVATIONS[0]), Some(ACTIVATIONS[1])] {
                for seed in 0..2u64 {
                    let mlp = Mlp::new(topo, seed);
                    let mut plan = network_plan(topo, model, activation, mem, seed);
                    let ctx = format!("{model:?} {activation} mem={mem:?} seed={seed}");
                    // The fused engine compiles exactly the vectorizable
                    // plans, so no third network rung is reachable.
                    let vectorizable = plan.vectorizable();
                    assert_eq!(
                        vectorizable,
                        FusedForward::compile(&mlp, &plan).is_some(),
                        "{ctx}"
                    );
                    if vectorizable {
                        fused += 1;
                    } else {
                        row_mapped += 1;
                        stateful_permanent += usize::from(activation.is_permanent());
                    }
                    plan.reset_state();
                    let batch = mlp.forward_faulty_batch(&rows, &lut, &mut plan);
                    plan.reset_state();
                    let scalar: Vec<_> = rows
                        .iter()
                        .map(|x| mlp.forward_faulty(x, &lut, &mut plan))
                        .collect();
                    assert_eq!(batch, scalar, "{ctx}");
                }
            }
        }
    }
    assert!(fused > 0, "no plan ran on the fused engine");
    assert!(row_mapped > 0, "no plan replayed the scalar rows");
    assert!(
        stateful_permanent > 0,
        "no permanent plan kept a stateful cell"
    );
}

#[test]
fn output_layer_faults_fuse() {
    // Transistor-level defects are mostly stateful, so the sweep above
    // rarely fuses an output-layer fault. Grow a permanent plan draw by
    // draw instead, keeping a draw only while the plan stays
    // vectorizable; each draw has its own seed, so a plan is rebuilt
    // from its accepted draws.
    let topo = Topology::new(6, 5, 3);
    let lut = SigmoidLut::new();
    let mlp = Mlp::new(topo, 11);
    let rows: Vec<Vec<f64>> = (0..100)
        .map(|r| {
            (0..topo.inputs)
                .map(|i| ((r * 5 + i * 7) % 17) as f64 / 8.5 - 1.0)
                .collect()
        })
        .collect();
    let build = |draws: &[u64]| -> FaultPlan {
        let mut plan = FaultPlan::new(topo.inputs + 2);
        for (i, &d) in draws.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(d);
            let neuron = d as usize % topo.outputs;
            match i % 3 {
                0 => plan.inject_output_adder(neuron, topo.hidden - 1, &mut rng),
                1 => plan.inject_output_activation(neuron, &mut rng),
                _ => plan.inject_random_hidden(topo.hidden, FaultModel::TransistorLevel, &mut rng),
            }
        }
        plan
    };
    let mut draws: Vec<u64> = Vec::new();
    for d in 0..200u64 {
        draws.push(d);
        if !build(&draws).vectorizable() {
            draws.pop();
        }
        if draws.len() == 6 {
            break;
        }
    }
    assert_eq!(draws.len(), 6, "too few combinational draws");
    let mut plan = build(&draws);
    assert!(!plan.faulty_neurons(Layer::Output).is_empty());
    assert!(FusedForward::compile(&mlp, &plan).is_some());
    let batch = mlp.forward_faulty_batch(&rows, &lut, &mut plan);
    let scalar: Vec<_> = rows
        .iter()
        .map(|x| mlp.forward_faulty(x, &lut, &mut plan))
        .collect();
    assert_eq!(batch, scalar);
}

#[test]
fn operator_batches_equal_scalar() {
    let mut data = ChaCha8Rng::seed_from_u64(0xE61);
    // 150 stimuli: two full 64-lane words and a partial one.
    let a: Vec<Fx> = (0..150).map(|_| Fx::from_raw(data.random())).collect();
    let b: Vec<Fx> = (0..150).map(|_| Fx::from_raw(data.random())).collect();
    // Operators are latch-free, so a faulty plan never has its cone plan
    // refused: the rungs reached are native, LUT and cone, and the
    // scalar rung is the reference side of every comparison.
    let (mut native, mut lut, mut cone) = (0, 0, 0);
    let mut tally = |defects: usize, lut_ready: bool| match (defects, lut_ready) {
        (0, _) => native += 1,
        (_, true) => lut += 1,
        (_, false) => cone += 1,
    };
    for model in MODELS {
        for activation in ACTIVATIONS {
            for n in [0, 1, 3] {
                for seed in 0..3u64 {
                    let ctx = format!("{model:?} {activation} n={n} seed={seed}");
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (n as u64) << 8);

                    let mut mul = HwMultiplier::new();
                    mul.inject_random_with(model, activation, n, &mut rng);
                    mul.reset_state();
                    let batch = mul.mul_batch(&a, &b);
                    mul.reset_state();
                    let scalar: Vec<Fx> = a.iter().zip(&b).map(|(&x, &y)| mul.mul(x, y)).collect();
                    assert_eq!(batch, scalar, "mul {ctx}");
                    tally(mul.defect_count(), mul.lut_ready());

                    let mut add = HwAdder::new();
                    add.inject_random_with(model, activation, n, &mut rng);
                    add.reset_state();
                    let batch = add.add_batch(&a, &b);
                    add.reset_state();
                    let scalar: Vec<Fx> = a.iter().zip(&b).map(|(&x, &y)| add.add(x, y)).collect();
                    assert_eq!(batch, scalar, "add {ctx}");
                    tally(add.defect_count(), add.lut_ready());

                    let mut act = HwSigmoid::new();
                    act.inject_random_with(model, activation, n, &mut rng);
                    act.reset_state();
                    let batch = act.eval_batch(&a);
                    act.reset_state();
                    let scalar: Vec<Fx> = a.iter().map(|&x| act.eval(x)).collect();
                    assert_eq!(batch, scalar, "act {ctx}");
                    tally(act.defect_count(), act.lut_ready());
                }
            }
        }
    }
    assert!(native > 0 && lut > 0 && cone > 0, "{native}/{lut}/{cone}");
}

/// The faulty forward pass as the dense walk it was first written as:
/// every physical synapse up to the last faulty one, each through the
/// plan's public per-synapse accessors and store fetch in turn. This is
/// the reference order in which stateful circuits, dynamic latch bits
/// and store accesses advance.
fn dense_forward(mlp: &Mlp, x: &[f64], lut: &SigmoidLut, plan: &mut FaultPlan) -> ForwardTrace {
    let topo = mlp.topology();
    let xq: Vec<Fx> = x.iter().map(|&v| Fx::from_f64(v)).collect();
    let mut hidden = Vec::with_capacity(topo.hidden);
    for j in 0..topo.hidden {
        let lane = plan.hidden_lane(j);
        if plan.is_masked(Layer::Hidden, lane) {
            hidden.push(Fx::ZERO);
            continue;
        }
        let bias = Fx::from_f64(mlp.w_hidden(j, topo.inputs));
        let ws: Vec<Fx> = (0..topo.inputs)
            .map(|i| Fx::from_f64(mlp.w_hidden(j, i)))
            .collect();
        let acc = dense_sum(plan, Layer::Hidden, lane, bias, &ws, &xq);
        hidden.push(dense_activation(plan, Layer::Hidden, lane, acc, lut));
    }
    let (mut output_pre, mut output) = (Vec::new(), Vec::new());
    for k in 0..topo.outputs {
        if plan.is_masked(Layer::Output, k) {
            output_pre.push(0.0);
            output.push(0.0);
            continue;
        }
        let bias = Fx::from_f64(mlp.w_output(k, topo.hidden));
        let ws: Vec<Fx> = (0..topo.hidden)
            .map(|j| Fx::from_f64(mlp.w_output(k, j)))
            .collect();
        let acc = dense_sum(plan, Layer::Output, k, bias, &ws, &hidden);
        output_pre.push(acc.to_f64());
        output.push(dense_activation(plan, Layer::Output, k, acc, lut).to_f64());
    }
    ForwardTrace {
        hidden: hidden.iter().map(|h| h.to_f64()).collect(),
        output_pre,
        output,
    }
}

fn dense_sum(
    plan: &mut FaultPlan,
    layer: Layer,
    lane: usize,
    bias: Fx,
    ws: &[Fx],
    xs: &[Fx],
) -> Fx {
    let n_eff = plan
        .neuron_mut(layer, lane)
        .map_or(xs.len(), |nf| xs.len().max(nf.max_synapse_excl()));
    let mut acc = plan.mem_bias(layer, lane, bias);
    for i in 0..n_eff {
        let (w, x) = match (ws.get(i), xs.get(i)) {
            (Some(&w), Some(&x)) => (w, x),
            _ => (Fx::ZERO, Fx::ZERO),
        };
        let w = plan.mem_weight(layer, lane, i, w);
        let Some(nf) = plan.neuron_mut(layer, lane) else {
            acc += w * x;
            continue;
        };
        let w = nf.latch_filter(i, w);
        let p = match nf.multiplier_mut(i) {
            Some(hw) => hw.mul(w, x),
            None => w * x,
        };
        acc = match nf.adder_mut(i) {
            Some(hw) => hw.add(acc, p),
            None => acc + p,
        };
    }
    acc
}

fn dense_activation(
    plan: &mut FaultPlan,
    layer: Layer,
    lane: usize,
    acc: Fx,
    lut: &SigmoidLut,
) -> Fx {
    match plan.neuron_mut(layer, lane) {
        Some(nf) => nf.activation(acc, lut),
        None => lut.eval(acc),
    }
}

/// Reads every fault site, and the store, a few times through the public
/// accessors. The results depend on how far each site's activation
/// machine and memory effects have advanced, including sites whose
/// output a forward pass never sees (a latch beyond the task width
/// feeds a zero input).
fn probe_state(plan: &mut FaultPlan, lut: &SigmoidLut) -> Vec<Fx> {
    let words: Vec<Fx> = (0..8i16)
        .map(|k| Fx::from_raw(0x1357i16.wrapping_mul(k).wrapping_sub(0x2468)))
        .collect();
    let mut out = Vec::new();
    for site in plan.sites().to_vec() {
        let nf = plan
            .neuron_mut(site.layer, site.neuron)
            .expect("sites name faulty neurons");
        for (&a, &b) in words.iter().zip(words.iter().rev()) {
            out.push(match (site.unit, site.synapse) {
                (UnitKind::Latch, Some(i)) => nf.latch_filter(i, a),
                (UnitKind::Multiplier, Some(i)) => nf.multiplier_mut(i).expect("site").mul(a, b),
                (UnitKind::Adder, Some(i)) => nf.adder_mut(i).expect("site").add(a, b),
                _ => nf.activation(a, lut),
            });
        }
    }
    for &w in &words {
        out.push(plan.mem_weight(Layer::Hidden, 0, 0, w));
    }
    out
}

#[test]
fn sparse_walk_equals_dense_reference() {
    // Figure 10 geometry: 90 physical synapses per hidden neuron, task
    // widths from one input to all 90, so most defects sit beyond the
    // task at the narrow end. Every plan also carries output-layer
    // adder defects, one at the last step and one beyond the hidden
    // width, and the store (when attached) spans 90 slots in both banks.
    let hw_inputs = 90;
    let lut = SigmoidLut::new();
    let (mut beyond, mut corrupted, mut with_store) = (0, 0, 0);
    for (wi, width) in [1, 4, 13, 89, 90].into_iter().enumerate() {
        let topo = Topology::new(width, 4, 3);
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|r| {
                (0..width)
                    .map(|i| ((r * 7 + i * 5) % 19) as f64 / 9.5 - 1.0)
                    .collect()
            })
            .collect();
        for model in MODELS {
            for (ai, activation) in ACTIVATIONS.into_iter().enumerate() {
                for store in [false, true] {
                    let seed = (wi * 100 + ai * 10) as u64 + u64::from(store);
                    let ctx = format!("width={width} {model:?} {activation} store={store}");
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut plan = FaultPlan::new(hw_inputs);
                    for _ in 0..8 {
                        plan.inject_random_hidden_with(topo.hidden, model, activation, &mut rng);
                    }
                    plan.inject_output_adder(0, topo.hidden - 1, &mut rng);
                    plan.inject_output_adder(1, topo.hidden + 2, &mut rng);
                    if store {
                        let geom = MemGeometry {
                            output_synapses: hw_inputs,
                            ..MemGeometry::for_network(hw_inputs, topo.hidden, topo.outputs, false)
                        };
                        let mut mem = WeightMemory::new(geom);
                        mem.inject_many(4, activation, &mut rng);
                        plan.attach_memory(mem);
                        with_store += 1;
                    }
                    beyond += plan
                        .sites()
                        .iter()
                        .filter(|s| {
                            s.layer == Layer::Hidden && s.synapse.is_some_and(|i| i >= width)
                        })
                        .count();
                    let mlp = Mlp::new(topo, seed);
                    plan.reset_state();
                    let sparse: Vec<ForwardTrace> = rows
                        .iter()
                        .map(|x| mlp.forward_faulty(x, &lut, &mut plan))
                        .collect();
                    let sparse_state = probe_state(&mut plan, &lut);
                    plan.reset_state();
                    for (r, (x, got)) in rows.iter().zip(&sparse).enumerate() {
                        let want = dense_forward(&mlp, x, &lut, &mut plan);
                        assert_eq!(*got, want, "{ctx} row {r}");
                        corrupted += usize::from(*got != mlp.forward_fixed(x, &lut));
                    }
                    assert_eq!(probe_state(&mut plan, &lut), sparse_state, "{ctx}");
                }
            }
        }
    }
    // The sweep must reach defects beyond the task width, attach stores
    // and disturb outputs, or it pins nothing.
    assert!(
        beyond > 0 && with_store > 0 && corrupted > 0,
        "{beyond}/{with_store}/{corrupted}"
    );
}

/// A faulty operator as the fan-in race drives it, with its oracle: the
/// operator's circuit settled by a full sweep on every call. Unary
/// operators ignore the second operand.
trait Raced {
    /// Adds `n` random defects to `plan`, drawing exactly as the
    /// operator's own `inject_random_with` does.
    fn grow_plan(
        &self,
        plan: &mut DefectPlan,
        activation: Activation,
        n: usize,
        rng: &mut ChaCha8Rng,
    );
    fn install_plan(&mut self, plan: DefectPlan);
    fn inject(&mut self, model: FaultModel, activation: Activation, n: usize, rng: &mut ChaCha8Rng);
    fn lut_ready(&self) -> bool;
    fn memo_hits(&self) -> u64;
    fn oracle(&self, plan: &DefectPlan) -> Simulator;
    fn oracle_eval(&self, sim: &mut Simulator, a: Fx, b: Fx) -> Fx;
    fn scalar(&mut self, a: Fx, b: Fx) -> Fx;
    fn batch(&mut self, a: &[Fx], b: &[Fx]) -> Vec<Fx>;
    fn reset_state(&mut self);
    fn fanin_settles(&self) -> (u64, u64);
}

macro_rules! raced {
    ($op:ty, |$hw:ident, $sim:ident, $a:ident, $b:ident| {
        oracle: $oracle:expr,
        scalar: $scalar:expr,
        batch: |$xs:ident, $ys:ident| $batch:expr $(,)?
    }) => {
        impl Raced for $op {
            fn grow_plan(
                &self,
                plan: &mut DefectPlan,
                activation: Activation,
                n: usize,
                rng: &mut ChaCha8Rng,
            ) {
                let c = self.circuit();
                for _ in 0..n {
                    plan.add_random_with(c.netlist(), c.cells(), activation, rng);
                }
            }
            fn install_plan(&mut self, plan: DefectPlan) {
                <$op>::install_plan(self, plan);
            }
            fn inject(
                &mut self,
                model: FaultModel,
                activation: Activation,
                n: usize,
                rng: &mut ChaCha8Rng,
            ) {
                <$op>::inject_random_with(self, model, activation, n, rng);
            }
            fn lut_ready(&self) -> bool {
                <$op>::lut_ready(self)
            }
            fn memo_hits(&self) -> u64 {
                <$op>::memo_hits(self)
            }
            fn oracle(&self, plan: &DefectPlan) -> Simulator {
                let mut sim = self.circuit().simulator();
                sim.set_settle_mode(SettleMode::Full);
                plan.apply(&mut sim);
                sim
            }
            fn oracle_eval(&self, $sim: &mut Simulator, $a: Fx, $b: Fx) -> Fx {
                let $hw = self;
                $oracle
            }
            fn scalar(&mut self, $a: Fx, $b: Fx) -> Fx {
                let $hw = self;
                $scalar
            }
            fn batch(&mut self, $xs: &[Fx], $ys: &[Fx]) -> Vec<Fx> {
                let $hw = self;
                $batch
            }
            fn reset_state(&mut self) {
                <$op>::reset_state(self);
            }
            fn fanin_settles(&self) -> (u64, u64) {
                <$op>::fanin_settles(self)
            }
        }
    };
}

raced!(HwMultiplier, |hw, sim, a, b| {
    oracle: hw.circuit().compute(sim, a, b),
    scalar: hw.mul(a, b),
    batch: |xs, ys| hw.mul_batch(xs, ys),
});
raced!(HwAdder, |hw, sim, a, b| {
    oracle: hw.circuit().compute(sim, a, b),
    scalar: hw.add(a, b),
    batch: |xs, ys| hw.add_batch(xs, ys),
});
raced!(HwSigmoid, |hw, sim, a, _b| {
    oracle: hw.circuit().compute(sim, a),
    scalar: hw.eval(a),
    batch: |xs, _ys| hw.eval_batch(xs),
});

/// Operands shaped like a scalar faulty operator's traffic: fresh random
/// words, exact repeats, single-bit flips of the previous pair, small
/// training-like values (|x| < 2), and recurrences from a small pool of
/// recent pairs (a synapse's weight meeting the same inputs again).
fn operand_stream(rng: &mut ChaCha8Rng, len: usize) -> Vec<(Fx, Fx)> {
    let mut prev = (Fx::ZERO, Fx::ZERO);
    let mut recent: Vec<(Fx, Fx)> = Vec::new();
    (0..len)
        .map(|_| {
            prev = match rng.random_range(0..6) {
                0 => (Fx::from_raw(rng.random()), Fx::from_raw(rng.random())),
                1 => prev,
                2 => {
                    let flip = 1u16 << rng.random_range(0..16);
                    if rng.random_bool(0.5) {
                        (Fx::from_bits(prev.0.to_bits() ^ flip), prev.1)
                    } else {
                        (prev.0, Fx::from_bits(prev.1.to_bits() ^ flip))
                    }
                }
                3 => (
                    Fx::from_raw(rng.random_range(-2047..2048)),
                    Fx::from_raw(rng.random_range(-2047..2048)),
                ),
                _ if recent.is_empty() => prev,
                _ => recent[rng.random_range(0..recent.len())],
            };
            if !recent.contains(&prev) {
                if recent.len() == 6 {
                    recent.remove(0);
                }
                recent.push(prev);
            }
            prev
        })
        .collect()
}

/// What one operator's race reached: fan-in settle outcomes, and memo
/// hits by the kind of plan that served them.
#[derive(Debug, Default)]
struct RaceStats {
    masked: u64,
    excited: u64,
    /// Hits under permanent plans that lowered to truth words.
    hits_lut: u64,
    /// Hits under permanent plans that keep a stateful cell.
    hits_stateful: u64,
    /// Hits under transient or intermittent plans (must stay 0).
    hits_dynamic: u64,
}

impl RaceStats {
    /// Books the memo hits of a segment run under one plan.
    fn book_hits<O: Raced>(&mut self, op: &O, activation: Activation, since: u64) {
        let hits = op.memo_hits() - since;
        if !activation.is_permanent() {
            self.hits_dynamic += hits;
        } else if op.lut_ready() {
            self.hits_lut += hits;
        } else {
            self.hits_stateful += hits;
        }
    }
}

/// Races one operator against its oracle over every model, lifetime and
/// defect count, interleaving scalar calls, batch calls, state resets and
/// plan swaps (a fresh plan, or defects added in place) on both sides.
/// Recurring operands persist across swaps, so a memo entry left over
/// from an earlier plan would be read back.
fn race_operator<O: Raced>(op: &mut O, name: &str) -> RaceStats {
    let mut stats = RaceStats::default();
    for model in MODELS {
        for activation in ACTIVATIONS {
            for n in 1..=6 {
                for seed in 0..2u64 {
                    let ctx = format!("{name} {model:?} {activation} n={n} seed={seed}");
                    let mut rng = ChaCha8Rng::seed_from_u64(seed << 8 | n as u64);
                    let mut plan = DefectPlan::new(model);
                    op.grow_plan(&mut plan, activation, n, &mut rng);
                    let mut oracle = op.oracle(&plan);
                    op.install_plan(plan.clone());
                    let before = op.fanin_settles();
                    let mut hits = op.memo_hits();
                    let stream = operand_stream(&mut rng, 160);
                    let mut i = 0;
                    while i < stream.len() {
                        match rng.random_range(0..20) {
                            0 => {
                                op.reset_state();
                                oracle.reset_state();
                            }
                            1 => {
                                stats.book_hits(op, activation, hits);
                                plan = DefectPlan::new(model);
                                op.grow_plan(&mut plan, activation, n, &mut rng);
                                oracle = op.oracle(&plan);
                                op.install_plan(plan.clone());
                                hits = op.memo_hits();
                            }
                            2 => {
                                stats.book_hits(op, activation, hits);
                                op.inject(model, activation, 1, &mut rng.clone());
                                op.grow_plan(&mut plan, activation, 1, &mut rng);
                                oracle = op.oracle(&plan);
                                hits = op.memo_hits();
                            }
                            3 | 4 => {
                                let k = rng.random_range(1..=70usize).min(stream.len() - i);
                                let (xs, ys): (Vec<Fx>, Vec<Fx>) =
                                    stream[i..i + k].iter().copied().unzip();
                                let want: Vec<Fx> = xs
                                    .iter()
                                    .zip(&ys)
                                    .map(|(&x, &y)| op.oracle_eval(&mut oracle, x, y))
                                    .collect();
                                assert_eq!(op.batch(&xs, &ys), want, "{ctx} batch at {i}");
                                i += k;
                            }
                            _ => {
                                let (x, y) = stream[i];
                                let want = op.oracle_eval(&mut oracle, x, y);
                                assert_eq!(op.scalar(x, y), want, "{ctx} call {i}");
                                i += 1;
                            }
                        }
                    }
                    stats.book_hits(op, activation, hits);
                    let after = op.fanin_settles();
                    stats.masked += after.0 - before.0;
                    stats.excited += after.1 - before.1;
                }
            }
        }
    }
    stats
}

#[test]
fn fanin_settle_equals_full_sweep_oracle() {
    let mul = Arc::new(FxMulCircuit::new());
    let add = Arc::new(SatAdderCircuit::new());
    let act = Arc::new(SigmoidUnitCircuit::new());
    let results = [
        race_operator(&mut HwMultiplier::with_circuit(mul), "mul"),
        race_operator(&mut HwAdder::with_circuit(add), "add"),
        race_operator(&mut HwSigmoid::with_circuit(act), "act"),
    ];
    // Each operator must both return native arithmetic for a masked
    // defect and complete the settle for an excited one, and answer
    // recurring calls from the memo under both kinds of permanent plan,
    // but never under a dynamic one.
    for (s, name) in results.into_iter().zip(["mul", "add", "act"]) {
        assert!(s.masked > 0 && s.excited > 0, "{name}: {s:?}");
        assert!(s.hits_lut > 0 && s.hits_stateful > 0, "{name}: {s:?}");
        assert_eq!(s.hits_dynamic, 0, "{name}: {s:?}");
    }
}
