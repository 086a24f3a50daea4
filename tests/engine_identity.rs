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

use dta::ann::{FaultPlan, FusedForward, Layer, Mlp, Topology};
use dta::circuits::{Activation, FaultModel, HwAdder, HwMultiplier, HwSigmoid};
use dta::core::{MemGeometry, WeightMemory};
use dta::fixed::{Fx, SigmoidLut};
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
