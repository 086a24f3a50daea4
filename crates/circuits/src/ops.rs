//! Self-contained faulty-operator evaluators for the hybrid ANN path.
//!
//! The paper trains and tests with a high-level ANN model in which "it is
//! possible to mark a neuron as having one or several defect(s) for a
//! specific operator, in which case a software function is called to
//! perform that operator in place of the native operator". These wrappers
//! are those software functions: each owns a gate-level operator circuit
//! plus a simulator with the injected defects, and exposes a plain
//! `Fx -> Fx` interface that `dta-ann` calls for marked neurons while
//! every healthy operator runs native Q6.10 arithmetic.
//!
//! Batch entry points pick one rung from what the installed plan lowers
//! to, and every rung is bit-identical to mapping the scalar entry point
//! over the batch:
//!
//! 1. **native** — no defect: plain Q6.10 arithmetic;
//! 2. **LUT** — every fault lowered to a truth-word patch
//!    ([`DefectPlan::apply_lut`]): the compiled instruction stream,
//!    64 lanes per straight-line sweep;
//! 3. **cone** — stateful or dynamic faults: a healthy 64-lane twin
//!    settles the batch and only the faulty gates' cone of influence is
//!    gate-simulated per lane, sharing the scalar simulator's state;
//! 4. **scalar** — the event-driven [`dta_logic::Simulator`], one
//!    stimulus at a time, when the cone plan is refused.
//!
//! The scalar entry points (`add`, `mul`, `eval`) of a faulty operator
//! under a permanent plan sit behind a fixed 1 024-entry direct-mapped
//! memo keyed by (operands, live behavior state): on a latch-free
//! circuit the settled output and the cells' next state are a function
//! of that key (see [`dta_logic::Simulator::override_state`]), so a
//! recurring key restores the memoized next state and returns the
//! memoized output without a gate-level settle. A miss settles only the
//! defects' fan-in ([`dta_logic::Simulator::settle_or_mask`]). Dynamic
//! plans report no state and always settle; a new plan drops the memo.

use std::sync::{Arc, OnceLock};

use rand::Rng;

use dta_fixed::{Fx, SigmoidLut};

use crate::adder::SatAdderCircuit;
use crate::inject::{DefectPlan, FaultModel};
use crate::multiplier::FxMulCircuit;
use crate::sigmoid_unit::SigmoidUnitCircuit;

/// Shared sigmoid table for the healthy native shortcut.
fn sigmoid_lut() -> &'static SigmoidLut {
    static LUT: OnceLock<SigmoidLut> = OnceLock::new();
    LUT.get_or_init(SigmoidLut::new)
}

/// The memo key's operand bits of a two-operand call.
fn operand_pair(a: Fx, b: Fx) -> u32 {
    u32::from(a.to_bits()) << 16 | u32::from(b.to_bits())
}

/// Entries of each faulty operator's memo: a fixed bound per operator.
const MEMO_ENTRIES: usize = 1024;

/// Direct-mapped memo of a permanent faulty operator, keyed by
/// `state << 32 | operands` (the live behavior state of
/// [`dta_logic::Simulator::override_state`] and the packed operand
/// bits), mapping to `next_state << 16 | output`. The state is at most
/// 31 bits, so no key equals the empty marker `u64::MAX`.
#[derive(Debug)]
struct OpMemo {
    entries: Box<[(u64, u64)]>,
}

impl OpMemo {
    fn new() -> OpMemo {
        OpMemo {
            entries: vec![(u64::MAX, 0); MEMO_ENTRIES].into_boxed_slice(),
        }
    }

    /// The entry `key` maps to (Fibonacci hashing on the top bits).
    fn slot(&mut self, key: u64) -> &mut (u64, u64) {
        let i = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_ENTRIES.trailing_zeros());
        &mut self.entries[i as usize]
    }
}

macro_rules! hw_operator {
    ($(#[$doc:meta])* $name:ident, $circuit:ty) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            circuit: Arc<$circuit>,
            sim: dta_logic::Simulator,
            /// Healthy lane-parallel twin, present iff the fault set is
            /// *stateful* and `sim` accepted a cone plan: batch entry
            /// points settle it 64 stimuli at a time and gate-simulate
            /// only `sim`'s cone of influence per lane (see
            /// [`dta_logic::Simulator::prepare_cone`]).
            healthy64: Option<dta_logic::Simulator64>,
            /// Compiled LUT instruction-stream engine, present iff the
            /// plan lowered to truth-word patches alone (see
            /// [`DefectPlan::apply_lut`]). Stateful plans stay on the
            /// cone path so memory effects share `sim`'s behavior state
            /// with the scalar entry points.
            lut: Option<dta_logic::LutExec>,
            /// Scalar-call memo, allocated on the first scalar call of a
            /// memoizable (permanent, latch-free) plan and dropped with
            /// the plan.
            memo: Option<OpMemo>,
            /// Scalar calls answered from the memo, over all plans.
            memo_hits: u64,
            plan: DefectPlan,
        }

        impl $name {
            /// Builds a healthy operator with its own circuit instance.
            pub fn new() -> Self {
                Self::with_circuit(Arc::new(<$circuit>::new()))
            }

            /// Builds an operator over a shared circuit (the netlist is
            /// immutable, so many operators can reuse one instance).
            pub fn with_circuit(circuit: Arc<$circuit>) -> Self {
                let sim = circuit.simulator();
                Self {
                    circuit,
                    sim,
                    healthy64: None,
                    lut: None,
                    memo: None,
                    memo_hits: 0,
                    plan: DefectPlan::new(FaultModel::TransistorLevel),
                }
            }

            /// Rebuilds the batch engines for the current plan: the
            /// patched LUT stream when every fault lowers to a truth
            /// word, otherwise the healthy twin of the cone-pruned path.
            fn rebuild_batch_engines(&mut self) {
                self.lut = None;
                self.healthy64 = None;
                self.memo = None;
                if self.plan.is_empty() {
                    return;
                }
                let mut ex = self.circuit.lut_exec();
                if self.plan.apply_lut(&mut ex) {
                    self.lut = Some(ex);
                } else if self.sim.prepare_cone() {
                    self.healthy64 = Some(self.circuit.simulator64());
                }
            }

            /// True if the batch entry points run word-parallel without
            /// per-lane state: natively when healthy, on the patched LUT
            /// stream when every fault is combinational.
            pub fn vectorizable(&self) -> bool {
                self.plan.is_empty() || self.lut.is_some()
            }

            /// True if the current plan lowered entirely to truth-word
            /// patches on the compiled LUT instruction stream, i.e. the
            /// batch entry points run the straight-line schedule instead
            /// of event-driven settles.
            pub fn lut_ready(&self) -> bool {
                self.lut.is_some()
            }

            /// The operator's patched LUT executor, when the plan
            /// lowered entirely to truth-word patches. Network-level
            /// fusion reads the patched instruction stream from here and
            /// stitches it into one program across operators.
            pub fn lut_stream(&self) -> Option<&dta_logic::LutExec> {
                self.lut.as_ref()
            }

            /// Injects `n` random **permanent** defects under the given
            /// fault model and applies them. Returns a description per
            /// defect.
            pub fn inject_random<R: Rng + ?Sized>(
                &mut self,
                model: FaultModel,
                n: usize,
                rng: &mut R,
            ) -> Vec<String> {
                self.inject_random_with(
                    model,
                    dta_transistor::Activation::Permanent,
                    n,
                    rng,
                )
            }

            /// Injects `n` random defects with the given lifetime under
            /// the given fault model and applies them. Returns a
            /// description per defect. For
            /// [`dta_transistor::Activation::Permanent`] this consumes
            /// exactly the same RNG draws as
            /// [`Self::inject_random`].
            pub fn inject_random_with<R: Rng + ?Sized>(
                &mut self,
                model: FaultModel,
                activation: dta_transistor::Activation,
                n: usize,
                rng: &mut R,
            ) -> Vec<String> {
                self.plan.remove(&mut self.sim);
                if self.plan.model() != model {
                    self.plan = DefectPlan::new(model);
                }
                for _ in 0..n {
                    self.plan.add_random_with(
                        self.circuit.netlist(),
                        self.circuit.cells(),
                        activation,
                        rng,
                    );
                }
                self.plan.apply(&mut self.sim);
                self.rebuild_batch_engines();
                self.plan
                    .records()
                    .iter()
                    .map(|r| format!("bit {}: {}", r.bit, r.description))
                    .collect()
            }

            /// Installs a prepared defect plan (replacing any previous one).
            pub fn install_plan(&mut self, plan: DefectPlan) {
                self.plan.remove(&mut self.sim);
                plan.apply(&mut self.sim);
                self.plan = plan;
                self.rebuild_batch_engines();
            }

            /// Number of injected defects.
            pub fn defect_count(&self) -> usize {
                self.plan.len()
            }

            /// Evaluates one scalar call of a faulty operator through the
            /// memo. `operands` packs the operand bits; `settle` runs the
            /// gate-level evaluation on a miss. A permanent plan on a
            /// latch-free circuit makes the operator a Mealy machine over
            /// (operands, live behavior state), so a hit restores the
            /// memoized next state and returns the memoized output
            /// without driving the simulator. Plans that cannot be
            /// memoized (dynamic activation) always settle.
            fn memoized(
                &mut self,
                operands: u32,
                settle: impl FnOnce(&$circuit, &mut dta_logic::Simulator) -> Fx,
            ) -> Fx {
                let Some(state) = self.sim.override_state() else {
                    return settle(&self.circuit, &mut self.sim);
                };
                let key = state << 32 | u64::from(operands);
                let slot = self.memo.get_or_insert_with(OpMemo::new).slot(key);
                if slot.0 == key {
                    self.memo_hits += 1;
                    self.sim.set_override_state(slot.1 >> 16);
                    return Fx::from_bits(slot.1 as u16);
                }
                let out = settle(&self.circuit, &mut self.sim);
                let next = self.sim.override_state().expect("plan stays memoizable");
                *slot = (key, next << 16 | u64::from(out.to_bits()));
                out
            }

            /// Scalar calls answered from the memo instead of a
            /// gate-level settle, summed over every plan this operator
            /// has held.
            pub fn memo_hits(&self) -> u64 {
                self.memo_hits
            }

            /// Scalar evaluations that settled only the defects' fan-in,
            /// by outcome: `(masked, excited)` — see
            /// [`dta_logic::Simulator::fanin_settles`].
            pub fn fanin_settles(&self) -> (u64, u64) {
                self.sim.fanin_settles()
            }

            /// The shared circuit.
            pub fn circuit(&self) -> &Arc<$circuit> {
                &self.circuit
            }

            /// Clears memory effects and delay-line state left by
            /// previous evaluations (call between independent runs).
            pub fn reset_state(&mut self) {
                self.sim.reset_state();
                if let Some(lut) = self.lut.as_mut() {
                    lut.reset_state();
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

hw_operator!(
    /// The neuron accumulation adder (16-bit saturating), evaluated at
    /// the gate level with optional injected defects.
    ///
    /// # Example
    ///
    /// ```
    /// use dta_circuits::ops::HwAdder;
    /// use dta_fixed::Fx;
    /// let mut adder = HwAdder::new();
    /// let (a, b) = (Fx::from_f64(1.25), Fx::from_f64(2.5));
    /// assert_eq!(adder.add(a, b), a + b);
    /// ```
    HwAdder,
    SatAdderCircuit
);

impl HwAdder {
    /// Computes the (possibly faulty) saturating sum. Healthy operators
    /// skip gate simulation entirely, and a faulty one settles only the
    /// defects' fan-in unless a defect is excited: the healthy circuit is
    /// bit-exact with the native saturating Q6.10 add.
    pub fn add(&mut self, a: Fx, b: Fx) -> Fx {
        if self.plan.is_empty() {
            return a + b;
        }
        self.memoized(operand_pair(a, b), |c, sim| {
            c.compute_or_mask(sim, a, b).unwrap_or(a + b)
        })
    }

    /// Computes a whole batch of sums on the rung the plan lowers to
    /// (see the module docs). Identical to mapping [`HwAdder::add`]
    /// over the pairs.
    pub fn add_batch(&mut self, a: &[Fx], b: &[Fx]) -> Vec<Fx> {
        if self.plan.is_empty() {
            return a.iter().zip(b).map(|(&x, &y)| x + y).collect();
        }
        if let Some(lut) = self.lut.as_mut() {
            return self.circuit.compute_lut(lut, a, b);
        }
        match self.healthy64.as_mut() {
            Some(healthy) => self.circuit.compute_cone(&mut self.sim, healthy, a, b),
            None => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.circuit.compute(&mut self.sim, x, y))
                .collect(),
        }
    }
}

hw_operator!(
    /// The synaptic multiplier (Q6.10 truncating, saturating), evaluated
    /// at the gate level with optional injected defects.
    ///
    /// # Example
    ///
    /// ```
    /// use dta_circuits::ops::HwMultiplier;
    /// use dta_fixed::Fx;
    /// let mut mul = HwMultiplier::new();
    /// let (a, b) = (Fx::from_f64(0.5), Fx::from_f64(-3.0));
    /// assert_eq!(mul.mul(a, b), a * b);
    /// ```
    HwMultiplier,
    FxMulCircuit
);

impl HwMultiplier {
    /// Computes the (possibly faulty) product. Healthy operators skip
    /// gate simulation entirely, and a faulty one settles only the
    /// defects' fan-in unless a defect is excited: the healthy circuit
    /// is bit-exact with the native truncating, saturating Q6.10
    /// multiply.
    pub fn mul(&mut self, a: Fx, b: Fx) -> Fx {
        if self.plan.is_empty() {
            return a * b;
        }
        self.memoized(operand_pair(a, b), |c, sim| {
            c.compute_or_mask(sim, a, b).unwrap_or(a * b)
        })
    }

    /// Computes a whole batch of products on the rung the plan lowers
    /// to (see the module docs). Identical to mapping
    /// [`HwMultiplier::mul`] over the pairs.
    pub fn mul_batch(&mut self, a: &[Fx], b: &[Fx]) -> Vec<Fx> {
        if self.plan.is_empty() {
            return a.iter().zip(b).map(|(&x, &y)| x * y).collect();
        }
        if let Some(lut) = self.lut.as_mut() {
            return self.circuit.compute_lut(lut, a, b);
        }
        match self.healthy64.as_mut() {
            Some(healthy) => self.circuit.compute_cone(&mut self.sim, healthy, a, b),
            None => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.circuit.compute(&mut self.sim, x, y))
                .collect(),
        }
    }
}

hw_operator!(
    /// The activation unit (16-segment piecewise-linear sigmoid),
    /// evaluated at the gate level with optional injected defects.
    ///
    /// # Example
    ///
    /// ```
    /// use dta_circuits::ops::HwSigmoid;
    /// use dta_fixed::{Fx, SigmoidLut};
    /// let mut act = HwSigmoid::new();
    /// let x = Fx::from_f64(0.7);
    /// assert_eq!(act.eval(x), SigmoidLut::new().eval(x));
    /// ```
    HwSigmoid,
    SigmoidUnitCircuit
);

impl HwSigmoid {
    /// Computes the (possibly faulty) activation. Healthy operators
    /// skip gate simulation entirely, and a faulty one settles only the
    /// defects' fan-in unless a defect is excited: the healthy circuit
    /// is bit-exact with the native 16-segment [`SigmoidLut`].
    pub fn eval(&mut self, x: Fx) -> Fx {
        if self.plan.is_empty() {
            return sigmoid_lut().eval(x);
        }
        self.memoized(u32::from(x.to_bits()), |c, sim| {
            c.compute_or_mask(sim, x)
                .unwrap_or_else(|| sigmoid_lut().eval(x))
        })
    }

    /// Computes a whole batch of activations on the rung the plan
    /// lowers to (see the module docs). Identical to mapping
    /// [`HwSigmoid::eval`] over the inputs.
    pub fn eval_batch(&mut self, xs: &[Fx]) -> Vec<Fx> {
        if self.plan.is_empty() {
            let lut = sigmoid_lut();
            return xs.iter().map(|&x| lut.eval(x)).collect();
        }
        if let Some(lut) = self.lut.as_mut() {
            return self.circuit.compute_lut(lut, xs);
        }
        match self.healthy64.as_mut() {
            Some(healthy) => self.circuit.compute_cone(&mut self.sim, healthy, xs),
            None => xs
                .iter()
                .map(|&x| self.circuit.compute(&mut self.sim, x))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_fixed::SigmoidLut;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn healthy_operators_match_native_datapath() {
        let mut add = HwAdder::new();
        let mut mul = HwMultiplier::new();
        let mut act = HwSigmoid::new();
        let lut = SigmoidLut::new();
        let mut raw = -32768i32;
        while raw <= 32767 {
            let a = Fx::from_raw(raw as i16);
            let b = Fx::from_raw((raw.wrapping_mul(37) ^ 0x55aa) as i16);
            assert_eq!(add.add(a, b), a + b);
            assert_eq!(mul.mul(a, b), a * b);
            assert_eq!(act.eval(a), lut.eval(a));
            raw += 1021;
        }
    }

    #[test]
    fn shared_circuit_instances() {
        let circuit = Arc::new(FxMulCircuit::new());
        let mut m1 = HwMultiplier::with_circuit(Arc::clone(&circuit));
        let mut m2 = HwMultiplier::with_circuit(Arc::clone(&circuit));
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        m2.inject_random(FaultModel::TransistorLevel, 3, &mut rng);
        assert_eq!(m1.defect_count(), 0);
        assert_eq!(m2.defect_count(), 3);
        // The healthy instance is unaffected by the faulty one.
        let (a, b) = (Fx::from_f64(2.0), Fx::from_f64(3.0));
        assert_eq!(m1.mul(a, b), a * b);
    }

    #[test]
    fn injection_reports_descriptions() {
        let mut add = HwAdder::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let reports = add.inject_random(FaultModel::TransistorLevel, 4, &mut rng);
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.starts_with("bit "), "report: {r}");
        }
    }

    #[test]
    fn many_defects_visibly_corrupt_the_multiplier() {
        let mut mul = HwMultiplier::new();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        mul.inject_random(FaultModel::TransistorLevel, 30, &mut rng);
        let mut diffs = 0;
        let mut raw = -32000i32;
        while raw <= 32000 {
            let a = Fx::from_raw(raw as i16);
            let b = Fx::from_raw((raw ^ 0x1f3) as i16);
            if mul.mul(a, b) != a * b {
                diffs += 1;
            }
            raw += 640;
        }
        assert!(diffs > 0, "30 defects must corrupt some products");
    }

    #[test]
    fn batch_matches_scalar_for_combinational_faults() {
        // Hunt for a seed whose defects stay combinational, then check
        // the patched LUT path against element-wise evaluation.
        let mut found = false;
        for seed in 0..20 {
            let mut mul = HwMultiplier::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            mul.inject_random(FaultModel::TransistorLevel, 4, &mut rng);
            if !mul.vectorizable() {
                continue;
            }
            assert!(mul.lut_ready(), "combinational plans run on the LUT stream");
            found = true;
            let a: Vec<Fx> = (0..150).map(|i| Fx::from_raw((i * 431) as i16)).collect();
            let b: Vec<Fx> = (0..150)
                .map(|i| Fx::from_raw((i * 77 - 999) as i16))
                .collect();
            let batch = mul.mul_batch(&a, &b);
            let scalar: Vec<Fx> = a.iter().zip(&b).map(|(&x, &y)| mul.mul(x, y)).collect();
            assert_eq!(batch, scalar, "seed {seed}");
        }
        assert!(
            found,
            "no combinational 4-defect seed in 0..20 is suspicious"
        );
    }

    #[test]
    fn stateful_faults_disable_vectorization_but_batch_still_works() {
        // Find a plan with a latching/delay cell: vectorizable() must
        // be false and the batch entry point must fall back to the
        // scalar simulator (sequencing the same state updates).
        let mut found = false;
        for seed in 0..40 {
            let mut add = HwAdder::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            add.inject_random(FaultModel::TransistorLevel, 6, &mut rng);
            if add.vectorizable() {
                continue;
            }
            found = true;
            let a: Vec<Fx> = (0..40).map(|i| Fx::from_raw((i * 997) as i16)).collect();
            let b: Vec<Fx> = (0..40).map(|i| Fx::from_raw((i * 13 + 5) as i16)).collect();
            add.reset_state();
            let batch = add.add_batch(&a, &b);
            add.reset_state();
            let scalar: Vec<Fx> = a.iter().zip(&b).map(|(&x, &y)| add.add(x, y)).collect();
            assert_eq!(batch, scalar, "seed {seed}");
            break;
        }
        assert!(found, "no stateful 6-defect seed in 0..40 is suspicious");
    }

    #[test]
    fn healthy_batch_paths_are_vectorized_and_exact() {
        let mut add = HwAdder::new();
        let mut mul = HwMultiplier::new();
        let mut act = HwSigmoid::new();
        assert!(add.vectorizable());
        assert!(mul.vectorizable());
        assert!(act.vectorizable());
        let lut = SigmoidLut::new();
        let a: Vec<Fx> = (0..100)
            .map(|i| Fx::from_raw((i * 653 - 30000) as i16))
            .collect();
        let b: Vec<Fx> = (0..100)
            .map(|i| Fx::from_raw((i * 389 + 11) as i16))
            .collect();
        let sums = add.add_batch(&a, &b);
        let prods = mul.mul_batch(&a, &b);
        let acts = act.eval_batch(&a);
        for i in 0..a.len() {
            assert_eq!(sums[i], a[i] + b[i]);
            assert_eq!(prods[i], a[i] * b[i]);
            assert_eq!(acts[i], lut.eval(a[i]));
        }
    }

    #[test]
    fn reset_state_restores_determinism() {
        let mut mul = HwMultiplier::new();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        mul.inject_random(FaultModel::TransistorLevel, 8, &mut rng);
        let inputs: Vec<(Fx, Fx)> = (0..40)
            .map(|i| {
                (
                    Fx::from_raw((i * 997) as i16),
                    Fx::from_raw((i * 31 - 700) as i16),
                )
            })
            .collect();
        let run = |m: &mut HwMultiplier| -> Vec<Fx> {
            m.reset_state();
            inputs.iter().map(|&(a, b)| m.mul(a, b)).collect()
        };
        let first = run(&mut mul);
        let second = run(&mut mul);
        assert_eq!(first, second, "same sequence after reset");
    }
}
