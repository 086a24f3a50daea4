//! Accelerators wrapped so that the calls the recovery ladder and the
//! mission runtime make into them are timed from outside.
//!
//! [`Traced`] implements [`Accel`] by delegating every method to the
//! wrapped topology inside a span. On the spatial array, `retrain` is
//! rebuilt from public pieces (`Trainer::train_with` around
//! `Mlp::forward_faulty`, exactly as `Accelerator::retrain` composes
//! them) so that the forward pass and backprop are timed apart, and
//! `evaluate` first looks the plan up in the fused-compilation memo so
//! that compilation is timed apart from execution. The result digest
//! of the traced run proves both rebuilds do the same work.

use std::sync::atomic::AtomicBool;

use rand_chacha::ChaCha8Rng;

use dta_ann::{fused_cache_stats, FaultPlan, ForwardMode, FusedForward, Mlp, Topology, Trainer};
use dta_core::recover::{DegradationEstimate, RecoveryError, RecoveryPolicy, RecoveryRung};
use dta_core::{Accel, AccelError, Accelerator, BistConfig, Diagnosis, StructuralOutcome};
use dta_datasets::Dataset;
use dta_fixed::SigmoidLut;
use dta_systolic::SystolicAccelerator;

use crate::trace;

/// Looks the `(mlp, plan)` pair up in the fused-compilation memo inside
/// an `ann.fused_compile` span, so the evaluation that follows finds it
/// cached. Counts refusals (plans the fused engine cannot take), the
/// optimizer's instruction counts of every fresh compilation, and the
/// lookups this call itself added to the memo's hit counter (subtracted
/// again when the memo's hit count is reported).
pub fn fused_lookup(mlp: &Mlp, plan: &FaultPlan) {
    if !trace::enabled() {
        return;
    }
    let (h0, m0) = fused_cache_stats();
    let ff = trace::span("ann.fused_compile", || FusedForward::cached(mlp, plan));
    let (h1, m1) = fused_cache_stats();
    trace::count("harness.fused_lookup_hits", (h1 - h0) as f64);
    match ff {
        None => trace::count("ann.fused_refused", 1.0),
        Some(ff) if m1 > m0 => {
            let st = ff.opt_stats();
            trace::count("logic.opt_instrs_in", st.instrs_before as f64);
            trace::count("logic.opt_instrs_out", st.instrs_after as f64);
        }
        Some(_) => {}
    }
}

/// `Trainer::train_with` through `Mlp::forward_faulty`, with the
/// forward pass timed per sample (`ann.fwd`) inside the `ann.backprop`
/// span, whose self time is then backprop and the weight update.
pub fn train_split<R: rand::Rng + ?Sized>(
    trainer: &Trainer,
    mlp: &mut Mlp,
    ds: &Dataset,
    idx: &[usize],
    plan: &mut FaultPlan,
    rng: &mut R,
) {
    let lut = SigmoidLut::new();
    trace::span("ann.backprop", || {
        trainer.train_with(mlp, ds, idx, rng, |m, x| {
            trace::busy("ann.fwd", || m.forward_faulty(x, &lut, plan))
        })
    });
    trace::count("ann.fwd_rows", (trainer.epochs * idx.len()) as f64);
}

/// What differs between the two topologies under tracing.
pub trait Topo: Accel {
    /// Span name of an evaluation.
    const EVAL: &'static str;
    /// Counter of rows evaluated.
    const EVAL_ROWS: &'static str;
    fn traced_retrain(
        &mut self,
        ds: &Dataset,
        idx: &[usize],
        learning_rate: f64,
        momentum: f64,
        epochs: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<(), AccelError>;
    /// Runs before each evaluation.
    fn before_eval(&self) {}
}

impl Topo for Accelerator {
    const EVAL: &'static str = "ann.eval";
    const EVAL_ROWS: &'static str = "ann.eval_rows";

    /// `Accelerator::retrain`, composed from its public pieces.
    fn traced_retrain(
        &mut self,
        ds: &Dataset,
        idx: &[usize],
        learning_rate: f64,
        momentum: f64,
        epochs: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<(), AccelError> {
        let valid = learning_rate > 0.0
            && learning_rate.is_finite()
            && (0.0..1.0).contains(&momentum)
            && epochs > 0;
        if !valid || self.network().is_none() {
            // Let the accelerator report its own typed error.
            return Accelerator::retrain(self, ds, idx, learning_rate, momentum, epochs, rng);
        }
        let mut mlp = self.unmap_network().expect("network checked above");
        let trainer = Trainer::new(learning_rate, momentum, epochs, ForwardMode::Fixed);
        self.faults_mut().reset_state();
        train_split(&trainer, &mut mlp, ds, idx, self.faults_mut(), rng);
        Accelerator::map_network(self, mlp)
    }

    fn before_eval(&self) {
        if let Some(mlp) = self.network() {
            fused_lookup(mlp, self.faults());
        }
    }
}

impl Topo for SystolicAccelerator {
    const EVAL: &'static str = "systolic.eval";
    const EVAL_ROWS: &'static str = "systolic.eval_rows";

    fn traced_retrain(
        &mut self,
        ds: &Dataset,
        idx: &[usize],
        learning_rate: f64,
        momentum: f64,
        epochs: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<(), AccelError> {
        trace::span("systolic.train", || {
            self.retrain(ds, idx, learning_rate, momentum, epochs, rng)
        })
    }
}

/// An accelerator whose every [`Accel`] call is timed.
pub struct Traced<A>(pub A);

/// Counts one BIST run and what it flagged (`None`: an aborted probe).
fn count_bist(diag: Option<&Diagnosis>) {
    trace::count("core.bist_calls", 1.0);
    let flagged = diag.map_or(0, |d| d.flagged.len());
    trace::count("core.bist_flagged", flagged as f64);
}

impl<A: Topo> Accel for Traced<A> {
    fn geometry(&self) -> Topology {
        self.0.geometry()
    }

    fn network(&self) -> Option<&Mlp> {
        self.0.network()
    }

    fn map_network(&mut self, mlp: Mlp) -> Result<(), AccelError> {
        self.0.map_network(mlp)
    }

    fn unmap_network(&mut self) -> Option<Mlp> {
        self.0.unmap_network()
    }

    fn evaluate(&mut self, ds: &Dataset, idx: &[usize]) -> Result<f64, AccelError> {
        self.0.before_eval();
        trace::count(A::EVAL_ROWS, idx.len() as f64);
        trace::span(A::EVAL, || self.0.evaluate(ds, idx))
    }

    fn retrain(
        &mut self,
        ds: &Dataset,
        idx: &[usize],
        learning_rate: f64,
        momentum: f64,
        epochs: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<(), AccelError> {
        self.0
            .traced_retrain(ds, idx, learning_rate, momentum, epochs, rng)
    }

    fn self_test(&mut self, cfg: &BistConfig) -> Result<Diagnosis, AccelError> {
        let diag = trace::span("core.bist", || self.0.self_test(cfg))?;
        count_bist(Some(&diag));
        Ok(diag)
    }

    fn structural_rungs(&self, policy: &RecoveryPolicy) -> Vec<RecoveryRung> {
        self.0.structural_rungs(policy)
    }

    fn apply_structural_rung(
        &mut self,
        rung: RecoveryRung,
        diagnosis: &Diagnosis,
        policy: &RecoveryPolicy,
    ) -> Result<StructuralOutcome, RecoveryError> {
        trace::count("harness.structural_rungs", 1.0);
        trace::span("core.rung", || {
            self.0.apply_structural_rung(rung, diagnosis, policy)
        })
    }

    fn degradation(&mut self, diagnosis: &Diagnosis, baseline: f64) -> DegradationEstimate {
        trace::span("core.degrade", || self.0.degradation(diagnosis, baseline))
    }

    fn begin_batch(&mut self) -> Result<(), AccelError> {
        self.0.begin_batch()
    }

    fn end_batch(&mut self) {
        self.0.end_batch()
    }

    fn probe_touched(
        &mut self,
        cfg: &BistConfig,
        abort: &AtomicBool,
    ) -> Result<Option<Diagnosis>, AccelError> {
        let diag = trace::span("core.bist", || self.0.probe_touched(cfg, abort))?;
        count_bist(diag.as_ref());
        Ok(diag)
    }

    fn quarantine(&mut self, diagnosis: &Diagnosis) -> Result<usize, AccelError> {
        self.0.quarantine(diagnosis)
    }
}
