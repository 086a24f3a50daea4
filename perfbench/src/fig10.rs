//! `fig10` and `fig10_transient`: the Figure 10 campaign, one unit per
//! (task, defect count) column of
//! `dta_core::campaign::defect_tolerance_curve`.
//!
//! The traced pass rebuilds each column from public pieces — the
//! campaign's per-cell seed derivation, `FaultPlan::inject_random_hidden_with`,
//! and `cross_validate`'s fold loop with `Trainer::train_with` around
//! `Mlp::forward_faulty`, a fused-memo lookup and `Trainer::evaluate` —
//! so each layer is timed apart. Its digest must equal the untraced
//! pass's, which calls the campaign itself.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_ann::{FaultPlan, ForwardMode, Mlp, Topology, Trainer};
use dta_circuits::{Activation, FaultModel};
use dta_core::campaign::{defect_tolerance_curve, CampaignConfig, CurvePoint};
use dta_datasets::{Dataset, TaskSpec};

use crate::{seeded_spec, time_unit, trace, traced, Pass, Workload};

const TASKS: [&str; 3] = ["iris", "wine", "glass"];
const COUNTS: [usize; 10] = [0, 3, 6, 9, 12, 15, 18, 21, 24, 27];
const REPS: usize = 1;
const FOLDS: usize = 3;
const EPOCHS: usize = 10;
/// Per-evaluation activation probability of the transient workload.
const TRANSIENT_P: f64 = 0.05;

pub struct Fig10 {
    tasks: Vec<(TaskSpec, Dataset)>,
    cfg: CampaignConfig,
}

impl Fig10 {
    pub fn new(seed: u64, transient: bool) -> Fig10 {
        let tasks = TASKS
            .iter()
            .map(|name| {
                let spec = seeded_spec(name, seed);
                let ds = trace::span("datasets.gen", || spec.dataset());
                (spec, ds)
            })
            .collect();
        let activation = if transient {
            Activation::Transient {
                per_eval_probability: TRANSIENT_P,
            }
        } else {
            Activation::Permanent
        };
        let cfg = CampaignConfig {
            defect_counts: COUNTS.to_vec(),
            repetitions: REPS,
            folds: FOLDS,
            epochs: Some(EPOCHS),
            model: FaultModel::TransistorLevel,
            activation,
            seed: 0xF1610,
            threads: 1,
            chaos: Vec::new(),
            mem: None,
            combined: false,
        };
        Fig10 { tasks, cfg }
    }
}

/// Forward-pass rows of one column: every fold trains `EPOCHS` times
/// over its training rows and evaluates its test rows once.
fn column_rows(ds: &Dataset, cfg: &CampaignConfig) -> u64 {
    (0..REPS)
        .map(|rep| {
            ds.k_folds(FOLDS, cfg.seed ^ rep as u64)
                .iter()
                .map(|f| (f.train.len() * EPOCHS + f.test.len()) as u64)
                .sum::<u64>()
        })
        .sum()
}

/// One column rebuilt from public pieces, timed layer by layer. Mirrors
/// `defect_tolerance_curve` for `defect_counts == [n_defects]`.
fn traced_column(spec: &TaskSpec, cfg: &CampaignConfig, n_defects: usize) -> CurvePoint {
    let ds = trace::span("datasets.gen", || spec.dataset());
    let trainer = Trainer::new(spec.learning_rate, 0.1, EPOCHS, ForwardMode::Fixed);
    let topo = Topology::new(ds.n_features(), spec.hidden, ds.n_classes());
    let accs: Vec<f64> = (0..REPS)
        .map(|rep| {
            // The campaign's per-cell seed.
            let cell_seed = cfg.seed ^ (n_defects as u64) << 24 ^ (rep as u64) << 8;
            let mut rng = ChaCha8Rng::seed_from_u64(cell_seed);
            let mut plan = FaultPlan::new(90);
            for _ in 0..n_defects {
                trace::span("circuits.inject", || {
                    plan.inject_random_hidden_with(spec.hidden, cfg.model, cfg.activation, &mut rng)
                });
            }
            // `cross_validate`'s fold loop.
            let seed = cfg.seed ^ rep as u64;
            let folds = ds.k_folds(cfg.folds, seed);
            let fold_acc: Vec<f64> = folds
                .iter()
                .enumerate()
                .map(|(f, fold)| {
                    let mut mlp = Mlp::new(topo, seed ^ (f as u64) << 32 | 0x5eed);
                    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(f as u64));
                    plan.reset_state();
                    traced::train_split(&trainer, &mut mlp, &ds, &fold.train, &mut plan, &mut rng);
                    traced::fused_lookup(&mlp, &plan);
                    trace::count("ann.eval_rows", fold.test.len() as f64);
                    trace::span("ann.eval", || {
                        trainer.evaluate(&mlp, &ds, &fold.test, Some(&mut plan))
                    })
                })
                .collect();
            fold_acc.iter().sum::<f64>() / fold_acc.len() as f64
        })
        .collect();
    CurvePoint {
        defects: n_defects,
        mean_accuracy: accs.iter().sum::<f64>() / accs.len() as f64,
        min_accuracy: accs.iter().copied().fold(f64::INFINITY, f64::min),
        max_accuracy: accs.iter().copied().fold(0.0, f64::max),
        failed: 0,
        retried: 0,
    }
}

impl Workload for Fig10 {
    fn params(&self) -> Vec<(&'static str, String)> {
        let tasks: Vec<String> = TASKS.iter().map(|t| format!("\"{t}\"")).collect();
        vec![
            ("tasks", format!("[{}]", tasks.join(","))),
            ("counts", format!("{COUNTS:?}")),
            ("reps", REPS.to_string()),
            ("folds", FOLDS.to_string()),
            ("epochs", EPOCHS.to_string()),
            ("activation", format!("\"{}\"", self.cfg.activation)),
            ("campaign_seed", self.cfg.seed.to_string()),
            ("threads", "1".to_string()),
        ]
    }

    fn run(&self, traced: bool, pass: &mut Pass) {
        for (spec, ds) in &self.tasks {
            for &n in &COUNTS {
                let id = format!("{}/d{n}", spec.name);
                let column = CampaignConfig {
                    defect_counts: vec![n],
                    ..self.cfg.clone()
                };
                let (point, ms) = time_unit(pass.units.len(), || {
                    if traced {
                        traced_column(spec, &column, n)
                    } else {
                        let curve = defect_tolerance_curve(spec, &column)
                            .expect("campaign configuration is valid");
                        curve.into_iter().next().expect("one column per call")
                    }
                });
                let failed = point.failed > 0;
                pass.digest.add(&id, &point);
                pass.push(id, ms, failed, column_rows(ds, &self.cfg));
            }
        }
    }
}
