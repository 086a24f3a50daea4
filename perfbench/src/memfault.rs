//! `memfault`: a weight-store defect-density sweep on iris with SEC-DED
//! and 2 spare rows / 8 spare columns, blind vs recovered twins. One
//! unit per (density, rep) twin cell — a call of
//! `dta_bench::twin::run_twin_race`, the protocol `exp_memfault` runs,
//! sized down (fewer densities and epochs) with one density ≥ 3e-3.
//!
//! The traced pass runs the same race step by step (`Accel::evaluate`,
//! `Accel::self_test`, `recover`) on [`Traced`] accelerators, so BIST,
//! each recovery, and the training and evaluation inside them are timed
//! apart. Its digest must equal the untraced pass's.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_ann::Topology;
use dta_bench::twin::{self, TwinCell};
use dta_core::recover::{recover, RecoveryError, RecoveryReport};
use dta_core::{
    Accel, Accelerator, BistConfig, Diagnosis, MemActivation, MemGeometry, RecoveryPolicy,
    RungBudget, WeightMemory,
};
use dta_datasets::{Dataset, Fold, TaskSpec};

use crate::traced::Traced;
use crate::{seeded_spec, time_unit, trace, Pass, Workload, WATCHDOG_MS};

const BIN: &str = "perfbench memfault";
const DENSITIES: [f64; 5] = [0.0, 1e-4, 3e-4, 1e-3, 3e-3];
const REPS: usize = 1;
const EPOCHS: usize = 20;
const RECOVERY_EPOCHS: usize = 1;
/// The ladder's target is `clean - TARGET_DROP`, here above any
/// reachable accuracy: every rung spends its whole epoch budget, so the
/// work of a cell is fixed by the workload instead of by how early a
/// rung happens to succeed on the seed's dataset.
const TARGET_DROP: f64 = -1.0;

pub struct MemFault {
    spec: TaskSpec,
    ds: Dataset,
    geom: MemGeometry,
    counts: Vec<usize>,
    policy: RecoveryPolicy,
    seed: u64,
}

impl MemFault {
    pub fn new(seed: u64) -> MemFault {
        let spec = seeded_spec("iris", seed);
        let ds = trace::span("datasets.gen", || spec.dataset());
        let phys = Topology::accelerator();
        let mut geom = MemGeometry::for_network(phys.inputs, phys.hidden, phys.outputs, true);
        geom.spare_rows = 2;
        geom.spare_cols = 8;
        let counts = DENSITIES
            .iter()
            .map(|d| (d * geom.data_cells() as f64).round() as usize)
            .collect();
        let budget = RungBudget {
            max_epochs: RECOVERY_EPOCHS,
            wall_clock_ms: WATCHDOG_MS,
        };
        let policy = RecoveryPolicy {
            retrain: budget,
            remap: budget,
            learning_rate: spec.learning_rate,
            momentum: 0.1,
            ..RecoveryPolicy::default()
        };
        MemFault {
            spec,
            ds,
            geom,
            counts,
            policy,
            seed: 0x3E30,
        }
    }

    /// The commissioned accelerator with `n` permanent defects planted
    /// in a freshly attached weight store — one twin arm.
    fn arm<A: Accel>(
        &self,
        accel: A,
        mem: fn(&mut A) -> &mut Accelerator,
        fold: &Fold,
        n: usize,
        cell_seed: u64,
    ) -> A {
        let mut accel = self.commission(accel, fold, cell_seed);
        let spatial = mem(&mut accel);
        spatial
            .attach_weight_memory_with(WeightMemory::new(self.geom))
            .expect("fresh accelerator takes a store");
        let mut rng = ChaCha8Rng::seed_from_u64(cell_seed ^ 0x3E3);
        trace::span("mem.inject", || {
            spatial.inject_memory_defects(n, MemActivation::Permanent, &mut rng)
        })
        .expect("injection between batches");
        accel
    }

    fn commission<A: Accel>(&self, accel: A, fold: &Fold, cell_seed: u64) -> A {
        twin::commission(
            BIN,
            accel,
            &self.spec,
            &self.ds,
            &fold.train,
            EPOCHS,
            cell_seed,
        )
    }

    /// `run_twin_race`, step by step on traced accelerators.
    fn traced_race(&self, fold: &Fold, n: usize, cell_seed: u64, pass: &mut Pass) -> Race {
        let spatial: fn(&mut Traced<Accelerator>) -> &mut Accelerator = |a| &mut a.0;
        let new = || Traced(Accelerator::new());
        let mut blind = self.arm(new(), spatial, fold, n, cell_seed);
        let mut full = self.arm(new(), spatial, fold, n, cell_seed);
        let defects = blind.0.memory().map_or(0, |m| m.defects().len()) as f64;
        pass.stat("mem.defects", defects);
        pass.stat("mem.stores", 1.0);
        pass.stat_max("mem.defects_max", defects);

        let ds = &self.ds;
        let clean = self
            .commission(new(), fold, cell_seed)
            .evaluate(ds, &fold.test)
            .expect("clean evaluation");
        let faulty = full.evaluate(ds, &fold.test).expect("faulty evaluation");
        let diagnosis = full.self_test(&BistConfig::default()).expect("selftest");
        let policy = RecoveryPolicy {
            target_accuracy: (clean - TARGET_DROP).max(0.0),
            seed: cell_seed,
            ..self.policy.clone()
        };
        let blind_policy = RecoveryPolicy {
            use_remap: false,
            use_memory_repair: false,
            ..policy.clone()
        };
        let run = |accel: &mut Traced<Accelerator>, diag: &Diagnosis, policy: &RecoveryPolicy| {
            trace::span("core.recover", || {
                recover(accel, ds, &fold.train, &fold.test, diag, policy)
            })
            .expect("recovery ladder runs")
        };
        let blind_report = run(&mut blind, &Diagnosis::default(), &blind_policy);
        let full_report = run(&mut full, &diagnosis, &policy);
        for arm in [&blind, &full] {
            if let Some(ecc) = arm.0.memory().map(|m| m.ecc_counters()) {
                pass.stat("mem.ecc_corrected", ecc.corrected as f64);
                pass.stat("mem.ecc_uncorrectable", ecc.uncorrectable as f64);
            }
        }
        Race {
            cell: TwinCell {
                clean,
                faulty,
                blind: blind_report.accuracy,
                recovered: full_report.accuracy,
            },
            diagnosis,
            blind_report,
            full_report,
        }
    }
}

struct Race {
    cell: TwinCell,
    diagnosis: Diagnosis,
    blind_report: RecoveryReport,
    full_report: RecoveryReport,
}

/// Forward-pass rows one cell stands for: three commissioning runs, the
/// clean and faulty evaluations, the BIST screen, and per recovery the
/// pre-ladder evaluation plus one training epoch and one evaluation per
/// epoch each rung reports.
fn cell_rows(fold: &Fold, race: &Race) -> u64 {
    let (train, test) = (fold.train.len() as u64, fold.test.len() as u64);
    let ladder = |r: &RecoveryReport| {
        test + r
            .rungs
            .iter()
            .map(|g| g.epochs_used as u64 * (train + test))
            .sum::<u64>()
    };
    3 * EPOCHS as u64 * train
        + 2 * test
        + BistConfig::default().screen_rows as u64
        + ladder(&race.blind_report)
        + ladder(&race.full_report)
}

impl Workload for MemFault {
    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("task", "\"iris\"".to_string()),
            ("densities", format!("{DENSITIES:?}")),
            ("counts", format!("{:?}", self.counts)),
            ("reps", REPS.to_string()),
            ("epochs", EPOCHS.to_string()),
            ("recovery_epochs", RECOVERY_EPOCHS.to_string()),
            ("budget_ms", WATCHDOG_MS.to_string()),
            ("ecc", "true".to_string()),
            ("spare_rows", "2".to_string()),
            ("spare_cols", "8".to_string()),
            ("target_drop", TARGET_DROP.to_string()),
            ("sweep_seed", self.seed.to_string()),
        ]
    }

    fn run(&self, traced: bool, pass: &mut Pass) {
        for (idx, &n) in self.counts.iter().enumerate() {
            for rep in 0..REPS {
                let id = format!("density{idx}/rep{rep}");
                let cell_seed = self.seed ^ (idx as u64) << 24 ^ (rep as u64) << 8;
                let fold = &self.ds.k_folds(5, self.seed ^ rep as u64)[0];
                let (race, ms) = time_unit(pass.units.len(), || {
                    if traced {
                        return self.traced_race(fold, n, cell_seed, pass);
                    }
                    let spatial: fn(&mut Accelerator) -> &mut Accelerator = |a| a;
                    let race = twin::run_twin_race(
                        BIN,
                        &id,
                        || self.arm(Accelerator::new(), spatial, fold, n, cell_seed),
                        || self.commission(Accelerator::new(), fold, cell_seed),
                        &self.ds,
                        fold,
                        &self.policy,
                        TARGET_DROP,
                        cell_seed,
                    );
                    Race {
                        cell: race.cell,
                        diagnosis: race.diagnosis,
                        blind_report: race.blind_report,
                        full_report: race.full_report,
                    }
                });
                let reports = [&race.blind_report, &race.full_report];
                let timeouts = reports
                    .iter()
                    .flat_map(|r| &r.rungs)
                    .filter(|g| matches!(g.error, Some(RecoveryError::Timeout { .. })))
                    .count();
                for r in reports {
                    let mut best = r.pre_recovery_accuracy;
                    for g in &r.rungs {
                        pass.stat("core.rungs_run", 1.0);
                        if let Some(acc) = g.accuracy.filter(|&a| a > best) {
                            pass.stat("core.rungs_improved", 1.0);
                            best = acc;
                        }
                    }
                }
                pass.stat("core.rung_timeouts", timeouts as f64);
                // The in-binary floor of exp_memfault: the pipeline arm
                // never ends below the blind arm.
                let failed = timeouts > 0 || race.cell.recovered < race.cell.blind;
                pass.digest.add(&id, race.cell);
                pass.digest.add("flagged", race.diagnosis.flagged.len());
                pass.digest.add("blind", &race.blind_report);
                pass.digest.add("full", &race.full_report);
                pass.push(id, ms, failed, cell_rows(fold, &race));
            }
        }
    }
}
