//! `mission`: Poisson mid-stream fault arrival on both topologies —
//! combined-surface arrivals on the spatial array with its SEC-DED
//! weight store, permanent PE faults on the systolic grid — each rate
//! run as a blind arm and a mission arm. One unit per `run_mission`
//! call, the protocol `exp_mission` runs, sized down.
//!
//! The traced pass runs the same missions on [`Traced`] accelerators,
//! so serving, probes, retraining, rungs and injection inside
//! `run_mission` are timed apart. Its digest must equal the untraced
//! pass's.

use rand_chacha::ChaCha8Rng;

use dta_ann::Topology;
use dta_bench::twin;
use dta_circuits::Activation;
use dta_core::{
    run_mission, Accel, AccelError, Accelerator, BistConfig, MemGeometry, MissionConfig,
    MissionError, MissionEvent, MissionOutcome, RecoveryPolicy, RungBudget, SurfaceMix,
    WeightMemory,
};
use dta_datasets::{Dataset, Fold, TaskSpec};
use dta_systolic::SystolicAccelerator;

use crate::traced::Traced;
use crate::{seeded_spec, time_unit, trace, Pass, Workload, WATCHDOG_MS};

const BIN: &str = "perfbench mission";
const TOPOS: [&str; 2] = ["spatial", "systolic"];
const RATES: [f64; 2] = [0.05, 0.1];
const ARMS: [&str; 2] = ["blind", "mission"];
/// (topology, rate index, rep) of every cell, in run order: both rates
/// twice on the spatial array, the higher rate once on the systolic
/// grid. Systolic missions cost two orders of magnitude less than
/// spatial ones; one systolic cell keeps the grid in every pass without
/// putting the unit-time median on the gap between the two topologies.
const CELLS: [(usize, usize, usize); 5] = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0)];
const WINDOWS: usize = 3;
const BATCHES: u64 = 12;
const ROWS: usize = 8;
const PROBE_INTERVAL: u64 = 4;
const EVENT_DEFECTS: usize = 4;
const MAX_ATTEMPTS: usize = 2;
const EPOCHS: usize = 30;
const RECOVERY_EPOCHS: usize = 12;
/// The ladder's target is `clean - TARGET_DROP`, here 0: every episode
/// succeeds after one retraining epoch, so the episodes are short and
/// their work is fixed by the fault arrivals, not by the seed's dataset.
const TARGET_DROP: f64 = 1.0;

pub struct Mission {
    spec: TaskSpec,
    ds: Dataset,
    fold: Fold,
    geom: MemGeometry,
    seed: u64,
}

impl Mission {
    pub fn new(seed: u64) -> Mission {
        let spec = seeded_spec("iris", seed);
        let ds = trace::span("datasets.gen", || spec.dataset());
        let seed = 0x00A1_1077;
        let fold = ds.k_folds(5, seed).swap_remove(0);
        let phys = Topology::accelerator();
        let mut geom = MemGeometry::for_network(phys.inputs, phys.hidden, phys.outputs, true);
        geom.spare_rows = 2;
        geom.spare_cols = 8;
        Mission {
            spec,
            ds,
            fold,
            geom,
            seed,
        }
    }

    fn config(&self, rate: f64, detection: bool, cell_seed: u64, clean: f64) -> MissionConfig {
        let budget = RungBudget {
            max_epochs: RECOVERY_EPOCHS,
            wall_clock_ms: WATCHDOG_MS,
        };
        MissionConfig {
            windows: WINDOWS,
            batches_per_window: BATCHES,
            rows_per_batch: ROWS,
            arrival_rate: rate,
            probe_interval: PROBE_INTERVAL,
            probe_budget_ms: WATCHDOG_MS,
            detection,
            max_recovery_attempts: MAX_ATTEMPTS,
            seed: cell_seed,
            bist: BistConfig::default(),
            recovery: RecoveryPolicy {
                retrain: budget,
                remap: budget,
                target_accuracy: (clean - TARGET_DROP).max(0.0),
                learning_rate: self.spec.learning_rate,
                momentum: 0.1,
                seed: cell_seed,
                ..RecoveryPolicy::default()
            },
        }
    }

    /// Commissions `accel`, then times one `run_mission` call on it as
    /// unit `index`. Returns the outcome and the unit's milliseconds.
    #[allow(clippy::too_many_arguments)]
    fn arm<A: Accel>(
        &self,
        accel: A,
        store: Option<fn(&mut A) -> &mut Accelerator>,
        span: &'static str,
        rate: f64,
        detection: bool,
        cell_seed: u64,
        index: usize,
        inject: impl FnMut(&mut A, u64, &mut ChaCha8Rng) -> Result<Vec<String>, AccelError>,
    ) -> (Result<MissionOutcome, MissionError>, f64) {
        let (ds, fold) = (&self.ds, &self.fold);
        trace::set_unit(index + 1);
        let mut accel =
            twin::commission(BIN, accel, &self.spec, ds, &fold.train, EPOCHS, cell_seed);
        if let Some(spatial) = store {
            spatial(&mut accel)
                .attach_weight_memory_with(WeightMemory::new(self.geom))
                .expect("fresh accelerator takes a store");
        }
        let clean = accel.evaluate(ds, &fold.test).expect("clean evaluation");
        let cfg = self.config(rate, detection, cell_seed, clean);
        time_unit(index, || {
            trace::span(span, || {
                run_mission(&mut accel, ds, &fold.train, &fold.test, &cfg, inject)
            })
        })
    }

    fn run_arm(
        &self,
        traced: bool,
        topo: usize,
        rate: f64,
        detection: bool,
        cell_seed: u64,
        index: usize,
    ) -> (Result<MissionOutcome, MissionError>, f64) {
        let mix = SurfaceMix::combined(EVENT_DEFECTS);
        let n = EVENT_DEFECTS;
        match (topo, traced) {
            (0, false) => self.arm(
                Accelerator::new(),
                Some(|a| a),
                "core.mission_spatial",
                rate,
                detection,
                cell_seed,
                index,
                |a, _, rng| mix.inject_spatial(a, rng),
            ),
            (0, true) => self.arm(
                Traced(Accelerator::new()),
                Some(|a| &mut a.0),
                "core.mission_spatial",
                rate,
                detection,
                cell_seed,
                index,
                |a, _, rng| trace::span("circuits.inject", || mix.inject_spatial(&mut a.0, rng)),
            ),
            (_, false) => self.arm(
                SystolicAccelerator::new(),
                None,
                "core.mission_systolic",
                rate,
                detection,
                cell_seed,
                index,
                |a, _, rng| a.inject_defects(n, Activation::Permanent, rng),
            ),
            (_, true) => self.arm(
                Traced(SystolicAccelerator::new()),
                None,
                "core.mission_systolic",
                rate,
                detection,
                cell_seed,
                index,
                |a, _, rng| {
                    trace::span("systolic.inject", || {
                        a.0.inject_defects(n, Activation::Permanent, rng)
                    })
                },
            ),
        }
    }
}

/// Forward-pass rows one mission stands for: served batches, probe
/// screens, one training epoch per recovery epoch, and the final
/// evaluation.
fn mission_rows(fold: &Fold, o: &MissionOutcome) -> u64 {
    let total = WINDOWS as u64 * BATCHES;
    let served = (o.availability * total as f64).round() as u64;
    let probes = count_probes(o) as u64;
    let epochs: u64 = o
        .events
        .iter()
        .map(|e| match e {
            MissionEvent::RecoveryEpisode { epochs, .. } => *epochs as u64,
            _ => 0,
        })
        .sum();
    served * ROWS as u64
        + probes * BistConfig::default().screen_rows as u64
        + epochs * fold.train.len() as u64
        + fold.test.len() as u64
}

fn count_probes(o: &MissionOutcome) -> usize {
    o.events
        .iter()
        .filter(|e| {
            matches!(
                e,
                MissionEvent::ProbeClean { .. }
                    | MissionEvent::ProbeMismatch { .. }
                    | MissionEvent::ProbeTimedOut { .. }
            )
        })
        .count()
}

impl Workload for Mission {
    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("task", "\"iris\"".to_string()),
            ("rates", format!("{RATES:?}")),
            ("cells", format!("{:?}", CELLS.map(|(t, r, p)| [t, r, p]))),
            ("windows", WINDOWS.to_string()),
            ("batches_per_window", BATCHES.to_string()),
            ("rows_per_batch", ROWS.to_string()),
            ("probe_interval", PROBE_INTERVAL.to_string()),
            ("probe_budget_ms", WATCHDOG_MS.to_string()),
            ("event_defects", EVENT_DEFECTS.to_string()),
            ("max_attempts", MAX_ATTEMPTS.to_string()),
            ("epochs", EPOCHS.to_string()),
            ("recovery_epochs", RECOVERY_EPOCHS.to_string()),
            ("budget_ms", WATCHDOG_MS.to_string()),
            ("target_drop", TARGET_DROP.to_string()),
            ("mission_seed", self.seed.to_string()),
        ]
    }

    fn run(&self, traced: bool, pass: &mut Pass) {
        let (train, test) = (self.fold.train.len() as u64, self.fold.test.len() as u64);
        for &(topo, ri, rep) in &CELLS {
            let cell_seed =
                self.seed ^ ((topo as u64) << 40) ^ ((ri as u64) << 24) ^ ((rep as u64) << 8);
            let mut blind_final = None;
            for arm in ARMS {
                let id = format!("{}/r{ri}/rep{rep}/{arm}", TOPOS[topo]);
                let detection = arm == "mission";
                let index = pass.units.len();
                let (outcome, ms) =
                    self.run_arm(traced, topo, RATES[ri], detection, cell_seed, index);
                // Commissioning: a training run and the clean evaluation.
                pass.extra_rows += EPOCHS as u64 * train + test;
                let Ok(o) = outcome else {
                    pass.digest.add(&id, "error");
                    pass.push(id, ms, true, 0);
                    continue;
                };
                let timed_out = o
                    .events
                    .iter()
                    .any(|e| matches!(e, MissionEvent::ProbeTimedOut { .. }));
                // The in-binary floor of exp_mission: the mission arm
                // ends no worse than the blind arm of its cell.
                let below_floor = blind_final.is_some_and(|b| o.final_accuracy < b);
                if !detection {
                    blind_final = Some(o.final_accuracy);
                }
                let total = (WINDOWS as u64 * BATCHES) as f64;
                pass.stat("core.mission_batches", (o.availability * total).round());
                pass.stat("core.mission_probes", count_probes(&o) as f64);
                pass.stat("core.mission_episodes", o.recovery_episodes as f64);
                let quarantines = o
                    .events
                    .iter()
                    .filter(|e| matches!(e, MissionEvent::Quarantined { .. }))
                    .count();
                pass.stat("core.mission_quarantines", quarantines as f64);
                if let Some(lat) = o.mean_detection_latency {
                    pass.stat("core.detect_latency_sum", lat * o.detected as f64);
                    pass.stat("core.detect_latency_n", o.detected as f64);
                }
                pass.digest.add(&id, &o);
                let rows = mission_rows(&self.fold, &o);
                pass.push(id, ms, timed_out || below_floor, rows);
            }
        }
    }
}
