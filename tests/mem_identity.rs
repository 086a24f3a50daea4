//! Weight-store identity: `WeightMemory` walks a per-word defect index,
//! and must return exactly what a scan over every injected defect
//! returns.
//!
//! The reference below is a test-local copy of the full-scan fault
//! pipeline: its own cells, row and column maps, ECC counters, and
//! clones of each defect's lifetime state taken at injection. Seeded
//! random geometries (with and without ECC) race the two through
//! interleaved fetches, BIST writes and reads, scrubs, power-on resets,
//! row and column steering, and injections made after accesses, over all
//! six defect classes and all three lifetimes. Hand-placed defects also
//! sit on spare rows and columns (which steering later brings into use)
//! and bridge across word boundaries. Crafted same-word cases pin the
//! order in which a word's defects apply.

use dta::fixed::Fx;
use dta_mem::{
    decode, encode, Activation, ActivationState, Bank, EccCounters, EccStatus, MemDefect,
    MemGeometry, MemRepairError, ScrubReport, WeightMemory,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const LIFETIMES: [Activation; 3] = [
    Activation::Permanent,
    Activation::Transient {
        per_eval_probability: 0.3,
    },
    Activation::Intermittent { period: 5, duty: 2 },
];

/// The full-scan pipeline: every access advances every dynamic defect,
/// and every bit of a word scans every defect, cell/bridge first, then
/// column stuck, row stuck, sense amp.
struct Reference {
    geom: MemGeometry,
    cells: Vec<bool>,
    defects: Vec<(MemDefect, Option<ActivationState>)>,
    row_map: Vec<usize>,
    col_map: Vec<usize>,
    spare_rows_used: usize,
    spare_cols_used: usize,
    counters: EccCounters,
}

impl Reference {
    fn new(geom: MemGeometry) -> Reference {
        Reference {
            geom,
            cells: vec![false; geom.total_rows() * geom.total_cols()],
            defects: Vec::new(),
            row_map: (0..geom.data_rows()).collect(),
            col_map: (0..geom.data_cols()).collect(),
            spare_rows_used: 0,
            spare_cols_used: 0,
            counters: EccCounters::default(),
        }
    }

    fn cell(&self, prow: usize, pcol: usize) -> bool {
        self.cells[prow * self.geom.total_cols() + pcol]
    }

    fn reset_state(&mut self) {
        self.cells.fill(false);
        for (_, state) in &mut self.defects {
            if let Some(state) = state {
                state.reset();
            }
        }
        self.counters = EccCounters::default();
    }

    fn advance(&mut self) -> Vec<bool> {
        self.defects
            .iter_mut()
            .map(|(_, state)| state.as_mut().is_none_or(|s| s.advance()))
            .collect()
    }

    fn write(&mut self, active: &[bool], prow: usize, slot: usize, bits: u32) {
        let code = self.geom.code_bits();
        for b in 0..code {
            let pcol = self.col_map[slot * code + b];
            let mut v = bits >> b & 1 == 1;
            for (i, (d, _)) in self.defects.iter().enumerate() {
                if !active[i] {
                    continue;
                }
                match *d {
                    MemDefect::WriteDriver { col } if col == pcol => v = false,
                    MemDefect::StuckCell { row, col, value } if row == prow && col == pcol => {
                        v = value
                    }
                    _ => {}
                }
            }
            let idx = prow * self.geom.total_cols() + pcol;
            self.cells[idx] = v;
        }
    }

    fn read(&self, active: &[bool], prow: usize, slot: usize) -> u32 {
        let code = self.geom.code_bits();
        let live = || {
            self.defects
                .iter()
                .enumerate()
                .filter(|&(i, _)| active[i])
                .map(|(_, (d, _))| d)
        };
        let mut bits = 0u32;
        for b in 0..code {
            let pcol = self.col_map[slot * code + b];
            let mut v = self.cell(prow, pcol);
            for d in live() {
                match *d {
                    MemDefect::StuckCell { row, col, value } if row == prow && col == pcol => {
                        v = value
                    }
                    MemDefect::Bridge { col } if col == pcol => v |= self.cell(prow, col + 1),
                    MemDefect::Bridge { col } if col + 1 == pcol => v |= self.cell(prow, col),
                    _ => {}
                }
            }
            for d in live() {
                if let MemDefect::ColStuck { col, value } = *d {
                    if col == pcol {
                        v = value;
                    }
                }
            }
            for d in live() {
                if let MemDefect::RowStuck { row } = *d {
                    if row == prow {
                        v = true;
                    }
                }
            }
            for d in live() {
                if let MemDefect::SenseAmp { col } = *d {
                    if col == pcol {
                        v = !v;
                    }
                }
            }
            if v {
                bits |= 1 << b;
            }
        }
        bits
    }

    /// Write then read one logical word as one access.
    fn access(&mut self, row: usize, slot: usize, stored: u32) -> u32 {
        let prow = self.row_map[row];
        let active = self.advance();
        self.write(&active, prow, slot, stored);
        self.read(&active, prow, slot)
    }

    fn fetch(&mut self, bank: Bank, lane: usize, slot: usize, w: Fx) -> Fx {
        let row = match bank {
            Bank::Hidden => lane,
            Bank::Output => self.geom.hidden_rows + lane,
        };
        if self.geom.ecc {
            let (data, status) = decode(self.access(row, slot, encode(w.to_bits())));
            match status {
                EccStatus::Clean => {}
                EccStatus::Corrected => self.counters.corrected += 1,
                EccStatus::DoubleDetected => self.counters.uncorrectable += 1,
            }
            Fx::from_bits(data)
        } else {
            Fx::from_bits(self.access(row, slot, u32::from(w.to_bits())) as u16)
        }
    }

    fn bist_write(&mut self, row: usize, slot: usize, bits: u32) {
        let prow = self.row_map[row];
        let active = self.advance();
        self.write(&active, prow, slot, bits);
    }

    fn bist_read(&mut self, row: usize, slot: usize) -> u32 {
        let prow = self.row_map[row];
        let active = self.advance();
        self.read(&active, prow, slot)
    }

    fn scrub(&mut self) -> ScrubReport {
        let geom = self.geom;
        let mut report = ScrubReport::default();
        for row in 0..geom.data_rows() {
            for slot in 0..geom.words_per_row() {
                report.words += 1;
                let (mut corrected, mut broken) = (false, false);
                for pattern in [0x0000u16, 0xFFFF, 0xA5A5] {
                    if geom.ecc {
                        let (data, status) = decode(self.access(row, slot, encode(pattern)));
                        corrected |= status == EccStatus::Corrected;
                        broken |= status == EccStatus::DoubleDetected || data != pattern;
                    } else {
                        broken |= self.access(row, slot, u32::from(pattern)) != u32::from(pattern);
                    }
                }
                if broken {
                    report.uncorrectable.push((row, slot));
                } else if corrected {
                    report.corrected += 1;
                }
            }
        }
        self.reset_state();
        report
    }

    fn steer_row(&mut self, row: usize) -> Result<(), MemRepairError> {
        if self.spare_rows_used >= self.geom.spare_rows {
            return Err(MemRepairError::NoSpareRow);
        }
        self.row_map[row] = self.geom.data_rows() + self.spare_rows_used;
        self.spare_rows_used += 1;
        self.cells.fill(false);
        Ok(())
    }

    fn steer_col(&mut self, col: usize) -> Result<(), MemRepairError> {
        if self.spare_cols_used >= self.geom.spare_cols {
            return Err(MemRepairError::NoSpareCol);
        }
        self.col_map[col] = self.geom.data_cols() + self.spare_cols_used;
        self.spare_cols_used += 1;
        self.cells.fill(false);
        Ok(())
    }
}

/// The store under test and its reference, driven in lockstep.
struct Pair {
    mem: WeightMemory,
    reference: Reference,
}

impl Pair {
    fn new(geom: MemGeometry) -> Pair {
        Pair {
            mem: WeightMemory::new(geom),
            reference: Reference::new(geom),
        }
    }

    fn push(&mut self, defect: MemDefect, state: Option<ActivationState>) {
        self.reference.defects.push((defect.clone(), state.clone()));
        self.mem.push_defect(defect, state);
    }

    fn inject<R: Rng>(&mut self, activation: Activation, rng: &mut R) {
        self.mem.inject_random(activation, rng);
        let d = self.mem.defects().last().expect("just injected");
        self.reference
            .defects
            .push((d.defect.clone(), d.state.clone()));
    }

    fn fetch(&mut self, bank: Bank, lane: usize, slot: usize, w: Fx, ctx: &str) -> Fx {
        let got = self.mem.fetch(bank, lane, slot, w);
        let want = self.reference.fetch(bank, lane, slot, w);
        assert_eq!(got, want, "{ctx}: fetch {bank:?} lane {lane} slot {slot}");
        assert_eq!(self.mem.ecc_counters(), self.reference.counters, "{ctx}");
        got
    }

    fn bist_write(&mut self, row: usize, slot: usize, bits: u32) {
        self.mem.bist_write(row, slot, bits);
        self.reference.bist_write(row, slot, bits);
    }

    fn bist_read(&mut self, row: usize, slot: usize, ctx: &str) -> u32 {
        let got = self.mem.bist_read(row, slot);
        assert_eq!(
            got,
            self.reference.bist_read(row, slot),
            "{ctx}: bist_read row {row} slot {slot}"
        );
        got
    }

    /// Every live word, fetched with one pattern.
    fn sweep(&mut self, w: Fx, ctx: &str) -> Vec<Fx> {
        let g = self.mem.geometry();
        let mut out = Vec::new();
        for (bank, lanes) in [(Bank::Hidden, g.hidden_rows), (Bank::Output, g.output_rows)] {
            for lane in 0..lanes {
                for slot in 0..g.words_per_row() {
                    out.push(self.fetch(bank, lane, slot, w, ctx));
                }
            }
        }
        out
    }
}

fn random_geometry(rng: &mut ChaCha8Rng) -> MemGeometry {
    MemGeometry {
        hidden_rows: rng.random_range(1..5),
        output_rows: rng.random_range(1..4),
        hidden_synapses: rng.random_range(1..7),
        output_synapses: rng.random_range(1..6),
        spare_rows: rng.random_range(0..3),
        spare_cols: rng.random_range(0..5),
        ecc: rng.random_bool(0.5),
    }
}

/// A defect of any class anywhere in the physical array, a third of them
/// on spare rows and columns; bridges may straddle two word slots.
fn random_defect(geom: &MemGeometry, rng: &mut ChaCha8Rng) -> MemDefect {
    let (row, col) = if rng.random_bool(1.0 / 3.0) {
        (
            rng.random_range(geom.data_rows()..geom.total_rows().max(geom.data_rows() + 1)),
            rng.random_range(geom.data_cols()..geom.total_cols().max(geom.data_cols() + 1)),
        )
    } else {
        (
            rng.random_range(0..geom.total_rows()),
            rng.random_range(0..geom.total_cols()),
        )
    };
    match rng.random_range(0..6u32) {
        0 => MemDefect::StuckCell {
            row,
            col,
            value: rng.random_bool(0.5),
        },
        1 => MemDefect::RowStuck { row },
        2 => MemDefect::ColStuck {
            col,
            value: rng.random_bool(0.5),
        },
        3 => MemDefect::SenseAmp { col },
        4 => MemDefect::WriteDriver { col },
        _ => MemDefect::Bridge {
            col: rng.random_range(0..geom.total_cols() - 1),
        },
    }
}

fn random_state(rng: &mut ChaCha8Rng) -> Option<ActivationState> {
    let activation = LIFETIMES[rng.random_range(0..LIFETIMES.len())];
    (!activation.is_permanent()).then(|| ActivationState::new(activation, rng.random::<u64>()))
}

#[test]
fn indexed_store_equals_full_scan_reference() {
    for case in 0..48u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD7A_0000 + case);
        let geom = random_geometry(&mut rng);
        let ctx = format!("case {case} {geom:?}");
        let code_mask = (1u32 << geom.code_bits()) - 1;
        let mut pair = Pair::new(geom);
        let mut touched = 0usize;
        for _ in 0..400 {
            match rng.random_range(0..100u32) {
                0..=9 => {
                    let lifetime = LIFETIMES[rng.random_range(0..LIFETIMES.len())];
                    pair.inject(lifetime, &mut rng);
                }
                10..=13 => {
                    let defect = random_defect(&geom, &mut rng);
                    let state = random_state(&mut rng);
                    pair.push(defect, state);
                }
                14..=49 => {
                    let (bank, lanes) = if rng.random_bool(0.6) {
                        (Bank::Hidden, geom.hidden_rows)
                    } else {
                        (Bank::Output, geom.output_rows)
                    };
                    let lane = rng.random_range(0..lanes);
                    let slot = rng.random_range(0..geom.words_per_row());
                    let w = Fx::from_bits(rng.random::<u16>());
                    if pair.fetch(bank, lane, slot, w, &ctx) != w {
                        touched += 1;
                    }
                }
                50..=69 => {
                    let row = rng.random_range(0..geom.data_rows());
                    let slot = rng.random_range(0..geom.words_per_row());
                    pair.bist_write(row, slot, rng.random::<u32>() & code_mask);
                }
                70..=89 => {
                    let row = rng.random_range(0..geom.data_rows());
                    let slot = rng.random_range(0..geom.words_per_row());
                    pair.bist_read(row, slot, &ctx);
                }
                90..=91 => {
                    assert_eq!(pair.mem.scrub(), pair.reference.scrub(), "{ctx}: scrub");
                }
                92..=93 => {
                    pair.mem.reset_state();
                    pair.reference.reset_state();
                }
                94..=96 => {
                    let row = rng.random_range(0..geom.data_rows());
                    let got = pair.mem.steer_row(row);
                    assert_eq!(got, pair.reference.steer_row(row), "{ctx}: steer_row");
                }
                _ => {
                    let col = rng.random_range(0..geom.data_cols());
                    let got = pair.mem.steer_col(col);
                    assert_eq!(got, pair.reference.steer_col(col), "{ctx}: steer_col");
                }
            }
            assert_eq!(pair.mem.ecc_counters(), pair.reference.counters, "{ctx}");
        }
        pair.sweep(Fx::from_bits(0x5A5A), &ctx);
        assert!(touched > 0, "{ctx}: no fetch saw a defect");
    }
}

/// A spare column carrying a defect enters service only when steering
/// maps a logical column onto it; so does a spare row. The store must
/// see both after the index was built without them.
#[test]
fn steering_onto_defective_spares_reaches_the_index() {
    for ecc in [false, true] {
        let geom = MemGeometry {
            hidden_rows: 2,
            output_rows: 1,
            hidden_synapses: 3,
            output_synapses: 2,
            spare_rows: 1,
            spare_cols: 2,
            ecc,
        };
        let ctx = format!("ecc={ecc}");
        let mut pair = Pair::new(geom);
        let spare_col = geom.data_cols();
        let spare_row = geom.data_rows();
        pair.push(MemDefect::SenseAmp { col: spare_col }, None);
        pair.push(MemDefect::RowStuck { row: spare_row }, None);
        let w = Fx::from_bits(0x1234);
        let before = pair.sweep(w, &ctx);
        assert!(
            before.iter().all(|&x| x == w),
            "{ctx}: spares out of service"
        );
        pair.mem.steer_col(5).unwrap();
        pair.reference.steer_col(5).unwrap();
        let raw = pair.sweep(w, &ctx);
        if !ecc {
            assert_ne!(raw, before, "{ctx}: the steered column reads inverted");
        }
        pair.mem.steer_row(1).unwrap();
        pair.reference.steer_row(1).unwrap();
        pair.sweep(w, &ctx);
    }
}

/// Defects that share one word apply in injection order inside a read
/// pass: a stuck cell before a bridge on its column is overridden by the
/// bridge's wired-OR, one after it wins. Row stuck and sense amp on the
/// same word compose (forced one, then inverted), and a bridge straddling
/// two word slots couples both words.
#[test]
fn same_word_defects_apply_in_injection_order() {
    let geom = MemGeometry {
        hidden_rows: 2,
        output_rows: 1,
        hidden_synapses: 3,
        output_synapses: 2,
        spare_rows: 0,
        spare_cols: 0,
        ecc: false,
    };
    let code = geom.code_bits();
    let col = code + 4; // slot 1, bit 4; its bridge partner is bit 5
    let stuck = MemDefect::StuckCell {
        row: 0,
        col,
        value: false,
    };
    let bridge = MemDefect::Bridge { col };
    let w = Fx::from_bits(1 << 5 | 1 << 4);
    let mut words = Vec::new();
    for order in [[stuck.clone(), bridge.clone()], [bridge, stuck]] {
        let mut pair = Pair::new(geom);
        for d in order {
            pair.push(d, None);
        }
        words.push(pair.fetch(Bank::Hidden, 0, 1, w, "stuck/bridge order"));
    }
    assert_eq!(
        words[0].to_bits() >> 4 & 1,
        1,
        "bridge after the stuck cell"
    );
    assert_eq!(
        words[1].to_bits() >> 4 & 1,
        0,
        "stuck cell after the bridge"
    );

    let mut pair = Pair::new(geom);
    pair.push(MemDefect::SenseAmp { col: 2 * code + 3 }, None);
    pair.push(MemDefect::RowStuck { row: 1 }, None);
    let got = pair.fetch(
        Bank::Hidden,
        1,
        2,
        Fx::from_bits(0),
        "row stuck + sense amp",
    );
    assert_eq!(got.to_bits(), !(1u16 << 3), "forced ones, one bit inverted");

    // Bit 15 of slot 0 bridged to bit 0 of slot 1.
    let mut pair = Pair::new(geom);
    pair.push(MemDefect::Bridge { col: code - 1 }, None);
    pair.fetch(
        Bank::Hidden,
        0,
        0,
        Fx::from_bits(0x8000),
        "straddling bridge",
    );
    let got = pair.bist_read(0, 1, "straddling bridge");
    assert_eq!(got, 1, "slot 1 bit 0 sees slot 0 bit 15");
}
