//! Bit-cell array model of the accelerator's weight store.
//!
//! The spatially expanded design keeps one weight row per neuron lane:
//! hidden lanes first, then output lanes, each row wide enough for the
//! largest synapse count plus a bias slot. A [`WeightMemory`] models that
//! store as a physical bit-cell array with optional SEC-DED ECC columns,
//! spare rows/columns for post-test steering, and **array-structured
//! defects** — stuck cells, whole row/column failures, sense-amp and
//! write-driver faults, and bitline bridges — each optionally carrying a
//! [`Activation`] lifetime (permanent / transient / intermittent) on the
//! same seeded-RNG state machine as transistor defects.
//!
//! Weight fetches follow the companion-core discipline: the current
//! weight is written into its word, then the word is read back through
//! the fault pipeline (and the ECC decoder when enabled). With no
//! defects the fetch is exactly the identity on the Q6.10 bit pattern,
//! so attaching a healthy array is bit-invisible.

use std::fmt;

use dta_fixed::Fx;
use dta_transistor::{Activation, ActivationState};
use rand::Rng;

use crate::ecc::{self, EccStatus};

/// Width of a raw (unprotected) weight word in bits.
pub const RAW_BITS: u32 = 16;

/// Which bank of weight rows an address falls in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bank {
    /// Hidden-layer lanes: rows `0..hidden_rows`.
    Hidden,
    /// Output-layer lanes: rows `hidden_rows..hidden_rows + output_rows`.
    Output,
}

/// Physical organization of the weight store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemGeometry {
    /// Rows holding hidden-lane weights (one per physical hidden lane).
    pub hidden_rows: usize,
    /// Rows holding output-lane weights (one per physical output lane).
    pub output_rows: usize,
    /// Synapse slots per hidden row (the bias occupies one more slot).
    pub hidden_synapses: usize,
    /// Synapse slots per output row (the bias occupies one more slot).
    pub output_synapses: usize,
    /// Spare rows available for post-BIST row steering.
    pub spare_rows: usize,
    /// Spare bit columns available for post-BIST column steering.
    pub spare_cols: usize,
    /// Protect every word with the SEC-DED (22,16) code of [`crate::ecc`].
    pub ecc: bool,
}

impl MemGeometry {
    /// Geometry matching the paper's 90-10-10 spatially expanded design,
    /// with ECC on and a small spare budget (2 rows, 8 bit columns).
    pub fn accelerator() -> MemGeometry {
        MemGeometry {
            hidden_rows: 10,
            output_rows: 10,
            hidden_synapses: 90,
            output_synapses: 10,
            spare_rows: 2,
            spare_cols: 8,
            ecc: true,
        }
    }

    /// Geometry for a logical `inputs → hidden → outputs` network mapped
    /// one lane per neuron (used by campaigns without a physical array).
    pub fn for_network(inputs: usize, hidden: usize, outputs: usize, ecc: bool) -> MemGeometry {
        MemGeometry {
            hidden_rows: hidden,
            output_rows: outputs,
            hidden_synapses: inputs,
            output_synapses: hidden,
            spare_rows: 2,
            spare_cols: 8,
            ecc,
        }
    }

    /// Bits per stored word: 22 with ECC, 16 raw.
    pub fn code_bits(&self) -> usize {
        if self.ecc {
            ecc::CODE_BITS as usize
        } else {
            RAW_BITS as usize
        }
    }

    /// Word slots per row (worst-case synapse count plus the bias slot).
    pub fn words_per_row(&self) -> usize {
        self.hidden_synapses.max(self.output_synapses) + 1
    }

    /// Rows holding live weights (hidden + output banks).
    pub fn data_rows(&self) -> usize {
        self.hidden_rows + self.output_rows
    }

    /// Total physical rows including spares.
    pub fn total_rows(&self) -> usize {
        self.data_rows() + self.spare_rows
    }

    /// Bit columns holding live words.
    pub fn data_cols(&self) -> usize {
        self.words_per_row() * self.code_bits()
    }

    /// Total physical bit columns including spares.
    pub fn total_cols(&self) -> usize {
        self.data_cols() + self.spare_cols
    }

    /// Number of live bit cells — the denominator for defect densities.
    pub fn data_cells(&self) -> usize {
        self.data_rows() * self.data_cols()
    }
}

/// One array-structured defect, in **physical** array coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemDefect {
    /// One bit cell reads as `value` regardless of what was written.
    StuckCell {
        /// Physical row of the cell.
        row: usize,
        /// Physical bit column of the cell.
        col: usize,
        /// The value the cell is stuck at.
        value: bool,
    },
    /// A wordline failure: every read of the row returns all ones (the
    /// precharged bitlines are never discharged).
    RowStuck {
        /// Physical row whose wordline is broken.
        row: usize,
    },
    /// A bitline shorted to a rail: every read of the column sees `value`.
    ColStuck {
        /// Physical bit column.
        col: usize,
        /// The rail the bitline is shorted to.
        value: bool,
    },
    /// A faulty sense amplifier: the column's read value is inverted.
    SenseAmp {
        /// Physical bit column.
        col: usize,
    },
    /// A dead write driver: writes to the column are lost and its cells
    /// hold their power-on zero.
    WriteDriver {
        /// Physical bit column.
        col: usize,
    },
    /// A bridge between adjacent bitlines `col` and `col + 1` (within one
    /// word slot): both columns read the wired-OR of the two cells.
    Bridge {
        /// Left column of the bridged pair.
        col: usize,
    },
}

impl fmt::Display for MemDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemDefect::StuckCell { row, col, value } => {
                write!(f, "stuck-cell r{row} c{col} ={}", u8::from(*value))
            }
            MemDefect::RowStuck { row } => write!(f, "row-stuck r{row}"),
            MemDefect::ColStuck { col, value } => {
                write!(f, "col-stuck c{col} ={}", u8::from(*value))
            }
            MemDefect::SenseAmp { col } => write!(f, "sense-amp c{col}"),
            MemDefect::WriteDriver { col } => write!(f, "write-driver c{col}"),
            MemDefect::Bridge { col } => write!(f, "bridge c{col}-c{}", col + 1),
        }
    }
}

/// A defect plus its lifetime state (`None` = permanent, always active).
#[derive(Clone, Debug)]
pub struct MemDefectState {
    /// The defect site and class.
    pub defect: MemDefect,
    /// Lifetime state machine for transient/intermittent defects;
    /// `None` for permanent ones (the vectorizable fast path).
    pub state: Option<ActivationState>,
}

/// Error returned when a repair runs out of spare resources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemRepairError {
    /// All spare rows are already in use.
    NoSpareRow,
    /// All spare bit columns are already in use.
    NoSpareCol,
}

impl fmt::Display for MemRepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemRepairError::NoSpareRow => write!(f, "no spare row left"),
            MemRepairError::NoSpareCol => write!(f, "no spare column left"),
        }
    }
}

impl std::error::Error for MemRepairError {}

/// Running ECC bookkeeping for a [`WeightMemory`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EccCounters {
    /// Words whose single-bit error the decoder corrected.
    pub corrected: u64,
    /// Words with a detected-but-uncorrectable double error.
    pub uncorrectable: u64,
}

/// Result of a full ECC scrub pass over the live words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Words visited (rows × slots).
    pub words: usize,
    /// Words where at least one test pattern needed a single-bit fix.
    pub corrected: usize,
    /// `(row, slot)` addresses the code could not protect.
    pub uncorrectable: Vec<(usize, usize)>,
}

/// The weight store: a bit-cell array with defects, ECC, and steering.
#[derive(Clone, Debug)]
pub struct WeightMemory {
    geom: MemGeometry,
    /// Physical cell storage, row-major over `total_rows × total_cols`.
    cells: Vec<bool>,
    defects: Vec<MemDefectState>,
    records: Vec<String>,
    /// Logical data row → physical row (identity until steered).
    row_map: Vec<usize>,
    /// Logical data bit column → physical bit column.
    col_map: Vec<usize>,
    spare_rows_used: usize,
    spare_cols_used: usize,
    ecc_counters: EccCounters,
    /// Activation mask, one slot per defect: permanent slots stay `true`,
    /// dynamic slots are refreshed on every access.
    active: Vec<bool>,
    /// Indices of the dynamic (transient/intermittent) defects, ascending.
    dynamic: Vec<usize>,
    /// Which defects can touch each word; rebuilt lazily after injection
    /// or column steering.
    index: WordIndex,
    /// Chaos hook: milliseconds each March BIST element walk stalls
    /// (a model of pathologically slow silicon; `None` in production).
    chaos_stall_ms: Option<u64>,
}

impl WeightMemory {
    /// A pristine array with the given geometry (cells at power-on zero).
    pub fn new(geom: MemGeometry) -> WeightMemory {
        WeightMemory {
            geom,
            cells: vec![false; geom.total_rows() * geom.total_cols()],
            defects: Vec::new(),
            records: Vec::new(),
            row_map: (0..geom.data_rows()).collect(),
            col_map: (0..geom.data_cols()).collect(),
            spare_rows_used: 0,
            spare_cols_used: 0,
            ecc_counters: EccCounters::default(),
            active: Vec::new(),
            dynamic: Vec::new(),
            index: WordIndex::default(),
            chaos_stall_ms: None,
        }
    }

    /// Chaos hook: make every March BIST element walk stall `ms`
    /// milliseconds, so watchdog fall-through paths can be exercised
    /// against a hanging memory self-test. `None` disables the hook.
    pub fn set_chaos_stall(&mut self, ms: Option<u64>) {
        self.chaos_stall_ms = ms;
    }

    /// The configured March-walk stall, if any.
    pub fn chaos_stall(&self) -> Option<u64> {
        self.chaos_stall_ms
    }

    /// The array's geometry.
    pub fn geometry(&self) -> MemGeometry {
        self.geom
    }

    /// Injected defects with their lifetime state.
    pub fn defects(&self) -> &[MemDefectState] {
        &self.defects
    }

    /// Human-readable injection log, one line per defect.
    pub fn records(&self) -> &[String] {
        &self.records
    }

    /// ECC correction/detection counters accumulated by fetches.
    pub fn ecc_counters(&self) -> EccCounters {
        self.ecc_counters
    }

    /// `(used, budget)` spare-row accounting.
    pub fn spare_rows(&self) -> (usize, usize) {
        (self.spare_rows_used, self.geom.spare_rows)
    }

    /// `(used, budget)` spare-column accounting.
    pub fn spare_cols(&self) -> (usize, usize) {
        (self.spare_cols_used, self.geom.spare_cols)
    }

    /// True when the array cannot disturb any fetch: no defects injected.
    /// Transparent arrays are skipped entirely on the forward path, so
    /// attaching one is guaranteed bit-invisible.
    pub fn is_transparent(&self) -> bool {
        self.defects.is_empty()
    }

    /// True when every defect is permanent, so fetches are pure functions
    /// of the address and written word and the 64-lane batch path stays
    /// bit-identical to scalar evaluation order.
    pub fn vectorizable(&self) -> bool {
        self.dynamic.is_empty()
    }

    /// Power-on reset: clear every cell, rewind dynamic defect state and
    /// ECC counters. Steering survives (it is a fuse-style repair).
    pub fn reset_state(&mut self) {
        self.cells.fill(false);
        for d in &mut self.defects {
            if let Some(state) = &mut d.state {
                state.reset();
            }
        }
        self.ecc_counters = EccCounters::default();
    }

    // ------------------------------------------------------------------
    // Defect injection
    // ------------------------------------------------------------------

    /// Inject one random defect with the given lifetime, drawing the
    /// class, site and (for dynamic lifetimes) state seed from `rng`.
    /// Returns the record line appended to [`records`](Self::records).
    ///
    /// Class mix: 60 % stuck cells, 10 % sense-amp, 10 % write-driver,
    /// 10 % bitline bridges, 5 % column failures, 5 % row failures —
    /// cell defects dominate, matching published SRAM failure Paretos.
    pub fn inject_random<R: Rng + ?Sized>(
        &mut self,
        activation: Activation,
        rng: &mut R,
    ) -> String {
        let geom = self.geom;
        let code = geom.code_bits();
        let pick = rng.random_range(0..100u32);
        let defect = if pick < 60 {
            MemDefect::StuckCell {
                row: rng.random_range(0..geom.data_rows()),
                col: rng.random_range(0..geom.data_cols()),
                value: rng.random_bool(0.5),
            }
        } else if pick < 70 {
            MemDefect::SenseAmp {
                col: rng.random_range(0..geom.data_cols()),
            }
        } else if pick < 80 {
            MemDefect::WriteDriver {
                col: rng.random_range(0..geom.data_cols()),
            }
        } else if pick < 90 {
            // Keep the bridged pair inside one word slot so a fetch (which
            // writes the whole word before reading it) stays pure.
            let slot = rng.random_range(0..geom.words_per_row());
            let bit = rng.random_range(0..code - 1);
            MemDefect::Bridge {
                col: slot * code + bit,
            }
        } else if pick < 95 {
            MemDefect::ColStuck {
                col: rng.random_range(0..geom.data_cols()),
                value: rng.random_bool(0.5),
            }
        } else {
            MemDefect::RowStuck {
                row: rng.random_range(0..geom.data_rows()),
            }
        };
        let state = if activation.is_permanent() {
            None
        } else {
            Some(ActivationState::new(activation, rng.random::<u64>()))
        };
        let record = format!("mem {defect}: {activation}");
        self.add_defect(record.clone(), defect, state);
        record
    }

    /// Place one specific defect (deterministic counterpart of
    /// [`inject_random`](Self::inject_random), used by diagnosis tests
    /// and targeted experiments). `state` carries the lifetime; `None`
    /// means permanent.
    pub fn push_defect(&mut self, defect: MemDefect, state: Option<ActivationState>) {
        let lifetime = match &state {
            None => "permanent".to_string(),
            Some(_) => "dynamic".to_string(),
        };
        self.add_defect(format!("mem {defect}: {lifetime}"), defect, state);
    }

    fn add_defect(&mut self, record: String, defect: MemDefect, state: Option<ActivationState>) {
        if state.is_some() {
            self.dynamic.push(self.defects.len());
        }
        self.records.push(record);
        self.defects.push(MemDefectState { defect, state });
        self.active.push(true);
        self.index.invalidate();
    }

    /// Inject `n` random defects; returns their record lines.
    pub fn inject_many<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Vec<String> {
        (0..n)
            .map(|_| self.inject_random(activation, rng))
            .collect()
    }

    /// Inject defects at a target density (defects per live bit cell),
    /// rounding to the nearest whole count. Returns the record lines.
    pub fn inject_density<R: Rng + ?Sized>(
        &mut self,
        density: f64,
        activation: Activation,
        rng: &mut R,
    ) -> Vec<String> {
        let n = (density * self.geom.data_cells() as f64).round() as usize;
        self.inject_many(n, activation, rng)
    }

    // ------------------------------------------------------------------
    // Cell-level access with the fault pipeline
    // ------------------------------------------------------------------

    fn cell(&self, prow: usize, pcol: usize) -> bool {
        self.cells[prow * self.geom.total_cols() + pcol]
    }

    /// Begin one access: rebuild the word index if injection or column
    /// steering left it stale, then advance every dynamic defect and
    /// refresh its activation slot (permanent slots stay `true`).
    fn advance_access(&mut self) {
        if self.index.is_stale() {
            self.index = WordIndex::build(&self.geom, &self.col_map, &self.defects);
        }
        for &i in &self.dynamic {
            let state = self.defects[i].state.as_mut();
            self.active[i] = state.expect("dynamic defects carry a state").advance();
        }
    }

    /// Write one word through the write-path faults (write drivers lose
    /// the bit, stuck cells ignore it).
    fn write_word_phys(&mut self, prow: usize, slot: usize, bits: u32) {
        let code = self.geom.code_bits();
        let row_base = prow * self.geom.total_cols();
        let list = self.index.word(prow * self.geom.words_per_row() + slot);
        for b in 0..code {
            let pcol = self.col_map[slot * code + b];
            let mut v = bits >> b & 1 == 1;
            for &i in list {
                let i = i as usize;
                if !self.active[i] {
                    continue;
                }
                match self.defects[i].defect {
                    MemDefect::WriteDriver { col } if col == pcol => v = false,
                    MemDefect::StuckCell { row, col, value } if row == prow && col == pcol => {
                        v = value
                    }
                    _ => {}
                }
            }
            self.cells[row_base + pcol] = v;
        }
    }

    /// Read one word through the read-path faults: cell/bridge first,
    /// then bitline (column stuck), wordline (row stuck), sense amp.
    fn read_word_phys(&self, prow: usize, slot: usize) -> u32 {
        let code = self.geom.code_bits();
        let list = self.index.word(prow * self.geom.words_per_row() + slot);
        let live = || {
            list.iter()
                .map(|&i| i as usize)
                .filter(|&i| self.active[i])
                .map(|i| &self.defects[i].defect)
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
                match *d {
                    MemDefect::ColStuck { col, value } if col == pcol => v = value,
                    _ => {}
                }
            }
            for d in live() {
                match *d {
                    MemDefect::RowStuck { row } if row == prow => v = true,
                    _ => {}
                }
            }
            for d in live() {
                match *d {
                    MemDefect::SenseAmp { col } if col == pcol => v = !v,
                    _ => {}
                }
            }
            if v {
                bits |= 1 << b;
            }
        }
        bits
    }

    /// Logical data row for a bank-relative lane index.
    pub fn row_of(&self, bank: Bank, lane: usize) -> usize {
        match bank {
            Bank::Hidden => {
                assert!(
                    lane < self.geom.hidden_rows,
                    "hidden lane {lane} out of range"
                );
                lane
            }
            Bank::Output => {
                assert!(
                    lane < self.geom.output_rows,
                    "output lane {lane} out of range"
                );
                self.geom.hidden_rows + lane
            }
        }
    }

    /// The word slot holding the bias for a bank.
    pub fn bias_slot(&self, bank: Bank) -> usize {
        match bank {
            Bank::Hidden => self.geom.hidden_synapses,
            Bank::Output => self.geom.output_synapses,
        }
    }

    /// Fetch one weight through the array: the companion core writes the
    /// current value into its word, then the word is read back through
    /// the fault pipeline (and the ECC decoder when enabled). One fetch
    /// counts as one access for transient/intermittent defects.
    pub fn fetch(&mut self, bank: Bank, lane: usize, slot: usize, w: Fx) -> Fx {
        debug_assert!(slot < self.geom.words_per_row(), "slot {slot} out of range");
        let lrow = self.row_of(bank, lane);
        let prow = self.row_map[lrow];
        let raw = w.to_bits();
        let stored = if self.geom.ecc {
            ecc::encode(raw)
        } else {
            u32::from(raw)
        };
        self.advance_access();
        self.write_word_phys(prow, slot, stored);
        let got = self.read_word_phys(prow, slot);
        if self.geom.ecc {
            let (data, status) = ecc::decode(got);
            match status {
                EccStatus::Clean => {}
                EccStatus::Corrected => self.ecc_counters.corrected += 1,
                EccStatus::DoubleDetected => self.ecc_counters.uncorrectable += 1,
            }
            Fx::from_bits(data)
        } else {
            Fx::from_bits(got as u16)
        }
    }

    /// Raw BIST write of a full code word at a logical `(row, slot)`
    /// address (no ECC involvement). One access.
    pub fn bist_write(&mut self, row: usize, slot: usize, bits: u32) {
        let prow = self.row_map[row];
        self.advance_access();
        self.write_word_phys(prow, slot, bits);
    }

    /// Raw BIST read of a full code word. One access.
    pub fn bist_read(&mut self, row: usize, slot: usize) -> u32 {
        let prow = self.row_map[row];
        self.advance_access();
        self.read_word_phys(prow, slot)
    }

    // ------------------------------------------------------------------
    // Repair: ECC scrub and spare steering
    // ------------------------------------------------------------------

    /// Walk every live word with three test patterns through the full
    /// write/read/decode path and report which addresses the code
    /// corrects and which it cannot protect. Leaves the array power-on
    /// clean (scrubbing is state-neutral).
    pub fn scrub(&mut self) -> ScrubReport {
        let geom = self.geom;
        let mut report = ScrubReport::default();
        for row in 0..geom.data_rows() {
            for slot in 0..geom.words_per_row() {
                report.words += 1;
                let mut corrected = false;
                let mut broken = false;
                for pattern in [0x0000u16, 0xFFFF, 0xA5A5] {
                    let prow = self.row_map[row];
                    let stored = if geom.ecc {
                        ecc::encode(pattern)
                    } else {
                        u32::from(pattern)
                    };
                    self.advance_access();
                    self.write_word_phys(prow, slot, stored);
                    let got = self.read_word_phys(prow, slot);
                    if geom.ecc {
                        let (data, status) = ecc::decode(got);
                        corrected |= status == EccStatus::Corrected;
                        broken |= status == EccStatus::DoubleDetected || data != pattern;
                    } else {
                        broken |= got != u32::from(pattern);
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

    /// Steer a logical data row onto the next spare physical row.
    /// Power-cycles the array so steered-out cells hold benign zeros.
    pub fn steer_row(&mut self, row: usize) -> Result<(), MemRepairError> {
        if self.spare_rows_used >= self.geom.spare_rows {
            return Err(MemRepairError::NoSpareRow);
        }
        assert!(row < self.geom.data_rows(), "row {row} out of range");
        self.row_map[row] = self.geom.data_rows() + self.spare_rows_used;
        self.spare_rows_used += 1;
        self.cells.fill(false);
        Ok(())
    }

    /// Steer a logical bit column onto the next spare physical column.
    /// Power-cycles the array so steered-out cells hold benign zeros.
    pub fn steer_col(&mut self, col: usize) -> Result<(), MemRepairError> {
        if self.spare_cols_used >= self.geom.spare_cols {
            return Err(MemRepairError::NoSpareCol);
        }
        assert!(col < self.geom.data_cols(), "column {col} out of range");
        self.col_map[col] = self.geom.data_cols() + self.spare_cols_used;
        self.spare_cols_used += 1;
        self.cells.fill(false);
        self.index.invalidate();
        Ok(())
    }
}

/// Per-word defect index: a flat CSR table over `(physical row, logical
/// slot)` words. The list of word `w` is `defects[offsets[w]..offsets[w +
/// 1]]`: every defect that can touch one of the word's physical cells, in
/// ascending injection order. It is a superset of the defects that do
/// touch a given bit, and the fault pipeline filters it with the same
/// match arms as a scan over all defects, so walking it is exact. Keyed by
/// physical row, it survives row steering; injection and column steering
/// invalidate it. An empty `offsets` marks it stale.
#[derive(Clone, Debug, Default)]
struct WordIndex {
    offsets: Vec<u32>,
    defects: Vec<u32>,
}

impl WordIndex {
    fn is_stale(&self) -> bool {
        self.offsets.is_empty()
    }

    fn invalidate(&mut self) {
        self.offsets.clear();
        self.defects.clear();
    }

    /// Defect indices that can touch word `w` (`prow * words_per_row +
    /// slot`).
    fn word(&self, w: usize) -> &[u32] {
        &self.defects[self.offsets[w] as usize..self.offsets[w + 1] as usize]
    }

    /// Invert `col_map` and take one counting pass and one filling pass
    /// over the defects.
    fn build(geom: &MemGeometry, col_map: &[usize], defects: &[MemDefectState]) -> WordIndex {
        let code = geom.code_bits();
        let rows = geom.total_rows();
        let slots = geom.words_per_row();
        // Physical column → logical slot; steered-out columns hold none.
        let mut slot_of = vec![None; geom.total_cols()];
        for (lcol, &pcol) in col_map.iter().enumerate() {
            slot_of[pcol] = Some(lcol / code);
        }
        let slot = |pcol: usize| slot_of.get(pcol).copied().flatten();
        // Visit each word a defect can touch, once.
        let column = |s: usize, visit: &mut dyn FnMut(usize)| {
            (0..rows).for_each(|r| visit(r * slots + s));
        };
        let words_of = |d: &MemDefect, visit: &mut dyn FnMut(usize)| match *d {
            MemDefect::StuckCell { row, col, .. } => {
                if let Some(s) = slot(col).filter(|_| row < rows) {
                    visit(row * slots + s);
                }
            }
            MemDefect::RowStuck { row } => {
                if row < rows {
                    (0..slots).for_each(|s| visit(row * slots + s));
                }
            }
            MemDefect::ColStuck { col, .. }
            | MemDefect::SenseAmp { col }
            | MemDefect::WriteDriver { col } => {
                if let Some(s) = slot(col) {
                    column(s, visit);
                }
            }
            MemDefect::Bridge { col } => {
                let (left, right) = (slot(col), slot(col + 1));
                for s in left.into_iter().chain(right.filter(|&r| Some(r) != left)) {
                    column(s, visit);
                }
            }
        };
        let mut offsets = vec![0u32; rows * slots + 1];
        for d in defects {
            words_of(&d.defect, &mut |w| offsets[w + 1] += 1);
        }
        for w in 0..rows * slots {
            offsets[w + 1] += offsets[w];
        }
        let mut fill: Vec<u32> = offsets[..rows * slots].to_vec();
        let mut list = vec![0u32; offsets[rows * slots] as usize];
        for (i, d) in defects.iter().enumerate() {
            let i = u32::try_from(i).expect("defect count fits in u32");
            words_of(&d.defect, &mut |w| {
                list[fill[w] as usize] = i;
                fill[w] += 1;
            });
        }
        WordIndex {
            offsets,
            defects: list,
        }
    }
}
