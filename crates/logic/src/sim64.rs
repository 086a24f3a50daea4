//! Bit-parallel netlist evaluation: 64 independent input vectors per
//! pass.
//!
//! Every net carries a `u64` whose bit `l` is the net's value in lane
//! `l`, so one sweep over the topological order evaluates 64 circuit
//! instances — a ~40× speedup for exhaustive sweeps like the Figure 5
//! distributions or the defect-visibility analysis.
//!
//! [`Simulator64`] is a **healthy-only** lane simulator: it takes no gate
//! overrides. Faulty evaluation belongs to the scalar [`crate::Simulator`]
//! (the oracle) and the compiled [`crate::LutExec`]; the 64-lane engine
//! serves them as the healthy twin that cone-of-influence pruning
//! ([`crate::Simulator::settle_cone_from64`]) reads outside the fault
//! cone, and as the engine for exhaustive healthy sweeps.

use std::sync::Arc;

use crate::gate::GateKind;
use crate::netlist::{Netlist, Node, NodeId};
use crate::sim::SettleMode;

/// Vectorized healthy cell function.
pub fn eval_kind64(kind: GateKind, v: &[u64]) -> u64 {
    debug_assert_eq!(v.len(), kind.arity());
    match kind {
        GateKind::Const(b) => {
            if b {
                !0
            } else {
                0
            }
        }
        GateKind::Buf => v[0],
        GateKind::Not => !v[0],
        GateKind::And2 => v[0] & v[1],
        GateKind::Or2 => v[0] | v[1],
        GateKind::Nand2 => !(v[0] & v[1]),
        GateKind::Nor2 => !(v[0] | v[1]),
        GateKind::Nand3 => !(v[0] & v[1] & v[2]),
        GateKind::Nor3 => !(v[0] | v[1] | v[2]),
        GateKind::Xor2 => v[0] ^ v[1],
        GateKind::Xnor2 => !(v[0] ^ v[1]),
        GateKind::Aoi22 => !((v[0] & v[1]) | (v[2] & v[3])),
        GateKind::Oai22 => !((v[0] | v[1]) & (v[2] | v[3])),
        GateKind::Mux2 => (v[0] & v[2]) | (!v[0] & v[1]),
    }
}

/// Lane-wise healthy cell evaluation reading pins straight out of the
/// value array — the hot inner statement of [`Simulator64::settle`].
#[inline(always)]
fn eval_pins64(kind: GateKind, values: &[u64], pins: &[u32]) -> u64 {
    let v = |k: usize| values[pins[k] as usize];
    match kind {
        GateKind::Const(b) => {
            if b {
                !0
            } else {
                0
            }
        }
        GateKind::Buf => v(0),
        GateKind::Not => !v(0),
        GateKind::And2 => v(0) & v(1),
        GateKind::Or2 => v(0) | v(1),
        GateKind::Nand2 => !(v(0) & v(1)),
        GateKind::Nor2 => !(v(0) | v(1)),
        GateKind::Nand3 => !(v(0) & v(1) & v(2)),
        GateKind::Nor3 => !(v(0) | v(1) | v(2)),
        GateKind::Xor2 => v(0) ^ v(1),
        GateKind::Xnor2 => !(v(0) ^ v(1)),
        GateKind::Aoi22 => !((v(0) & v(1)) | (v(2) & v(3))),
        GateKind::Oai22 => !((v(0) | v(1)) & (v(2) | v(3))),
        GateKind::Mux2 => (v(0) & v(2)) | (!v(0) & v(1)),
    }
}

/// The 64-lane evaluation engine; mirrors [`crate::Simulator`] lane-wise.
#[derive(Debug)]
pub struct Simulator64 {
    net: Arc<Netlist>,
    values: Vec<u64>,
    mode: SettleMode,
    /// Event-driven bookkeeping, mirroring [`crate::Simulator`]: dirty
    /// flags plus the bounds of the dirty schedule range (empty when
    /// `dirty_lo > dirty_hi`).
    dirty: Vec<bool>,
    dirty_lo: u32,
    dirty_hi: u32,
    n_dirty: u32,
    all_dirty: bool,
}

impl Simulator64 {
    /// Creates a 64-lane simulator; latches start at their init value in
    /// every lane.
    pub fn new(net: Arc<Netlist>) -> Simulator64 {
        let mut values = vec![0u64; net.len()];
        for &l in net.latches() {
            if let Node::Latch { init, .. } = net.node(l) {
                values[l.index()] = if *init { !0 } else { 0 };
            }
        }
        let n_sched = net.schedule().0.len();
        Simulator64 {
            net,
            values,
            mode: SettleMode::Event,
            dirty: vec![false; n_sched],
            dirty_lo: u32::MAX,
            dirty_hi: 0,
            n_dirty: 0,
            all_dirty: true,
        }
    }

    /// The shared netlist handle (for identity checks by cone helpers).
    pub(crate) fn netlist_arc(&self) -> &Arc<Netlist> {
        &self.net
    }

    /// The value of one node in one lane.
    #[inline]
    pub(crate) fn lane_bit(&self, node: u32, lane: usize) -> bool {
        (self.values[node as usize] >> lane) & 1 == 1
    }

    /// The full 64-lane word of one node (for cone helpers).
    #[inline]
    pub(crate) fn word(&self, node: u32) -> u64 {
        self.values[node as usize]
    }

    /// The active settle strategy.
    pub fn settle_mode(&self) -> SettleMode {
        self.mode
    }

    /// Switches the settle strategy (see [`crate::Simulator`]).
    pub fn set_settle_mode(&mut self, mode: SettleMode) {
        if mode == SettleMode::Event && self.mode != SettleMode::Event {
            self.all_dirty = true;
        }
        self.mode = mode;
    }

    fn mark_fanout(&mut self, node: u32) {
        for &pos in self.net.fanout_of(node) {
            if !self.dirty[pos as usize] {
                self.dirty[pos as usize] = true;
                self.dirty_lo = self.dirty_lo.min(pos);
                self.dirty_hi = self.dirty_hi.max(pos);
                self.n_dirty += 1;
            }
        }
    }

    fn tracking_changes(&self) -> bool {
        self.mode == SettleMode::Event && !self.all_dirty
    }

    /// Drives a primary input with a 64-lane mask (bit `l` = lane `l`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a primary input.
    pub fn set_input_lanes(&mut self, id: NodeId, lanes: u64) {
        assert!(
            matches!(self.net.node(id), Node::Input { .. }),
            "{id} is not a primary input"
        );
        if self.values[id.index()] == lanes {
            return;
        }
        self.values[id.index()] = lanes;
        if self.tracking_changes() {
            self.mark_fanout(id.0);
        }
    }

    /// Drives a bus so that lane `l` carries `words[l]` (LSB-first bus).
    /// Fewer than 64 words leave the remaining lanes at zero.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 words are supplied.
    pub fn set_input_words(&mut self, bus: &[NodeId], words: &[u64]) {
        assert!(words.len() <= 64, "at most 64 lanes");
        for (bit, &id) in bus.iter().enumerate() {
            let mut lanes = 0u64;
            for (l, &w) in words.iter().enumerate() {
                lanes |= ((w >> bit) & 1) << l;
            }
            self.set_input_lanes(id, lanes);
        }
    }

    /// Settles the combinational logic across all lanes — event-driven
    /// by default, compiled full sweep in [`SettleMode::Full`].
    pub fn settle(&mut self) {
        match self.mode {
            SettleMode::Full => self.settle_full(),
            SettleMode::Event => self.settle_event(),
        }
    }

    /// Settles with one compiled sweep over every gate, regardless of
    /// the active mode — the oracle for the event-driven path.
    pub fn settle_full(&mut self) {
        let net = Arc::clone(&self.net);
        let (sched, pins) = net.schedule();
        let values = &mut self.values;
        for g in sched {
            let p = &pins[g.in_start as usize..][..g.in_len as usize];
            values[g.out as usize] = eval_pins64(g.kind, values, p);
        }
        self.all_dirty = false;
        if self.dirty_lo <= self.dirty_hi {
            for pos in self.dirty_lo..=self.dirty_hi {
                self.dirty[pos as usize] = false;
            }
        }
        self.dirty_lo = u32::MAX;
        self.dirty_hi = 0;
        self.n_dirty = 0;
    }

    /// Event-driven settle across all lanes; see [`crate::Simulator`]
    /// (including the adaptive drop to the compiled sweep when ~1/64
    /// of the schedule is already dirty before propagation).
    fn settle_event(&mut self) {
        if self.all_dirty || self.n_dirty as usize * 64 >= self.dirty.len() {
            return self.settle_full();
        }
        let net = Arc::clone(&self.net);
        let (sched, pins) = net.schedule();
        let lo = self.dirty_lo;
        let mut hi = self.dirty_hi;
        let values = &mut self.values;
        let dirty = &mut self.dirty;
        let mut pos = lo;
        while pos <= hi {
            if !dirty[pos as usize] {
                pos += 1;
                continue;
            }
            dirty[pos as usize] = false;
            let g = &sched[pos as usize];
            let p = &pins[g.in_start as usize..][..g.in_len as usize];
            let v = eval_pins64(g.kind, values, p);
            if v != values[g.out as usize] {
                values[g.out as usize] = v;
                for &t in net.fanout_of(g.out) {
                    if !dirty[t as usize] {
                        dirty[t as usize] = true;
                        hi = hi.max(t);
                    }
                }
            }
            pos += 1;
        }
        self.dirty_lo = u32::MAX;
        self.dirty_hi = 0;
        self.n_dirty = 0;
    }

    /// Latch capture across all lanes.
    pub fn tick(&mut self) {
        let net = Arc::clone(&self.net);
        for &l in net.latches() {
            if let Node::Latch { data, .. } = net.node(l) {
                let v = self.values[data.index()];
                if self.values[l.index()] != v {
                    self.values[l.index()] = v;
                    if self.tracking_changes() {
                        self.mark_fanout(l.0);
                    }
                }
            }
        }
    }

    /// The 64-lane value of a node.
    pub fn lanes(&self, id: NodeId) -> u64 {
        self.values[id.index()]
    }

    /// Reads lane `l` of a bus back as a word (LSB-first).
    pub fn read_word_lane(&self, bus: &[NodeId], lane: usize) -> u64 {
        assert!(lane < 64);
        bus.iter().enumerate().fold(0u64, |acc, (bit, &id)| {
            acc | (((self.values[id.index()] >> lane) & 1) << bit)
        })
    }

    /// Reads every lane of a bus back as words.
    pub fn read_words(&self, bus: &[NodeId], n_lanes: usize) -> Vec<u64> {
        (0..n_lanes).map(|l| self.read_word_lane(bus, l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn ripple_adder4() -> (Arc<Netlist>, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
        let mut b = NetlistBuilder::new();
        let a = b.input_bus("a", 4);
        let x = b.input_bus("b", 4);
        let mut carry = b.constant(false);
        let mut sum = Vec::new();
        for i in 0..4 {
            let axb = b.gate(GateKind::Xor2, &[a[i], x[i]]);
            let s = b.gate(GateKind::Xor2, &[axb, carry]);
            let t1 = b.gate(GateKind::And2, &[axb, carry]);
            let t2 = b.gate(GateKind::And2, &[a[i], x[i]]);
            carry = b.gate(GateKind::Or2, &[t1, t2]);
            sum.push(s);
        }
        sum.push(carry);
        b.output_bus("s", &sum);
        (Arc::new(b.build()), a, x, sum)
    }

    #[test]
    fn vectorized_adder_matches_scalar_exhaustively() {
        let (net, a, x, sum) = ripple_adder4();
        let mut v = Simulator64::new(net.clone());
        // All 256 pairs in 4 batches of 64.
        for batch in 0..4u64 {
            let pairs: Vec<(u64, u64)> = (0..64)
                .map(|i| {
                    let idx = batch * 64 + i;
                    (idx / 16, idx % 16)
                })
                .collect();
            v.set_input_words(&a, &pairs.iter().map(|p| p.0).collect::<Vec<_>>());
            v.set_input_words(&x, &pairs.iter().map(|p| p.1).collect::<Vec<_>>());
            v.settle();
            let results = v.read_words(&sum, 64);
            for (l, &(pa, pb)) in pairs.iter().enumerate() {
                assert_eq!(results[l], pa + pb, "{pa}+{pb} in lane {l}");
            }
        }
    }

    #[test]
    fn all_kinds_match_scalar() {
        for kind in GateKind::ALL {
            let n = kind.arity();
            for bits in 0u32..1 << n {
                let scalar: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let lanes: Vec<u64> = scalar.iter().map(|&b| if b { !0 } else { 0 }).collect();
                let want = kind.eval(&scalar);
                let got = eval_kind64(kind, &lanes);
                assert_eq!(got, if want { !0u64 } else { 0 }, "{kind} {scalar:?}");
            }
        }
    }

    #[test]
    fn latches_hold_lanes() {
        let mut b = NetlistBuilder::new();
        let d = b.input("d");
        let q = b.latch(d, false);
        b.output("q", q);
        let net = Arc::new(b.build());
        let mut v = Simulator64::new(net);
        v.set_input_lanes(d, 0xF0F0);
        v.settle();
        assert_eq!(v.lanes(q), 0, "not captured yet");
        v.tick();
        assert_eq!(v.lanes(q), 0xF0F0);
    }
}
