//! Cross-crate equivalence: the behavioral Q6.10 datapath, the
//! gate-level circuits, and the switch-level CMOS cells must all agree
//! when healthy — the foundation that makes defect injection meaningful.
//!
//! A faulty operator returns native arithmetic whenever no defect is
//! excited, so the healthy circuits must equal native arithmetic on
//! every input, not only on sampled ones. The sigmoid unit is checked
//! exhaustively here; the two exhaustive datapath sweeps take a release
//! build and run as ignored tests:
//!
//! ```sh
//! cargo test --release --test circuit_equivalence -- --ignored
//! ```

use dta::ann::{FaultPlan, Mlp, Topology};
use dta::circuits::{
    FxMulCircuit, HwAdder, HwMultiplier, HwSigmoid, SatAdderCircuit, SigmoidUnitCircuit,
};
use dta::fixed::{Fx, SigmoidLut};
use dta::logic::{GateKind, LutExec, NodeId};
use dta::transistor::reconstruct::ExprCellEvaluator;
use dta::transistor::{CmosCell, FaultyCell};
use dta_logic::gate::GateBehavior;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn any_fx() -> impl Strategy<Value = Fx> {
    any::<i16>().prop_map(Fx::from_raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hw_adder_equals_fx(a in any_fx(), b in any_fx()) {
        let mut hw = HwAdder::new();
        prop_assert_eq!(hw.add(a, b), a + b);
    }

    #[test]
    fn hw_multiplier_equals_fx(a in any_fx(), b in any_fx()) {
        let mut hw = HwMultiplier::new();
        prop_assert_eq!(hw.mul(a, b), a * b);
    }

    #[test]
    fn hw_sigmoid_equals_lut(x in any_fx()) {
        let mut hw = HwSigmoid::new();
        prop_assert_eq!(hw.eval(x), SigmoidLut::new().eval(x));
    }

    #[test]
    fn faulty_forward_with_empty_plan_is_fixed_forward(
        seed in 0u64..1000,
        x0 in 0.0f64..1.0, x1 in 0.0f64..1.0, x2 in 0.0f64..1.0
    ) {
        let mlp = Mlp::new(Topology::new(3, 4, 2), seed);
        let lut = SigmoidLut::new();
        let mut plan = FaultPlan::new(90);
        let x = [x0, x1, x2];
        prop_assert_eq!(
            mlp.forward_fixed(&x, &lut),
            mlp.forward_faulty(&x, &lut, &mut plan)
        );
    }
}

#[test]
fn switch_level_cells_equal_library_truth_tables() {
    for kind in GateKind::ALL {
        let mut cell = FaultyCell::new(CmosCell::for_gate(kind));
        for bits in 0u32..1 << kind.arity() {
            let v: Vec<bool> = (0..kind.arity()).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(cell.eval(&v), kind.eval(&v), "{kind} at {v:?}");
        }
    }
}

#[test]
fn reconstruction_equals_switch_level_for_every_single_defect() {
    for kind in [GateKind::Nand2, GateKind::Aoi22, GateKind::Mux2] {
        let base = CmosCell::for_gate(kind);
        // Every site, including delay defects (delayed literals).
        for defect in base.defect_sites() {
            let mut cell = base.clone();
            cell.inject(defect).unwrap();
            let mut switch = FaultyCell::new(cell.clone());
            let mut expr = ExprCellEvaluator::new(&cell).unwrap();
            // Two sweeps (ascending then descending) exercise memory.
            let sweep: Vec<u32> = (0..1u32 << kind.arity())
                .chain((0..1u32 << kind.arity()).rev())
                .collect();
            for bits in sweep {
                let v: Vec<bool> = (0..kind.arity()).map(|i| bits >> i & 1 == 1).collect();
                assert_eq!(
                    switch.eval(&v),
                    expr.eval(&v),
                    "{kind} with {defect:?} at {v:?}"
                );
            }
        }
    }
}

/// Drives a two-operand circuit's LUT stream with one `a` in every lane
/// and 64 `b` operands, and asserts each lane's output equals `native`.
fn assert_lanes(
    ex: &mut LutExec,
    buses: [&[NodeId]; 3],
    a: Fx,
    bs: &[Fx; 64],
    native: impl Fn(Fx, Fx) -> Fx,
) {
    let [a_bus, b_bus, out_bus] = buses;
    for (bit, &id) in a_bus.iter().enumerate() {
        ex.set_input_lanes(id, if a.to_bits() >> bit & 1 == 1 { !0 } else { 0 });
    }
    let words: Vec<u64> = bs.iter().map(|b| u64::from(b.to_bits())).collect();
    ex.set_input_words(b_bus, &words);
    ex.exec();
    let native_bits = bs.map(|b| native(a, b).to_bits());
    for (bit, &id) in out_bus.iter().enumerate() {
        let want = native_bits
            .iter()
            .enumerate()
            .fold(0u64, |acc, (l, &w)| acc | u64::from(w >> bit & 1) << l);
        let got = ex.lanes(id);
        if got != want {
            let lane = (got ^ want).trailing_zeros() as usize;
            panic!("{a:?} op {:?}: output bit {bit} differs", bs[lane]);
        }
    }
}

#[test]
fn healthy_sigmoid_unit_equals_lut_on_every_input() {
    let unit = SigmoidUnitCircuit::new();
    let mut ex = unit.lut_exec();
    let lut = SigmoidLut::new();
    let xs: Vec<Fx> = (i16::MIN..=i16::MAX).map(Fx::from_raw).collect();
    let ys = unit.compute_lut(&mut ex, &xs);
    for (&x, &y) in xs.iter().zip(&ys) {
        assert_eq!(y, lut.eval(x), "sigmoid unit at {x:?}");
    }
}

/// The lane mask in which lane `l` carries bit `bit` of `l`.
fn lane_index_bit(bit: usize) -> u64 {
    (0..64)
        .filter(|l| l >> bit & 1 == 1)
        .fold(0, |m, l| m | 1 << l)
}

/// Transposes a 16-bit bus read as lane words (bit `l` of `lanes[k]` is
/// bit `k` of lane `l`) into each lane's word, one 8 × 8 bit block at a
/// time.
fn lane_words(lanes: &[u64; 16]) -> [u16; 64] {
    let mut words = [0u16; 64];
    for group in 0..8 {
        for half in 0..2 {
            // Byte `i` holds bit `8 * half + i` of lanes `8 * group ..`.
            let mut x = (0..8).fold(0u64, |x, i| {
                x | (lanes[8 * half + i] >> (8 * group) & 0xFF) << (8 * i)
            });
            let t = (x ^ x >> 7) & 0x00AA_00AA_00AA_00AA;
            x ^= t ^ t << 7;
            let t = (x ^ x >> 14) & 0x0000_CCCC_0000_CCCC;
            x ^= t ^ t << 14;
            let t = (x ^ x >> 28) & 0x0000_0000_F0F0_F0F0;
            x ^= t ^ t << 28;
            // Now byte `j` holds those bits of lane `8 * group + j`.
            for j in 0..8 {
                words[8 * group + j] |= ((x >> (8 * j)) as u16 & 0xFF) << (8 * half);
            }
        }
    }
    words
}

#[test]
#[ignore = "2^32 operand pairs: run with --release -- --ignored"]
fn healthy_adder_equals_fx_on_every_pair() {
    let adder = SatAdderCircuit::new();
    let mut ex = adder.lut_exec();
    let (a_bus, b_bus, out_bus) = (adder.a_bus(), adder.b_bus(), adder.out_bus());
    // Lane `l` carries `b`'s low six bits `l` for the whole sweep, so each
    // block of 64 consecutive `b` drives only the ten high bits.
    for (bit, &id) in b_bus[..6].iter().enumerate() {
        ex.set_input_lanes(id, lane_index_bit(bit));
    }
    let all_or_none = |v: u16, bit: usize| if v >> bit & 1 == 1 { !0 } else { 0 };
    for a in i16::MIN..=i16::MAX {
        let a = Fx::from_raw(a);
        for (bit, &id) in a_bus.iter().enumerate() {
            ex.set_input_lanes(id, all_or_none(a.to_bits(), bit));
        }
        for block in 0..1024u16 {
            for (k, &id) in b_bus[6..].iter().enumerate() {
                ex.set_input_lanes(id, all_or_none(block, k));
            }
            ex.exec();
            let lanes = std::array::from_fn(|bit| ex.lanes(out_bus[bit]));
            for (l, got) in lane_words(&lanes).into_iter().enumerate() {
                let b = Fx::from_bits(block << 6 | l as u16);
                assert_eq!(Fx::from_bits(got), a + b, "{a:?} + {b:?}");
            }
        }
    }
}

/// 1 024 multiplier operands: every raw value within ±1/2 (trained
/// weights and small activations), walking ones and zeros with their
/// masks, the range ends, and seeded random words.
fn structured_operands() -> Vec<Fx> {
    let mut raws: Vec<i16> = (-512..512).step_by(2).collect();
    for k in 0..16 {
        let one = 1u16 << k;
        for w in [one, !one, one.wrapping_sub(1), !one.wrapping_sub(1)] {
            raws.push(w as i16);
        }
    }
    raws.extend([i16::MIN, i16::MAX, i16::MIN + 1, i16::MAX - 1, 1024, -1024]);
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    while raws.len() < 1024 {
        raws.push(rng.random());
    }
    raws.into_iter().map(Fx::from_raw).collect()
}

#[test]
#[ignore = "2^26 operand pairs: run with --release -- --ignored"]
fn healthy_multiplier_equals_fx_on_structured_pairs() {
    let mul = FxMulCircuit::new();
    let mut ex = mul.lut_exec();
    let buses = [mul.a_bus(), mul.b_bus(), mul.out_bus()];
    let operands = structured_operands();
    for a in i16::MIN..=i16::MAX {
        for chunk in operands.chunks_exact(64) {
            let bs: &[Fx; 64] = chunk.try_into().expect("64-operand chunk");
            assert_lanes(&mut ex, buses, Fx::from_raw(a), bs, |x, y| x * y);
        }
    }
}
