//! The CMOS standard-cell library and the pluggable gate-behavior trait.

use std::fmt;

/// A combinational cell from the standard-cell library.
///
/// The library is restricted to cells with a direct static-CMOS
/// implementation so that every gate instance can be lowered to a
/// transistor schematic by `dta-transistor` for defect injection.
/// Non-inverting cells (`And2`, `Or2`, `Buf`) are realized as the
/// inverting core followed by an output inverter, exactly like real
/// standard cells; transistor counts below reflect that.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Constant driver (tie cell).
    Const(bool),
    /// Buffer (two inverters back to back).
    Buf,
    /// Inverter.
    Not,
    /// 2-input AND (NAND2 + INV).
    And2,
    /// 2-input OR (NOR2 + INV).
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 3-input NAND.
    Nand3,
    /// 3-input NOR.
    Nor3,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-invert: `!((a & b) | (c & d))`.
    Aoi22,
    /// OR-AND-invert: `!((a | b) & (c | d))` — the complex gate of the
    /// paper's Figures 6–9 (there shown before the output inversion).
    Oai22,
    /// 2:1 multiplexer: inputs `(sel, a, b)`, output `if sel { b } else { a }`.
    Mux2,
}

impl GateKind {
    /// Number of input pins.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Const(_) => 0,
            GateKind::Buf | GateKind::Not => 1,
            GateKind::And2
            | GateKind::Or2
            | GateKind::Nand2
            | GateKind::Nor2
            | GateKind::Xor2
            | GateKind::Xnor2 => 2,
            GateKind::Nand3 | GateKind::Nor3 | GateKind::Mux2 => 3,
            GateKind::Aoi22 | GateKind::Oai22 => 4,
        }
    }

    /// Evaluates the healthy cell function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.arity(),
            "{self:?} expects {} inputs, got {}",
            self.arity(),
            inputs.len()
        );
        match self {
            GateKind::Const(v) => v,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And2 => inputs[0] & inputs[1],
            GateKind::Or2 => inputs[0] | inputs[1],
            GateKind::Nand2 => !(inputs[0] & inputs[1]),
            GateKind::Nor2 => !(inputs[0] | inputs[1]),
            GateKind::Nand3 => !(inputs[0] & inputs[1] & inputs[2]),
            GateKind::Nor3 => !(inputs[0] | inputs[1] | inputs[2]),
            GateKind::Xor2 => inputs[0] ^ inputs[1],
            GateKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            GateKind::Aoi22 => !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3])),
            GateKind::Oai22 => !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3])),
            GateKind::Mux2 => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }

    /// CMOS transistor count of the cell (static complementary
    /// realization), used by the area/energy cost model and by the
    /// defect-site enumeration.
    pub fn transistor_count(self) -> u32 {
        match self {
            GateKind::Const(_) => 0,
            GateKind::Not => 2,
            GateKind::Buf => 4,
            GateKind::Nand2 | GateKind::Nor2 => 4,
            GateKind::And2 | GateKind::Or2 => 6,
            GateKind::Nand3 | GateKind::Nor3 => 6,
            // Complementary XOR/XNOR with input inverters.
            GateKind::Xor2 | GateKind::Xnor2 => 12,
            GateKind::Aoi22 | GateKind::Oai22 => 8,
            // Sel inverter + 8T inverting-mux core + output inverter.
            GateKind::Mux2 => 12,
        }
    }

    /// All non-constant cells, for exhaustive library tests.
    pub const ALL: [GateKind; 13] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::Nand3,
        GateKind::Nor3,
        GateKind::Xor2,
        GateKind::Xnor2,
        GateKind::Aoi22,
        GateKind::Oai22,
        GateKind::Mux2,
    ];
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateKind::Const(v) => write!(f, "CONST{}", u8::from(*v)),
            other => write!(f, "{}", format!("{other:?}").to_uppercase()),
        }
    }
}

/// Replacement behavior for a gate instance, used for fault injection.
///
/// Implementations may hold internal state: transistor-level defects can
/// turn a combinational cell into a state element (the "memory effect" of
/// asymmetric N/P networks), so `eval` takes `&mut self` and the engine
/// calls [`GateBehavior::reset`] whenever simulation state must be
/// cleared (e.g. between independent experiment runs).
pub trait GateBehavior: fmt::Debug + Send {
    /// Computes the (possibly faulty) output for this input vector.
    fn eval(&mut self, inputs: &[bool]) -> bool;

    /// Clears any internal state (memory effects, delay pipelines).
    fn reset(&mut self) {}

    /// The live state that future evaluations can read, packed into the
    /// low `width` bits of a word, as `(bits, width)`. Two behaviors in
    /// the same packed state give the same outputs and next states on
    /// every input sequence, so a faulty circuit can be memoized on
    /// (inputs, packed state). The width is fixed for the behavior's
    /// lifetime. The default `None` marks a behavior whose future does
    /// not follow from a packable state (dynamic activation draws), which
    /// must never be memoized.
    fn state(&self) -> Option<(u64, u32)> {
        None
    }

    /// Restores a state packed by [`GateBehavior::state`]. Only called
    /// on behaviors whose `state` is `Some`.
    fn set_state(&mut self, _bits: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_eval_expectations() {
        for kind in GateKind::ALL {
            let inputs = vec![false; kind.arity()];
            // must not panic
            let _ = kind.eval(&inputs);
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn wrong_arity_panics() {
        GateKind::Nand2.eval(&[true]);
    }

    #[test]
    fn truth_tables() {
        use GateKind::*;
        assert!(Const(true).eval(&[]));
        assert!(!Const(false).eval(&[]));
        assert!(Not.eval(&[false]));
        assert!(Buf.eval(&[true]));
        assert!(And2.eval(&[true, true]));
        assert!(!And2.eval(&[true, false]));
        assert!(Or2.eval(&[false, true]));
        assert!(!Nor2.eval(&[false, true]));
        assert!(Nand2.eval(&[true, false]));
        assert!(!Nand3.eval(&[true, true, true]));
        assert!(Nor3.eval(&[false, false, false]));
        assert!(Xor2.eval(&[true, false]));
        assert!(!Xor2.eval(&[true, true]));
        assert!(Xnor2.eval(&[true, true]));
        // AOI22: !((a&b)|(c&d))
        assert!(!Aoi22.eval(&[true, true, false, false]));
        assert!(Aoi22.eval(&[true, false, false, true]));
        // OAI22: !((a|b)&(c|d))
        assert!(!Oai22.eval(&[true, false, false, true]));
        assert!(Oai22.eval(&[false, false, true, true]));
        // Mux2: (sel, a, b)
        assert!(!Mux2.eval(&[false, false, true]));
        assert!(Mux2.eval(&[true, false, true]));
    }

    #[test]
    fn nand_nor_duality() {
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(GateKind::Nand2.eval(&[a, b]), GateKind::Or2.eval(&[!a, !b]));
                assert_eq!(GateKind::Nor2.eval(&[a, b]), GateKind::And2.eval(&[!a, !b]));
            }
        }
    }

    #[test]
    fn complex_gates_match_composition() {
        for bits in 0u8..16 {
            let v = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0];
            assert_eq!(
                GateKind::Aoi22.eval(&v),
                !((v[0] && v[1]) || (v[2] && v[3]))
            );
            assert_eq!(
                GateKind::Oai22.eval(&v),
                !((v[0] || v[1]) && (v[2] || v[3]))
            );
        }
    }

    #[test]
    fn transistor_counts_positive_for_real_cells() {
        for kind in GateKind::ALL {
            assert!(kind.transistor_count() >= 2, "{kind} has no transistors");
        }
        assert_eq!(GateKind::Const(true).transistor_count(), 0);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(GateKind::Nand2.to_string(), "NAND2");
        assert_eq!(GateKind::Const(true).to_string(), "CONST1");
    }
}
