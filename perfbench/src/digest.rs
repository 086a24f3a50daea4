//! Result digests: a workload appends every accuracy, curve point and
//! mission trace it produces, in a fixed order and in Rust's exact
//! (round-trip) float formatting, and the digest is the 64-bit FNV-1a
//! hash of that text. Two runs with equal digests produced the same
//! results bit for bit.

use std::fmt::Debug;

#[derive(Default)]
pub struct Digest {
    text: String,
}

impl Digest {
    /// Appends one labelled value.
    pub fn add(&mut self, label: &str, value: impl Debug) {
        self.text.push_str(label);
        self.text.push('=');
        self.text.push_str(&format!("{value:?}"));
        self.text.push('\n');
    }

    pub fn hex(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}
