//! Digests of simulated outputs and the stored reference they are checked
//! against.
//!
//! A digest is FNV-1a over the bit patterns of an output's fields, so two
//! outputs match only when every float is bit-identical. The reference
//! (`reference.txt`, one `<workload> <item> <digest>` line per item) holds
//! the digests at the default seed; regenerate it with `--bless` only when
//! a change is meant to alter simulated results.

/// FNV-1a accumulator over field bit patterns.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, x: u64) -> Self {
        self.bytes(&x.to_le_bytes())
    }

    pub fn usize(self, x: usize) -> Self {
        self.u64(x as u64)
    }

    pub fn f64(self, x: f64) -> Self {
        self.u64(x.to_bits())
    }

    pub fn str(self, s: &str) -> Self {
        self.usize(s.len()).bytes(s.as_bytes())
    }

    pub fn opt_f64(self, x: Option<f64>) -> Self {
        match x {
            None => self.u64(0),
            Some(v) => self.u64(1).f64(v),
        }
    }

    pub fn opt_str(self, s: Option<&str>) -> Self {
        match s {
            None => self.u64(0),
            Some(v) => self.u64(1).str(v),
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One checked output of a workload: a Figure-2 row, the headline or one
/// campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub label: String,
    pub digest: u64,
    /// Error the library reported for the item; none is expected.
    pub error: Option<String>,
}

const REFERENCE: &str = include_str!("../reference.txt");

/// The reference digests of `workload` at the default seed, in item order.
pub fn reference(workload: &str) -> Vec<(String, u64)> {
    REFERENCE
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            if f.next()? != workload {
                return None;
            }
            let label = f.next()?.to_string();
            let digest = u64::from_str_radix(f.next()?, 16).ok()?;
            Some((label, digest))
        })
        .collect()
}

/// The reference lines for `items`, as `--bless` prints them.
pub fn bless(workload: &str, items: &[Item]) -> String {
    items
        .iter()
        .map(|i| format!("{workload} {} {:016x}\n", i.label, i.digest))
        .collect()
}

/// Number of items of `got` that differ from `want` (label or digest), or
/// that `want` lacks; a length mismatch fails every unmatched item.
pub fn mismatches(got: &[Item], want: &[(String, u64)]) -> usize {
    let paired = got
        .iter()
        .zip(want)
        .filter(|(g, (label, digest))| g.label != *label || g.digest != *digest)
        .count();
    paired + got.len().abs_diff(want.len())
}

/// The `(label, digest)` pairs of `items`, for checking later repetitions.
pub fn pairs(items: &[Item]) -> Vec<(String, u64)> {
    items.iter().map(|i| (i.label.clone(), i.digest)).collect()
}
