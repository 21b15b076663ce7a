//! The frozen per-corpus severity table.
//!
//! Posture scoring and the severity filters read one severity figure per
//! matched record — a vulnerability's CVSS base score or a pattern's
//! typical-severity band. Looking each one up in the corpus `BTreeMap`
//! and recomputing the base score costs a cache-missing tree walk plus the
//! CVSS arithmetic per hit, and a SCADA model at implementation fidelity
//! yields about a hundred thousand hits. [`SeverityTable`] precomputes the
//! figures once per corpus generation into a hash table keyed by record
//! id, so each hit costs one probe.
//!
//! Record ids arrive from the network (`POST /corpus/delta`), so the table
//! must not be floodable: an unkeyed multiplicative hash maps ids that
//! differ only in their high bits to the same low bits, and therefore to
//! the same bucket. [`FoldHasher`] is a folded multiply — the two halves
//! of a 128-bit product XORed together — keyed once per process from
//! std's randomly seeded [`RandomState`].

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use crate::{AttackVectorId, Corpus, Severity};

/// The severity figure one record carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordSeverity {
    /// A vulnerability's CVSS v3.1 base score.
    Cvss(f64),
    /// An attack pattern's typical-severity band.
    Band(Severity),
}

/// Record id → severity figure for every vulnerability with a CVSS vector
/// and every pattern with a typical severity. Records without a figure —
/// weaknesses, unscored records, ids absent from the corpus — have no
/// entry.
#[derive(Debug)]
pub struct SeverityTable {
    entries: HashMap<u64, RecordSeverity, FoldState>,
}

impl SeverityTable {
    /// Builds the table over every record in `corpus`.
    fn build(corpus: &Corpus) -> SeverityTable {
        let stats = corpus.stats();
        let mut entries = HashMap::with_capacity_and_hasher(
            stats.patterns + stats.vulnerabilities,
            FoldState::process(),
        );
        for v in corpus.vulnerabilities() {
            if let Some(cvss) = v.cvss() {
                let id = AttackVectorId::Vulnerability(v.id());
                entries.insert(key(id), RecordSeverity::Cvss(cvss.base_score()));
            }
        }
        for p in corpus.patterns() {
            if let Some(band) = p.typical_severity() {
                let id = AttackVectorId::Pattern(p.id());
                entries.insert(key(id), RecordSeverity::Band(band));
            }
        }
        SeverityTable { entries }
    }

    /// The severity figure of a record, if it carries one.
    #[must_use]
    #[inline]
    pub fn get(&self, id: AttackVectorId) -> Option<RecordSeverity> {
        self.entries.get(&key(id)).copied()
    }
}

/// Packs an id into one word: family tag in bits 48–49, the CVE year in
/// bits 32–47, the record number in bits 0–31. Injective over all ids.
#[inline]
fn key(id: AttackVectorId) -> u64 {
    match id {
        AttackVectorId::Pattern(p) => (1 << 48) | u64::from(p.number()),
        AttackVectorId::Weakness(w) => (2 << 48) | u64::from(w.number()),
        AttackVectorId::Vulnerability(v) => {
            (3 << 48) | (u64::from(v.year()) << 32) | u64::from(v.number())
        }
    }
}

/// The lazily built table a [`Corpus`] carries. It never takes part in
/// equality or `Debug`, and a clone starts empty: the table is a cache of
/// the records, rebuilt on demand, never state of its own.
#[derive(Default)]
pub(crate) struct SeverityCell(OnceLock<SeverityTable>);

impl SeverityCell {
    pub(crate) fn get_or_build(&self, corpus: &Corpus) -> &SeverityTable {
        self.0.get_or_init(|| SeverityTable::build(corpus))
    }

    /// Drops the table; the next read rebuilds it.
    pub(crate) fn invalidate(&mut self) {
        self.0.take();
    }

    #[cfg(test)]
    pub(crate) fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

impl Clone for SeverityCell {
    fn clone(&self) -> Self {
        SeverityCell::default()
    }
}

/// `(a · b)` as a 128-bit product, its halves XORed.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The per-process hash keys: two words drawn from std's randomly seeded
/// SipHash, the multiplier forced odd.
fn process_keys() -> (u64, u64) {
    static KEYS: OnceLock<(u64, u64)> = OnceLock::new();
    *KEYS.get_or_init(|| {
        let random = RandomState::new();
        let draw = |salt: u64| {
            let mut h = random.build_hasher();
            h.write_u64(salt);
            h.finish()
        };
        (draw(0), draw(1) | 1)
    })
}

/// Builds [`FoldHasher`]s under the process keys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldState {
    seed: u64,
    multiplier: u64,
}

impl FoldState {
    pub(crate) fn process() -> FoldState {
        let (seed, multiplier) = process_keys();
        FoldState { seed, multiplier }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// A keyed folded-multiply hasher: each word is XORed into the state and
/// folded through one 128-bit multiply by the process multiplier, and
/// `finish` folds once more. One fold alone leaves the low bits of ids
/// that differ only in their high bits poorly spread under some keys
/// (147 of 4096 buckets at worst over 2000 keys); two fill at least 2500.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, self.multiplier);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.state, self.multiplier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Abstraction, AttackPattern, CapecId, CveId, CweId, Vulnerability, Weakness};

    #[test]
    fn keys_are_injective_across_families() {
        let ids = [
            AttackVectorId::Pattern(CapecId::new(7)),
            AttackVectorId::Weakness(CweId::new(7)),
            AttackVectorId::Vulnerability(CveId::new(0, 7)),
            AttackVectorId::Vulnerability(CveId::new(1, 7)),
            AttackVectorId::Vulnerability(CveId::new(u16::MAX, u32::MAX)),
            AttackVectorId::Pattern(CapecId::new(u32::MAX)),
        ];
        let keys: std::collections::BTreeSet<u64> = ids.iter().map(|&id| key(id)).collect();
        assert_eq!(keys.len(), ids.len());
    }

    #[test]
    fn high_bit_ids_spread_over_the_low_hash_bits() {
        // 4096 ids that differ only above bit 16: an unkeyed
        // multiplicative hash sends every one to the same low bits. A
        // uniform hash fills ~63% of 4096 buckets with 4096 keys. Checked
        // under the process keys and under a spread of fixed ones.
        let mut states = vec![FoldState::process()];
        let mut x = 0x243f_6a88_85a3_08d3_u64;
        for _ in 0..64 {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            states.push(FoldState {
                seed: x,
                multiplier: x.rotate_left(29) | 1,
            });
        }
        for state in states {
            let buckets: std::collections::HashSet<u64> = (0..4096u32)
                .map(|i| {
                    let id = AttackVectorId::Vulnerability(CveId::new(2020, i << 16));
                    state.hash_one(key(id)) & 0xfff
                })
                .collect();
            assert!(
                buckets.len() > 2048,
                "{state:?}: only {} buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn table_holds_scored_records_only() {
        let mut c = Corpus::new();
        c.add_weakness(Weakness::new(CweId::new(78), "w", "d"))
            .unwrap();
        c.add_pattern(
            AttackPattern::new(CapecId::new(88), "p", "d", Abstraction::Standard)
                .with_severity(Severity::High),
        )
        .unwrap();
        c.add_pattern(AttackPattern::new(
            CapecId::new(89),
            "p",
            "d",
            Abstraction::Meta,
        ))
        .unwrap();
        let cvss = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
            .parse()
            .unwrap();
        c.add_vulnerability(Vulnerability::new(CveId::new(2018, 101), "v").with_cvss(cvss))
            .unwrap();
        c.add_vulnerability(Vulnerability::new(CveId::new(2018, 102), "v"))
            .unwrap();
        let table = SeverityTable::build(&c);
        assert_eq!(
            table.get(CapecId::new(88).into()),
            Some(RecordSeverity::Band(Severity::High))
        );
        assert_eq!(
            table.get(CveId::new(2018, 101).into()),
            Some(RecordSeverity::Cvss(9.8))
        );
        assert_eq!(table.get(CapecId::new(89).into()), None);
        assert_eq!(table.get(CveId::new(2018, 102).into()), None);
        assert_eq!(table.get(CweId::new(78).into()), None);
    }
}
