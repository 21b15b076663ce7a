//! The corpus: all three record families plus the cross-reference index.

use std::collections::BTreeMap;
use std::fmt;

use crate::severity::{SeverityCell, SeverityTable};
use crate::RecordSeverity;
use crate::{
    Abstraction, AttackDbError, AttackPattern, AttackVectorId, CapecId, CveId, CweId, Severity,
    Vulnerability, Weakness,
};

/// Summary statistics over a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of attack patterns.
    pub patterns: usize,
    /// Number of weaknesses.
    pub weaknesses: usize,
    /// Number of vulnerabilities.
    pub vulnerabilities: usize,
    /// Number of CAPEC→CWE links.
    pub pattern_weakness_links: usize,
    /// Number of CVE→CWE links.
    pub vulnerability_weakness_links: usize,
}

impl CorpusStats {
    /// Total records across all families.
    #[must_use]
    pub fn total(&self) -> usize {
        self.patterns + self.weaknesses + self.vulnerabilities
    }
}

/// An attack vector corpus: patterns, weaknesses, and vulnerabilities with
/// their interconnections, as published by MITRE-style databases.
///
/// Records are immutable once inserted; the cross-reference index is kept
/// in sync on insert, and the lazily built [`SeverityTable`] is dropped on
/// insert (see [`Corpus::severities`]). Dangling cross-references are
/// allowed at insert time (MITRE feeds have them too) and can be audited
/// with [`Corpus::dangling_references`].
///
/// # Examples
///
/// ```
/// use cpssec_attackdb::{Corpus, AttackPattern, Abstraction, CapecId, CweId, Weakness};
///
/// let mut corpus = Corpus::new();
/// corpus.add_weakness(Weakness::new(CweId::new(78), "OS Command Injection", "..."))?;
/// corpus.add_pattern(
///     AttackPattern::new(CapecId::new(88), "OS Command Injection", "...", Abstraction::Standard)
///         .with_weakness(CweId::new(78)),
/// )?;
/// assert_eq!(corpus.patterns_for_weakness(CweId::new(78)).len(), 1);
/// # Ok::<(), cpssec_attackdb::AttackDbError>(())
/// ```
#[derive(Default, Clone)]
pub struct Corpus {
    patterns: BTreeMap<CapecId, AttackPattern>,
    weaknesses: BTreeMap<CweId, Weakness>,
    vulnerabilities: BTreeMap<CveId, Vulnerability>,
    // Reverse links, maintained on insert.
    weakness_to_patterns: BTreeMap<CweId, Vec<CapecId>>,
    weakness_to_vulns: BTreeMap<CweId, Vec<CveId>>,
    /// Built on first read, dropped on insert; a clone starts empty.
    severities: SeverityCell,
}

// The severity table is derived from the records, so neither equality nor
// `Debug` looks at it: a corpus compares and prints the same whether or
// not the table has been built.
impl PartialEq for Corpus {
    fn eq(&self, other: &Self) -> bool {
        self.patterns == other.patterns
            && self.weaknesses == other.weaknesses
            && self.vulnerabilities == other.vulnerabilities
            && self.weakness_to_patterns == other.weakness_to_patterns
            && self.weakness_to_vulns == other.weakness_to_vulns
    }
}

impl fmt::Debug for Corpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Corpus")
            .field("patterns", &self.patterns)
            .field("weaknesses", &self.weaknesses)
            .field("vulnerabilities", &self.vulnerabilities)
            .field("weakness_to_patterns", &self.weakness_to_patterns)
            .field("weakness_to_vulns", &self.weakness_to_vulns)
            .finish()
    }
}

impl Corpus {
    /// Creates an empty corpus.
    #[must_use]
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Adds an attack pattern.
    ///
    /// # Errors
    ///
    /// [`AttackDbError::DuplicateRecord`] if the id is already present.
    pub fn add_pattern(&mut self, pattern: AttackPattern) -> Result<(), AttackDbError> {
        if self.patterns.contains_key(&pattern.id()) {
            return Err(AttackDbError::DuplicateRecord(pattern.id().into()));
        }
        for cwe in pattern.related_weaknesses() {
            let entry = self.weakness_to_patterns.entry(*cwe).or_default();
            // Kept sorted so the index is canonical regardless of insertion
            // order (important for interchange round-trips).
            let position = entry.partition_point(|id| *id < pattern.id());
            entry.insert(position, pattern.id());
        }
        self.severities.invalidate();
        self.patterns.insert(pattern.id(), pattern);
        Ok(())
    }

    /// Adds a weakness.
    ///
    /// # Errors
    ///
    /// [`AttackDbError::DuplicateRecord`] if the id is already present.
    pub fn add_weakness(&mut self, weakness: Weakness) -> Result<(), AttackDbError> {
        if self.weaknesses.contains_key(&weakness.id()) {
            return Err(AttackDbError::DuplicateRecord(weakness.id().into()));
        }
        self.severities.invalidate();
        self.weaknesses.insert(weakness.id(), weakness);
        Ok(())
    }

    /// Adds a vulnerability.
    ///
    /// # Errors
    ///
    /// [`AttackDbError::DuplicateRecord`] if the id is already present.
    pub fn add_vulnerability(&mut self, vuln: Vulnerability) -> Result<(), AttackDbError> {
        if self.vulnerabilities.contains_key(&vuln.id()) {
            return Err(AttackDbError::DuplicateRecord(vuln.id().into()));
        }
        for cwe in vuln.weaknesses() {
            let entry = self.weakness_to_vulns.entry(*cwe).or_default();
            let position = entry.partition_point(|id| *id < vuln.id());
            entry.insert(position, vuln.id());
        }
        self.severities.invalidate();
        self.vulnerabilities.insert(vuln.id(), vuln);
        Ok(())
    }

    /// Looks up an attack pattern.
    #[must_use]
    pub fn pattern(&self, id: CapecId) -> Option<&AttackPattern> {
        self.patterns.get(&id)
    }

    /// Looks up a weakness.
    #[must_use]
    pub fn weakness(&self, id: CweId) -> Option<&Weakness> {
        self.weaknesses.get(&id)
    }

    /// Looks up a vulnerability.
    #[must_use]
    pub fn vulnerability(&self, id: CveId) -> Option<&Vulnerability> {
        self.vulnerabilities.get(&id)
    }

    /// Whether the corpus contains the record.
    #[must_use]
    pub fn contains(&self, id: AttackVectorId) -> bool {
        match id {
            AttackVectorId::Pattern(p) => self.patterns.contains_key(&p),
            AttackVectorId::Weakness(w) => self.weaknesses.contains_key(&w),
            AttackVectorId::Vulnerability(v) => self.vulnerabilities.contains_key(&v),
        }
    }

    /// Iterates over all attack patterns in id order.
    pub fn patterns(&self) -> impl Iterator<Item = &AttackPattern> {
        self.patterns.values()
    }

    /// Iterates over all weaknesses in id order.
    pub fn weaknesses(&self) -> impl Iterator<Item = &Weakness> {
        self.weaknesses.values()
    }

    /// Iterates over all vulnerabilities in id order.
    pub fn vulnerabilities(&self) -> impl Iterator<Item = &Vulnerability> {
        self.vulnerabilities.values()
    }

    /// Patterns related to a weakness (CAPEC records listing this CWE).
    #[must_use]
    pub fn patterns_for_weakness(&self, cwe: CweId) -> Vec<CapecId> {
        self.weakness_to_patterns
            .get(&cwe)
            .cloned()
            .unwrap_or_default()
    }

    /// Vulnerabilities mapped to a weakness (CVE records listing this CWE).
    #[must_use]
    pub fn vulnerabilities_for_weakness(&self, cwe: CweId) -> Vec<CveId> {
        self.weakness_to_vulns
            .get(&cwe)
            .cloned()
            .unwrap_or_default()
    }

    /// Weaknesses a pattern exploits (the forward CAPEC→CWE link).
    #[must_use]
    pub fn weaknesses_for_pattern(&self, capec: CapecId) -> Vec<CweId> {
        self.patterns
            .get(&capec)
            .map(|p| p.related_weaknesses().to_vec())
            .unwrap_or_default()
    }

    /// Weaknesses underlying a vulnerability (the forward CVE→CWE link).
    #[must_use]
    pub fn weaknesses_for_vulnerability(&self, cve: CveId) -> Vec<CweId> {
        self.vulnerabilities
            .get(&cve)
            .map(|v| v.weaknesses().to_vec())
            .unwrap_or_default()
    }

    /// Patterns at a given abstraction level, in id order.
    #[must_use]
    pub fn patterns_at(&self, abstraction: Abstraction) -> Vec<CapecId> {
        self.patterns
            .values()
            .filter(|p| p.abstraction() == abstraction)
            .map(AttackPattern::id)
            .collect()
    }

    /// Vulnerabilities at or above a severity band, in id order.
    #[must_use]
    pub fn vulnerabilities_at_severity(&self, at_least: Severity) -> Vec<CveId> {
        let severities = self.severities();
        self.vulnerabilities
            .keys()
            .copied()
            .filter(|&id| match severities.get(id.into()) {
                Some(RecordSeverity::Cvss(score)) => Severity::from_score(score) >= at_least,
                _ => false,
            })
            .collect()
    }

    /// The severity figure of every scored record, built on first use and
    /// kept until the next insert. Posture scoring and the severity
    /// filters read record severity only through this table.
    #[must_use]
    pub fn severities(&self) -> &SeverityTable {
        self.severities.get_or_build(self)
    }

    /// Cross-references whose target record is missing from the corpus.
    #[must_use]
    pub fn dangling_references(&self) -> Vec<AttackDbError> {
        let mut out = Vec::new();
        for p in self.patterns.values() {
            for cwe in p.related_weaknesses() {
                if !self.weaknesses.contains_key(cwe) {
                    out.push(AttackDbError::DanglingReference {
                        from: p.id().into(),
                        to: (*cwe).into(),
                    });
                }
            }
        }
        for v in self.vulnerabilities.values() {
            for cwe in v.weaknesses() {
                if !self.weaknesses.contains_key(cwe) {
                    out.push(AttackDbError::DanglingReference {
                        from: v.id().into(),
                        to: (*cwe).into(),
                    });
                }
            }
        }
        out
    }

    /// The highest pattern id present, if any — the append-only floor a
    /// delta batch must clear for incremental indexing to stay equivalent
    /// to a rebuild (both walk records in id order).
    #[must_use]
    pub fn last_pattern_id(&self) -> Option<CapecId> {
        self.patterns.keys().next_back().copied()
    }

    /// The highest weakness id present, if any (see [`Self::last_pattern_id`]).
    #[must_use]
    pub fn last_weakness_id(&self) -> Option<CweId> {
        self.weaknesses.keys().next_back().copied()
    }

    /// The highest vulnerability id present, if any (see
    /// [`Self::last_pattern_id`]).
    #[must_use]
    pub fn last_vulnerability_id(&self) -> Option<CveId> {
        self.vulnerabilities.keys().next_back().copied()
    }

    /// Merges another corpus into this one.
    ///
    /// # Errors
    ///
    /// [`AttackDbError::DuplicateRecord`] on the first id collision; records
    /// inserted before the collision remain.
    pub fn merge(&mut self, other: Corpus) -> Result<(), AttackDbError> {
        for (_, p) in other.patterns {
            self.add_pattern(p)?;
        }
        for (_, w) in other.weaknesses {
            self.add_weakness(w)?;
        }
        for (_, v) in other.vulnerabilities {
            self.add_vulnerability(v)?;
        }
        Ok(())
    }

    /// Computes summary statistics.
    #[must_use]
    pub fn stats(&self) -> CorpusStats {
        CorpusStats {
            patterns: self.patterns.len(),
            weaknesses: self.weaknesses.len(),
            vulnerabilities: self.vulnerabilities.len(),
            pattern_weakness_links: self
                .patterns
                .values()
                .map(|p| p.related_weaknesses().len())
                .sum(),
            vulnerability_weakness_links: self
                .vulnerabilities
                .values()
                .map(|v| v.weaknesses().len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Abstraction;

    fn small() -> Corpus {
        let mut c = Corpus::new();
        c.add_weakness(Weakness::new(
            CweId::new(78),
            "OS Command Injection",
            "shell injection",
        ))
        .unwrap();
        c.add_weakness(Weakness::new(
            CweId::new(20),
            "Improper Input Validation",
            "no checks",
        ))
        .unwrap();
        c.add_pattern(
            AttackPattern::new(
                CapecId::new(88),
                "OS Command Injection",
                "inject",
                Abstraction::Standard,
            )
            .with_weakness(CweId::new(78))
            .with_weakness(CweId::new(20)),
        )
        .unwrap();
        c.add_vulnerability(
            Vulnerability::new(CveId::new(2018, 101), "asa rce")
                .with_weakness(CweId::new(78))
                .with_cvss(
                    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
                        .parse()
                        .unwrap(),
                ),
        )
        .unwrap();
        c
    }

    #[test]
    fn duplicate_ids_are_rejected_per_family() {
        let mut c = small();
        assert!(matches!(
            c.add_weakness(Weakness::new(CweId::new(78), "again", "x")),
            Err(AttackDbError::DuplicateRecord(_))
        ));
        assert!(matches!(
            c.add_pattern(AttackPattern::new(
                CapecId::new(88),
                "again",
                "x",
                Abstraction::Meta
            )),
            Err(AttackDbError::DuplicateRecord(_))
        ));
        assert!(matches!(
            c.add_vulnerability(Vulnerability::new(CveId::new(2018, 101), "again")),
            Err(AttackDbError::DuplicateRecord(_))
        ));
    }

    #[test]
    fn reverse_links_are_maintained() {
        let c = small();
        assert_eq!(
            c.patterns_for_weakness(CweId::new(78)),
            vec![CapecId::new(88)]
        );
        assert_eq!(
            c.patterns_for_weakness(CweId::new(20)),
            vec![CapecId::new(88)]
        );
        assert_eq!(
            c.vulnerabilities_for_weakness(CweId::new(78)),
            vec![CveId::new(2018, 101)]
        );
        assert!(c.vulnerabilities_for_weakness(CweId::new(20)).is_empty());
    }

    #[test]
    fn forward_links_read_from_records() {
        let c = small();
        assert_eq!(
            c.weaknesses_for_pattern(CapecId::new(88)),
            vec![CweId::new(78), CweId::new(20)]
        );
        assert_eq!(
            c.weaknesses_for_vulnerability(CveId::new(2018, 101)),
            vec![CweId::new(78)]
        );
        assert!(c.weaknesses_for_pattern(CapecId::new(999)).is_empty());
    }

    #[test]
    fn stats_count_links() {
        let s = small().stats();
        assert_eq!(s.patterns, 1);
        assert_eq!(s.weaknesses, 2);
        assert_eq!(s.vulnerabilities, 1);
        assert_eq!(s.pattern_weakness_links, 2);
        assert_eq!(s.vulnerability_weakness_links, 1);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn dangling_references_are_reported_not_rejected() {
        let mut c = Corpus::new();
        c.add_pattern(
            AttackPattern::new(CapecId::new(1), "p", "d", Abstraction::Meta)
                .with_weakness(CweId::new(999)),
        )
        .unwrap();
        let dangling = c.dangling_references();
        assert_eq!(dangling.len(), 1);
        assert!(matches!(
            &dangling[0],
            AttackDbError::DanglingReference { .. }
        ));
        assert!(small().dangling_references().is_empty());
    }

    #[test]
    fn severity_filter_uses_cvss() {
        let c = small();
        assert_eq!(c.vulnerabilities_at_severity(Severity::Critical).len(), 1);
        assert_eq!(c.vulnerabilities_at_severity(Severity::Low).len(), 1);
    }

    #[test]
    fn abstraction_filter() {
        let c = small();
        assert_eq!(c.patterns_at(Abstraction::Standard).len(), 1);
        assert!(c.patterns_at(Abstraction::Meta).is_empty());
    }

    #[test]
    fn merge_combines_and_rejects_collisions() {
        let mut a = Corpus::new();
        a.add_weakness(Weakness::new(CweId::new(1), "w1", "d"))
            .unwrap();
        let mut b = Corpus::new();
        b.add_weakness(Weakness::new(CweId::new(2), "w2", "d"))
            .unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.stats().weaknesses, 2);

        let mut c = Corpus::new();
        c.add_weakness(Weakness::new(CweId::new(1), "w1 again", "d"))
            .unwrap();
        assert!(a.merge(c).is_err());
    }

    #[test]
    fn equality_and_debug_ignore_the_severity_table() {
        let built = small();
        let fresh = small();
        assert!(built
            .severities()
            .get(CveId::new(2018, 101).into())
            .is_some());
        assert!(built.severities.is_built());
        assert!(!fresh.severities.is_built());
        assert_eq!(built, fresh);
        assert_eq!(format!("{built:?}"), format!("{fresh:?}"));
        // A clone compares equal and starts without a table.
        let clone = built.clone();
        assert!(!clone.severities.is_built());
        assert_eq!(clone, built);
    }

    #[test]
    fn every_insert_drops_the_severity_table() {
        let mut c = small();
        let _ = c.severities();
        c.add_weakness(Weakness::new(CweId::new(1), "w", "d"))
            .unwrap();
        assert!(!c.severities.is_built());
        let _ = c.severities();
        c.add_pattern(AttackPattern::new(
            CapecId::new(1),
            "p",
            "d",
            Abstraction::Meta,
        ))
        .unwrap();
        assert!(!c.severities.is_built());
        let _ = c.severities();
        c.add_vulnerability(Vulnerability::new(CveId::new(2019, 1), "v"))
            .unwrap();
        assert!(!c.severities.is_built());
        let _ = c.severities();
        let mut batch = Corpus::new();
        batch
            .add_pattern(
                AttackPattern::new(CapecId::new(2), "p", "d", Abstraction::Meta)
                    .with_severity(Severity::Low),
            )
            .unwrap();
        c.merge(batch).unwrap();
        assert!(!c.severities.is_built());
        assert_eq!(
            c.severities().get(CapecId::new(2).into()),
            Some(RecordSeverity::Band(Severity::Low))
        );
    }

    #[test]
    fn contains_discriminates_families() {
        let c = small();
        assert!(c.contains(CweId::new(78).into()));
        assert!(c.contains(CapecId::new(88).into()));
        assert!(c.contains(CveId::new(2018, 101).into()));
        assert!(!c.contains(CweId::new(1234).into()));
    }
}
