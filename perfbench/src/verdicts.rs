//! Recorded proof verdicts and the monotone rule campaigns are checked by.
//!
//! A reference file holds one line per proof-stage fault, `<design> <index>
//! <P|T|A>` (universe index; proven untestable, test exists, aborted), with
//! `#` comments. It is recorded by proving every fault individually, so it
//! covers any sample of the worklist a campaign draws.
//!
//! The monotone rule: every reference-proven fault stays proven, every
//! reference test stays a test, and new conclusions come only from
//! reference aborts. A proof engine that concludes more of the tail passes;
//! one that loses or flips a verdict fails.

use std::collections::HashMap;
use std::fmt::Write as _;

/// A proof-stage verdict for one fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Proven untestable under the mission constraints.
    Proven,
    /// A mission-mode test exists.
    TestExists,
    /// No engine concluded within its budget.
    Aborted,
}

impl Verdict {
    fn code(self) -> char {
        match self {
            Verdict::Proven => 'P',
            Verdict::TestExists => 'T',
            Verdict::Aborted => 'A',
        }
    }

    fn from_code(code: &str) -> Option<Self> {
        match code {
            "P" => Some(Verdict::Proven),
            "T" => Some(Verdict::TestExists),
            "A" => Some(Verdict::Aborted),
            _ => None,
        }
    }
}

/// Reference verdicts keyed by design name and universe index.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    designs: HashMap<String, HashMap<usize, Verdict>>,
}

impl Reference {
    /// Parses a reference file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut reference = Reference::default();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                [design, index, code] => index
                    .parse::<usize>()
                    .ok()
                    .zip(Verdict::from_code(code))
                    .map(|(index, verdict)| (*design, index, verdict)),
                _ => None,
            };
            let (design, index, verdict) =
                parsed.ok_or_else(|| format!("reference line {}: `{line}`", number + 1))?;
            reference.insert(design, index, verdict);
        }
        Ok(reference)
    }

    /// Records one verdict.
    pub fn insert(&mut self, design: &str, index: usize, verdict: Verdict) {
        self.designs
            .entry(design.to_string())
            .or_default()
            .insert(index, verdict);
    }

    /// The recorded verdict of one fault.
    pub fn get(&self, design: &str, index: usize) -> Option<Verdict> {
        self.designs.get(design)?.get(&index).copied()
    }

    /// The universe indices recorded for one design, ascending.
    pub fn indices(&self, design: &str) -> Vec<usize> {
        let mut indices: Vec<usize> = self
            .designs
            .get(design)
            .map(|d| d.keys().copied().collect())
            .unwrap_or_default();
        indices.sort_unstable();
        indices
    }

    /// Renders the reference in the file format, designs and indices sorted.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            let _ = writeln!(out, "# {line}");
        }
        let mut designs: Vec<&String> = self.designs.keys().collect();
        designs.sort();
        for design in designs {
            let mut entries: Vec<(&usize, &Verdict)> = self.designs[design].iter().collect();
            entries.sort_by_key(|&(index, _)| *index);
            for (index, verdict) in entries {
                let _ = writeln!(out, "{design} {index} {}", verdict.code());
            }
        }
        out
    }

    /// Checks per-fault verdicts against the monotone rule.
    pub fn check_verdicts(
        &self,
        design: &str,
        observed: &[(usize, Verdict)],
    ) -> Result<(), String> {
        for &(index, verdict) in observed {
            let recorded = self
                .get(design, index)
                .ok_or_else(|| format!("{design}: fault {index} has no reference verdict"))?;
            if recorded != Verdict::Aborted && verdict != recorded {
                return Err(format!(
                    "{design}: fault {index} was {recorded:?} in the reference, now {verdict:?}"
                ));
            }
        }
        Ok(())
    }

    /// Checks a campaign known only by its proven set and its test count
    /// (what the flow's fault list and engine breakdown expose): every
    /// reference proof among `attempted` is in `proven`, every member of
    /// `proven` was proven or aborted in the reference, and the test count
    /// is no lower than the reference's.
    pub fn check_campaign(
        &self,
        design: &str,
        attempted: &[usize],
        proven: &[usize],
        test_exists: usize,
    ) -> Result<(), String> {
        let mut reference_tests = 0usize;
        let mut is_proven: HashMap<usize, bool> = attempted.iter().map(|&i| (i, false)).collect();
        for &index in proven {
            match is_proven.get_mut(&index) {
                Some(flag) => *flag = true,
                None => {
                    return Err(format!(
                        "{design}: fault {index} proven but never attempted"
                    ))
                }
            }
        }
        let mut observed = Vec::with_capacity(attempted.len());
        for &index in attempted {
            let recorded = self
                .get(design, index)
                .ok_or_else(|| format!("{design}: fault {index} has no reference verdict"))?;
            if recorded == Verdict::TestExists {
                reference_tests += 1;
            }
            if is_proven[&index] {
                observed.push((index, Verdict::Proven));
            } else if recorded == Verdict::Proven {
                return Err(format!(
                    "{design}: reference-proven fault {index} is no longer proven"
                ));
            }
        }
        self.check_verdicts(design, &observed)?;
        if test_exists < reference_tests {
            return Err(format!(
                "{design}: {test_exists} faults shown testable, reference {reference_tests}"
            ));
        }
        Ok(())
    }
}

/// Writes a reference file.
pub fn write_reference(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("perfbench: wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        Reference::parse("# test\nd 1 P\nd 2 T\nd 3 A\nd 4 A\n").unwrap()
    }

    #[test]
    fn parse_and_render_round_trip() {
        let parsed = reference();
        assert_eq!(parsed.get("d", 1), Some(Verdict::Proven));
        assert_eq!(parsed.get("d", 9), None);
        let again = Reference::parse(&parsed.render("header")).unwrap();
        assert_eq!(again.get("d", 3), Some(Verdict::Aborted));
        assert!(Reference::parse("d x P").is_err());
        assert!(Reference::parse("d 1 Q").is_err());
    }

    #[test]
    fn aborts_may_become_conclusions() {
        let r = reference();
        let observed = [
            (1, Verdict::Proven),
            (2, Verdict::TestExists),
            (3, Verdict::Proven),
            (4, Verdict::TestExists),
        ];
        assert_eq!(r.check_verdicts("d", &observed), Ok(()));
        assert_eq!(r.check_campaign("d", &[1, 2, 3, 4], &[1, 3], 2), Ok(()));
        assert_eq!(r.check_campaign("d", &[1, 2, 3], &[1], 1), Ok(()));
    }

    #[test]
    fn lost_or_flipped_verdicts_are_rejected() {
        let r = reference();
        // Proven -> aborted (missing from the proven set).
        assert!(r.check_verdicts("d", &[(1, Verdict::Aborted)]).is_err());
        assert!(r.check_campaign("d", &[1, 2], &[], 1).is_err());
        // Test -> proven.
        assert!(r.check_verdicts("d", &[(2, Verdict::Proven)]).is_err());
        assert!(r.check_campaign("d", &[1, 2], &[1, 2], 0).is_err());
        // Fewer tests than the reference.
        assert!(r.check_campaign("d", &[1, 2], &[1], 0).is_err());
        // Unknown or unattempted faults.
        assert!(r.check_verdicts("d", &[(9, Verdict::Proven)]).is_err());
        assert!(r.check_campaign("d", &[1], &[1, 3], 0).is_err());
    }
}
