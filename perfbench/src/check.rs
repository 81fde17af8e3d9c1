//! Output check: a run's logs against reference logs produced once per
//! seed by a second program path.

use broscript::pipeline::{AnalysisResult, FlowError};

/// Everything a run outputs that must not change: the three log streams,
/// printed script output, and the quarantine ledger (uid and error kind).
/// Counters and wall-clock data are not part of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Logs {
    pub lines: Vec<String>,
}

impl Logs {
    pub fn new(
        http: &[String],
        files: &[String],
        dns: &[String],
        output: &[String],
        flow_errors: &[FlowError],
    ) -> Logs {
        let mut lines = Vec::new();
        for (stream, src) in [
            ("http.log", http),
            ("files.log", files),
            ("dns.log", dns),
            ("print", output),
        ] {
            lines.extend(src.iter().map(|l| format!("{stream}\t{l}")));
        }
        lines.extend(
            flow_errors
                .iter()
                .map(|fe| format!("quarantine\t{}\t{}", fe.uid, fe.kind)),
        );
        Logs { lines }
    }

    pub fn of(r: &AnalysisResult) -> Logs {
        Logs::new(
            &r.http_log,
            &r.files_log,
            &r.dns_log,
            &r.output,
            &r.flow_errors,
        )
    }

    /// The first line where `self` departs from `reference`, if any.
    pub fn mismatch(&self, reference: &Logs) -> Option<String> {
        let n = self.lines.len().max(reference.lines.len());
        (0..n).find_map(|i| {
            let (got, want) = (self.lines.get(i), reference.lines.get(i));
            (got != want).then(|| format!("line {i}: got {got:?}, want {want:?}"))
        })
    }
}

/// Proves the check is live: the same logs with one line corrupted must
/// be reported as a mismatch, and the untouched logs must not be.
pub fn self_test(reference: &Logs) -> bool {
    if reference.lines.is_empty() || reference.mismatch(reference).is_some() {
        return false;
    }
    let mut corrupted = reference.clone();
    let mid = corrupted.lines.len() / 2;
    corrupted.lines[mid].push('X');
    corrupted.mismatch(reference).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logs(lines: &[&str]) -> Logs {
        let v: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        Logs::new(&v, &[], &[], &[], &[])
    }

    #[test]
    fn corrupted_line_trips_the_check() {
        let reference = logs(&["a\tb", "c\td", "e\tf"]);
        assert!(self_test(&reference));
        let mut bad = reference.clone();
        bad.lines[1] = "http.log\tc\tD".into();
        assert!(bad.mismatch(&reference).unwrap().starts_with("line 1"));
        assert_eq!(reference.mismatch(&reference.clone()), None);
    }

    #[test]
    fn missing_and_extra_lines_trip_the_check() {
        let reference = logs(&["a", "b"]);
        assert!(logs(&["a"]).mismatch(&reference).is_some());
        assert!(logs(&["a", "b", "c"]).mismatch(&reference).is_some());
    }

    #[test]
    fn empty_reference_fails_the_self_test() {
        assert!(!self_test(&logs(&[])));
    }
}
