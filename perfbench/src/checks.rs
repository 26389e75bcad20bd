//! Correctness checks on the program's outputs. Every checked operation
//! counts toward `attempted`, every wrong one toward `failed`; a failing
//! check never aborts the run, it is counted and its first few
//! descriptions are kept for the report.

const KEPT: usize = 8;

#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    first: Vec<String>,
}

impl Checks {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count `attempted` checked operations of which `failed` failed.
    pub fn record(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed - 1;
            self.fail(format!("{} ({failed} of {attempted})", what()));
        }
    }

    /// Count an operation that returned an error.
    pub fn result<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Compare two answer vectors element by element, bit for bit.
    pub fn equal<T: PartialEq>(&mut self, got: &[T], want: &[T], what: &str) {
        let wrong =
            got.iter().zip(want).filter(|(g, w)| g != w).count() + got.len().abs_diff(want.len());
        self.record(want.len().max(got.len()) as u64, wrong as u64, || {
            what.to_owned()
        });
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first.len() < KEPT {
            self.first.push(what);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed checks over attempted ones (0 when nothing was checked).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_frac_counts_failures_over_attempts() {
        let mut c = Checks::default();
        assert_eq!(c.fail_frac(), 0.0);
        c.check(true, || unreachable!());
        c.check(false, || "first".into());
        c.record(8, 0, || unreachable!());
        c.record(10, 3, || "batch".into());
        assert_eq!(c.attempted(), 20);
        assert_eq!(c.failed(), 4);
        assert_eq!(c.fail_frac(), 0.2);
        assert_eq!(c.failures(), ["first", "batch (3 of 10)"]);
    }

    #[test]
    fn errors_and_mismatches_are_counted_not_raised() {
        let mut c = Checks::default();
        assert_eq!(c.result::<u8, _>(Err("disk gone"), "load"), None);
        assert_eq!(c.result::<u8, &str>(Ok(7), "load"), Some(7));
        c.equal(&[1, 2, 3], &[1, 9, 3], "replay");
        // A short answer counts its missing elements as wrong.
        c.equal(&[1], &[1, 2], "short");
        assert_eq!(c.attempted(), 2 + 3 + 2);
        assert_eq!(c.failed(), 1 + 1 + 1);
        assert!(c.failures()[0].starts_with("load: disk gone"));
    }
}
