//! Attack outcome accounting shared by every adversary module.

/// The result of running one attack scenario many times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttackOutcome {
    /// Attack attempts made.
    pub attempts: u64,
    /// Attempts that achieved the adversary's goal.
    pub successes: u64,
}

impl AttackOutcome {
    /// Creates a zeroed outcome.
    pub const fn new() -> Self {
        AttackOutcome { attempts: 0, successes: 0 }
    }

    /// Records one attempt.
    pub fn record(&mut self, success: bool) {
        self.attempts += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Success rate in `[0, 1]` (0 when no attempts).
    pub fn rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }
}

impl std::fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} ({:.1}%)", self.successes, self.attempts, self.rate() * 100.0)
    }
}

/// Whether the relevant defense stack is enabled for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// Defenses off: the undefended baseline.
    Off,
    /// Defenses on: the full protocol stack.
    On,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_computation() {
        let mut o = AttackOutcome::new();
        assert_eq!(o.rate(), 0.0);
        o.record(true);
        o.record(false);
        o.record(true);
        assert!((o.rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(o.to_string(), "2/3 (66.7%)");
    }
}
