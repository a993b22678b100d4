/// Three-valued verdict of a monitor over a trace prefix.
///
/// Once a monitor returns [`Verdict::Accepted`] or [`Verdict::Rejected`] the
/// verdict is final; the simulator stops extending the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The property holds on every extension of the prefix (`z(ω) = 1`).
    Accepted,
    /// The property fails on every extension of the prefix (`z(ω) = 0`).
    Rejected,
    /// More observations are needed.
    Undecided,
}

impl Verdict {
    /// Returns `true` if the verdict is final (accepted or rejected).
    pub fn is_decided(&self) -> bool {
        !matches!(self, Verdict::Undecided)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            Verdict::Accepted => "accepted",
            Verdict::Rejected => "rejected",
            Verdict::Undecided => "undecided",
        };
        f.write_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decidedness() {
        assert!(Verdict::Accepted.is_decided());
        assert!(Verdict::Rejected.is_decided());
        assert!(!Verdict::Undecided.is_decided());
    }

    #[test]
    fn display_names() {
        assert_eq!(Verdict::Accepted.to_string(), "accepted");
        assert_eq!(Verdict::Undecided.to_string(), "undecided");
    }
}
