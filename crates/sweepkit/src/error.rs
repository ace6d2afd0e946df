//! Unified error type for deck-driven runs.

use std::fmt;

/// Errors from deck loading, analysis runs, and the sweep executor.
///
/// Every per-crate error converts in via `From`, so deck-driven code
/// composes with `?` across the whole solver stack.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// Deck parsing or instantiation failed.
    Netlist(circuitdae::NetlistError),
    /// The transient baseline failed.
    Transim(transim::TransimError),
    /// The shooting solver failed.
    Shooting(shooting::ShootingError),
    /// The WaMPDE or MPDE envelope solver failed.
    Wampde(wampde::WampdeError),
    /// A sweep job failed, tagged with its grid point and analysis.
    Job {
        /// Grid point index (row-major over the sweep directives).
        point: usize,
        /// Analysis label, e.g. `wampde0`.
        analysis: String,
        /// The underlying failure.
        cause: Box<SweepError>,
    },
    /// Invalid configuration.
    BadInput(String),
    /// An I/O failure on a result stream, cache, or shard artifact.
    Io(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Netlist(e) => write!(f, "deck: {e}"),
            SweepError::Transim(e) => write!(f, "tran: {e}"),
            SweepError::Shooting(e) => write!(f, "shooting: {e}"),
            SweepError::Wampde(e) => write!(f, "wampde: {e}"),
            SweepError::Job {
                point,
                analysis,
                cause,
            } => write!(f, "sweep point {point}, analysis {analysis}: {cause}"),
            SweepError::BadInput(msg) => write!(f, "bad input: {msg}"),
            SweepError::Io(msg) => write!(f, "i/o: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Netlist(e) => Some(e),
            SweepError::Transim(e) => Some(e),
            SweepError::Shooting(e) => Some(e),
            SweepError::Wampde(e) => Some(e),
            SweepError::Job { cause, .. } => Some(cause),
            SweepError::BadInput(_) | SweepError::Io(_) => None,
        }
    }
}

impl From<circuitdae::NetlistError> for SweepError {
    fn from(e: circuitdae::NetlistError) -> Self {
        SweepError::Netlist(e)
    }
}

impl From<transim::TransimError> for SweepError {
    fn from(e: transim::TransimError) -> Self {
        SweepError::Transim(e)
    }
}

impl From<shooting::ShootingError> for SweepError {
    fn from(e: shooting::ShootingError) -> Self {
        SweepError::Shooting(e)
    }
}

impl From<wampde::WampdeError> for SweepError {
    fn from(e: wampde::WampdeError) -> Self {
        SweepError::Wampde(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source_chain() {
        let inner: SweepError = wampde::WampdeError::BadInput("x".into()).into();
        let job = SweepError::Job {
            point: 3,
            analysis: "wampde0".into(),
            cause: Box::new(inner),
        };
        assert!(job.to_string().contains("point 3"));
        assert!(job.source().is_some());
        assert!(job.source().unwrap().source().is_some());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SweepError>();
    }
}
