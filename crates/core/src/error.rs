//! Error type of the end-to-end pipeline.

use std::fmt;

/// Errors surfaced by the imager, stream container and decoder.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration value is outside its valid range.
    InvalidConfig(String),
    /// Wire bytes could not be parsed into a frame.
    MalformedFrame(String),
    /// The decoder configuration does not match the frame header.
    FrameMismatch(String),
    /// Sparse recovery failed.
    Recovery(String),
    /// The solver broke down numerically (a non-finite iterate or
    /// residual). A decode session loses only the tile or frame it hit.
    Breakdown(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::MalformedFrame(msg) => write!(f, "malformed frame: {msg}"),
            CoreError::FrameMismatch(msg) => write!(f, "frame mismatch: {msg}"),
            CoreError::Recovery(msg) | CoreError::Breakdown(msg) => {
                write!(f, "recovery failed: {msg}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<tepics_recovery::RecoveryError> for CoreError {
    fn from(e: tepics_recovery::RecoveryError) -> Self {
        match e {
            tepics_recovery::RecoveryError::Breakdown(_) => CoreError::Breakdown(e.to_string()),
            _ => CoreError::Recovery(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::MalformedFrame("truncated".into());
        assert!(e.to_string().contains("truncated"));
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(!boxed.to_string().is_empty());
    }
}
