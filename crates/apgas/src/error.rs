//! Error and exception types for the APGAS runtime.
//!
//! The key type is [`DeadPlaceException`], the Rust analogue of X10's
//! `x10.lang.DeadPlaceException`: it is raised whenever an operation touches
//! a place that has failed, and it is what the paper's resilient iterative
//! executor catches to trigger a restore.

use std::fmt;

use crate::place::Place;

/// Raised when an operation involves a place that has failed (fail-stop).
#[derive(Clone, PartialEq, Eq)]
pub struct DeadPlaceException {
    /// The place whose death was observed.
    pub place: Place,
    /// Human-readable description of the operation that observed the death.
    pub context: String,
}

impl DeadPlaceException {
    /// Create a new exception for `place` observed during `context`.
    pub fn new(place: Place, context: impl Into<String>) -> Self {
        Self { place, context: context.into() }
    }
}

impl fmt::Debug for DeadPlaceException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeadPlaceException(place {}: {})", self.place.id(), self.context)
    }
}

impl fmt::Display for DeadPlaceException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "place {} is dead ({})", self.place.id(), self.context)
    }
}

impl std::error::Error for DeadPlaceException {}

/// Top-level error type for runtime operations.
#[derive(Clone, Debug)]
pub enum ApgasError {
    /// One or more places died while the operation depended on them.
    DeadPlace(DeadPlaceException),
    /// Several failures were collected by an enclosing `finish`.
    Multiple(Vec<DeadPlaceException>),
    /// A task panicked; the panic message is preserved.
    TaskPanic(String),
    /// Place-local storage was missing at the executing place (e.g. it was
    /// wiped by a failure, or the handle was never initialised there).
    /// None
    MissingPlaceLocal {
        /// The place whose storage was missing.
        place: Place,
        /// What was being looked up.
        what: String,
    },
    /// The requested operation is not permitted (e.g. killing place zero, or
    /// killing a place under a non-resilient runtime).
    Unsupported(String),
}

impl ApgasError {
    /// All dead places implicated in this error, if any.
    pub fn dead_places(&self) -> Vec<Place> {
        match self {
            ApgasError::DeadPlace(d) => vec![d.place],
            ApgasError::Multiple(ds) => ds.iter().map(|d| d.place).collect(),
            _ => Vec::new(),
        }
    }

    /// True if the error is caused by one or more place failures; these are
    /// the errors a resilient application can recover from.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, ApgasError::DeadPlace(_) | ApgasError::Multiple(_))
    }

    /// Merge a batch of dead-place exceptions into a single error.
    pub fn from_exceptions(mut excs: Vec<DeadPlaceException>) -> Option<Self> {
        match excs.len() {
            0 => None,
            1 => Some(ApgasError::DeadPlace(excs.pop().expect("len checked"))),
            _ => Some(ApgasError::Multiple(excs)),
        }
    }
}

impl fmt::Display for ApgasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApgasError::DeadPlace(d) => write!(f, "{d}"),
            ApgasError::Multiple(ds) => {
                write!(f, "{} dead-place exception(s): ", ds.len())?;
                for (i, d) in ds.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            ApgasError::TaskPanic(msg) => write!(f, "task panicked: {msg}"),
            ApgasError::MissingPlaceLocal { place, what } => {
                write!(f, "missing place-local data at place {}: {what}", place.id())
            }
            ApgasError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
        }
    }
}

impl std::error::Error for ApgasError {}

impl From<DeadPlaceException> for ApgasError {
    fn from(d: DeadPlaceException) -> Self {
        ApgasError::DeadPlace(d)
    }
}

/// Result alias used throughout the runtime.
pub type Result<T> = std::result::Result<T, ApgasError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_zero_one_many() {
        assert!(ApgasError::from_exceptions(vec![]).is_none());
        let one = ApgasError::from_exceptions(vec![DeadPlaceException::new(Place::new(3), "x")])
            .expect("one exception");
        assert!(matches!(one, ApgasError::DeadPlace(_)));
        assert_eq!(one.dead_places(), vec![Place::new(3)]);
        let many = ApgasError::from_exceptions(vec![
            DeadPlaceException::new(Place::new(1), "a"),
            DeadPlaceException::new(Place::new(2), "b"),
        ])
        .expect("two exceptions");
        assert!(matches!(many, ApgasError::Multiple(_)));
        assert_eq!(many.dead_places(), vec![Place::new(1), Place::new(2)]);
    }

    #[test]
    fn recoverability() {
        let dpe = ApgasError::DeadPlace(DeadPlaceException::new(Place::new(1), "at"));
        assert!(dpe.is_recoverable());
        assert!(!ApgasError::TaskPanic("boom".into()).is_recoverable());
        assert!(!ApgasError::Unsupported("no".into()).is_recoverable());
    }

    #[test]
    fn display_formats() {
        let d = DeadPlaceException::new(Place::new(7), "broadcast");
        assert!(format!("{d}").contains("place 7"));
        let e = ApgasError::Multiple(vec![d.clone(), d]);
        assert!(format!("{e}").starts_with("2 dead-place"));
    }
}
