#![warn(missing_docs)]
//! # gml-apps — the paper's three benchmark applications
//!
//! Linear Regression (CG), Logistic Regression (batch gradient descent) and
//! PageRank, each in two forms:
//!
//! * a **non-resilient** implementation (`make` + `iterate_once` +
//!   `run_simple`) written exactly as a GML user would write it — this is
//!   what Figs 2–4 time under non-resilient vs resilient runtimes;
//! * a **resilient** wrapper implementing
//!   [`ResilientIterativeApp`](gml_core::ResilientIterativeApp), adding only
//!   a `state()` declaration of its GML objects (and, for LinReg, an
//!   `after_restore`) from which the framework derives `checkpoint` and
//!   `restore` — the paper's Table II counts exactly these lines to show the
//!   programming effort is minimal.
//!
//! The `TABLE2` marker comments delimit the regions the Table II harness
//! counts; they follow the paper's methodology (total, checkpoint-method and
//! restore-method lines of code).

pub mod gnmf;
pub mod linreg;
pub mod logreg;
pub mod pagerank;
pub mod reference;

pub use gnmf::{Gnmf, GnmfConfig, ResilientGnmf};
pub use linreg::{LinReg, LinRegConfig, ResilientLinReg};
pub use logreg::{LogReg, LogRegConfig, ResilientLogReg};
pub use pagerank::{PageRank, PageRankConfig, ResilientPageRank};

/// The numeric sigmoid used by logistic regression.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }
}
