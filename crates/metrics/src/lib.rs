//! # swf-metrics
//!
//! Measurement toolkit for the reproduction's experiment harness: summary
//! statistics and percentiles, ordinary least-squares regression (the
//! paper's slope analysis in Figs. 1 and 2), ternary mix grids for Fig. 5,
//! uniform table/JSON report rendering, and benchmark-run comparison
//! (the drift / regression / improvement gate behind `suite compare`).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod compare;
pub mod regression;
pub mod report;
pub mod stats;
pub mod ternary;

pub use compare::{compare, CompareReport, Delta, DeltaClass};
pub use regression::{fit, Line};
pub use report::Table;
pub use stats::{percentile, Summary};
pub use ternary::{fig6_mixes, simplex_grid, MixPoint};
