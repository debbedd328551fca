//! Full-scale, per-layer benchmark of the Across-FTL reproduction. See
//! `README.md` beside this package for what is measured and why.
//!
//! Everything here drives the repo's crates from outside, through their
//! public functions; nothing under `crates/` knows this package exists.

pub mod compare;
pub mod drivers;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod micro;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod verify;
pub mod workloads;
