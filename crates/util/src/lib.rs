//! Shared utilities for the blindfl-rs workspace.
//!
//! Small, dependency-light helpers used across the crypto, tensor and
//! benchmark crates: the bounded byte codec every wire and file format
//! decodes through, a pooled parallel map, a stopwatch, summary
//! statistics, and a fixed-width table printer for the experiment
//! harnesses.

pub mod codec;
pub mod par;
pub mod stats;
pub mod table;
pub mod time;

pub use par::{par_for_each_mut, par_for_each_mut_min, par_map, par_map_min};
pub use stats::{mean, mean_std, std_dev};
pub use table::Table;
pub use time::Stopwatch;
