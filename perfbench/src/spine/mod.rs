//! The measurement spine: seeded workload generation, the speed meter,
//! order statistics and the comparison rule, and the benchmark's own span
//! recorder.

pub mod cal;
pub mod gen;
pub mod span;
pub mod stats;
