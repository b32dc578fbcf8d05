//! # mura-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V) at
//! laptop scale:
//!
//! | paper artifact | harness entry |
//! |----------------|---------------|
//! | Table I (datasets + TC sizes)        | `repro table1` |
//! | Fig. 5/6 (query classes)             | `repro classes` |
//! | Fig. 7 (P_plw implementations)       | `repro fig7` |
//! | Fig. 8 (Uniprot scalability)         | `repro fig8` |
//! | Fig. 9 (Yago, all systems)           | `repro fig9` |
//! | Fig. 10 (concatenated closures)      | `repro fig10` |
//! | Fig. 11 (μ-RA queries)               | `repro fig11` |
//! | Fig. 12 (Myria, same generation)     | `repro fig12` |
//! | Fig. 13 (Uniprot, all systems)       | `repro fig13` |
//! | Fig. 14 (Myria, Uniprot)             | `repro fig14` |
//! | §V-E communication claims            | `repro comm` |
//! | §III rewrite rules                   | `repro rewrites` |
//!
//! Run everything: `cargo run --release -p mura-bench --bin repro`.
//!
//! Graph sizes are scaled down (documented per dataset in [`datasets`]);
//! the reproduction target is the *shape* of each figure — which system
//! wins, by roughly what factor, where failures start — not absolute
//! seconds.

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod systems;

pub use datasets::*;
pub use experiments::*;
pub use report::*;
pub use systems::*;
