//! # mura-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V) at
//! laptop scale:
//!
//! | paper artifact | harness entry |
//! |----------------|---------------|
//! | Table I (datasets + TC sizes)        | `repro table1`, bench `table1_tc` |
//! | Fig. 5/6 (query classes)             | `repro classes` |
//! | Fig. 7 (P_plw implementations)       | `repro fig7`, bench `fig7_plw_impls` |
//! | Fig. 8 (Uniprot scalability)         | `repro fig8`, bench `fig8_scalability` |
//! | Fig. 9 (Yago, all systems)           | `repro fig9`, bench `fig9_yago` |
//! | Fig. 10 (concatenated closures)      | `repro fig10`, bench `fig10_concat` |
//! | Fig. 11 (μ-RA queries)               | `repro fig11`, bench `fig11_mura_queries` |
//! | Fig. 12 (Myria, same generation)     | `repro fig12`, bench `fig12_myria_sg` |
//! | Fig. 13 (Uniprot, all systems)       | `repro fig13`, bench `fig13_uniprot` |
//! | Fig. 14 (Myria, Uniprot)             | `repro fig14`, bench `fig14_myria_uniprot` |
//! | §V-E communication claims            | `repro comm`, bench `ablation_comm` |
//! | §III rewrite rules                   | bench `ablation_rewrites` |
//!
//! Run everything: `cargo run --release -p mura-bench --bin repro`.
//!
//! Graph sizes are scaled down (documented per dataset in [`datasets`]);
//! the reproduction target is the *shape* of each figure — which system
//! wins, by roughly what factor, where failures start — not absolute
//! seconds.

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod systems;

pub use datasets::*;
pub use experiments::*;
pub use report::*;
pub use systems::*;
