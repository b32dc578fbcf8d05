//! Prints the paper's tables and figures: `repro <name>` for one of them,
//! `repro all` (or no argument) for every one in the order below.
//! Set REPRO_QUICK=1 for a fast pass.
use mura_bench::*;

/// Name on the command line, banner, and the experiment behind it.
type Artifact = (&'static str, &'static str, fn(Scale) -> Table);

const ARTIFACTS: [Artifact; 12] = [
    ("table1", "Table I — real and synthetic graphs (scaled)", table1),
    ("classes", "Figs. 5/6 — query classification C1..C6", |_| class_matrix()),
    ("fig7", "Fig. 7 — P_plw implementations on Yago (scaled)", fig7),
    ("fig9", "Fig. 9 — Yago suite across systems (scaled; paper timeout 1000s)", fig9),
    ("fig10", "Fig. 10 — concatenated closures (all C6)", fig10),
    ("fig11", "Fig. 11 — mu-RA queries (C1)", fig11),
    ("fig12", "Fig. 12 — same generation vs Myria", fig12),
    ("fig13", "Fig. 13 — Uniprot suite across systems (scaled uniprot_1M)", fig13),
    ("fig14", "Fig. 14 — Myria comparison (scaled uniprot_100k)", fig14),
    ("fig8", "Fig. 8 — Uniprot scalability sweep (scaled 1M/5M/10M)", fig8),
    ("comm", "Communication ablation — P_plw vs P_gld per class", comm_ablation),
    ("rewrites", "Rewrite ablation — the rewriter on vs off (C2, Yago 400)", |_| rewrites()),
];

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let chosen: Vec<_> =
        ARTIFACTS.iter().filter(|(name, ..)| wanted == "all" || wanted == *name).collect();
    if chosen.is_empty() {
        let names: Vec<_> = ARTIFACTS.iter().map(|(name, ..)| *name).collect();
        eprintln!("usage: repro [all|{}]", names.join("|"));
        std::process::exit(2);
    }
    let scale = Scale::from_env();
    for (_, title, run) in chosen {
        banner(title);
        run(scale).print();
    }
}
