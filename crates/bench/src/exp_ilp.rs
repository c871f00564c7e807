//! Experiments E3–E6 and E10 — the packing/covering solvers, the GKM17
//! round-complexity comparison, and the ablations.
//!
//! Every table is produced by `dapc-runtime`: each experiment builds a
//! [`Corpus`] (instances × backends × ε grid × seed range), streams it
//! through [`solve_many_streaming_with_cache`], and renders rows from the
//! returned [`GroupSummary`] aggregation — including the worst-seed phase
//! counters ([`dapc_runtime::GroupStats`]), so no table needs the per-job
//! result vector.

use crate::table::{f3, Table};
use dapc_core::engine::SolveConfig;
use dapc_core::params::ScaleKnobs;
use dapc_graph::{gen, Graph};
use dapc_ilp::problems;
use dapc_runtime::{
    solve_many_streaming_with_cache, Corpus, GroupSummary, PrepCache, RuntimeConfig, StreamReport,
};

/// Streams `corpus` through a fresh prep cache. `optima` off skips the
/// per-instance reference solves — for corpora whose optimum is known
/// analytically (the experiment computes those ratio columns itself).
fn solve(corpus: &Corpus, rt: &RuntimeConfig, optima: bool) -> StreamReport {
    let rt = rt.clone().reference_optima(rt.reference_optima && optima);
    solve_many_streaming_with_cache(corpus, &rt, &PrepCache::new(), |_r| {})
}

fn opt_cell(g: &GroupSummary) -> String {
    match g.opt {
        // Mark budget-limited (unproven) reference optima.
        Some(o) if g.opt_exact => o.to_string(),
        Some(o) => format!("{o}*"),
        None => "-".into(),
    }
}

/// One packing row: worst/mean ratio over the seed sweep of a group.
fn packing_row(t: &mut Table, g: &GroupSummary) {
    assert!(g.feasible, "{}: infeasible seed", g.instance);
    t.row(vec![
        g.instance.clone(),
        g.vars.to_string(),
        format!("{}", g.eps),
        opt_cell(g),
        f3(g.min_ratio.unwrap_or(f64::NAN)),
        f3(g.mean_ratio.unwrap_or(f64::NAN)),
        g.meets_guarantee().to_string(),
        g.rounds_last.to_string(),
    ]);
}

/// E3 (Theorem 1.2): (1 − ε)-approximate MIS across families and ε.
pub fn e3(seeds: u64, rt: &RuntimeConfig) -> String {
    let families: Vec<(&str, Graph)> = vec![
        ("cycle", gen::cycle(40)),
        ("grid", gen::grid(6, 7)),
        ("gnp", gen::gnp(44, 0.07, &mut gen::seeded_rng(1))),
        ("tree", gen::random_tree(42, &mut gen::seeded_rng(2))),
        ("reg4", gen::random_regular(40, 4, &mut gen::seeded_rng(3))),
    ];
    let mut b = Corpus::builder()
        .backend("three-phase")
        .eps_grid([0.1, 0.2, 0.3])
        .seeds(0..seeds);
    for (name, g) in &families {
        b = b.instance(*name, problems::max_independent_set_unweighted(g));
    }
    let main = solve(&b.build(), rt, true);
    // A weighted and a general instance.
    let g = gen::gnp(36, 0.08, &mut gen::seeded_rng(4));
    let w: Vec<u64> = (0..36).map(|i| 1 + (i as u64 % 5)).collect();
    let corpus = Corpus::builder()
        .instance("weighted-gnp", problems::max_independent_set(&g, w))
        .instance(
            "general-ILP",
            problems::random_packing(30, 20, 3, &mut gen::seeded_rng(5)),
        )
        .backend("three-phase")
        .eps(0.2)
        .seeds(0..seeds)
        .build();
    let extra = solve(&corpus, rt, true);
    let large = solve(&e3_large_corpus(seeds.min(5)), rt, false);

    let mut t = Table::new(
        "E3 — Theorem 1.2: (1 − ε)-approximate maximum independent set",
        &[
            "family",
            "n",
            "eps",
            "OPT",
            "min ratio",
            "mean ratio",
            "≥1−ε",
            "rounds",
        ],
    );
    for g in main.groups.iter().chain(&extra.groups) {
        packing_row(&mut t, g);
    }
    let mut out = t.render();
    out.push_str(&e3_large_render(&large));
    out
}

/// E3 (large scale): cycles long enough that the carve radius sits *below*
/// the diameter, so Phases 1–3 genuinely delete and the (1 − ε) guarantee
/// is earned rather than inherited from a single whole-graph solve.
/// OPT = n/2 is known analytically; the reference solve is skipped.
fn e3_large_corpus(seeds: u64) -> Corpus {
    let mut b = Corpus::builder()
        .backend("three-phase")
        .eps_grid([0.2, 0.3])
        .seeds(0..seeds)
        .base_config(SolveConfig::new().knobs(ScaleKnobs {
            r_scale: 0.1,
            ..ScaleKnobs::default()
        }));
    for n in [1500usize, 3000] {
        b = b.instance(
            format!("cycle{n}"),
            problems::max_independent_set_unweighted(&gen::cycle(n)),
        );
    }
    b.build()
}

fn e3_large_render(report: &StreamReport) -> String {
    let mut t = Table::new(
        "E3 (cont.) — large-scale carving: MIS on long cycles (OPT = n/2)",
        &[
            "n",
            "eps",
            "min ratio",
            "mean ratio",
            "≥1−ε",
            "deleted",
            "components",
            "rounds",
        ],
    );
    for g in &report.groups {
        assert!(g.feasible, "{}: infeasible seed", g.instance);
        let opt = (g.vars / 2) as f64;
        let min_ratio = g.min_value as f64 / opt;
        t.row(vec![
            g.vars.to_string(),
            format!("{}", g.eps),
            f3(min_ratio),
            f3(g.mean_value / opt),
            (min_ratio + 1e-9 >= 1.0 - g.eps).to_string(),
            g.stats.deleted.to_string(),
            g.stats.components.to_string(),
            g.rounds_last.to_string(),
        ]);
    }
    t.render()
}

/// E4 (Theorem 1.2): (1 − ε)-approximate maximum matching vs blossom.
pub fn e4(seeds: u64, rt: &RuntimeConfig) -> String {
    let families: Vec<(&str, Graph)> = vec![
        ("cycle", gen::cycle(36)),
        ("path", gen::path(40)),
        ("gnp", gen::gnp(36, 0.08, &mut gen::seeded_rng(6))),
        ("reg3", gen::random_regular(36, 3, &mut gen::seeded_rng(7))),
        ("grid", gen::grid(5, 7)),
    ];
    let mut b = Corpus::builder()
        .backend("three-phase")
        .eps_grid([0.2, 0.3])
        .seeds(0..seeds);
    // Blossom is exact and independent of the ILP solver stack, so it
    // both supplies the OPT column and cross-checks the runtime's
    // branch-and-bound reference.
    let mut by_family = Vec::new();
    for (name, g) in &families {
        by_family.push((
            name.to_string(),
            g.n(),
            dapc_ilp::solvers::blossom::max_matching(g).size() as u64,
        ));
        b = b.instance(*name, problems::max_matching(g).ilp);
    }
    let report = solve(&b.build(), rt, true);

    let mut t = Table::new(
        "E4 — Theorem 1.2: (1 − ε)-approximate maximum matching (OPT by blossom)",
        &[
            "family",
            "n",
            "eps",
            "OPT",
            "min ratio",
            "mean ratio",
            "≥1−ε",
            "rounds",
        ],
    );
    for g in &report.groups {
        assert!(g.feasible, "{}: infeasible seed", g.instance);
        // Matching variables are edges; report the graph's vertex count.
        let &(_, n, blossom_opt) = by_family
            .iter()
            .find(|(name, _, _)| *name == g.instance)
            .expect("family registered");
        if g.opt_exact {
            assert_eq!(g.opt, Some(blossom_opt), "{}: B&B vs blossom", g.instance);
        }
        t.row(vec![
            g.instance.clone(),
            n.to_string(),
            format!("{}", g.eps),
            blossom_opt.to_string(),
            f3(g.min_value as f64 / blossom_opt.max(1) as f64),
            f3(g.mean_value / blossom_opt.max(1) as f64),
            (g.min_value as f64 / blossom_opt.max(1) as f64 + 1e-9 >= 1.0 - g.eps).to_string(),
            g.rounds_last.to_string(),
        ]);
    }
    t.render()
}

/// E5 (Theorem 1.3): (1 + ε)-approximate covering (VC, DS, k-DS, set
/// cover).
pub fn e5(seeds: u64, rt: &RuntimeConfig) -> String {
    let corpus = Corpus::builder()
        .instance(
            "VC/cycle",
            problems::min_vertex_cover_unweighted(&gen::cycle(36)),
        )
        .instance(
            "VC/gnp",
            problems::min_vertex_cover_unweighted(&gen::gnp(32, 0.1, &mut gen::seeded_rng(8))),
        )
        .instance(
            "DS/cycle",
            problems::min_dominating_set_unweighted(&gen::cycle(33)),
        )
        .instance(
            "DS/grid",
            problems::min_dominating_set_unweighted(&gen::grid(5, 6)),
        )
        .instance(
            "2-DS/cycle",
            problems::k_dominating_set(&gen::cycle(30), 2, vec![1; 30]),
        )
        .backend("three-phase")
        .eps_grid([0.2, 0.4])
        .seeds(0..seeds)
        .build();
    let names: Vec<String> = corpus
        .instance_names()
        .into_iter()
        .map(str::to_string)
        .collect();
    let main = solve(&corpus, rt, true);
    // Weighted VC and a general covering ILP.
    let g = gen::gnp(28, 0.11, &mut gen::seeded_rng(9));
    let w: Vec<u64> = (0..28).map(|i| 1 + (i as u64 % 4) * 2).collect();
    let corpus = Corpus::builder()
        .instance("weighted-VC", problems::min_vertex_cover(&g, w))
        .instance(
            "general-ILP",
            problems::random_covering(24, 16, 3, &mut gen::seeded_rng(10)),
        )
        .backend("three-phase")
        .eps(0.3)
        .seeds(0..seeds)
        .build();
    let extra = solve(&corpus, rt, true);
    let large = solve(&e5_large_corpus(seeds.min(5)), rt, false);

    let mut t = Table::new(
        "E5 — Theorem 1.3: (1 + ε)-approximate covering problems",
        &[
            "problem",
            "n",
            "eps",
            "OPT",
            "max ratio",
            "mean ratio",
            "≤1+ε",
            "rounds",
        ],
    );
    let covering_row = |t: &mut Table, g: &GroupSummary| {
        assert!(g.feasible, "{}: infeasible seed", g.instance);
        t.row(vec![
            g.instance.clone(),
            g.vars.to_string(),
            format!("{}", g.eps),
            opt_cell(g),
            f3(g.max_ratio.unwrap_or(f64::NAN)),
            f3(g.mean_ratio.unwrap_or(f64::NAN)),
            g.meets_guarantee().to_string(),
            g.rounds_last.to_string(),
        ]);
    };
    // Legacy row order is ε-major.
    for eps in [0.2f64, 0.4] {
        for name in &names {
            let g = main
                .group(name, "three-phase", eps)
                .expect("group for every cell");
            covering_row(&mut t, g);
        }
    }
    for g in &extra.groups {
        covering_row(&mut t, g);
    }
    let mut out = t.render();
    out.push_str(&e5_large_render(&large));
    out
}

/// E5 (large scale): vertex cover on long cycles with genuine carving
/// (fixing + hyperedge deletion + isolated regions). OPT = n/2 is known
/// analytically.
fn e5_large_corpus(seeds: u64) -> Corpus {
    let mut b = Corpus::builder()
        .backend("three-phase")
        .eps_grid([0.3, 0.4])
        .seeds(0..seeds)
        .base_config(SolveConfig::new().knobs(ScaleKnobs {
            r_scale: 0.3,
            ..ScaleKnobs::default()
        }));
    for n in [1500usize, 3000] {
        b = b.instance(
            format!("cycle{n}"),
            problems::min_vertex_cover_unweighted(&gen::cycle(n)),
        );
    }
    b.build()
}

fn e5_large_render(report: &StreamReport) -> String {
    let mut t = Table::new(
        "E5 (cont.) — large-scale carving: VC on long cycles (OPT = n/2)",
        &[
            "n",
            "eps",
            "max ratio",
            "mean ratio",
            "≤1+ε",
            "fixed w",
            "edges cut",
            "rounds",
        ],
    );
    for g in &report.groups {
        assert!(g.feasible, "{}: infeasible seed", g.instance);
        let opt = (g.vars / 2) as f64;
        let max_ratio = g.max_value as f64 / opt;
        t.row(vec![
            g.vars.to_string(),
            format!("{}", g.eps),
            f3(max_ratio),
            f3(g.mean_value / opt),
            (max_ratio <= 1.0 + g.eps + 1e-9).to_string(),
            g.stats.fixed_weight.to_string(),
            g.stats.deleted_edges.to_string(),
            g.rounds_last.to_string(),
        ]);
    }
    t.render()
}

/// E6 (§1.2 vs §1.3): LOCAL round complexity — ours vs GKM17, sweeping n
/// at fixed ε and ε at fixed n.
///
/// Expected shape (and what the table shows): in the **n sweep** the
/// GKM/ours ratio *grows* (log³ n vs log n); in the **ε sweep** at fixed n
/// it *shrinks* — ours pays the extra `log³(1/ε)` factor while both share
/// the `1/ε`, exactly the trade Theorem 1.2 makes to win the `log² n`.
/// Both backends' round bills are averaged over the same three seeds.
pub fn e6(rt: &RuntimeConfig) -> String {
    let mut b = Corpus::builder()
        .backend("three-phase")
        .backend("gkm")
        .eps(0.3)
        .seeds(0..3);
    let ns = [32usize, 64, 128, 256, 512];
    for n in ns {
        b = b.instance(
            format!("cycle{n}"),
            problems::max_independent_set_unweighted(&gen::cycle(n)),
        );
    }
    let n_sweep = solve(&b.build(), rt, false);
    let corpus = Corpus::builder()
        .instance(
            "cycle64",
            problems::max_independent_set_unweighted(&gen::cycle(64)),
        )
        .backend("three-phase")
        .backend("gkm")
        .eps_grid([0.4, 0.2, 0.1, 0.05])
        .seeds(0..3)
        .build();
    let eps_sweep = solve(&corpus, rt, false);

    let mut t = Table::new(
        "E6 — round complexity: Theorem 1.2 (Õ(log n/ε)) vs GKM17 (O(log³ n/ε))",
        &["sweep", "n", "eps", "ours rounds", "GKM rounds", "GKM/ours"],
    );
    let row = |t: &mut Table, sweep: &str, report: &StreamReport, name: &str, eps: f64| {
        let ours = report
            .group(name, "three-phase", eps)
            .expect("three-phase group");
        let gkm = report.group(name, "gkm", eps).expect("gkm group");
        t.row(vec![
            sweep.into(),
            ours.vars.to_string(),
            format!("{eps}"),
            format!("{:.0}", ours.mean_rounds),
            format!("{:.0}", gkm.mean_rounds),
            f3(gkm.mean_rounds / ours.mean_rounds),
        ]);
    };
    for n in ns {
        row(&mut t, "n", &n_sweep, &format!("cycle{n}"), 0.3);
    }
    for eps in [0.4f64, 0.2, 0.1, 0.05] {
        row(&mut t, "eps", &eps_sweep, "cycle64", eps);
    }
    t.render()
}

/// E10 — ablations: the packing preparation count, the covering
/// iteration budget `t` and the LDD Phase 2 toggle, one row per setting
/// with the worst and mean ratio (deleted fraction for the LDD rows) and
/// the round count of the last seed.
pub fn e10(seeds: u64, rt: &RuntimeConfig) -> String {
    // (a) Packing preparation count, via the engine's prep_count override.
    // The ablation rows all sweep the same (instance, budget) family, so
    // one warm PrepCache serves every row.
    let prep_settings = [1usize, 2, 4, 8];
    let cache = PrepCache::new();
    let g = gen::gnp(36, 0.08, &mut gen::seeded_rng(11));
    let ilp = problems::max_independent_set_unweighted(&g);
    let mut prep_reports = Vec::new();
    for prep in prep_settings {
        let corpus = Corpus::builder()
            .instance("gnp36", ilp.clone())
            .backend("three-phase")
            .eps(0.2)
            .seeds(0..seeds)
            .base_config(SolveConfig::new().prep_count(prep))
            .build();
        let report = solve_many_streaming_with_cache(&corpus, rt, &cache, |_r| {});
        prep_reports.push(report);
    }
    // (b) Covering iteration budget t (the §1.4.3 "skip Phase 2" design).
    let t_settings = [0.0f64, 1.0, 3.0];
    let cache = PrepCache::new();
    let g = gen::cycle(33);
    let ilp = problems::min_dominating_set_unweighted(&g);
    let mut t_reports = Vec::new();
    for &t_slack in &t_settings {
        let cfg = SolveConfig::new().knobs(ScaleKnobs {
            covering_t_slack: t_slack.max(0.01),
            ..ScaleKnobs::default()
        });
        let t_value = cfg.covering_params(33).t;
        let corpus = Corpus::builder()
            .instance("DS/cycle33", ilp.clone())
            .backend("three-phase")
            .eps(0.3)
            .seeds(0..seeds)
            .base_config(cfg)
            .build();
        let report = solve_many_streaming_with_cache(&corpus, rt, &cache, |_r| {});
        t_reports.push((t_value, report));
    }

    let mut t = Table::new(
        "E10 — ablations (prep count, covering t, LDD Phase 2)",
        &[
            "ablation",
            "setting",
            "min/max ratio",
            "mean ratio",
            "rounds",
            "note",
        ],
    );
    for (prep, report) in prep_settings.iter().zip(&prep_reports) {
        let g = &report.groups[0];
        t.row(vec![
            "packing prep_count".into(),
            prep.to_string(),
            f3(g.min_ratio.unwrap_or(f64::NAN)),
            f3(g.mean_ratio.unwrap_or(f64::NAN)),
            g.rounds_last.to_string(),
            "paper: 16·ln ñ".into(),
        ]);
    }
    for (t_slack, (t_value, report)) in t_settings.iter().zip(&t_reports) {
        let g = &report.groups[0];
        t.row(vec![
            "covering t_slack".into(),
            format!("{t_slack} (t={t_value})"),
            f3(g.max_ratio.unwrap_or(f64::NAN)),
            f3(g.mean_ratio.unwrap_or(f64::NAN)),
            g.rounds_last.to_string(),
            "paper: +8".into(),
        ]);
    }
    // (c) LDD Phase 2 on/off — a decomposition-level ablation below the
    // ILP engine, so it keeps driving the LDD directly.
    use dapc_decomp::three_phase::{three_phase_ldd, LddParams};
    use dapc_local::RoundCost;
    let g = gen::gnp(600, 0.01, &mut gen::seeded_rng(12));
    for phase2 in [true, false] {
        let mut params = LddParams::scaled(0.2, 600.0, 0.05);
        params.run_phase2 = phase2;
        let mut worst = 0.0f64;
        let mut sum = 0.0;
        let mut rounds = 0;
        for seed in 0..seeds {
            let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(seed), None);
            let f = out.decomposition.deleted_fraction();
            worst = worst.max(f);
            sum += f;
            rounds = out.decomposition.rounds();
        }
        t.row(vec![
            "LDD run_phase2".into(),
            phase2.to_string(),
            f3(worst),
            f3(sum / seeds as f64),
            rounds.to_string(),
            "§1.4.1: Phase 2 buys one iteration".into(),
        ]);
    }
    t.render()
}
