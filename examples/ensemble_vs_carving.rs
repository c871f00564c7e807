//! The two packing algorithms of §4 side by side — as interchangeable
//! engine backends: `ThreePhase` (the main Theorem 1.2 carving solver)
//! and `Ensemble` (the §4.2 "alternative approach"). One loop, two
//! `&dyn Solver`s.
//!
//! ```sh
//! cargo run --release --example ensemble_vs_carving
//! ```

use dapc::prelude::*;

fn main() {
    println!(
        "{:<14} {:>4} {:>6} {:>9} {:>9} {:>11} {:>11}",
        "family", "OPT", "eps", "carving", "ensemble", "carve rnds", "ens rnds"
    );
    let eps = 0.3;
    let families: Vec<(&str, Graph)> = vec![
        ("cycle C36", gen::cycle(36)),
        ("grid 6×6", gen::grid(6, 6)),
        ("gnp(40,.08)", gen::gnp(40, 0.08, &mut gen::seeded_rng(1))),
        (
            "reg4 n=36",
            gen::random_regular(36, 4, &mut gen::seeded_rng(2)),
        ),
    ];
    let carving: &dyn Solver = &ThreePhase;
    let ensemble: &dyn Solver = &Ensemble;
    for (name, g) in &families {
        let ilp = problems::max_independent_set_unweighted(g);
        let (opt, _) = verify::optimum(&ilp, &SolverBudget::default());
        let cfg = SolveConfig::new().eps(eps).seed(11).ensemble_runs(10);
        let carve = carving.solve(&ilp, &cfg, &mut cfg.rng());
        let ens = ensemble.solve(&ilp, &cfg, &mut cfg.rng());
        assert!(carve.feasible() && ens.feasible());
        println!(
            "{:<14} {:>4} {:>6.2} {:>9} {:>9} {:>11} {:>11}",
            name,
            opt,
            eps,
            carve.value,
            ens.value,
            carve.rounds(),
            ens.rounds()
        );
    }
    println!(
        "\nBoth meet (1 − ε); the ensemble's candidate spread shows the\n\
         averaging argument at work (per-run values on the last instance):"
    );
    let g = gen::gnp(40, 0.08, &mut gen::seeded_rng(1));
    let ilp = problems::max_independent_set_unweighted(&g);
    let cfg = SolveConfig::new().eps(eps).seed(99).ensemble_runs(10);
    let ens = ensemble.solve(&ilp, &cfg, &mut cfg.rng());
    if let BackendStats::Ensemble(s) = &ens.stats {
        println!(
            "candidates: {:?} → best {} (re-weighted pass: {})",
            s.candidate_values, ens.value, s.reweighted_value
        );
    }
}
