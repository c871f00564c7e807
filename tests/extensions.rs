//! Integration tests for the extension features: the §4.2 ensemble solver,
//! the weighted Theorem 1.1 decomposition, the §1.6 blackbox, the §3.2
//! diameter-improvement step, and solver-budget fault injection.

use dapc::core::covering::approximate_covering;
use dapc::core::ensemble::packing_ensemble;
use dapc::core::packing::approximate_packing;
use dapc::core::params::PcParams;
use dapc::decomp::blackbox::{blackbox_ldd, BlackboxParams};
use dapc::decomp::three_phase::{
    improve_diameter, three_phase_ldd, three_phase_ldd_weighted, LddParams,
};
use dapc::graph::gen;
use dapc::ilp::{problems, verify, SolverBudget};

#[test]
fn ensemble_and_carving_solvers_agree_on_guarantees() {
    let g = gen::gnp(32, 0.09, &mut gen::seeded_rng(50));
    let ilp = problems::max_independent_set_unweighted(&g);
    let eps = 0.3;
    let params = PcParams::packing_scaled(eps, 32.0, 0.02, 0.3);
    let (opt, exact) = verify::optimum(&ilp, &SolverBudget::default());
    assert!(exact);
    for seed in 0..5 {
        let carving = approximate_packing(&ilp, &params, &mut gen::seeded_rng(seed));
        let ensemble = packing_ensemble(&ilp, &params, Some(8), &mut gen::seeded_rng(seed));
        for (tag, value) in [("carving", carving.value), ("ensemble", ensemble.value)] {
            assert!(
                value as f64 >= (1.0 - eps) * opt as f64,
                "{tag} seed {seed}: {value} < (1−ε)·{opt}"
            );
        }
    }
}

#[test]
fn weighted_ldd_protects_heavy_vertices_statistically() {
    // Uniform-weight deletion treats all vertices alike; the weighted
    // variant's budget is in mass, so heavy vertices must not be deleted
    // disproportionately often.
    let g = gen::gnp(400, 0.012, &mut gen::seeded_rng(51));
    let mut weights = vec![1u64; 400];
    for v in (0..400).step_by(40) {
        weights[v] = 200;
    }
    let total: u64 = weights.iter().sum();
    let eps = 0.25;
    let params = LddParams::scaled(eps, 400.0, 0.05);
    let mut worst_mass_fraction = 0.0f64;
    for seed in 0..10 {
        let out = three_phase_ldd_weighted(&g, &params, &weights, &mut gen::seeded_rng(seed), None);
        out.decomposition.validate(&g, None).unwrap();
        worst_mass_fraction = worst_mass_fraction.max(out.stats.deleted_mass as f64 / total as f64);
    }
    assert!(
        worst_mass_fraction <= eps,
        "weighted budget violated: {worst_mass_fraction}"
    );
}

#[test]
fn diameter_improvement_reaches_the_ideal_bound() {
    let g = gen::cycle(500);
    let eps = 0.2;
    let params = LddParams::scaled(eps, 500.0, 0.1);
    let mut rng = gen::seeded_rng(52);
    let out = three_phase_ldd(&g, &params, &mut rng, None);
    let improved = improve_diameter(&g, &out, &params, &mut rng);
    improved.validate(&g, None).unwrap();
    // The ideal bound of Theorem 1.1 after improvement: O(log ñ/ε); our
    // implementation's constant is 32 (Lemma C.1 at λ = ε/4).
    let bound = 32.0 * 500f64.ln() / eps;
    assert!(f64::from(improved.max_weak_diameter(&g)) <= bound);
}

#[test]
fn blackbox_and_three_phase_quality_parity() {
    let g = gen::gnp(300, 0.015, &mut gen::seeded_rng(53));
    let eps = 0.3;
    let mut worst_bb = 0.0f64;
    let mut worst_tp = 0.0f64;
    for seed in 0..10 {
        let bb = blackbox_ldd(
            &g,
            &BlackboxParams::new(eps, 300.0, 0.02),
            &mut gen::seeded_rng(seed),
        );
        bb.validate(&g, None).unwrap();
        worst_bb = worst_bb.max(bb.deleted_fraction());
        let tp = three_phase_ldd(
            &g,
            &LddParams::scaled(eps, 300.0, 0.05),
            &mut gen::seeded_rng(seed),
            None,
        );
        worst_tp = worst_tp.max(tp.decomposition.deleted_fraction());
    }
    assert!(worst_bb <= eps, "blackbox budget: {worst_bb}");
    assert!(worst_tp <= eps, "three-phase budget: {worst_tp}");
}

#[test]
fn zero_solver_budget_still_yields_feasible_output() {
    // Fault injection: every exact local solve exhausts instantly, so the
    // solvers run on greedy incumbents. Feasibility must survive (the
    // approximation guarantee may not — and the run must say so).
    let g = gen::gnp(28, 0.1, &mut gen::seeded_rng(54));
    let mis = problems::max_independent_set_unweighted(&g);
    let mut params = PcParams::packing_scaled(0.3, 28.0, 0.02, 0.3);
    params.budget = SolverBudget { node_limit: 0 };
    let out = approximate_packing(&mis, &params, &mut gen::seeded_rng(1));
    assert!(mis.is_feasible(&out.assignment));
    assert!(!out.stats.all_solves_exact, "must report inexactness");

    let vc = problems::min_vertex_cover_unweighted(&g);
    let mut params = PcParams::covering_scaled(0.3, 28.0, 0.02, 0.3, 1.0);
    params.budget = SolverBudget { node_limit: 0 };
    let out = approximate_covering(&vc, &params, &mut gen::seeded_rng(2));
    assert!(vc.is_feasible(&out.assignment));
    assert!(!out.stats.all_solves_exact, "must report inexactness");
}

#[test]
fn paper_constants_parametrisation_is_usable_on_tiny_graphs() {
    // SolveConfig::paper() produces the printed constants; on a tiny graph
    // the radii dwarf the diameter, every cluster is the whole component,
    // and the answer is exactly optimal.
    use dapc::prelude::*;
    let g = gen::cycle(12);
    let r = GraphProblem::max_independent_set(&g)
        .config(SolveConfig::new().eps(0.3).seed(55).paper())
        .solve_with(&ThreePhase);
    assert_eq!(
        r.weight, 6,
        "paper constants on C12 must be exactly optimal"
    );
    // And the round bill reflects the paper's enormous constants.
    assert!(
        r.rounds() > 100_000,
        "paper-constant rounds should be huge: {}",
        r.rounds()
    );
}
