//! Wall-clock benches for the exact local solvers (the "free local
//! computation" the LOCAL model grants — here is its simulation price).

use criterion::{criterion_group, criterion_main, Criterion};
use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_ilp::restrict::{covering_restriction, packing_restriction};
use dapc_ilp::solvers::{self, blossom, mis, SolverBudget};

fn bench_mwis(c: &mut Criterion) {
    let g = gen::gnp(60, 0.15, &mut gen::seeded_rng(1));
    let w: Vec<u64> = (0..60).map(|i| 1 + (i as u64 % 7)).collect();
    c.bench_function("mwis_bnb/gnp60x0.15", |b| {
        b.iter(|| mis::max_weight_independent_set(&g, &w, &solvers::SolverBudget::unlimited()))
    });
    // The MIS/gnp44 instance of the `ilp_cold` benchmark workload, whose
    // whole-instance solve is its largest MWIS search.
    let g = gen::gnp(44, 0.07, &mut gen::seeded_rng(0x9e37_79ba));
    c.bench_function("mwis_bnb/gnp44_unit", |b| {
        b.iter(|| mis::max_weight_independent_set(&g, &[1; 44], &SolverBudget::unlimited()))
    });
}

fn bench_blossom(c: &mut Criterion) {
    let g = gen::random_regular(600, 3, &mut gen::seeded_rng(2));
    c.bench_function("blossom/reg3_600", |b| b.iter(|| blossom::max_matching(&g)));
}

fn bench_covering_bnb(c: &mut Criterion) {
    let g = gen::grid(4, 6);
    let ilp = problems::min_dominating_set_unweighted(&g);
    let sub = covering_restriction(&ilp, &[true; 24]);
    c.bench_function("covering_bnb/ds_grid4x6", |b| {
        b.iter(|| solvers::bnb::solve_covering(&sub, &solvers::SolverBudget::unlimited()))
    });
    // The DS/cycle33 instance of the `ilp_cold` benchmark workload.
    let ilp = problems::min_dominating_set_unweighted(&gen::cycle(33));
    let sub = covering_restriction(&ilp, &[true; 33]);
    c.bench_function("covering_bnb/ds_cycle33", |b| {
        b.iter(|| solvers::bnb::solve_covering(&sub, &SolverBudget::unlimited()))
    });
}

fn bench_dispatch(c: &mut Criterion) {
    let g = gen::cycle(80);
    let ilp = problems::max_independent_set_unweighted(&g);
    let sub = packing_restriction(&ilp, &[true; 80]);
    let budget = SolverBudget::default();
    c.bench_function("dispatch/mis_cycle80", |b| {
        b.iter(|| solvers::solve(&sub, &budget))
    });
    let m = problems::max_matching(&gen::complete(24));
    let subm = packing_restriction(&m.ilp, &vec![true; m.ilp.n()]);
    c.bench_function("dispatch/matching_k24", |b| {
        b.iter(|| solvers::solve(&subm, &budget))
    });
}

fn bench_greedy(c: &mut Criterion) {
    let g = gen::gnp(800, 0.01, &mut gen::seeded_rng(3));
    let pack = problems::max_independent_set_unweighted(&g);
    let psub = packing_restriction(&pack, &vec![true; 800]);
    c.bench_function("greedy_packing/gnp800", |b| {
        b.iter(|| solvers::greedy::greedy_packing(&psub))
    });
    let cover = problems::min_dominating_set_unweighted(&g);
    let csub = covering_restriction(&cover, &vec![true; 800]);
    c.bench_function("greedy_covering/gnp800", |b| {
        b.iter(|| solvers::greedy::greedy_covering(&csub))
    });
}

criterion_group!(
    benches,
    bench_mwis,
    bench_blossom,
    bench_covering_bnb,
    bench_dispatch,
    bench_greedy
);
criterion_main!(benches);
