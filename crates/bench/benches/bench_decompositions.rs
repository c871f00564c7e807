//! Wall-clock benches for every decomposition algorithm (substrate of
//! experiments E1/E2/E8/E9) and for the exact diameter checks.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dapc_decomp::blackbox::{blackbox_ldd, BlackboxParams};
use dapc_decomp::elkin_neiman::{elkin_neiman, EnParams};
use dapc_decomp::mpx::mpx;
use dapc_decomp::network_decomposition::network_decomposition;
use dapc_decomp::sparse_cover::sparse_cover;
use dapc_decomp::three_phase::{three_phase_ldd, LddParams};
use dapc_graph::{gen, traversal, Graph, Hypergraph, Vertex};

fn bench_elkin_neiman(c: &mut Criterion) {
    let g = gen::gnp(2000, 0.003, &mut gen::seeded_rng(1));
    let params = EnParams::new(0.2, 2000.0);
    c.bench_function("elkin_neiman/gnp2000", |b| {
        b.iter_batched(
            || gen::seeded_rng(7),
            |mut rng| elkin_neiman(&g, &params, &mut rng, None),
            BatchSize::SmallInput,
        )
    });
}

fn bench_mpx(c: &mut Criterion) {
    let g = gen::grid(45, 45);
    c.bench_function("mpx/grid45x45", |b| {
        b.iter_batched(
            || gen::seeded_rng(8),
            |mut rng| mpx(&g, 0.2, 2025.0, &mut rng),
            BatchSize::SmallInput,
        )
    });
}

fn bench_three_phase(c: &mut Criterion) {
    let g = gen::gnp(1000, 0.006, &mut gen::seeded_rng(2));
    let params = LddParams::scaled(0.3, 1000.0, 0.05);
    let mut group = c.benchmark_group("three_phase");
    group.sample_size(10);
    group.bench_function("gnp1000", |b| {
        b.iter_batched(
            || gen::seeded_rng(9),
            |mut rng| three_phase_ldd(&g, &params, &mut rng, None),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_blackbox(c: &mut Criterion) {
    let g = gen::grid(20, 20);
    let params = BlackboxParams::new(0.3, 400.0, 0.02);
    let mut group = c.benchmark_group("blackbox");
    group.sample_size(10);
    group.bench_function("grid20x20", |b| {
        b.iter_batched(
            || gen::seeded_rng(10),
            |mut rng| blackbox_ldd(&g, &params, &mut rng),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_sparse_cover(c: &mut Criterion) {
    let h = Hypergraph::from_graph(&gen::grid(30, 30));
    c.bench_function("sparse_cover/grid30x30", |b| {
        b.iter_batched(
            || gen::seeded_rng(11),
            |mut rng| sparse_cover(&h, 0.2, 900.0, &mut rng, None, None),
            BatchSize::SmallInput,
        )
    });
}

fn bench_network_decomposition(c: &mut Criterion) {
    let g = gen::gnp(800, 0.008, &mut gen::seeded_rng(3));
    c.bench_function("network_decomposition/gnp800", |b| {
        b.iter_batched(
            || gen::seeded_rng(12),
            |mut rng| network_decomposition(&g, 800.0, &mut rng),
            BatchSize::SmallInput,
        )
    });
}

/// The exact diameter checks on the `ldd_verify` benchmark's three graphs:
/// each check runs on the graph whole (its connected components) and on
/// one Elkin–Neiman decomposition at ε = 0.2.
fn bench_checks(c: &mut Criterion) {
    type Check = fn(&Graph, &[Vec<Vertex>]) -> Option<u32>;
    let checks: [(&str, Check); 2] = [
        ("weak", |g, sets| {
            traversal::max_weak_diameter(g, sets.iter().map(Vec::as_slice))
        }),
        ("strong", |g, sets| {
            traversal::max_strong_diameter(g, sets.iter().map(Vec::as_slice))
        }),
    ];
    let n = 2048;
    let graphs = [
        (
            "gnp",
            gen::gnp(n, 6.0 / n as f64, &mut gen::seeded_rng(0x9e37_79b9)),
        ),
        (
            "reg4",
            gen::random_regular(n, 4, &mut gen::seeded_rng(0x9e37_79ba)),
        ),
        ("grid", gen::grid(45, 45)),
    ];
    let mut group = c.benchmark_group("check");
    for (name, g) in &graphs {
        let (comp, k) = g.connected_components();
        let mut whole = vec![Vec::new(); k];
        for (v, &c) in comp.iter().enumerate() {
            whole[c as usize].push(v as Vertex);
        }
        let params = EnParams::new(0.2, n as f64);
        let clusters = elkin_neiman(g, &params, &mut gen::seeded_rng(13), None).clusters;
        for (metric, check) in checks {
            group.bench_function(format!("{metric}_{name}2048"), |b| {
                b.iter(|| (check(g, &whole), check(g, &clusters)))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_elkin_neiman,
    bench_mpx,
    bench_three_phase,
    bench_blackbox,
    bench_sparse_cover,
    bench_network_decomposition,
    bench_checks
);
criterion_main!(benches);
