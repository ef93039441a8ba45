//! Microbenchmark of the CP solver substrate: a small linear branch &
//! bound. The placer's real models are timed by the `placer` and `geost`
//! benches.

use criterion::{criterion_group, criterion_main, Criterion};
use rrf_solver::constraints::LinRel;
use rrf_solver::{solve, Model, SearchConfig};

fn bench_linear_minimize(c: &mut Criterion) {
    c.bench_function("solver/knapsack_minimize", |b| {
        b.iter(|| {
            let mut m = Model::new();
            let xs: Vec<_> = (0..6).map(|_| m.new_var(0, 8)).collect();
            let obj = m.new_var(0, 400);
            let weights = [5i64, 4, 3, 7, 2, 6];
            m.linear(&[2, 3, 1, 4, 2, 5], &xs, LinRel::Ge, 40);
            let mut coeffs: Vec<i64> = weights.to_vec();
            coeffs.push(-1);
            let mut vars = xs.clone();
            vars.push(obj);
            m.linear(&coeffs, &vars, LinRel::Eq, 0);
            let out = solve(m, SearchConfig::minimize(obj));
            assert!(out.objective.is_some());
        })
    });
}

criterion_group!(benches, bench_linear_minimize);
criterion_main!(benches);
