//! The CP solver against brute-force enumeration on randomly generated
//! small models: identical solution counts and identical optima.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rrf_solver::constraints::LinRel;
use rrf_solver::{solve, Model, SearchConfig, VarId};

/// A random model: n vars with small ranges, random binary disequalities
/// (posted as tables), and one random linear <= constraint. Returns the model pieces needed to
/// re-evaluate assignments by hand.
struct RandomCsp {
    ranges: Vec<(i32, i32)>,
    diseqs: Vec<(usize, usize, i32)>,
    lin_coeffs: Vec<i64>,
    lin_c: i64,
}

impl RandomCsp {
    fn generate(rng: &mut ChaCha8Rng) -> RandomCsp {
        let n = rng.gen_range(2..5);
        let ranges: Vec<(i32, i32)> = (0..n)
            .map(|_| {
                let lo = rng.gen_range(-3..3);
                (lo, lo + rng.gen_range(1..5))
            })
            .collect();
        let diseqs: Vec<(usize, usize, i32)> = (0..rng.gen_range(0..4))
            .map(|_| {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                if b == a {
                    b = (b + 1) % n;
                }
                (a, b, rng.gen_range(-2..3))
            })
            .collect();
        let lin_coeffs: Vec<i64> = (0..n).map(|_| rng.gen_range(-2..3)).collect();
        let lin_c = rng.gen_range(-6..10);
        RandomCsp {
            ranges,
            diseqs,
            lin_coeffs,
            lin_c,
        }
    }

    fn build(&self) -> (Model, Vec<VarId>) {
        let mut m = Model::new();
        let vars: Vec<VarId> = self
            .ranges
            .iter()
            .map(|&(lo, hi)| m.new_var(lo, hi))
            .collect();
        // `x_a != x_b + c` as a binary table of the allowed pairs.
        for &(a, b, c) in &self.diseqs {
            let (ra, rb) = (self.ranges[a], self.ranges[b]);
            let rows = (ra.0..=ra.1)
                .flat_map(|u| (rb.0..=rb.1).map(move |v| vec![u, v]))
                .filter(|r| r[0] != r[1] + c)
                .collect();
            m.table(vec![vars[a], vars[b]], rows);
        }
        m.linear(&self.lin_coeffs, &vars, LinRel::Le, self.lin_c);
        (m, vars)
    }

    fn satisfied(&self, assignment: &[i32]) -> bool {
        for &(a, b, c) in &self.diseqs {
            if assignment[a] == assignment[b] + c {
                return false;
            }
        }
        let sum: i64 = self
            .lin_coeffs
            .iter()
            .zip(assignment)
            .map(|(&a, &x)| a * x as i64)
            .sum();
        sum <= self.lin_c
    }

    fn enumerate(&self) -> Vec<Vec<i32>> {
        let mut out = Vec::new();
        let mut cur = vec![0i32; self.ranges.len()];
        self.rec(0, &mut cur, &mut out);
        out
    }

    fn rec(&self, i: usize, cur: &mut Vec<i32>, out: &mut Vec<Vec<i32>>) {
        if i == self.ranges.len() {
            if self.satisfied(cur) {
                out.push(cur.clone());
            }
            return;
        }
        for v in self.ranges[i].0..=self.ranges[i].1 {
            cur[i] = v;
            self.rec(i + 1, cur, out);
        }
    }
}

#[test]
fn solution_counts_match_bruteforce() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for round in 0..60 {
        let csp = RandomCsp::generate(&mut rng);
        let expected = csp.enumerate();
        let (model, _) = csp.build();
        let out = solve(model, SearchConfig::default());
        assert!(out.complete, "round {round}");
        assert_eq!(
            out.stats.solutions,
            expected.len() as u64,
            "round {round}: {csp:?}",
        );
    }
}

#[test]
fn minima_match_bruteforce() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for round in 0..40 {
        let csp = RandomCsp::generate(&mut rng);
        let expected = csp.enumerate();
        let (model, vars) = csp.build();
        // Minimize the first variable.
        let out = solve(model, SearchConfig::minimize(vars[0]));
        match expected.iter().map(|a| a[0]).min() {
            Some(best) => {
                assert!(out.complete, "round {round}");
                assert_eq!(out.objective, Some(best as i64), "round {round}");
            }
            None => {
                assert!(out.best.is_none(), "round {round}");
                assert!(out.complete, "round {round}");
            }
        }
    }
}

impl std::fmt::Debug for RandomCsp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ranges={:?} diseqs={:?} lin={:?}<={}",
            self.ranges, self.diseqs, self.lin_coeffs, self.lin_c
        )
    }
}

#[test]
fn every_reported_solution_actually_satisfies() {
    // Enumerate with a callbackless API: re-check the best solution of the
    // first-solution search over many seeds.
    let mut rng = ChaCha8Rng::seed_from_u64(1234);
    for _ in 0..40 {
        let csp = RandomCsp::generate(&mut rng);
        let (model, vars) = csp.build();
        let out = solve(model, SearchConfig::first_solution());
        if let Some(sol) = out.best {
            let assignment: Vec<i32> = vars.iter().map(|&v| sol.value(v)).collect();
            assert!(csp.satisfied(&assignment), "{csp:?} -> {assignment:?}");
        } else {
            assert!(csp.enumerate().is_empty(), "missed solutions: {csp:?}");
        }
    }
}
