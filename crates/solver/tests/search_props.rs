//! Search-level properties on random models: every heuristic enumerates
//! the same solution count, branch & bound finds the true optimum, and
//! the portfolio agrees with sequential search.

use proptest::prelude::*;
use rrf_solver::constraints::LinRel;
use rrf_solver::{solve, solve_portfolio, Model, SearchConfig, ValSelect, VarId, VarSelect};

/// A reproducible random model: bounded vars, a few disequalities, one
/// linear cap. Returns the pieces needed for brute-force checking.
#[derive(Debug, Clone)]
struct Instance {
    ranges: Vec<(i32, i32)>,
    diseqs: Vec<(usize, usize)>,
    cap: i64,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..4)
        .prop_flat_map(|n| {
            let ranges = proptest::collection::vec((-2i32..2, 1i32..4), n..=n).prop_map(|v| {
                v.into_iter()
                    .map(|(lo, w)| (lo, lo + w))
                    .collect::<Vec<_>>()
            });
            let diseqs = proptest::collection::vec((0usize..n, 0usize..n), 0..3);
            (ranges, diseqs, -4i64..8)
        })
        .prop_map(|(ranges, diseqs, cap)| Instance {
            diseqs: diseqs.into_iter().filter(|&(a, b)| a != b).collect(),
            ranges,
            cap,
        })
}

impl Instance {
    fn build(&self) -> (Model, Vec<VarId>) {
        let mut m = Model::new();
        let vars: Vec<VarId> = self
            .ranges
            .iter()
            .map(|&(lo, hi)| m.new_var(lo, hi))
            .collect();
        // Each disequality is a binary table of the unequal pairs.
        for &(a, b) in &self.diseqs {
            let (ra, rb) = (self.ranges[a], self.ranges[b]);
            let rows = (ra.0..=ra.1)
                .flat_map(|u| (rb.0..=rb.1).map(move |v| vec![u, v]))
                .filter(|r| r[0] != r[1])
                .collect();
            m.table(vec![vars[a], vars[b]], rows);
        }
        let coeffs = vec![1i64; vars.len()];
        m.linear(&coeffs, &vars, LinRel::Le, self.cap);
        (m, vars)
    }

    fn solutions(&self) -> Vec<Vec<i32>> {
        let mut out = Vec::new();
        let mut cur = vec![0; self.ranges.len()];
        self.rec(0, &mut cur, &mut out);
        out
    }

    fn rec(&self, i: usize, cur: &mut Vec<i32>, out: &mut Vec<Vec<i32>>) {
        if i == self.ranges.len() {
            let ok = self.diseqs.iter().all(|&(a, b)| cur[a] != cur[b])
                && cur.iter().map(|&x| x as i64).sum::<i64>() <= self.cap;
            if ok {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_heuristics_enumerate_identically(inst in instance_strategy()) {
        let expected = inst.solutions().len() as u64;
        for vs in [VarSelect::InputOrder, VarSelect::FirstFail,
                   VarSelect::SmallestMin, VarSelect::LargestDomain] {
            for val in [ValSelect::Min, ValSelect::Max, ValSelect::Split] {
                let (m, _) = inst.build();
                let out = solve(m, SearchConfig {
                    var_select: vs,
                    val_select: val,
                    ..SearchConfig::default()
                });
                prop_assert!(out.complete);
                prop_assert_eq!(out.stats.solutions, expected, "{:?}/{:?}", vs, val);
            }
        }
    }

    #[test]
    fn bnb_matches_enumerated_optimum(inst in instance_strategy()) {
        let (m, vars) = inst.build();
        let out = solve(m, SearchConfig::minimize(vars[0]));
        let truth = inst.solutions().iter().map(|s| s[0]).min();
        match truth {
            Some(best) => {
                prop_assert!(out.complete);
                prop_assert_eq!(out.objective, Some(best as i64));
            }
            None => {
                prop_assert!(out.best.is_none());
                prop_assert!(out.complete);
            }
        }
    }

    #[test]
    fn portfolio_agrees_with_sequential(inst in instance_strategy()) {
        let (m1, vars1) = inst.build();
        let seq = solve(m1, SearchConfig::minimize(vars1[0]));
        let (m2, vars2) = inst.build();
        let par = solve_portfolio(m2, SearchConfig::minimize(vars2[0]), 3);
        prop_assert_eq!(par.best.objective, seq.objective);
        prop_assert_eq!(par.best.best.is_some(), seq.best.is_some());
    }
}
