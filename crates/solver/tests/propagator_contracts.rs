//! Propagator contracts, property-tested: every propagator must be
//! *sound* (never removes a value that participates in a solution of its
//! constraint), *contracting* (only narrows domains), and *idempotent at
//! the engine's fixpoint* (re-running propagation changes nothing).
//! `Table` is also *exact*: it prunes to precisely the brute-force
//! supports, so a faster table propagator must prune identically.

use proptest::array::uniform3;
use proptest::prelude::*;
use rrf_solver::constraints::{
    Cumulative, ElementConst, LexLeqPair, LinRel, Linear, Maximum, Table, Task,
};
use rrf_solver::{Conflict, Domain, Engine, Propagator, Space, VarId};

/// A small domain as explicit values.
fn domain_strategy() -> impl Strategy<Value = Vec<i32>> {
    proptest::collection::btree_set(-4i32..6, 1..6)
        .prop_map(|s| s.into_iter().collect::<Vec<i32>>())
}

fn space_with(domains: &[Vec<i32>]) -> (Space, Vec<VarId>) {
    let mut space = Space::new();
    let vars = domains
        .iter()
        .map(|vals| space.new_var(Domain::from_values(vals).unwrap()))
        .collect();
    (space, vars)
}

/// Brute-force every assignment of `domains`, keep those accepted by
/// `check`, and return per-variable surviving value sets.
fn bruteforce_supports(
    domains: &[Vec<i32>],
    check: &dyn Fn(&[i32]) -> bool,
) -> Option<Vec<Vec<i32>>> {
    let n = domains.len();
    let mut supports: Vec<std::collections::BTreeSet<i32>> = vec![Default::default(); n];
    let mut any = false;
    let mut idx = vec![0usize; n];
    'outer: loop {
        let assignment: Vec<i32> = idx.iter().zip(domains).map(|(&i, d)| d[i]).collect();
        if check(&assignment) {
            any = true;
            for (s, &v) in supports.iter_mut().zip(&assignment) {
                s.insert(v);
            }
        }
        // odometer
        for i in 0..n {
            idx[i] += 1;
            if idx[i] < domains[i].len() {
                continue 'outer;
            }
            idx[i] = 0;
        }
        break;
    }
    if any {
        Some(
            supports
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
        )
    } else {
        None
    }
}

/// Run one propagator to fixpoint and assert the three contracts against
/// the brute-force ground truth.
fn assert_contracts(
    domains: &[Vec<i32>],
    prop: impl Propagator + 'static,
    check: &dyn Fn(&[i32]) -> bool,
) -> Result<(), TestCaseError> {
    let (mut space, vars) = space_with(domains);
    let mut engine = Engine::new(space.num_vars());
    engine.post(prop);
    engine.schedule_all();
    let result = engine.propagate(&mut space);
    let truth = bruteforce_supports(domains, check);
    match (&result, &truth) {
        (Err(Conflict), _) => {
            // Failure must only happen when no solution exists.
            prop_assert!(truth.is_none(), "propagator failed a satisfiable instance");
        }
        (Ok(()), None) => {
            // Incomplete propagation may miss infeasibility — allowed —
            // but domains must still be narrowed soundly (vacuous here).
        }
        (Ok(()), Some(supports)) => {
            for (i, &v) in vars.iter().enumerate() {
                // Soundness: every supported value survives.
                for &val in &supports[i] {
                    prop_assert!(
                        space.contains(v, val),
                        "var {i}: supported value {val} was pruned"
                    );
                }
                // Contraction: domains never grow.
                for val in space.domain(v).iter() {
                    prop_assert!(
                        domains[i].contains(&val),
                        "var {i}: value {val} appeared from nowhere"
                    );
                }
            }
            // Idempotence: a second fixpoint changes nothing.
            let before: Vec<Domain> = vars.iter().map(|&v| space.domain(v).clone()).collect();
            engine.schedule_all();
            prop_assert!(engine.propagate(&mut space).is_ok());
            for (i, &v) in vars.iter().enumerate() {
                prop_assert_eq!(space.domain(v), &before[i], "fixpoint not stable");
            }
        }
    }
    Ok(())
}

/// For a propagator that enforces generalized arc consistency: after one
/// fixpoint every surviving value has a support and nothing else survives,
/// and it fails exactly when the constraint has no solution.
fn assert_exact(
    domains: &[Vec<i32>],
    prop: impl Propagator + 'static,
    check: &dyn Fn(&[i32]) -> bool,
) -> Result<(), TestCaseError> {
    let (mut space, vars) = space_with(domains);
    let mut engine = Engine::new(space.num_vars());
    engine.post(prop);
    engine.schedule_all();
    let result = engine.propagate(&mut space);
    match bruteforce_supports(domains, check) {
        None => prop_assert!(result.is_err(), "unsatisfiable instance not failed"),
        Some(supports) => {
            prop_assert!(result.is_ok(), "propagator failed a satisfiable instance");
            for (i, &v) in vars.iter().enumerate() {
                let got: Vec<i32> = space.domain(v).iter().collect();
                prop_assert_eq!(&got, &supports[i], "var {} not pruned to its supports", i);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn linear_contract(a in domain_strategy(), b in domain_strategy(),
                       c in domain_strategy(),
                       coeffs in uniform3(-3i64..4),
                       rhs in -8i64..12) {
        let domains = vec![a, b, c];
        let (_, vars) = space_with(&domains);
        assert_contracts(
            &domains,
            Linear::new(&coeffs, &vars, LinRel::Le, rhs),
            &|asg| {
                coeffs.iter().zip(asg).map(|(&k, &x)| k * x as i64).sum::<i64>() <= rhs
            },
        )?;
    }

    #[test]
    fn element_contract(idx in domain_strategy(), value in domain_strategy(),
                        array in proptest::collection::vec(-4i32..6, 1..6)) {
        let domains = vec![idx, value];
        let (_, vars) = space_with(&domains);
        let array2 = array.clone();
        assert_contracts(
            &domains,
            ElementConst { array, idx: vars[0], value: vars[1] },
            &|asg| {
                usize::try_from(asg[0]).is_ok_and(|i| array2.get(i) == Some(&asg[1]))
            },
        )?;
    }

    #[test]
    fn maximum_contract(a in domain_strategy(), b in domain_strategy(),
                        y in domain_strategy()) {
        let domains = vec![a, b, y];
        let (_, vars) = space_with(&domains);
        assert_contracts(
            &domains,
            Maximum { vars: vec![vars[0], vars[1]], y: vars[2] },
            &|asg| asg[0].max(asg[1]) == asg[2],
        )?;
    }

    #[test]
    fn cumulative_contract(a in domain_strategy(), b in domain_strategy(),
                           d1 in 1i32..4, d2 in 1i32..4, cap in 1i32..3) {
        let domains = vec![a, b];
        let (_, vars) = space_with(&domains);
        let tasks = vec![
            Task { start: vars[0], duration: d1, demand: 1 },
            Task { start: vars[1], duration: d2, demand: 1 },
        ];
        assert_contracts(
            &domains,
            Cumulative::new(tasks, cap),
            &|asg| {
                // Demand-1 tasks: with capacity >= 2 anything goes; with
                // capacity 1 the two intervals must not overlap.
                cap >= 2 || asg[0] + d1 <= asg[1] || asg[1] + d2 <= asg[0]
            },
        )?;
    }

    #[test]
    fn table_contract(a in domain_strategy(), b in domain_strategy(),
                      c in domain_strategy(),
                      picks in proptest::collection::vec(uniform3(0usize..5), 0..4),
                      noise in proptest::collection::vec(uniform3(-4i32..6), 0..12)) {
        let domains = vec![a, b, c];
        let (_, vars) = space_with(&domains);
        // Rows picked from the domains start live; noise rows mostly do not.
        let rows: Vec<Vec<i32>> = picks
            .iter()
            .map(|p| (0..3).map(|j| domains[j][p[j] % domains[j].len()]).collect())
            .chain(noise.iter().map(|r| r.to_vec()))
            .collect();
        let check = |asg: &[i32]| rows.iter().any(|row| row.as_slice() == asg);
        assert_contracts(&domains, Table::new(vars.clone(), rows.clone()), &check)?;
        assert_exact(&domains, Table::new(vars, rows.clone()), &check)?;
    }

    #[test]
    fn lex_leq_pair_contract(x1 in domain_strategy(), y1 in domain_strategy(),
                             x2 in domain_strategy(), y2 in domain_strategy()) {
        let domains = vec![x1, y1, x2, y2];
        let (_, vars) = space_with(&domains);
        assert_contracts(
            &domains,
            LexLeqPair { x1: vars[0], y1: vars[1], x2: vars[2], y2: vars[3] },
            &|asg| (asg[0], asg[1]) <= (asg[2], asg[3]),
        )?;
    }
}
