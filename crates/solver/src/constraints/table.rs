//! Positive table constraint: the variable tuple must match one of an
//! explicit list of allowed rows.
//!
//! The placement model uses tables for resource-compatibility filtering:
//! `(shape, x, y)` triples that put every module tile on a matching fabric
//! tile. Propagation is generalized arc consistency by support scanning,
//! which is exact and — for the table sizes the placer produces (thousands
//! of rows, arity 3) — fast enough without incremental support stores
//! (propagators are stateless by design; see `propagator.rs`).

use crate::domain::Domain;
use crate::propagator::Propagator;
use crate::space::{Conflict, Space, VarId};
use std::sync::atomic::{AtomicU64, Ordering};

/// `(x₁, …, xₖ) ∈ rows`. Rows with arity differing from `vars` are a
/// construction error.
pub struct Table {
    vars: Vec<VarId>,
    rows: Vec<Vec<i32>>,
    /// Lifetime count of rows examined by `propagate`. Propagators are
    /// immutable after posting (shared across portfolio threads), so
    /// this is the one piece of mutable state — a relaxed counter read
    /// back through [`Propagator::scanned`].
    rows_scanned: AtomicU64,
}

impl Table {
    pub fn new(vars: Vec<VarId>, rows: Vec<Vec<i32>>) -> Table {
        assert!(!vars.is_empty(), "table over no variables");
        for row in &rows {
            assert_eq!(row.len(), vars.len(), "table row arity mismatch");
        }
        Table {
            vars,
            rows,
            rows_scanned: AtomicU64::new(0),
        }
    }
}

impl Propagator for Table {
    fn propagate(&self, space: &mut Space) -> Result<(), Conflict> {
        let arity = self.vars.len();
        self.rows_scanned
            .fetch_add(self.rows.len() as u64, Ordering::Relaxed);
        // Collect the values supported by at least one live row, per column.
        let mut supported: Vec<Vec<i32>> = vec![Vec::new(); arity];
        let mut any_live = false;
        'rows: for row in &self.rows {
            for (j, &v) in row.iter().enumerate() {
                if !space.contains(self.vars[j], v) {
                    continue 'rows;
                }
            }
            any_live = true;
            for (j, &v) in row.iter().enumerate() {
                supported[j].push(v);
            }
        }
        if !any_live {
            return Err(Conflict);
        }
        for (j, values) in supported.into_iter().enumerate() {
            let dom = Domain::from_values(&values).ok_or(Conflict)?;
            space.intersect(self.vars[j], &dom)?;
        }
        Ok(())
    }

    fn dependencies(&self) -> Vec<VarId> {
        self.vars.clone()
    }

    fn name(&self) -> &'static str {
        "table"
    }

    fn scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::Engine;

    fn run(space: &mut Space, p: impl Propagator + 'static) -> Result<(), Conflict> {
        let mut engine = Engine::new(space.num_vars());
        engine.post(p);
        engine.schedule_all();
        engine.propagate(space)
    }

    fn space_with(ranges: &[(i32, i32)]) -> (Space, Vec<VarId>) {
        let mut space = Space::new();
        let vars = ranges
            .iter()
            .map(|&(lo, hi)| space.new_var(Domain::interval(lo, hi)))
            .collect();
        (space, vars)
    }

    #[test]
    fn filters_to_supported_values() {
        let (mut space, v) = space_with(&[(0, 5), (0, 5)]);
        let rows = vec![vec![0, 1], vec![2, 3], vec![4, 1]];
        run(&mut space, Table::new(v.clone(), rows)).unwrap();
        assert_eq!(space.domain(v[0]).iter().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(space.domain(v[1]).iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn cross_column_consistency() {
        let (mut space, v) = space_with(&[(0, 5), (0, 5)]);
        let rows = vec![vec![0, 1], vec![2, 3]];
        space.remove(v[1], 1).unwrap();
        run(&mut space, Table::new(v.clone(), rows)).unwrap();
        // Row (0,1) dies with value 1, so x0 loses 0.
        assert_eq!(space.domain(v[0]).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(space.domain(v[1]).iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn no_live_row_fails() {
        let (mut space, v) = space_with(&[(10, 20), (10, 20)]);
        let rows = vec![vec![0, 1], vec![2, 3]];
        assert!(run(&mut space, Table::new(v, rows)).is_err());
    }

    #[test]
    fn empty_table_fails() {
        let (mut space, v) = space_with(&[(0, 5)]);
        assert!(run(&mut space, Table::new(v, Vec::new())).is_err());
    }

    #[test]
    fn ternary_table() {
        let (mut space, v) = space_with(&[(0, 9), (0, 9), (0, 9)]);
        let rows = vec![vec![1, 2, 3], vec![1, 5, 6], vec![7, 2, 6]];
        space.assign(v[2], 6).unwrap();
        run(&mut space, Table::new(v.clone(), rows)).unwrap();
        assert_eq!(space.domain(v[0]).iter().collect::<Vec<_>>(), vec![1, 7]);
        assert_eq!(space.domain(v[1]).iter().collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn rows_scanned_counts_every_pass() {
        let (mut space, v) = space_with(&[(0, 5), (0, 5)]);
        let table = Table::new(v, vec![vec![0, 1], vec![2, 3], vec![4, 1]]);
        assert_eq!(table.scanned(), 0);
        table.propagate(&mut space).unwrap();
        assert_eq!(table.scanned(), 3);
        table.propagate(&mut space).unwrap();
        assert_eq!(table.scanned(), 6);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let (_, v) = space_with(&[(0, 1), (0, 1)]);
        let _ = Table::new(v, vec![vec![0]]);
    }
}
