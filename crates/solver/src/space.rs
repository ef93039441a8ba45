//! The solver's state: one [`Domain`] per variable, plus the change log the
//! propagation engine consumes.
//!
//! The solver uses *copy-based* state restoration (à la Gecode): branching
//! clones the space, so propagators keep no per-node mutable state and can
//! be shared immutably between search nodes and portfolio threads.

use crate::domain::{Domain, DomainEvent, Emptied};
use std::fmt;

/// A variable handle. Cheap to copy; indexes into the owning [`Space`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Raised when a domain becomes empty: the current space is inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict;

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inconsistent space (empty domain)")
    }
}

impl std::error::Error for Conflict {}

/// Outcome of a pruning operation that did not fail.
pub type PruneResult = Result<DomainEvent, Conflict>;

/// The domains of all variables plus a log of variables whose domains
/// changed since the log was last drained.
#[derive(Debug, Clone)]
pub struct Space {
    domains: Vec<Domain>,
    /// Variables touched since the engine last drained the log, with the
    /// strongest event seen. Deduplicated via `pending_event`.
    touched: Vec<VarId>,
    pending_event: Vec<DomainEvent>,
}

impl Space {
    pub fn new() -> Space {
        Space {
            domains: Vec::new(),
            touched: Vec::new(),
            pending_event: Vec::new(),
        }
    }

    /// Add a variable with the given initial domain.
    pub fn new_var(&mut self, domain: Domain) -> VarId {
        let id = VarId(self.domains.len() as u32);
        self.domains.push(domain);
        self.pending_event.push(DomainEvent::None);
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// The current domain of `v`.
    #[inline]
    pub fn domain(&self, v: VarId) -> &Domain {
        &self.domains[v.index()]
    }

    #[inline]
    pub fn min(&self, v: VarId) -> i32 {
        self.domain(v).min()
    }

    #[inline]
    pub fn max(&self, v: VarId) -> i32 {
        self.domain(v).max()
    }

    #[inline]
    pub fn is_fixed(&self, v: VarId) -> bool {
        self.domain(v).is_fixed()
    }

    /// The assigned value of `v`; panics if unfixed (engine invariant:
    /// only called on fixed variables, e.g. when extracting a solution).
    pub fn value(&self, v: VarId) -> i32 {
        self.domain(v)
            .value()
            .expect("value() called on unfixed variable")
    }

    #[inline]
    pub fn size(&self, v: VarId) -> u64 {
        self.domain(v).size()
    }

    #[inline]
    pub fn contains(&self, v: VarId, val: i32) -> bool {
        self.domain(v).contains(val)
    }

    fn record(&mut self, v: VarId, event: DomainEvent) {
        if event.changed() {
            if self.pending_event[v.index()] == DomainEvent::None {
                self.touched.push(v);
            }
            self.pending_event[v.index()] = self.pending_event[v.index()].max(event);
        }
    }

    fn apply(&mut self, v: VarId, res: Result<DomainEvent, Emptied>) -> PruneResult {
        match res {
            Ok(event) => {
                self.record(v, event);
                Ok(event)
            }
            Err(Emptied) => Err(Conflict),
        }
    }

    /// Prune: `v >= lo`.
    pub fn set_min(&mut self, v: VarId, lo: i32) -> PruneResult {
        let res = self.domains[v.index()].set_min(lo);
        self.apply(v, res)
    }

    /// Prune: `v <= hi`.
    pub fn set_max(&mut self, v: VarId, hi: i32) -> PruneResult {
        let res = self.domains[v.index()].set_max(hi);
        self.apply(v, res)
    }

    /// Prune: `v != val`.
    pub fn remove(&mut self, v: VarId, val: i32) -> PruneResult {
        let res = self.domains[v.index()].remove(val);
        self.apply(v, res)
    }

    /// Prune: `v == val`.
    pub fn assign(&mut self, v: VarId, val: i32) -> PruneResult {
        let res = self.domains[v.index()].assign(val);
        self.apply(v, res)
    }

    /// Prune: `v ∈ dom`.
    pub fn intersect(&mut self, v: VarId, dom: &Domain) -> PruneResult {
        let res = self.domains[v.index()].intersect(dom);
        self.apply(v, res)
    }

    /// Drain the change log: `(variable, strongest event)` pairs in first-
    /// touch order. Clears the log.
    pub fn drain_touched(&mut self, out: &mut Vec<(VarId, DomainEvent)>) {
        out.clear();
        for v in self.touched.drain(..) {
            out.push((v, self.pending_event[v.index()]));
            self.pending_event[v.index()] = DomainEvent::None;
        }
    }

    /// Whether any variable changed since the last drain.
    pub fn has_touched(&self) -> bool {
        !self.touched.is_empty()
    }

    /// Extract the full assignment. Panics if any variable is unfixed.
    pub fn assignment(&self) -> Vec<i32> {
        self.domains
            .iter()
            .map(|d| d.value().expect("assignment() on unfixed space"))
            .collect()
    }
}

impl Default for Space {
    fn default() -> Space {
        Space::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_var_space() -> (Space, VarId, VarId) {
        let mut s = Space::new();
        let a = s.new_var(Domain::interval(0, 9));
        let b = s.new_var(Domain::interval(-5, 5));
        (s, a, b)
    }

    #[test]
    fn var_ids_are_dense() {
        let (s, a, b) = two_var_space();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(s.num_vars(), 2);
    }

    #[test]
    fn prune_and_query() {
        let (mut s, a, _) = two_var_space();
        assert_eq!(s.set_min(a, 3).unwrap(), DomainEvent::Bounds);
        assert_eq!(s.min(a), 3);
        assert_eq!(s.set_max(a, 3).unwrap(), DomainEvent::Fixed);
        assert!(s.is_fixed(a));
        assert_eq!(s.value(a), 3);
    }

    #[test]
    fn conflict_on_empty() {
        let (mut s, a, _) = two_var_space();
        s.assign(a, 5).unwrap();
        assert_eq!(s.remove(a, 5), Err(Conflict));
        assert_eq!(s.set_min(a, 6), Err(Conflict));
    }

    #[test]
    fn touched_log_dedupes_and_strengthens() {
        let (mut s, a, b) = two_var_space();
        s.set_min(a, 2).unwrap(); // Bounds
        s.remove(a, 5).unwrap(); // Domain — weaker, same var
        s.assign(b, 0).unwrap(); // Fixed
        let mut log = Vec::new();
        s.drain_touched(&mut log);
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], (a, DomainEvent::Bounds));
        assert_eq!(log[1], (b, DomainEvent::Fixed));
        assert!(!s.has_touched());
        // Log is cleared: further drains see nothing.
        s.drain_touched(&mut log);
        assert!(log.is_empty());
    }

    #[test]
    fn noop_prunes_do_not_touch() {
        let (mut s, a, _) = two_var_space();
        s.set_min(a, -100).unwrap();
        s.remove(a, 50).unwrap();
        assert!(!s.has_touched());
    }

    #[test]
    fn all_fixed_and_assignment() {
        let (mut s, a, b) = two_var_space();
        assert!(!s.is_fixed(a) && !s.is_fixed(b));
        s.assign(a, 1).unwrap();
        s.assign(b, -2).unwrap();
        assert!(s.is_fixed(a) && s.is_fixed(b));
        assert_eq!(s.assignment(), vec![1, -2]);
    }

    #[test]
    fn clone_is_independent() {
        let (mut s, a, _) = two_var_space();
        let mut copy = s.clone();
        copy.assign(a, 7).unwrap();
        assert!(!s.is_fixed(a));
        s.assign(a, 2).unwrap();
        assert_eq!(copy.value(a), 7);
        assert_eq!(s.value(a), 2);
    }

    #[test]
    fn intersect_through_space() {
        let (mut s, a, _) = two_var_space();
        s.intersect(a, &Domain::from_values(&[1, 3, 5, 11]).unwrap())
            .unwrap();
        assert_eq!(s.domain(a).iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert!(s.intersect(a, &Domain::interval(6, 10)).is_err());
    }
}
