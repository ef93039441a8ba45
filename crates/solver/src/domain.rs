//! Finite integer domains represented as sorted, disjoint, non-adjacent
//! closed ranges.
//!
//! The range-list representation keeps the common cases allocation-light:
//! most variables in the placement model hold a single interval (anchor
//! coordinates) or a handful of scattered values (anchor positions that
//! survive resource filtering). All mutating operations report how the
//! domain changed through [`DomainEvent`] so the propagation engine can
//! schedule dependents precisely.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Raised by pruning operations that would empty the domain. The domain's
/// contents are unspecified after an `Emptied` result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emptied;

/// How a mutating operation changed a domain.
///
/// Ordered by strength: `None < Domain < Bounds < Fixed`. `Bounds` implies an
/// endpoint moved; `Domain` means only interior values were removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DomainEvent {
    /// Nothing was removed.
    None,
    /// Values were removed, but min and max are unchanged.
    Domain,
    /// Min and/or max changed, and more than one value remains.
    Bounds,
    /// Exactly one value remains.
    Fixed,
}

impl DomainEvent {
    /// Combine two events affecting the same variable.
    pub fn max(self, other: DomainEvent) -> DomainEvent {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Whether anything changed at all.
    pub fn changed(self) -> bool {
        self != DomainEvent::None
    }
}

/// A closed integer interval `[lo, hi]`.
pub type Range = (i32, i32);

/// A finite set of integers stored as sorted disjoint non-adjacent closed
/// ranges. The empty domain is representable (no ranges) but every public
/// constructor and pruning operation that would empty a domain reports it,
/// so engine code never works on empty domains silently.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Domain {
    ranges: Vec<Range>,
}

impl Domain {
    /// The interval domain `[lo, hi]`. Panics if `lo > hi`.
    pub fn interval(lo: i32, hi: i32) -> Domain {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Domain {
            ranges: vec![(lo, hi)],
        }
    }

    /// The singleton domain `{v}`.
    pub fn singleton(v: i32) -> Domain {
        Domain::interval(v, v)
    }

    /// A domain from arbitrary values (deduplicated). Returns `None` when
    /// `values` is empty.
    pub fn from_values(values: &[i32]) -> Option<Domain> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut ranges: Vec<Range> = Vec::new();
        for &v in &sorted {
            match ranges.last_mut() {
                Some((_, hi)) if *hi + 1 == v => *hi = v,
                _ => ranges.push((v, v)),
            }
        }
        Some(Domain { ranges })
    }

    /// Smallest value. Panics on empty domain (never observable through the
    /// engine, which fails a space before exposing an empty domain).
    #[inline]
    pub fn min(&self) -> i32 {
        self.ranges[0].0
    }

    /// Largest value.
    #[inline]
    pub fn max(&self) -> i32 {
        self.ranges[self.ranges.len() - 1].1
    }

    /// Number of values.
    pub fn size(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| (hi as i64 - lo as i64 + 1) as u64)
            .sum()
    }

    /// Whether exactly one value remains.
    #[inline]
    pub fn is_fixed(&self) -> bool {
        self.ranges.len() == 1 && self.ranges[0].0 == self.ranges[0].1
    }

    /// The single remaining value, if fixed.
    pub fn value(&self) -> Option<i32> {
        if self.is_fixed() {
            Some(self.ranges[0].0)
        } else {
            None
        }
    }

    /// Membership test (binary search over ranges).
    pub fn contains(&self, v: i32) -> bool {
        self.ranges
            .binary_search_by(|&(lo, hi)| {
                if v < lo {
                    std::cmp::Ordering::Greater
                } else if v > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// The ranges, sorted and disjoint.
    pub fn ranges(&self) -> &[Range] {
        &self.ranges
    }

    /// Iterate all values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = i32> + '_ {
        self.ranges.iter().flat_map(|&(lo, hi)| lo..=hi)
    }

    /// A value splitting the domain roughly in half for domain bisection
    /// (the largest value of the lower half).
    pub fn median(&self) -> i32 {
        let target = (self.size() - 1) / 2;
        let mut seen = 0u64;
        for &(lo, hi) in &self.ranges {
            let len = (hi as i64 - lo as i64 + 1) as u64;
            if seen + len > target {
                return lo + (target - seen) as i32;
            }
            seen += len;
        }
        unreachable!("median of empty domain")
    }

    fn event_after(&self, old_min: i32, old_max: i32, old_size: u64) -> DomainEvent {
        let new_size = self.size();
        if new_size == old_size {
            DomainEvent::None
        } else if new_size == 1 {
            DomainEvent::Fixed
        } else if self.min() != old_min || self.max() != old_max {
            DomainEvent::Bounds
        } else {
            DomainEvent::Domain
        }
    }

    /// Remove every value `< lo`. `Err(())` signals an emptied domain; the
    /// domain contents are unspecified afterwards.
    pub fn set_min(&mut self, lo: i32) -> Result<DomainEvent, Emptied> {
        if lo <= self.min() {
            return Ok(DomainEvent::None);
        }
        if lo > self.max() {
            return Err(Emptied);
        }
        let (old_min, old_max, old_size) = (self.min(), self.max(), self.size());
        // Drop whole ranges below lo, then trim the first survivor.
        let keep_from = self
            .ranges
            .iter()
            .position(|&(_, hi)| hi >= lo)
            .ok_or(Emptied)?;
        self.ranges.drain(..keep_from);
        if self.ranges[0].0 < lo {
            self.ranges[0].0 = lo;
        }
        Ok(self.event_after(old_min, old_max, old_size))
    }

    /// Remove every value `> hi`.
    pub fn set_max(&mut self, hi: i32) -> Result<DomainEvent, Emptied> {
        if hi >= self.max() {
            return Ok(DomainEvent::None);
        }
        if hi < self.min() {
            return Err(Emptied);
        }
        let (old_min, old_max, old_size) = (self.min(), self.max(), self.size());
        let keep_to = self
            .ranges
            .iter()
            .rposition(|&(lo, _)| lo <= hi)
            .ok_or(Emptied)?;
        self.ranges.truncate(keep_to + 1);
        let last = self.ranges.len() - 1;
        if self.ranges[last].1 > hi {
            self.ranges[last].1 = hi;
        }
        Ok(self.event_after(old_min, old_max, old_size))
    }

    /// Remove a single value.
    pub fn remove(&mut self, v: i32) -> Result<DomainEvent, Emptied> {
        let idx = match self.ranges.binary_search_by(|&(lo, hi)| {
            if v < lo {
                std::cmp::Ordering::Greater
            } else if v > hi {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => return Ok(DomainEvent::None),
        };
        let (old_min, old_max, old_size) = (self.min(), self.max(), self.size());
        if old_size == 1 {
            return Err(Emptied);
        }
        let (lo, hi) = self.ranges[idx];
        if lo == hi {
            self.ranges.remove(idx);
        } else if v == lo {
            self.ranges[idx].0 = v + 1;
        } else if v == hi {
            self.ranges[idx].1 = v - 1;
        } else {
            self.ranges[idx].1 = v - 1;
            self.ranges.insert(idx + 1, (v + 1, hi));
        }
        Ok(self.event_after(old_min, old_max, old_size))
    }

    /// Keep only `v`.
    pub fn assign(&mut self, v: i32) -> Result<DomainEvent, Emptied> {
        if !self.contains(v) {
            return Err(Emptied);
        }
        if self.is_fixed() {
            return Ok(DomainEvent::None);
        }
        self.ranges.clear();
        self.ranges.push((v, v));
        Ok(DomainEvent::Fixed)
    }

    /// Intersect with another domain.
    pub fn intersect(&mut self, other: &Domain) -> Result<DomainEvent, Emptied> {
        let (old_min, old_max, old_size) = (self.min(), self.max(), self.size());
        let mut out: Vec<Range> = Vec::with_capacity(self.ranges.len().min(other.ranges.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (alo, ahi) = self.ranges[i];
            let (blo, bhi) = other.ranges[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo <= hi {
                out.push((lo, hi));
            }
            if ahi < bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        if out.is_empty() {
            return Err(Emptied);
        }
        self.ranges = out;
        Ok(self.event_after(old_min, old_max, old_size))
    }

    /// Remove every value of `other` from `self`.
    pub fn subtract(&mut self, other: &Domain) -> Result<DomainEvent, Emptied> {
        let (old_min, old_max, old_size) = (self.min(), self.max(), self.size());
        let mut out: Vec<Range> = Vec::with_capacity(self.ranges.len() + other.ranges.len());
        let mut j = 0;
        for &(mut lo, hi) in &self.ranges {
            while j < other.ranges.len() && other.ranges[j].1 < lo {
                j += 1;
            }
            let mut k = j;
            while lo <= hi {
                if k >= other.ranges.len() || other.ranges[k].0 > hi {
                    out.push((lo, hi));
                    break;
                }
                let (blo, bhi) = other.ranges[k];
                if blo > lo {
                    out.push((lo, blo - 1));
                }
                if bhi >= hi {
                    break;
                }
                lo = lo.max(bhi + 1);
                k += 1;
            }
        }
        if out.is_empty() {
            return Err(Emptied);
        }
        self.ranges = out;
        Ok(self.event_after(old_min, old_max, old_size))
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if lo == hi {
                write!(f, "{lo}")?;
            } else {
                write!(f, "{lo}..{hi}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(values: &[i32]) -> Domain {
        Domain::from_values(values).unwrap()
    }

    #[test]
    fn from_values_coalesces() {
        let d = dom(&[5, 1, 2, 3, 9, 8, 2]);
        assert_eq!(d.ranges(), &[(1, 3), (5, 5), (8, 9)]);
        assert_eq!(d.size(), 6);
        assert_eq!(d.min(), 1);
        assert_eq!(d.max(), 9);
    }

    #[test]
    fn from_values_empty() {
        assert!(Domain::from_values(&[]).is_none());
    }

    #[test]
    fn contains_across_ranges() {
        let d = dom(&[1, 2, 3, 5, 8, 9]);
        for v in [1, 2, 3, 5, 8, 9] {
            assert!(d.contains(v), "{v}");
        }
        for v in [0, 4, 6, 7, 10, -5] {
            assert!(!d.contains(v), "{v}");
        }
    }

    #[test]
    fn iter_ascending() {
        let d = dom(&[7, 1, 3, 2]);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2, 3, 7]);
    }

    #[test]
    fn set_min_events() {
        let mut d = Domain::interval(0, 10);
        assert_eq!(d.set_min(0).unwrap(), DomainEvent::None);
        assert_eq!(d.set_min(-5).unwrap(), DomainEvent::None);
        assert_eq!(d.set_min(3).unwrap(), DomainEvent::Bounds);
        assert_eq!(d.min(), 3);
        assert_eq!(d.set_min(10).unwrap(), DomainEvent::Fixed);
        assert_eq!(d.value(), Some(10));
        assert!(d.set_min(11).is_err());
    }

    #[test]
    fn set_min_drops_whole_ranges() {
        let mut d = dom(&[1, 2, 5, 6, 9]);
        assert_eq!(d.set_min(5).unwrap(), DomainEvent::Bounds);
        assert_eq!(d.ranges(), &[(5, 6), (9, 9)]);
        assert_eq!(d.set_min(7).unwrap(), DomainEvent::Fixed);
        assert_eq!(d.value(), Some(9));
    }

    #[test]
    fn set_max_events() {
        let mut d = Domain::interval(0, 10);
        assert_eq!(d.set_max(10).unwrap(), DomainEvent::None);
        assert_eq!(d.set_max(4).unwrap(), DomainEvent::Bounds);
        assert_eq!(d.max(), 4);
        assert_eq!(d.set_max(0).unwrap(), DomainEvent::Fixed);
        assert!(d.set_max(-1).is_err());
    }

    #[test]
    fn set_max_drops_whole_ranges() {
        let mut d = dom(&[1, 2, 5, 6, 9]);
        assert_eq!(d.set_max(6).unwrap(), DomainEvent::Bounds);
        assert_eq!(d.ranges(), &[(1, 2), (5, 6)]);
        assert_eq!(d.set_max(3).unwrap(), DomainEvent::Bounds);
        assert_eq!(d.ranges(), &[(1, 2)]);
    }

    #[test]
    fn remove_interior_splits() {
        let mut d = Domain::interval(0, 4);
        assert_eq!(d.remove(2).unwrap(), DomainEvent::Domain);
        assert_eq!(d.ranges(), &[(0, 1), (3, 4)]);
    }

    #[test]
    fn remove_endpoint_is_bounds_event() {
        let mut d = Domain::interval(0, 4);
        assert_eq!(d.remove(0).unwrap(), DomainEvent::Bounds);
        assert_eq!(d.remove(4).unwrap(), DomainEvent::Bounds);
        assert_eq!(d.ranges(), &[(1, 3)]);
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut d = dom(&[1, 5]);
        assert_eq!(d.remove(3).unwrap(), DomainEvent::None);
        assert_eq!(d.size(), 2);
    }

    #[test]
    fn remove_last_value_fails() {
        let mut d = Domain::singleton(7);
        assert!(d.remove(7).is_err());
    }

    #[test]
    fn remove_singleton_range() {
        let mut d = dom(&[1, 3, 5]);
        assert_eq!(d.remove(3).unwrap(), DomainEvent::Domain);
        assert_eq!(d.ranges(), &[(1, 1), (5, 5)]);
    }

    #[test]
    fn assign_cases() {
        let mut d = Domain::interval(0, 9);
        assert_eq!(d.assign(4).unwrap(), DomainEvent::Fixed);
        assert_eq!(d.value(), Some(4));
        assert_eq!(d.assign(4).unwrap(), DomainEvent::None);
        assert!(d.assign(5).is_err());
        let mut d2 = dom(&[1, 5]);
        assert!(d2.assign(3).is_err());
    }

    #[test]
    fn intersect_cases() {
        let mut d = dom(&[1, 2, 3, 6, 7, 10]);
        let other = dom(&[2, 3, 4, 7, 10, 11]);
        assert_eq!(d.intersect(&other).unwrap(), DomainEvent::Bounds);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![2, 3, 7, 10]);
        // Intersect with superset: no change.
        let sup = Domain::interval(-100, 100);
        assert_eq!(d.intersect(&sup).unwrap(), DomainEvent::None);
        // Disjoint: failure.
        let disj = dom(&[0, 50]);
        assert!(d.intersect(&disj).is_err());
    }

    #[test]
    fn subtract_cases() {
        let mut d = Domain::interval(0, 9);
        let cut = dom(&[2, 3, 7]);
        assert_eq!(d.subtract(&cut).unwrap(), DomainEvent::Domain);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0, 1, 4, 5, 6, 8, 9]);
        // Subtracting everything fails.
        let all = Domain::interval(-10, 20);
        assert!(d.subtract(&all).is_err());
    }

    #[test]
    fn subtract_disjoint_noop() {
        let mut d = dom(&[1, 2, 3]);
        let cut = dom(&[10, 20]);
        assert_eq!(d.subtract(&cut).unwrap(), DomainEvent::None);
        assert_eq!(d.size(), 3);
    }

    #[test]
    fn subtract_spanning_range() {
        // A single subtrahend range covering multiple minuend ranges.
        let mut d = dom(&[1, 2, 5, 6, 9]);
        let cut = Domain::interval(2, 8);
        // Endpoints 1 and 9 survive, so this is an interior (Domain) event.
        assert_eq!(d.subtract(&cut).unwrap(), DomainEvent::Domain);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 9]);
    }

    #[test]
    fn median_halves() {
        assert_eq!(Domain::interval(0, 9).median(), 4);
        assert_eq!(Domain::singleton(3).median(), 3);
        assert_eq!(dom(&[1, 9]).median(), 1);
        assert_eq!(dom(&[1, 5, 9]).median(), 5);
    }

    #[test]
    fn display_format() {
        assert_eq!(dom(&[1, 2, 3, 7]).to_string(), "{1..3, 7}");
        assert_eq!(Domain::singleton(4).to_string(), "{4}");
    }

    #[test]
    fn event_ordering() {
        assert!(DomainEvent::Fixed > DomainEvent::Bounds);
        assert!(DomainEvent::Bounds > DomainEvent::Domain);
        assert!(DomainEvent::Domain > DomainEvent::None);
        assert_eq!(
            DomainEvent::Domain.max(DomainEvent::Bounds),
            DomainEvent::Bounds
        );
        assert!(!DomainEvent::None.changed());
        assert!(DomainEvent::Domain.changed());
    }

    #[test]
    fn size_of_large_interval_no_overflow() {
        let d = Domain::interval(i32::MIN, i32::MAX);
        assert_eq!(d.size(), 1u64 << 32);
    }
}
