//! The CGRA instantiation of the minimax core (DESIGN.md §15).
//!
//! Slots are the next `slots` configuration executions of one footprint;
//! choices are the *legal* pivot offsets (legality — fault mask plus
//! capability demands — is injected as a predicate so the caller reuses the
//! shared `placement_ok`); resources are the fabric's FUs, loaded with
//! their live stress counters. A choice's deltas replicate
//! `UtilizationTracker::record_execution`'s bandwidth-aware stress rule
//! exactly, so the solved objective *is* the post-epoch worst-FU stress.

use cgra::{Fabric, Offset};

use crate::bnb::MinimaxProblem;

/// The wear-optimal pivot-selection problem for one footprint on one
/// fabric: minimize the maximum post-epoch per-FU stress count over all
/// assignments of the next `slots` executions to legal offsets.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use solve::{solve, OffsetProblem};
///
/// let fabric = Fabric::be();
/// let initial = vec![0u64; fabric.fu_count() as usize];
/// let p = OffsetProblem::new(&fabric, &[(0, 0), (0, 1)], &initial, 1, |_| true);
/// let s = solve(&p).unwrap();
/// assert_eq!(s.objective, 1); // one execution, one stress on a cold FU
/// ```
#[derive(Clone, Debug)]
pub struct OffsetProblem {
    slots: usize,
    initial: Vec<u64>,
    offsets: Vec<Offset>,
    deltas: Vec<Vec<(u32, u64)>>,
}

impl OffsetProblem {
    /// Builds the problem: enumerate pivots in row-major order, keep those
    /// `legal` accepts (pass the request's `placement_ok`), and precompute
    /// each survivor's per-FU stress deltas — `ceil(occupancy / bandwidth)`
    /// per covered cell on budgeted fabrics, 1 otherwise, matching the
    /// tracker's accounting (DESIGN.md §14).
    ///
    /// `initial_loads` are the live row-major stress counters
    /// (`UtilizationTracker::stress_counts`); `slots` is the epoch length
    /// being planned.
    ///
    /// # Panics
    ///
    /// Panics if `initial_loads` does not match the fabric's FU count.
    pub fn new(
        fabric: &Fabric,
        footprint: &[(u32, u32)],
        initial_loads: &[u64],
        slots: usize,
        mut legal: impl FnMut(Offset) -> bool,
    ) -> OffsetProblem {
        assert_eq!(
            initial_loads.len(),
            fabric.fu_count() as usize,
            "initial loads must be row-major per-FU counters"
        );
        let mut offsets = Vec::new();
        let mut deltas = Vec::new();
        for row in 0..fabric.rows {
            for col in 0..fabric.cols {
                let o = Offset::new(row, col);
                if !legal(o) {
                    continue;
                }
                let cells: Vec<(u32, u32)> =
                    footprint.iter().map(|&(r, c)| o.apply(fabric, r, c)).collect();
                let mut d: Vec<(u32, u64)> = cells
                    .iter()
                    .map(|&(pr, pc)| {
                        let stress = if fabric.col_bandwidth == 0 {
                            1
                        } else {
                            let occupancy = cells.iter().filter(|&&(_, c)| c == pc).count() as u64;
                            occupancy.div_ceil(fabric.col_bandwidth as u64)
                        };
                        (pr * fabric.cols + pc, stress)
                    })
                    .collect();
                // Merge repeated cells (overlapping ops) so each resource
                // appears once; the summed delta matches the tracker's
                // per-occurrence accrual.
                d.sort_unstable();
                d.dedup_by(|next, acc| {
                    if acc.0 == next.0 {
                        acc.1 += next.1;
                        true
                    } else {
                        false
                    }
                });
                offsets.push(o);
                deltas.push(d);
            }
        }
        OffsetProblem { slots, initial: initial_loads.to_vec(), offsets, deltas }
    }

    /// Maps a solver choice index back to its pivot offset.
    pub fn offset(&self, choice: usize) -> Offset {
        self.offsets[choice]
    }
}

impl MinimaxProblem for OffsetProblem {
    fn slots(&self) -> usize {
        self.slots
    }

    fn choices(&self) -> usize {
        self.offsets.len()
    }

    fn resources(&self) -> usize {
        self.initial.len()
    }

    fn initial_load(&self, resource: usize) -> u64 {
        self.initial[resource]
    }

    fn legal(&self, _slot: usize, _choice: usize) -> bool {
        true // illegal pivots were filtered at construction
    }

    fn deltas(&self, _slot: usize, choice: usize) -> &[(u32, u64)] {
        &self.deltas[choice]
    }

    fn exchangeable(&self) -> bool {
        true // every slot plans the same footprint over the same pivots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::solve;

    #[test]
    fn enumerates_legal_offsets_row_major() {
        let fabric = Fabric::new(2, 4);
        let initial = vec![0u64; 8];
        let p = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 1, |_| true);
        assert_eq!(p.choices(), 8);
        assert_eq!(p.offset(0), Offset::new(0, 0));
        assert_eq!(p.offset(7), Offset::new(1, 3));
        let filtered = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 1, |o| o.row == 1);
        assert_eq!(filtered.choices(), 4);
        assert_eq!(filtered.offset(0), Offset::new(1, 0));
        let none = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 1, |_| false);
        assert_eq!(none.choices(), 0);
        assert!(solve(&none).is_none());
    }

    #[test]
    fn deltas_wrap_and_weight_by_bandwidth() {
        // Two cells in one column on a bandwidth-1 fabric serialize:
        // stress 2 per cell, exactly the tracker's rule.
        let mut fabric = Fabric::new(2, 4);
        fabric.col_bandwidth = 1;
        let initial = vec![0u64; 8];
        let p = OffsetProblem::new(&fabric, &[(0, 0), (1, 0)], &initial, 1, |_| true);
        assert_eq!(p.deltas(0, 0), &[(0, 2), (4, 2)]);
        // The last column pivot wraps the footprint's second row cell.
        let wrap = OffsetProblem::new(&fabric, &[(0, 0), (0, 1)], &initial, 1, |_| true);
        let last = wrap.choices() - 1; // pivot (1, 3): cells (1,3) and (1,0)
        assert_eq!(wrap.deltas(0, last), &[(4, 1), (7, 1)]);
    }

    #[test]
    fn one_slot_dodges_the_hot_corner() {
        let fabric = Fabric::new(2, 4);
        let mut initial = vec![0u64; 8];
        initial[0] = 10; // (0,0) is hot
        let p = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 1, |_| true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 10, "the hot FU still dominates");
        assert_ne!(p.offset(s.choices[0]), Offset::ORIGIN, "but the pivot moved off it");
    }

    #[test]
    fn joint_epoch_plan_spreads_stress() {
        // Eight single-cell executions on a 2x4 fabric: the optimum covers
        // every FU exactly once.
        let fabric = Fabric::new(2, 4);
        let initial = vec![0u64; 8];
        let p = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 8, |_| true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 1);
    }
}
