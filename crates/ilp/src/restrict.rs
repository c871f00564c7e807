//! Local sub-instances `P^local_S` and `Q^local_S` (Observations 2.1–2.2).
//!
//! *Packing* (§2.2): the local problem on `S` keeps **all** constraints,
//! with the variables outside `S` set to zero — because coefficients are
//! non-negative, this is exactly the restriction of each constraint to its
//! `S`-support with an unchanged bound, and any local solution extends to a
//! globally feasible one by zero-filling.
//!
//! *Covering* (§2.3): the local problem on `S` keeps only the constraints
//! whose support lies **entirely inside** `S` — inter-cluster constraints
//! are someone else's responsibility (the sparse cover guarantees each is
//! fully inside at least one cluster).
//!
//! **Cost.** [`packing_restriction_list`] and [`covering_restriction_list`]
//! take `S` as a sorted, duplicate-free vertex list and visit only the
//! constraints incident to `S`. Hyperedge `j` of
//! [`IlpInstance::hypergraph`] is constraint `j`'s support, so
//! [`dapc_graph::Hypergraph::incident_edges`] names them. One call costs
//! `O(|S| + Σ_{v∈S} deg v + m/64)`, the last term a bitset that puts the
//! incident constraints in ascending order without a sort, plus one pass
//! over each incident row, against the `O(n + nnz)` of a scan over every
//! constraint. The result is a flat [`SubInstance`] (row starts, local
//! ids with coefficients, bounds) that lives in a [`RestrictScratch`],
//! next to the `n`-length id map and the bitset. A scratch that has
//! served a sub-instance at least as large allocates nothing, however
//! many constraints are kept. The mask forms ([`packing_restriction`],
//! [`covering_restriction`], [`covering_restriction_with_fixed`]) are
//! wrappers that list the mask first, in `O(n)`, and return an owned
//! sub-instance.

use crate::instance::{IlpInstance, Sense, FEASIBILITY_EPS};
use dapc_graph::{EdgeId, Vertex};

/// A reindexed sub-instance with its mapping back to global variables.
///
/// Its constraints are stored flat: each row is a slice of
/// `(local variable, coefficient)` pairs sorted by variable, with its own
/// bound ([`SubInstance::rows`], [`SubInstance::bound`]).
#[derive(Clone, Debug)]
pub struct SubInstance {
    /// Packing or covering (inherited from the parent instance).
    pub sense: Sense,
    /// Global variable ids, sorted; local variable `i` is `vars[i]`.
    pub vars: Vec<Vertex>,
    /// Local weights (same order as `vars`).
    pub weights: Vec<u64>,
    /// Row `j` is `entries[row_start[j]..row_start[j + 1]]`.
    row_start: Vec<usize>,
    /// Every row's `(local variable, coefficient)` pairs, row after row.
    entries: Vec<(Vertex, f64)>,
    /// Every row's bound.
    bounds: Vec<f64>,
}

impl SubInstance {
    /// A sub-instance with no variables and no rows.
    fn empty(sense: Sense) -> Self {
        SubInstance {
            sense,
            vars: Vec::new(),
            weights: Vec::new(),
            row_start: vec![0],
            entries: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// Empties the sub-instance, keeping its buffers.
    fn clear(&mut self, sense: Sense) {
        self.sense = sense;
        self.vars.clear();
        self.weights.clear();
        self.row_start.truncate(1);
        self.entries.clear();
        self.bounds.clear();
    }

    /// Closes the row whose pairs were pushed onto `entries` since the
    /// last one.
    fn end_row(&mut self, bound: f64) {
        debug_assert!(bound >= 0.0 && bound.is_finite());
        self.row_start.push(self.entries.len());
        self.bounds.push(bound);
    }

    /// Number of local variables.
    pub fn n(&self) -> usize {
        self.vars.len()
    }

    /// Number of local constraints.
    pub fn m(&self) -> usize {
        self.bounds.len()
    }

    /// Row `j`'s bound.
    pub fn bound(&self, j: usize) -> f64 {
        self.bounds[j]
    }

    /// Every row with its bound, in order: the row's `(local variable,
    /// coefficient)` pairs, sorted by variable, every coefficient
    /// positive.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (&[(Vertex, f64)], f64)> + '_ {
        self.row_start
            .windows(2)
            .zip(&self.bounds)
            .map(|(w, &bound)| (&self.entries[w[0]..w[1]], bound))
    }

    /// Total local weight.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Objective value of a local assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length mismatches.
    pub fn value(&self, x: &[bool]) -> u64 {
        assert_eq!(x.len(), self.n());
        x.iter()
            .zip(&self.weights)
            .filter(|(&xi, _)| xi)
            .map(|(_, &w)| w)
            .sum()
    }

    /// Whether a local assignment satisfies all local constraints.
    pub fn is_feasible(&self, x: &[bool]) -> bool {
        assert_eq!(x.len(), self.n());
        self.rows().all(|(row, bound)| {
            let lhs: f64 = row
                .iter()
                .filter(|&&(v, _)| x[v as usize])
                .map(|&(_, a)| a)
                .sum();
            match self.sense {
                Sense::Packing => lhs <= bound + FEASIBILITY_EPS,
                Sense::Covering => lhs + FEASIBILITY_EPS >= bound,
            }
        })
    }

    /// Writes a local assignment into a global one (only touches the
    /// sub-instance's variables).
    pub fn lift_into(&self, local: &[bool], global: &mut [bool]) {
        assert_eq!(local.len(), self.n());
        for (i, &v) in self.vars.iter().enumerate() {
            global[v as usize] = local[i];
        }
    }
}

/// Local id of a vertex outside `S` in [`RestrictScratch`]'s map.
const OUTSIDE: u32 = u32::MAX;

/// Local id of a vertex of `S` that is fixed to one (covering only).
const FIXED: u32 = u32::MAX - 1;

/// A reusable bitset over dense `u32` ids (vertices, constraints) that
/// hands its members back in ascending order in `O(|set| + max id/64)`,
/// with no comparison sort. Every word is zero between uses.
#[derive(Debug, Default)]
pub struct IdBits {
    words: Vec<u64>,
}

impl IdBits {
    /// Adds `id`; whether it was absent.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let word = (id / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (id % 64);
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        absent
    }

    /// Appends the members to `out` in ascending order and empties the set.
    pub fn drain_into(&mut self, out: &mut Vec<u32>) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(i as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Replaces `out` with the distinct `ids`, ascending.
    pub fn sort_into(&mut self, ids: impl IntoIterator<Item = u32>, out: &mut Vec<u32>) {
        for id in ids {
            self.insert(id);
        }
        out.clear();
        self.drain_into(out);
    }
}

/// Reusable buffers of the list restrictions: a global-to-local id map,
/// which every call restores to all-outside before it returns, the
/// incident constraint ids of the current call, and the sub-instance the
/// last call built. Keep one per solver or worker; it grows to the
/// largest instance and sub-instance it has served.
#[derive(Debug)]
pub struct RestrictScratch {
    local_id: Vec<u32>,
    incident: Vec<EdgeId>,
    edge_bits: IdBits,
    sub: SubInstance,
}

impl Default for RestrictScratch {
    fn default() -> Self {
        RestrictScratch {
            local_id: Vec::new(),
            incident: Vec::new(),
            edge_bits: IdBits::default(),
            sub: SubInstance::empty(Sense::Packing),
        }
    }
}

impl RestrictScratch {
    /// Creates an empty scratch; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts [`RestrictScratch::sub`] over with the free vertices of
    /// `vars` (those not fixed to one) and their weights, numbers them in
    /// order, marks the fixed ones [`FIXED`], and gathers the ascending,
    /// distinct ids of the constraints incident to `vars` through a
    /// bitset, in `O(Σ deg v + m/64)`. [`RestrictScratch::finish`] undoes
    /// the marks.
    fn begin(&mut self, ilp: &IlpInstance, vars: &[Vertex], fixed_ones: Option<&[bool]>) {
        debug_assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "the vertex list must be sorted and duplicate-free"
        );
        if self.local_id.len() < ilp.n() {
            self.local_id.resize(ilp.n(), OUTSIDE);
        }
        let h = ilp.hypergraph();
        let sub = &mut self.sub;
        sub.clear(ilp.sense());
        for &v in vars {
            for &e in h.incident_edges(v) {
                self.edge_bits.insert(e);
            }
            self.local_id[v as usize] = if fixed_ones.is_some_and(|f| f[v as usize]) {
                FIXED
            } else {
                sub.vars.push(v);
                sub.weights.push(ilp.weight(v));
                (sub.vars.len() - 1) as u32
            };
        }
        self.edge_bits.drain_into(&mut self.incident);
    }

    /// Restores the all-[`OUTSIDE`] map after a call on `vars`.
    fn finish(&mut self, vars: &[Vertex]) {
        for &v in vars {
            self.local_id[v as usize] = OUTSIDE;
        }
        self.incident.clear();
    }

    /// Appends the entries of `row` whose local id passes `keep`,
    /// relabelled to local ids, to the sub-instance's open row. Local ids
    /// grow with the global ones, so the row stays sorted.
    fn push_local(&mut self, row: &[(Vertex, f64)], keep: impl Fn(u32) -> bool) {
        let local_id = &self.local_id;
        self.sub.entries.extend(
            row.iter()
                .map(|&(v, a)| (local_id[v as usize], a))
                .filter(|&(id, _)| keep(id)),
        );
    }
}

/// Builds `P^local_S` for a packing instance: every constraint touching `S`
/// is kept, restricted to its `S`-support, bound unchanged (Observation
/// 2.1). Constraints whose restricted support is empty are dropped (they
/// are vacuous for variables in `S`).
///
/// `vars` must be sorted and duplicate-free; see the module docs for the
/// cost. The result lives in `scratch` until its next call, and is
/// identical to [`packing_restriction`] on the mask of `vars`.
///
/// # Panics
///
/// Panics if the instance is not packing or a vertex is out of range.
pub fn packing_restriction_list<'s>(
    ilp: &IlpInstance,
    vars: &[Vertex],
    scratch: &'s mut RestrictScratch,
) -> &'s SubInstance {
    assert_eq!(ilp.sense(), Sense::Packing, "expected a packing instance");
    scratch.begin(ilp, vars, None);
    for j in 0..scratch.incident.len() {
        let c = &ilp.constraints()[scratch.incident[j] as usize];
        scratch.push_local(c.coeffs(), |id| id != OUTSIDE);
        scratch.sub.end_row(c.bound());
    }
    scratch.finish(vars);
    &scratch.sub
}

/// Builds `Q^local_S` for a covering instance, honouring variables already
/// **fixed to one** by earlier carving steps (§5.1.2 "fixing assignment"):
/// only constraints fully inside `S` are kept (Observation 2.2), fixed
/// variables are removed from the sub-instance and their contribution is
/// subtracted from each bound, so the local solver pays nothing for them.
/// Constraints the fixed variables already satisfy are dropped.
///
/// `vars` must be sorted and duplicate-free; only the entries of
/// `fixed_ones` at `vars` are read. The result lives in `scratch` until
/// its next call, and is identical to [`covering_restriction_with_fixed`]
/// on the mask of `vars`.
///
/// # Panics
///
/// Panics if the instance is not covering, the overlay's length is not
/// `n`, or a vertex is out of range.
pub fn covering_restriction_list<'s>(
    ilp: &IlpInstance,
    vars: &[Vertex],
    fixed_ones: Option<&[bool]>,
    scratch: &'s mut RestrictScratch,
) -> &'s SubInstance {
    assert_eq!(ilp.sense(), Sense::Covering, "expected a covering instance");
    if let Some(f) = fixed_ones {
        assert_eq!(f.len(), ilp.n());
    }
    scratch.begin(ilp, vars, fixed_ones);
    for j in 0..scratch.incident.len() {
        let c = &ilp.constraints()[scratch.incident[j] as usize];
        let id = |v: Vertex| scratch.local_id[v as usize];
        if c.coeffs().iter().any(|&(v, _)| id(v) == OUTSIDE) {
            continue; // not fully inside S
        }
        let fixed_contribution: f64 = c
            .coeffs()
            .iter()
            .filter(|&&(v, _)| id(v) == FIXED)
            .map(|&(_, a)| a)
            .sum();
        let bound = (c.bound() - fixed_contribution).max(0.0);
        if bound <= FEASIBILITY_EPS {
            continue; // already satisfied by fixed variables
        }
        scratch.push_local(c.coeffs(), |id| id < FIXED);
        scratch.sub.end_row(bound);
    }
    scratch.finish(vars);
    &scratch.sub
}

/// [`packing_restriction_list`] on a membership mask.
///
/// # Panics
///
/// Panics if the instance is not packing or the mask length mismatches.
pub fn packing_restriction(ilp: &IlpInstance, subset: &[bool]) -> SubInstance {
    assert_eq!(ilp.sense(), Sense::Packing, "expected a packing instance");
    assert_eq!(subset.len(), ilp.n());
    let mut scratch = RestrictScratch::new();
    packing_restriction_list(ilp, &list_of(subset), &mut scratch);
    scratch.sub
}

/// [`covering_restriction_list`] on a membership mask, with no fixed
/// variables.
///
/// # Panics
///
/// Panics if the instance is not covering or the mask length mismatches.
pub fn covering_restriction(ilp: &IlpInstance, subset: &[bool]) -> SubInstance {
    covering_restriction_with_fixed(ilp, subset, None)
}

/// [`covering_restriction_list`] on a membership mask.
///
/// # Panics
///
/// Panics if the instance is not covering or a mask length mismatches.
pub fn covering_restriction_with_fixed(
    ilp: &IlpInstance,
    subset: &[bool],
    fixed_ones: Option<&[bool]>,
) -> SubInstance {
    assert_eq!(ilp.sense(), Sense::Covering, "expected a covering instance");
    assert_eq!(subset.len(), ilp.n());
    let mut scratch = RestrictScratch::new();
    covering_restriction_list(ilp, &list_of(subset), fixed_ones, &mut scratch);
    scratch.sub
}

/// The sorted vertex list of a membership mask (the inverse of
/// [`mask_of`]).
pub fn list_of(mask: &[bool]) -> Vec<Vertex> {
    (0..mask.len() as Vertex)
        .filter(|&v| mask[v as usize])
        .collect()
}

/// Builds a membership mask from a vertex list.
pub fn mask_of(n: usize, vertices: &[Vertex]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &v in vertices {
        mask[v as usize] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Constraint;
    use crate::problems;
    use dapc_graph::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// The full-scan `P^local_S` the list form replaced: the reference it
    /// must reproduce bit for bit.
    fn reference_packing(ilp: &IlpInstance, subset: &[bool]) -> SubInstance {
        let (vars, local_id) = reference_vars(subset);
        let mut sub = SubInstance::empty(Sense::Packing);
        sub.weights = vars.iter().map(|&v| ilp.weight(v)).collect();
        sub.vars = vars;
        for c in ilp.constraints() {
            let coeffs: Vec<(Vertex, f64)> = c
                .coeffs()
                .iter()
                .filter(|&&(v, _)| subset[v as usize])
                .map(|&(v, a)| (local_id[v as usize], a))
                .collect();
            if !coeffs.is_empty() {
                push_row(&mut sub, Constraint::new(coeffs, c.bound()));
            }
        }
        sub
    }

    /// Appends a canonical row to a reference sub-instance.
    fn push_row(sub: &mut SubInstance, row: Constraint) {
        sub.entries.extend_from_slice(row.coeffs());
        sub.end_row(row.bound());
    }

    /// The full-scan `Q^local_S` (with fixed ones) the list form replaced.
    fn reference_covering(
        ilp: &IlpInstance,
        subset: &[bool],
        fixed_ones: Option<&[bool]>,
    ) -> SubInstance {
        let is_fixed = |v: Vertex| fixed_ones.is_some_and(|f| f[v as usize]);
        let free: Vec<bool> = (0..ilp.n())
            .map(|v| subset[v] && !is_fixed(v as Vertex))
            .collect();
        let (vars, local_id) = reference_vars(&free);
        let mut sub = SubInstance::empty(Sense::Covering);
        sub.weights = vars.iter().map(|&v| ilp.weight(v)).collect();
        sub.vars = vars;
        for c in ilp.constraints() {
            if !c.coeffs().iter().all(|&(v, _)| subset[v as usize]) {
                continue;
            }
            let fixed_contribution: f64 = c
                .coeffs()
                .iter()
                .filter(|&&(v, _)| is_fixed(v))
                .map(|&(_, a)| a)
                .sum();
            let bound = (c.bound() - fixed_contribution).max(0.0);
            if bound <= FEASIBILITY_EPS {
                continue;
            }
            let coeffs: Vec<(Vertex, f64)> = c
                .coeffs()
                .iter()
                .filter(|&&(v, _)| !is_fixed(v))
                .map(|&(v, a)| (local_id[v as usize], a))
                .collect();
            push_row(&mut sub, Constraint::new(coeffs, bound));
        }
        sub
    }

    fn reference_vars(subset: &[bool]) -> (Vec<Vertex>, Vec<Vertex>) {
        let mut vars = Vec::new();
        let mut local_id = vec![u32::MAX; subset.len()];
        for (v, &inside) in subset.iter().enumerate() {
            if inside {
                local_id[v] = vars.len() as Vertex;
                vars.push(v as Vertex);
            }
        }
        (vars, local_id)
    }

    /// Bit-for-bit equality: variables, weights, constraint order, and
    /// every coefficient and bound compared by its bits.
    fn assert_identical(list: &SubInstance, reference: &SubInstance) {
        assert_eq!(list.sense, reference.sense);
        assert_eq!(list.vars, reference.vars);
        assert_eq!(list.weights, reference.weights);
        assert_eq!(list.m(), reference.m(), "constraint count");
        for (j, ((a, a_bound), (b, b_bound))) in list.rows().zip(reference.rows()).enumerate() {
            assert_eq!(a_bound.to_bits(), b_bound.to_bits(), "bound of row {j}");
            let bits = |row: &[(Vertex, f64)]| -> Vec<(Vertex, u64)> {
                row.iter().map(|&(v, x)| (v, x.to_bits())).collect()
            };
            assert_eq!(bits(a), bits(b), "row {j}");
        }
    }

    /// A mask that keeps each vertex with probability `density`.
    fn random_mask(n: usize, density: f64, rng: &mut StdRng) -> Vec<bool> {
        (0..n).map(|_| rng.random::<f64>() < density).collect()
    }

    /// Packing and covering instances of one random shape: fractional
    /// random rows, and unit rows from a graph (MIS, VC, DS).
    fn random_pair(seed: u64) -> [IlpInstance; 2] {
        let mut rng = gen::seeded_rng(seed);
        let n = rng.random_range(1..28);
        if seed.is_multiple_of(2) {
            let m = rng.random_range(0..3 * n);
            let rank = rng.random_range(1..=n.min(5));
            [
                problems::random_packing(n, m, rank, &mut rng),
                problems::random_covering(n, m, rank, &mut rng),
            ]
        } else {
            let g = gen::gnp(n, rng.random_range(0.05..0.4), &mut rng);
            let cover = if seed % 4 == 1 {
                problems::min_vertex_cover_unweighted(&g)
            } else {
                problems::min_dominating_set_unweighted(&g)
            };
            [problems::max_independent_set_unweighted(&g), cover]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn list_restrictions_reproduce_the_full_scan(seed in 0u64..1 << 32) {
            let [pack, cover] = random_pair(seed);
            let n = pack.n();
            let mut rng = gen::seeded_rng(seed ^ 0x5eed);
            // One scratch serves every call, as in a solver.
            let mut scratch = RestrictScratch::new();
            for density in [0.0, 0.3, 0.7, 1.0] {
                let subset = random_mask(n, density, &mut rng);
                let list = list_of(&subset);
                assert_identical(
                    packing_restriction_list(&pack, &list, &mut scratch),
                    &reference_packing(&pack, &subset),
                );
                let fixed = random_mask(n, 0.3, &mut rng);
                for overlay in [None, Some(&fixed[..]), Some(&vec![true; n][..])] {
                    assert_identical(
                        covering_restriction_list(&cover, &list, overlay, &mut scratch),
                        &reference_covering(&cover, &subset, overlay),
                    );
                }
                prop_assert!(scratch.local_id.iter().all(|&id| id == OUTSIDE));
                prop_assert!(scratch.incident.is_empty());
                prop_assert!(scratch.edge_bits.words.iter().all(|&w| w == 0));
            }
        }
    }

    /// Once a scratch has served the whole instance, restricting any
    /// subset allocates nothing, however many rows it keeps: every buffer
    /// keeps its address and capacity.
    #[test]
    fn a_warm_scratch_restricts_without_allocating() {
        let g = gen::gnp(120, 0.05, &mut gen::seeded_rng(7));
        let pack = problems::max_independent_set_unweighted(&g);
        let cover = problems::min_dominating_set_unweighted(&g);
        let all: Vec<Vertex> = g.vertices().collect();
        let mut rng = gen::seeded_rng(8);
        let fixed = random_mask(120, 0.2, &mut rng);
        for (ilp, overlay) in [(&pack, None), (&cover, Some(&fixed[..]))] {
            let mut scratch = RestrictScratch::new();
            let restrict = |list: &[Vertex], scratch: &mut RestrictScratch| match ilp.sense() {
                Sense::Packing => packing_restriction_list(ilp, list, scratch).m(),
                Sense::Covering => covering_restriction_list(ilp, list, None, scratch).m(),
            };
            let whole = restrict(&all, &mut scratch);
            assert!(whole > 100, "{whole} rows");
            let buffers = |s: &RestrictScratch| {
                let sub = &s.sub;
                [
                    (sub.vars.as_ptr() as usize, sub.vars.capacity()),
                    (sub.weights.as_ptr() as usize, sub.weights.capacity()),
                    (sub.row_start.as_ptr() as usize, sub.row_start.capacity()),
                    (sub.entries.as_ptr() as usize, sub.entries.capacity()),
                    (sub.bounds.as_ptr() as usize, sub.bounds.capacity()),
                    (s.local_id.as_ptr() as usize, s.local_id.capacity()),
                    (s.incident.as_ptr() as usize, s.incident.capacity()),
                ]
            };
            let warm = buffers(&scratch);
            let mut kept = 0;
            for density in [0.2, 0.5, 0.9, 1.0] {
                let list = list_of(&random_mask(120, density, &mut rng));
                kept += restrict(&list, &mut scratch);
                if let Some(f) = overlay {
                    kept += covering_restriction_list(ilp, &list, Some(f), &mut scratch).m();
                }
                assert_eq!(buffers(&scratch), warm, "density {density}");
            }
            assert!(kept > whole, "{kept} rows kept");
        }
    }

    #[test]
    fn id_bits_list_ascending_and_empty_after_use() {
        let mut bits = IdBits::default();
        let mut out = vec![99];
        bits.sort_into([130, 3, 64, 3, 0, 129], &mut out);
        assert_eq!(out, [0, 3, 64, 129, 130]);
        bits.sort_into([7], &mut out);
        assert_eq!(out, [7]);
    }

    #[test]
    fn fixed_ones_drop_satisfied_rows_and_ignore_outside_vertices() {
        // P5 vertex cover; S = {1, 2, 3}, so only edges (1,2) and (2,3)
        // lie inside. Fixing 2 satisfies both; fixing 0 and 4 (outside S)
        // changes nothing.
        let ilp = problems::min_vertex_cover_unweighted(&gen::path(5));
        let mut scratch = RestrictScratch::new();
        let list = [1, 2, 3];
        let inside = covering_restriction_list(&ilp, &list, Some(&mask_of(5, &[2])), &mut scratch);
        assert_eq!((inside.vars.as_slice(), inside.m()), (&[1, 3][..], 0));
        let none = covering_restriction_list(&ilp, &list, None, &mut scratch).clone();
        let outside =
            covering_restriction_list(&ilp, &list, Some(&mask_of(5, &[0, 4])), &mut scratch);
        assert_identical(outside, &none);
        assert_eq!(none.m(), 2);
    }

    #[test]
    fn packing_restriction_keeps_cross_constraints() {
        // P4: edges (0,1), (1,2), (2,3); restrict to S = {1, 2}.
        let g = gen::path(4);
        let ilp = problems::max_independent_set_unweighted(&g);
        let sub = packing_restriction(&ilp, &mask_of(4, &[1, 2]));
        assert_eq!(sub.vars, vec![1, 2]);
        // Edge (0,1) restricted to {1}: "x1 <= 1" — kept but vacuous; edge
        // (1,2) restricted fully; edge (2,3) restricted to {2}.
        assert_eq!(sub.m(), 3);
        assert!(sub.is_feasible(&[true, false]));
        assert!(!sub.is_feasible(&[true, true]));
    }

    #[test]
    fn packing_local_solution_lifts_to_global_feasible() {
        let g = gen::cycle(6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let sub = packing_restriction(&ilp, &mask_of(6, &[0, 1, 2]));
        let local = vec![true, false, true];
        assert!(sub.is_feasible(&local));
        let mut global = vec![false; 6];
        sub.lift_into(&local, &mut global);
        assert!(
            ilp.is_feasible(&global),
            "Observation 2.1 zero-fill property"
        );
    }

    #[test]
    fn covering_restriction_drops_cross_constraints() {
        let g = gen::path(4);
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let sub = covering_restriction(&ilp, &mask_of(4, &[1, 2]));
        // Only edge (1,2) lies fully inside.
        assert_eq!(sub.m(), 1);
        assert!(sub.is_feasible(&[true, false]));
        assert!(!sub.is_feasible(&[false, false]));
    }

    #[test]
    fn covering_fixed_vars_reduce_bounds() {
        let g = gen::path(3); // edges (0,1), (1,2)
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let subset = mask_of(3, &[0, 1, 2]);
        let fixed = mask_of(3, &[1]);
        let sub = covering_restriction_with_fixed(&ilp, &subset, Some(&fixed));
        // Vertex 1 is fixed to one: both edges are already covered, no
        // constraints remain, and variable 1 is absent.
        assert_eq!(sub.m(), 0);
        assert_eq!(sub.vars, vec![0, 2]);
        assert!(sub.is_feasible(&[false, false]));
    }

    #[test]
    fn covering_fixed_vars_partial_bound() {
        // One constraint x0 + x1 + x2 >= 2 with x2 fixed.
        let ilp = crate::instance::IlpInstance::covering(
            3,
            vec![1, 1, 1],
            vec![crate::instance::Constraint::new(
                vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                2.0,
            )],
        );
        let sub =
            covering_restriction_with_fixed(&ilp, &[true, true, true], Some(&[false, false, true]));
        assert_eq!(sub.m(), 1);
        assert_eq!(sub.bound(0), 1.0);
        assert!(sub.is_feasible(&[true, false]));
        assert!(!sub.is_feasible(&[false, false]));
    }

    #[test]
    fn empty_subset_yields_empty_subinstance() {
        let g = gen::cycle(4);
        let ilp = problems::max_independent_set_unweighted(&g);
        let sub = packing_restriction(&ilp, &[false; 4]);
        assert_eq!(sub.n(), 0);
        assert_eq!(sub.m(), 0);
        assert!(sub.is_feasible(&[]));
    }
}
