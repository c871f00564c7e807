//! Two pieces of the Grow-and-Carve step that packing, covering and GKM
//! share: the mass a local solution puts on a level, which each of their
//! window searches weighs, and the cut of the hyperedges that cross a
//! covering carve. The step's other shared pieces live with the types
//! they use: [`dapc_graph::Ball::lightest_window`],
//! `Preparation::draw_centers` and `SubsetSolver::solve_into`.

use dapc_graph::{Ball, Hypergraph, Vertex};
use dapc_ilp::instance::IlpInstance;

/// The mass of a level under the local solution `local`: the weight of
/// the level's vertices that `local` selects (`W(P^local, S_j)`).
pub(crate) fn solution_mass<'a>(
    ilp: &'a IlpInstance,
    local: &'a [bool],
) -> impl Fn(&[Vertex]) -> u64 + 'a {
    move |level| {
        level
            .iter()
            .filter(|&&v| local[v as usize])
            .map(|&v| ilp.weight(v))
            .sum()
    }
}

/// Deletes the alive hyperedges that cross from level `j` to level
/// `j + 1` of `ball` and returns how many it deleted: the cut of
/// Grow-and-Carve-Covering, run once the local optimum is fixed on the
/// two layers, so every crossing hyperedge is satisfied. `marks` is `n`
/// long and all `u8::MAX` on entry and on return.
pub(crate) fn cut_crossing_edges(
    h: &Hypergraph,
    ball: &Ball,
    j: usize,
    alive_v: &[bool],
    alive_e: &mut [bool],
    marks: &mut [u8],
) -> usize {
    for &v in ball.level(j) {
        marks[v as usize] = 0;
    }
    for &v in ball.level(j + 1) {
        marks[v as usize] = 1;
    }
    let mut cut = 0;
    for &v in ball.level(j) {
        for &e in h.incident_edges(v) {
            if !alive_e[e as usize] {
                continue;
            }
            let members = h.edge(e);
            if members.iter().any(|&u| marks[u as usize] == 1) {
                debug_assert!(
                    members
                        .iter()
                        .all(|&u| !alive_v[u as usize] || marks[u as usize] != u8::MAX),
                    "crossing hyperedge must lie inside the two layers"
                );
                alive_e[e as usize] = false;
                cut += 1;
            }
        }
    }
    for &v in ball.level(j).iter().chain(ball.level(j + 1)) {
        marks[v as usize] = u8::MAX;
    }
    debug_assert!(marks.iter().all(|&l| l == u8::MAX));
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::BallScratch;

    /// Seen from vertex 0: hyperedges across levels 1 → 2 (one of them
    /// with three members, one dead), inside level 1, and across levels
    /// 0 → 1, 2 → 3 and 3 → 4.
    fn fixture() -> Hypergraph {
        Hypergraph::new(
            7,
            vec![
                vec![0, 1],    // 0: levels 0 → 1
                vec![0, 2],    // 1: levels 0 → 1
                vec![1, 2],    // 2: inside level 1
                vec![1, 3],    // 3: levels 1 → 2
                vec![2, 3, 4], // 4: levels 1 → 2 (three members)
                vec![2, 4],    // 5: levels 1 → 2, dead
                vec![3, 5],    // 6: levels 2 → 3
                vec![5, 6],    // 7: levels 3 → 4
            ],
        )
    }

    #[test]
    fn cuts_exactly_the_alive_edges_across_the_two_levels() {
        let h = fixture();
        let alive_v = vec![true; h.n()];
        let mut alive_e = vec![true; h.m()];
        alive_e[5] = false;
        let ball = h.ball_with_scratch(&[0], 10, None, Some(&alive_e), &mut BallScratch::new());
        assert_eq!(ball.level(1), &[1, 2]);
        assert_eq!(ball.level(2), &[3, 4]);
        let mut marks = vec![u8::MAX; h.n()];
        let cut = cut_crossing_edges(&h, &ball, 1, &alive_v, &mut alive_e, &mut marks);
        assert_eq!(cut, 2);
        let dead: Vec<usize> = (0..h.m()).filter(|&e| !alive_e[e]).collect();
        assert_eq!(dead, [3, 4, 5]);
        assert!(marks.iter().all(|&m| m == u8::MAX), "marks left set");
        // A second cut of the same window finds nothing left to cut.
        let again = cut_crossing_edges(&h, &ball, 1, &alive_v, &mut alive_e, &mut marks);
        assert_eq!(again, 0);
        assert!(marks.iter().all(|&m| m == u8::MAX), "marks left set");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "crossing hyperedge must lie inside the two layers")]
    fn a_crossing_edge_with_a_member_off_the_two_levels_is_caught() {
        // Grown without hyperedges 4 and 5, the ball never reaches vertex
        // 4, so the alive hyperedge {2, 3, 4} crosses from level 1 to
        // level 2 with an alive member on neither.
        let h = fixture();
        let alive_v = vec![true; h.n()];
        let grown: Vec<bool> = (0..h.m()).map(|e| e != 4 && e != 5).collect();
        let ball = h.ball_with_scratch(&[0], 10, None, Some(&grown), &mut BallScratch::new());
        assert_eq!(ball.level(2), &[3]);
        let mut alive_e = vec![true; h.m()];
        let mut marks = vec![u8::MAX; h.n()];
        cut_crossing_edges(&h, &ball, 1, &alive_v, &mut alive_e, &mut marks);
    }
}
