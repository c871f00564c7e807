//! Lubotzky–Phillips–Sarnak Ramanujan graphs `X^{p,q}` (Theorem B.1).
//!
//! The lower bounds of Appendix B are proved on the LPS family with
//! `p = 17`: depending on the Legendre symbol `(p|q)` the graph is either a
//! bipartite `(p+1)`-regular graph on `q(q²−1)` vertices or a non-bipartite
//! one on `q(q²−1)/2` vertices whose maximum independent set is at most
//! `2√p/(p+1) · n`. Both have girth `Ω(log_p q)`, which is what makes
//! `o(log n)`-round algorithms unable to tell them apart.
//!
//! The construction implemented here is the classical one: the `p + 1`
//! integer quaternions of norm `p` (odd positive real part, even imaginary
//! parts) are mapped to `PGL₂(𝔽_q)` via a square root of `−1 (mod q)`, and
//! the Cayley graph of the generated subgroup is returned. When `(p|q)=1`
//! the generators have square determinant and generate (the image of)
//! `PSL₂(𝔽_q)`; otherwise they generate all of `PGL₂(𝔽_q)` and the graph is
//! bipartite with the square-determinant cosets as sides.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Vertex};
use std::collections::BTreeMap;

/// Modular exponentiation `b^e mod m` (for `m < 2^32`).
pub fn mod_pow(mut b: u64, mut e: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    b %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        e >>= 1;
    }
    acc
}

/// Legendre symbol `(a|p)` for odd prime `p`: `1` if `a` is a nonzero
/// quadratic residue, `-1` if a non-residue, `0` if `p | a`.
pub fn legendre(a: u64, p: u64) -> i32 {
    let a = a % p;
    if a == 0 {
        return 0;
    }
    let r = mod_pow(a, (p - 1) / 2, p);
    if r == 1 {
        1
    } else {
        -1
    }
}

/// Deterministic Miller–Rabin primality test, exact for all `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mod_pow_u128(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod_u128(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn mul_mod_u128(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn mod_pow_u128(mut b: u64, mut e: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    b %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod_u128(acc, b, m);
        }
        b = mul_mod_u128(b, b, m);
        e >>= 1;
    }
    acc
}

/// A square root of `−1` modulo prime `q ≡ 1 (mod 4)`.
///
/// # Panics
///
/// Panics if no root exists (i.e. `q ≢ 1 (mod 4)` or `q` not prime).
pub fn sqrt_minus_one(q: u64) -> u64 {
    // For a quadratic non-residue n, n^((q-1)/4) is a square root of -1.
    for n in 2..q {
        if legendre(n, q) == -1 {
            let r = mod_pow(n, (q - 1) / 4, q);
            assert_eq!(r * r % q, q - 1, "q must be a prime ≡ 1 (mod 4)");
            return r;
        }
    }
    panic!("no quadratic non-residue found; q = {q} is not an odd prime");
}

/// The `p + 1` integer quaternions `a₀ + a₁i + a₂j + a₃k` with
/// `a₀² + a₁² + a₂² + a₃² = p`, `a₀ > 0` odd and `a₁, a₂, a₃` even
/// (for `p ≡ 1 (mod 4)`).
pub fn norm_p_quaternions(p: i64) -> Vec<[i64; 4]> {
    let mut out = Vec::new();
    let bound = (p as f64).sqrt() as i64 + 1;
    let mut a0 = 1i64;
    while a0 * a0 <= p {
        let rem0 = p - a0 * a0;
        let mut a1 = -bound;
        while a1 <= bound {
            if a1 % 2 == 0 && a1 * a1 <= rem0 {
                let rem1 = rem0 - a1 * a1;
                let mut a2 = -bound;
                while a2 <= bound {
                    if a2 % 2 == 0 && a2 * a2 <= rem1 {
                        let rem2 = rem1 - a2 * a2;
                        let a3 = (rem2 as f64).sqrt().round() as i64;
                        for s in [a3, -a3] {
                            if s % 2 == 0 && s * s == rem2 && !(s == 0 && a3 != 0 && s != a3) {
                                out.push([a0, a1, a2, s]);
                                if s == 0 {
                                    break;
                                }
                            }
                        }
                    }
                    a2 += 1;
                }
            }
            a1 += 1;
        }
        a0 += 2;
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A projective 2×2 matrix over `𝔽_q` in canonical form (first nonzero
/// entry scaled to 1).
type PMat = [u32; 4];

fn canonicalize(m: [u64; 4], q: u64) -> PMat {
    let lead = m
        .iter()
        .copied()
        .find(|&x| x % q != 0)
        .expect("nonzero matrix");
    let inv = mod_pow(lead % q, q - 2, q);
    let mut out = [0u32; 4];
    for (o, &x) in out.iter_mut().zip(m.iter()) {
        *o = ((x % q) * inv % q) as u32;
    }
    out
}

fn mat_mul(a: PMat, b: PMat, q: u64) -> PMat {
    let a = a.map(|x| x as u64);
    let b = b.map(|x| x as u64);
    canonicalize(
        [
            a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
        ],
        q,
    )
}

/// Which of the two Theorem B.1 cases an `(p, q)` pair falls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpsCase {
    /// `(p|q) = −1`: bipartite, `n = q(q²−1)`, girth `≥ 4·log_p q − log_p 4`.
    Bipartite,
    /// `(p|q) = 1`: non-bipartite, `n = q(q²−1)/2`, girth `≥ 2·log_p q`,
    /// `α ≤ 2√p/(p+1) · n`.
    NonBipartite,
}

/// An LPS Ramanujan graph together with its construction metadata.
#[derive(Clone, Debug)]
pub struct LpsGraph {
    /// The `(p+1)`-regular Cayley graph.
    pub graph: Graph,
    /// Quaternion prime `p` (degree is `p + 1`).
    pub p: u64,
    /// Field prime `q`.
    pub q: u64,
    /// Which Theorem B.1 case `(p, q)` falls into.
    pub case: LpsCase,
    /// Girth lower bound from Theorem B.1.
    pub girth_lower_bound: f64,
}

impl LpsGraph {
    /// Theorem B.1's upper bound on the independence number for the
    /// non-bipartite case, `2√p/(p+1)·n`; for the bipartite case the exact
    /// value `n/2`.
    pub fn independence_upper_bound(&self) -> f64 {
        let n = self.graph.n() as f64;
        match self.case {
            LpsCase::Bipartite => n / 2.0,
            LpsCase::NonBipartite => 2.0 * (self.p as f64).sqrt() / (self.p as f64 + 1.0) * n,
        }
    }
}

/// Constructs the LPS Ramanujan graph `X^{p,q}`.
///
/// # Panics
///
/// Panics if `p` or `q` is not a prime `≡ 1 (mod 4)`, or `p == q`.
///
/// ```
/// use dapc_graph::lps::{lps_graph, LpsCase};
/// let x = lps_graph(5, 13); // bipartite case, 6-regular
/// assert_eq!(x.case, LpsCase::Bipartite);
/// assert_eq!(x.graph.n(), 13 * (13 * 13 - 1));
/// assert!(x.graph.is_regular(6));
/// assert!(x.graph.is_bipartite());
/// ```
pub fn lps_graph(p: u64, q: u64) -> LpsGraph {
    assert!(
        is_prime(p) && p % 4 == 1,
        "p = {p} must be a prime ≡ 1 (mod 4)"
    );
    assert!(
        is_prime(q) && q % 4 == 1,
        "q = {q} must be a prime ≡ 1 (mod 4)"
    );
    assert_ne!(p, q, "p and q must be distinct");
    let i = sqrt_minus_one(q);
    let quats = norm_p_quaternions(p as i64);
    assert_eq!(
        quats.len(),
        (p + 1) as usize,
        "expected p+1 norm-p quaternions"
    );
    let to_fq = |x: i64| -> u64 { x.rem_euclid(q as i64) as u64 };
    let generators: Vec<PMat> = quats
        .iter()
        .map(|&[a0, a1, a2, a3]| {
            // [[a0 + a1 i, a2 + a3 i], [−a2 + a3 i, a0 − a1 i]]
            canonicalize(
                [
                    (to_fq(a0) + to_fq(a1) * i) % q,
                    (to_fq(a2) + to_fq(a3) * i) % q,
                    (to_fq(-a2) + to_fq(a3) * i) % q,
                    (to_fq(a0) + (q - 1) * (to_fq(a1) * i % q)) % q,
                ],
                q,
            )
        })
        .collect();

    // Closure BFS from the identity over the generated subgroup.
    let identity: PMat = [1, 0, 0, 1];
    let mut ids: BTreeMap<PMat, Vertex> = BTreeMap::new();
    ids.insert(identity, 0);
    let mut elems: Vec<PMat> = vec![identity];
    let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
    let mut head = 0usize;
    while head < elems.len() {
        let g = elems[head];
        let gid = head as Vertex;
        head += 1;
        for &s in &generators {
            let h = mat_mul(g, s, q);
            let hid = *ids.entry(h).or_insert_with(|| {
                elems.push(h);
                (elems.len() - 1) as Vertex
            });
            if gid != hid {
                edges.push((gid, hid));
            }
        }
    }
    let n = elems.len();
    let case = if legendre(p, q) == 1 {
        debug_assert_eq!(n as u64, q * (q * q - 1) / 2, "PSL₂ size mismatch");
        LpsCase::NonBipartite
    } else {
        debug_assert_eq!(n as u64, q * (q * q - 1), "PGL₂ size mismatch");
        LpsCase::Bipartite
    };
    let mut b = GraphBuilder::with_capacity(n, edges.len() / 2 + 1);
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    let graph = b.build();
    let logp = |x: f64| x.ln() / (p as f64).ln();
    let girth_lower_bound = match case {
        LpsCase::Bipartite => 4.0 * logp(q as f64) - logp(4.0),
        LpsCase::NonBipartite => 2.0 * logp(q as f64),
    };
    LpsGraph {
        graph,
        p,
        q,
        case,
        girth_lower_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::girth::girth;

    #[test]
    fn mod_pow_and_legendre() {
        assert_eq!(mod_pow(2, 10, 1000), 24);
        assert_eq!(legendre(4, 17), 1);
        assert_eq!(legendre(3, 17), -1);
        assert_eq!(legendre(17, 17), 0);
        // Quadratic reciprocity spot checks used by the paper: (5|17) = −1.
        assert_eq!(legendre(5, 17), -1);
        assert_eq!(legendre(13, 17), 1);
    }

    #[test]
    fn primality() {
        assert!(is_prime(2));
        assert!(is_prime(17));
        assert!(is_prime(1092 + 1)); // 1093
        assert!(!is_prime(1));
        assert!(!is_prime(561)); // Carmichael
        assert!(!is_prime(1092));
    }

    #[test]
    fn sqrt_minus_one_is_valid() {
        for q in [5u64, 13, 17, 29, 37, 41] {
            let r = sqrt_minus_one(q);
            assert_eq!(r * r % q, q - 1);
        }
    }

    #[test]
    fn quaternion_count_is_p_plus_one() {
        for p in [5i64, 13, 17, 29] {
            let quats = norm_p_quaternions(p);
            assert_eq!(quats.len(), (p + 1) as usize, "p = {p}");
            for q in &quats {
                assert_eq!(q.iter().map(|x| x * x).sum::<i64>(), p);
                assert!(q[0] > 0 && q[0] % 2 == 1);
                assert!(q[1] % 2 == 0 && q[2] % 2 == 0 && q[3] % 2 == 0);
            }
        }
    }

    #[test]
    fn lps_5_13_is_bipartite_6_regular() {
        let x = lps_graph(5, 13);
        assert_eq!(x.case, LpsCase::Bipartite);
        assert_eq!(x.graph.n(), 2184);
        assert!(x.graph.is_regular(6));
        assert!(x.graph.is_bipartite());
        let g = girth(&x.graph).expect("has cycles");
        assert!(
            (g as f64) >= x.girth_lower_bound,
            "girth {g} below theorem bound {}",
            x.girth_lower_bound
        );
        // Bipartite LPS graphs are known to have large girth; make sure the
        // locality radius we rely on in experiments is available.
        assert!(g >= 6, "girth {g} unexpectedly small");
    }

    #[test]
    fn lps_5_29_is_nonbipartite() {
        let x = lps_graph(5, 29);
        assert_eq!(x.case, LpsCase::NonBipartite);
        assert_eq!(x.graph.n(), 29 * (29 * 29 - 1) / 2);
        assert!(x.graph.is_regular(6));
        assert!(!x.graph.is_bipartite());
        // α ≤ 2√5/6 · n ≈ 0.745 n for p = 5 (for the paper's p = 17 this
        // bound drops to ≈ 0.4587 n < 0.92 · n/2).
        let expected = 2.0 * 5f64.sqrt() / 6.0 * x.graph.n() as f64;
        assert!((x.independence_upper_bound() - expected).abs() < 1e-9);
        let x17 = 2.0 * 17f64.sqrt() / 18.0;
        assert!(x17 < 0.92 / 2.0);
    }

    #[test]
    fn lps_17_5_is_the_paper_family() {
        let x = lps_graph(17, 5);
        assert_eq!(x.case, LpsCase::Bipartite);
        assert_eq!(x.graph.n(), 120);
        assert!(x.graph.is_regular(18));
        assert!(x.graph.is_bipartite());
    }
}
