//! Declarative, serialisable sweep descriptions.
//!
//! A [`CorpusSpec`] is the unit of agreement between the three parties of
//! an orchestrated sweep: the CLI that states what to solve, the
//! checkpoint manifest that pins a directory to one sweep, and the
//! daemon that receives work over a socket. It names what a
//! [`dapc_runtime::Corpus`] holds by value — generated instances,
//! backends, the ε grid, seeds — as command-line tokens, which are also
//! its only serialised form ([`CorpusSpec::to_args`]): the manifest and
//! the daemon's `Sweep` frame carry those tokens, and any process
//! parses them back into the identical corpus.
//!
//! Unlike [`dapc_runtime::CorpusBuilder`], whose `build` asserts,
//! [`CorpusSpec::validate`] returns errors: specs arrive from sockets
//! and untrusted checkpoint directories, where malformed input must be
//! an `Err` for the caller, never a panic in the server.

use dapc_core::engine;
use dapc_graph::{gen, Graph};
use dapc_ilp::{problems, IlpInstance};
use dapc_runtime::{snap, Corpus};
use std::io;
use std::ops::Range;

/// Caps applied by [`CorpusSpec::validate`] so a hostile spec cannot
/// talk a server into unbounded work: instances per corpus, vertices per
/// generated graph, backends, ε values, and seeds per sweep.
pub const SPEC_LIMITS: SpecLimits = SpecLimits {
    instances: 64,
    vertices: 4096,
    backends: 16,
    eps: 16,
    seeds: 4096,
};

/// The caps of [`SPEC_LIMITS`], named.
#[derive(Clone, Copy, Debug)]
pub struct SpecLimits {
    /// Maximum instances per corpus.
    pub instances: usize,
    /// Maximum vertices per generated graph.
    pub vertices: usize,
    /// Maximum backends per corpus.
    pub backends: usize,
    /// Maximum ε values per corpus.
    pub eps: usize,
    /// Maximum seeds per corpus.
    pub seeds: usize,
}

/// The covering/packing problem an instance poses on its graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// Maximum independent set (packing).
    Mis,
    /// Minimum vertex cover (covering).
    Vc,
    /// Minimum dominating set (covering).
    Ds,
}

impl Problem {
    fn token(self) -> &'static str {
        match self {
            Problem::Mis => "mis",
            Problem::Vc => "vc",
            Problem::Ds => "ds",
        }
    }

    fn from_token(t: &str) -> Option<Self> {
        match t {
            "mis" => Some(Problem::Mis),
            "vc" => Some(Problem::Vc),
            "ds" => Some(Problem::Ds),
            _ => None,
        }
    }

    fn pose(self, g: &Graph) -> IlpInstance {
        match self {
            Problem::Mis => problems::max_independent_set_unweighted(g),
            Problem::Vc => problems::min_vertex_cover_unweighted(g),
            Problem::Ds => problems::min_dominating_set_unweighted(g),
        }
    }
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl std::fmt::Display for InstanceSpec {
    /// The parseable token form: `name=problem:graph`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}:{}", self.name, self.problem, self.graph)
    }
}

/// A generated graph, named by family and parameters. Generation is
/// deterministic (G(n,p) takes its RNG seed from the spec), so every
/// process rebuilding the spec solves bit-identical instances.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSpec {
    /// Path on `n` vertices.
    Path(usize),
    /// Cycle on `n` vertices.
    Cycle(usize),
    /// Complete graph on `n` vertices.
    Complete(usize),
    /// Star with `n - 1` leaves.
    Star(usize),
    /// Grid of `rows × cols` vertices.
    Grid(usize, usize),
    /// Erdős–Rényi G(n, p) drawn from the seeded generator RNG.
    Gnp {
        /// Vertices.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Generator RNG seed.
        seed: u64,
    },
}

impl GraphSpec {
    fn vertices(&self) -> usize {
        match *self {
            GraphSpec::Path(n)
            | GraphSpec::Cycle(n)
            | GraphSpec::Complete(n)
            | GraphSpec::Star(n)
            | GraphSpec::Gnp { n, .. } => n,
            GraphSpec::Grid(r, c) => r.saturating_mul(c),
        }
    }

    fn generate(&self) -> Graph {
        match *self {
            GraphSpec::Path(n) => gen::path(n),
            GraphSpec::Cycle(n) => gen::cycle(n),
            GraphSpec::Complete(n) => gen::complete(n),
            GraphSpec::Star(n) => gen::star(n),
            GraphSpec::Grid(r, c) => gen::grid(r, c),
            GraphSpec::Gnp { n, p, seed } => gen::gnp(n, p, &mut gen::seeded_rng(seed)),
        }
    }
}

impl std::fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphSpec::Path(n) => write!(f, "path:{n}"),
            GraphSpec::Cycle(n) => write!(f, "cycle:{n}"),
            GraphSpec::Complete(n) => write!(f, "complete:{n}"),
            GraphSpec::Star(n) => write!(f, "star:{n}"),
            GraphSpec::Grid(r, c) => write!(f, "grid:{r}x{c}"),
            GraphSpec::Gnp { n, p, seed } => write!(f, "gnp:{n}:{p}:{seed}"),
        }
    }
}

/// One named instance of the sweep: a problem posed on a generated
/// graph.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceSpec {
    /// Corpus-unique instance name.
    pub name: String,
    /// Which ILP to pose.
    pub problem: Problem,
    /// Which graph to pose it on.
    pub graph: GraphSpec,
}

/// A complete sweep description; build the runnable corpus with
/// [`CorpusSpec::build`].
///
/// # Examples
///
/// ```
/// use dapc_serve::CorpusSpec;
///
/// let spec = CorpusSpec::parse_args([
///     "ring=mis:cycle:12",
///     "cover=vc:grid:3x4",
///     "@backends=greedy,bnb",
///     "@eps=0.3",
///     "@seeds=0..2",
/// ])
/// .unwrap();
/// assert_eq!(spec.build().len(), 2 * 2 * 1 * 2);
///
/// // The canonical tokens parse back into the same spec.
/// assert_eq!(CorpusSpec::parse_args(spec.to_args()).unwrap(), spec);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusSpec {
    /// The named instances, in canonical (insertion) order.
    pub instances: Vec<InstanceSpec>,
    /// Engine registry keys of the backends to run.
    pub backends: Vec<String>,
    /// The ε grid.
    pub eps_grid: Vec<f64>,
    /// The seed range.
    pub seeds: Range<u64>,
    /// Ensemble runs per job (`0` = the engine default).
    pub ensemble_runs: usize,
}

impl CorpusSpec {
    /// Parses command-line tokens: each positional token is an instance
    /// `name=problem:graph` (problems `mis`/`vc`/`ds`; graphs `path:N`,
    /// `cycle:N`, `complete:N`, `star:N`, `grid:RxC`, `gnp:N:P:SEED`),
    /// and `@`-tokens set the grid — `@backends=a,b`, `@eps=0.2,0.3`,
    /// `@seeds=A..B`, `@ensemble=N`. The parsed spec is validated.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on any malformed token
    /// or a spec rejected by [`CorpusSpec::validate`].
    pub fn parse_args<I, S>(tokens: I) -> io::Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut spec = CorpusSpec {
            instances: Vec::new(),
            backends: Vec::new(),
            eps_grid: Vec::new(),
            seeds: 0..1,
            ensemble_runs: 0,
        };
        for token in tokens {
            let token = token.as_ref();
            if let Some(rest) = token.strip_prefix('@') {
                let (key, value) = rest
                    .split_once('=')
                    .ok_or_else(|| snap::invalid(format!("expected @key=value, got {token:?}")))?;
                match key {
                    "backends" => {
                        spec.backends = value.split(',').map(str::to_string).collect();
                    }
                    "eps" => {
                        spec.eps_grid = value
                            .split(',')
                            .map(|e| {
                                e.parse::<f64>()
                                    .map_err(|_| snap::invalid(format!("bad eps value {e:?}")))
                            })
                            .collect::<io::Result<_>>()?;
                    }
                    "seeds" => {
                        let (a, b) = value.split_once("..").ok_or_else(|| {
                            snap::invalid(format!("expected @seeds=A..B, got {value:?}"))
                        })?;
                        let parse = |s: &str| {
                            s.parse::<u64>()
                                .map_err(|_| snap::invalid(format!("bad seed bound {s:?}")))
                        };
                        spec.seeds = parse(a)?..parse(b)?;
                    }
                    "ensemble" => {
                        spec.ensemble_runs = value
                            .parse::<usize>()
                            .map_err(|_| snap::invalid(format!("bad ensemble count {value:?}")))?;
                    }
                    _ => return Err(snap::invalid(format!("unknown spec key @{key}"))),
                }
            } else {
                spec.instances.push(parse_instance(token)?);
            }
        }
        if spec.backends.is_empty() {
            spec.backends = engine::BACKENDS.iter().map(|s| s.to_string()).collect();
        }
        if spec.eps_grid.is_empty() {
            spec.eps_grid.push(0.3);
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks everything [`CorpusSpec::build`] would otherwise panic on,
    /// plus the [`SPEC_LIMITS`] resource caps, as errors — the contract
    /// that makes specs safe to accept from sockets and on-disk
    /// manifests.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] naming the offending
    /// field: empty or duplicate instances/backends/ε values, instance
    /// names the token form cannot carry (containing `=` or starting
    /// with `@`), unknown backend keys, ε outside `(0, 1)`, an empty seed
    /// range, zero-vertex graphs, cycles under 3 vertices, or any cap
    /// exceeded.
    pub fn validate(&self) -> io::Result<()> {
        let l = SPEC_LIMITS;
        if self.instances.is_empty() || self.instances.len() > l.instances {
            return Err(snap::invalid(format!(
                "{} instances (need 1..={})",
                self.instances.len(),
                l.instances
            )));
        }
        for (i, inst) in self.instances.iter().enumerate() {
            if inst.name.is_empty()
                || inst.name.len() > 128
                || inst.name.contains('=')
                || inst.name.starts_with('@')
            {
                return Err(snap::invalid(format!(
                    "instance name {:?} is empty, too long, contains '=' or starts with '@'",
                    inst.name
                )));
            }
            if self.instances[..i].iter().any(|p| p.name == inst.name) {
                return Err(snap::invalid(format!(
                    "duplicate instance name {:?}",
                    inst.name
                )));
            }
            let n = inst.graph.vertices();
            if n == 0 || n > l.vertices {
                return Err(snap::invalid(format!(
                    "instance {:?} has {n} vertices (need 1..={})",
                    inst.name, l.vertices
                )));
            }
            match inst.graph {
                GraphSpec::Cycle(n) if n < 3 => {
                    return Err(snap::invalid(format!(
                        "instance {:?} is a cycle on {n} vertices, needs at least 3",
                        inst.name
                    )));
                }
                GraphSpec::Gnp { p, .. } if !(0.0..=1.0).contains(&p) => {
                    return Err(snap::invalid(format!(
                        "instance {:?} has edge probability {p} outside [0, 1]",
                        inst.name
                    )));
                }
                _ => {}
            }
        }
        if self.backends.is_empty() || self.backends.len() > l.backends {
            return Err(snap::invalid(format!(
                "{} backends (need 1..={})",
                self.backends.len(),
                l.backends
            )));
        }
        for (i, b) in self.backends.iter().enumerate() {
            if engine::backend(b).is_none() {
                return Err(snap::invalid(format!("unknown backend {b:?}")));
            }
            if self.backends[..i].contains(b) {
                return Err(snap::invalid(format!("duplicate backend {b:?}")));
            }
        }
        if self.eps_grid.is_empty() || self.eps_grid.len() > l.eps {
            return Err(snap::invalid(format!(
                "{} eps values (need 1..={})",
                self.eps_grid.len(),
                l.eps
            )));
        }
        for (i, &e) in self.eps_grid.iter().enumerate() {
            if !(e > 0.0 && e < 1.0) {
                return Err(snap::invalid(format!("eps {e} outside (0, 1)")));
            }
            if self.eps_grid[..i]
                .iter()
                .any(|p| p.to_bits() == e.to_bits())
            {
                return Err(snap::invalid(format!("duplicate eps {e}")));
            }
        }
        let span = self.seeds.end.saturating_sub(self.seeds.start);
        if span == 0 || span > l.seeds as u64 {
            return Err(snap::invalid(format!(
                "{span} seeds (need 1..={})",
                l.seeds
            )));
        }
        if self.ensemble_runs > 64 {
            return Err(snap::invalid(format!(
                "{} ensemble runs exceed the cap of 64",
                self.ensemble_runs
            )));
        }
        Ok(())
    }

    /// Generates every instance and freezes the runnable corpus. Call
    /// [`CorpusSpec::validate`] first on untrusted specs — `build`
    /// delegates to [`Corpus::builder`], which panics on invalid input
    /// (every such input is caught by `validate`).
    pub fn build(&self) -> Corpus {
        let mut b = Corpus::builder()
            .backends(self.backends.iter().cloned())
            .eps_grid(self.eps_grid.iter().copied())
            .seeds(self.seeds.clone());
        if self.ensemble_runs > 0 {
            b = b.base_config(
                dapc_core::engine::SolveConfig::new().ensemble_runs(self.ensemble_runs),
            );
        }
        for inst in &self.instances {
            b = b.instance(&inst.name, inst.problem.pose(&inst.graph.generate()));
        }
        b.build()
    }

    /// Jobs in the corpus this spec describes (`instances × backends ×
    /// ε values × seeds`) — without generating any graph, so a reader of
    /// a manifest knows the corpus size cheaply.
    pub fn grid_len(&self) -> usize {
        self.instances.len()
            * self.backends.len()
            * self.eps_grid.len()
            * (self.seeds.end - self.seeds.start) as usize
    }

    /// The spec's canonical CLI tokens: the instances in order, then
    /// `@backends`, `@eps`, `@seeds` and `@ensemble`. They are the spec's
    /// only serialised form: [`CorpusSpec::parse_args`] returns `self`
    /// for every spec that [`CorpusSpec::validate`] accepts (ε and edge
    /// probabilities print in Rust's shortest round-trip form).
    pub fn to_args(&self) -> Vec<String> {
        let eps: Vec<String> = self.eps_grid.iter().map(f64::to_string).collect();
        let mut args: Vec<String> = self.instances.iter().map(ToString::to_string).collect();
        args.push(format!("@backends={}", self.backends.join(",")));
        args.push(format!("@eps={}", eps.join(",")));
        args.push(format!("@seeds={}..{}", self.seeds.start, self.seeds.end));
        args.push(format!("@ensemble={}", self.ensemble_runs));
        args
    }

    /// Writes the spec as the manifest and the daemon's `Sweep` frame
    /// carry it: the token count, then each [`CorpusSpec::to_args`]
    /// token as a length-prefixed string.
    pub(crate) fn write_to<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let args = self.to_args();
        snap::write_u64(w, args.len() as u64)?;
        args.iter().try_for_each(|t| snap::write_str(w, t))
    }

    /// Reads a spec written by [`CorpusSpec::write_to`]. A count above
    /// `SPEC_LIMITS.instances + 4` is refused before any token is read,
    /// and the tokens go through [`CorpusSpec::parse_args`], which
    /// validates them.
    pub(crate) fn read_from<R: io::Read>(r: &mut R) -> io::Result<Self> {
        let cap = SPEC_LIMITS.instances as u64 + 4;
        let count = snap::read_u64(r)?;
        if count > cap {
            return Err(snap::invalid(format!(
                "{count} spec tokens exceed the cap of {cap}"
            )));
        }
        let tokens = (0..count)
            .map(|_| snap::read_str(r, "spec token"))
            .collect::<io::Result<Vec<_>>>()?;
        Self::parse_args(tokens)
    }
}

fn parse_instance(token: &str) -> io::Result<InstanceSpec> {
    let (name, rest) = token
        .split_once('=')
        .ok_or_else(|| snap::invalid(format!("expected name=problem:graph, got {token:?}")))?;
    let mut parts = rest.split(':');
    let problem = parts
        .next()
        .and_then(Problem::from_token)
        .ok_or_else(|| snap::invalid(format!("unknown problem in {token:?} (mis/vc/ds)")))?;
    let graph = match parts.next().unwrap_or_default() {
        "path" => GraphSpec::Path(field(parts.next(), "size", token)?),
        "cycle" => GraphSpec::Cycle(field(parts.next(), "size", token)?),
        "complete" => GraphSpec::Complete(field(parts.next(), "size", token)?),
        "star" => GraphSpec::Star(field(parts.next(), "size", token)?),
        "grid" => {
            let (r, c) = parts.next().and_then(|dims| dims.split_once('x')).unzip();
            GraphSpec::Grid(
                field(r, "grid rows", token)?,
                field(c, "grid columns", token)?,
            )
        }
        "gnp" => GraphSpec::Gnp {
            n: field(parts.next(), "size", token)?,
            p: field(parts.next(), "edge probability", token)?,
            seed: field(parts.next(), "generator seed", token)?,
        },
        other => {
            return Err(snap::invalid(format!(
                "unknown graph family {other:?} in {token:?}"
            )))
        }
    };
    if parts.next().is_some() {
        return Err(snap::invalid(format!("trailing fields in {token:?}")));
    }
    Ok(InstanceSpec {
        name: name.to_string(),
        problem,
        graph,
    })
}

/// Parses one `:`-separated field of `token`, or fails naming `what`.
fn field<T: std::str::FromStr>(field: Option<&str>, what: &str, token: &str) -> io::Result<T> {
    field
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| snap::invalid(format!("bad or missing {what} in {token:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo() -> CorpusSpec {
        CorpusSpec::parse_args([
            "ring=mis:cycle:12",
            "cover=vc:grid:3x4",
            "dom=ds:gnp:10:0.3:7",
            "@backends=greedy,bnb",
            "@eps=0.2,0.3",
            "@seeds=0..3",
            "@ensemble=2",
        ])
        .expect("demo spec parses")
    }

    #[test]
    fn parses_and_builds_the_full_grid() {
        let spec = demo();
        let corpus = spec.build();
        assert_eq!(corpus.len(), 3 * 2 * 2 * 3);
        assert_eq!(corpus.instance_names(), vec!["ring", "cover", "dom"]);
    }

    #[test]
    fn defaults_fill_backends_and_eps() {
        let spec = CorpusSpec::parse_args(["a=mis:cycle:6"]).unwrap();
        assert_eq!(spec.backends.len(), engine::BACKENDS.len());
        assert_eq!(spec.eps_grid, vec![0.3]);
        assert_eq!(spec.seeds, 0..1);
    }

    #[test]
    fn rejects_malformed_tokens() {
        for bad in [
            "noequals",
            "a=unknown:cycle:6",
            "a=mis:blob:6",
            "a=mis:cycle:notanum",
            "a=mis:grid:3y4",
            "a=mis:grid:3x",
            "a=mis",
            "a=mis:gnp:10:0.5",
            "a=mis:cycle:6:extra",
            "@seeds=5",
            "@seeds=a..b",
            "@eps=nope",
            "@mystery=1",
        ] {
            let err = CorpusSpec::parse_args(["ok=mis:cycle:6", bad])
                .expect_err(&format!("{bad:?} must be rejected"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}: {err}");
        }
    }

    #[test]
    fn validate_rejects_what_build_would_panic_on() {
        type Tweak = fn(&mut CorpusSpec);
        let cases: [(Tweak, &str); 14] = [
            (|s| s.instances.clear(), "0 instances"),
            (
                |s| s.instances.push(s.instances[0].clone()),
                "duplicate instance",
            ),
            (|s| s.backends.push("greedy".into()), "duplicate backend"),
            (|s| s.backends.push("no-such".into()), "unknown backend"),
            (|s| s.eps_grid.push(0.2), "duplicate eps"),
            (|s| s.eps_grid.push(1.5), "outside (0, 1)"),
            (|s| s.seeds = 3..3, "0 seeds"),
            (|s| s.seeds = 0..u64::MAX, "seeds (need 1..=4096)"),
            (
                |s| s.instances[0].graph = GraphSpec::Path(1 << 20),
                "1..=4096",
            ),
            (
                |s| s.instances[0].graph = GraphSpec::Grid(3, 0),
                "0 vertices",
            ),
            (|s| s.ensemble_runs = 1000, "ensemble runs"),
            (|s| s.instances[0].name = "a=b".into(), "contains '='"),
            (|s| s.instances[0].name = "@a".into(), "starts with '@'"),
            (
                |s| s.instances[0].graph = GraphSpec::Cycle(2),
                "needs at least 3",
            ),
        ];
        for (tweak, needle) in cases {
            let mut spec = demo();
            tweak(&mut spec);
            let err = spec.validate().expect_err(needle);
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    /// Every graph family at sizes 0–3 (grids up to 2×2, gnp at p 0 and
    /// 1), posed as each problem, either fails `validate` or builds and
    /// solves on every backend without panicking. Only the empty graphs
    /// and the cycles under 3 vertices fail.
    #[test]
    fn tiny_graphs_fail_validation_or_build() {
        let mut graphs: Vec<String> = (0..9)
            .map(|i| format!("grid:{}x{}", i / 3, i % 3))
            .collect();
        for n in 0..=3 {
            graphs.extend(["path", "cycle", "complete", "star"].map(|f| format!("{f}:{n}")));
            graphs.extend([0, 1].map(|p| format!("gnp:{n}:{p}:1")));
        }
        for token in graphs
            .iter()
            .flat_map(|g| ["mis", "vc", "ds"].map(|p| format!("g={p}:{g}")))
        {
            let graph = parse_instance(&token).expect("the token parses").graph;
            let invalid = graph.vertices() == 0 || matches!(graph, GraphSpec::Cycle(1 | 2));
            match CorpusSpec::parse_args([&token]) {
                Err(e) => assert!(invalid, "{token}: {e}"),
                Ok(spec) => {
                    assert!(!invalid, "{token} must fail validation");
                    let rt = dapc_runtime::RuntimeConfig::new();
                    let batch = dapc_runtime::solve_many(&spec.build(), &rt);
                    assert_eq!(batch.results.len(), engine::BACKENDS.len());
                }
            }
        }
    }

    /// Characters of the random instance names: spaces, colons, commas,
    /// `@` past the first character, and non-ASCII.
    const NAME_CHARS: [char; 12] = ['a', 'Z', '7', ' ', ':', ',', '@', '.', 'é', 'λ', '→', '🦀'];

    /// A float drawn as a bit pattern in `lo..=hi`, a quarter of the
    /// draws among the subnormals at or above `lo`.
    fn float_bits(lo: u64, hi: u64) -> impl Strategy<Value = f64> {
        (0u8..4, lo..=hi, lo..(1u64 << 52))
            .prop_map(|(pick, any, sub)| f64::from_bits(if pick == 0 { sub } else { any }))
    }

    /// Random valid instances: names from [`NAME_CHARS`] (made unique
    /// later by an index prefix), every problem and graph family.
    fn instance() -> impl Strategy<Value = (String, Problem, GraphSpec)> {
        let name = collection::vec(0..NAME_CHARS.len(), 0..16)
            .prop_map(|ix| ix.into_iter().map(|c| NAME_CHARS[c]).collect());
        let graph = (
            0u8..6,
            1usize..=4096,
            (1usize..=64, 1usize..=64),
            (float_bits(0, 1f64.to_bits()), 0u64..=u64::MAX),
        );
        (name, 0usize..3, graph).prop_map(|(name, problem, (family, n, (r, c), (p, seed)))| {
            let graph = match family {
                0 => GraphSpec::Path(n),
                1 => GraphSpec::Cycle(n.max(3)),
                2 => GraphSpec::Complete(n),
                3 => GraphSpec::Star(n),
                4 => GraphSpec::Grid(r, c),
                _ => GraphSpec::Gnp { n, p, seed },
            };
            (
                name,
                [Problem::Mis, Problem::Vc, Problem::Ds][problem],
                graph,
            )
        })
    }

    /// Random valid specs: up to 64 instances, a rotated subset of the
    /// backends, ε bit patterns in `(0, 1)`, seed ranges reaching
    /// `u64::MAX`, and 0–64 ensemble runs.
    fn random_spec() -> impl Strategy<Value = CorpusSpec> {
        let n = engine::BACKENDS.len();
        let eps = collection::vec(float_bits(1, 1f64.to_bits() - 1), 1..17);
        let grid = ((0u64..=u64::MAX, 1u64..=4096, 0u8..4), 0usize..=64);
        (collection::vec(instance(), 1..65), (0..n, 1..=n), eps, grid).prop_map(
            move |(instances, (first, k), mut eps_grid, ((at, span, pick), ensemble_runs))| {
                eps_grid.sort_by_key(|e| e.to_bits());
                eps_grid.dedup_by_key(|e| e.to_bits());
                let end = if pick == 0 { u64::MAX } else { at.max(span) };
                CorpusSpec {
                    instances: (instances.into_iter().enumerate())
                        .map(|(i, (name, problem, graph))| InstanceSpec {
                            name: format!("{i}:{name}"),
                            problem,
                            graph,
                        })
                        .collect(),
                    backends: (0..k)
                        .map(|j| engine::BACKENDS[(first + j) % n].to_string())
                        .collect(),
                    eps_grid,
                    seeds: end - span..end,
                    ensemble_runs,
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tokens are the only serialised form, so every valid spec
        /// must survive them, and the manifest and the `Sweep` frame that
        /// carry them.
        #[test]
        fn random_valid_specs_round_trip_through_tokens_manifest_and_frame(
            spec in random_spec()
        ) {
            prop_assert_eq!(spec.validate().map_err(|e| e.to_string()), Ok(()));
            let tokens = spec.to_args();
            let parsed = CorpusSpec::parse_args(&tokens).expect("tokens parse");
            prop_assert_eq!(&parsed, &spec);
            prop_assert_eq!(parsed.to_args(), tokens);

            let manifest = crate::SweepManifest::new(spec.clone(), 4);
            let mut bytes = Vec::new();
            manifest.save_to(&mut bytes).expect("write to a Vec");
            prop_assert_eq!(crate::SweepManifest::load_from(bytes.as_slice()).ok(), Some(manifest));
            let frame = crate::proto::Request::Sweep { spec, jobs: 2 };
            prop_assert_eq!(crate::proto::Request::from_bytes(&frame.to_bytes()).ok(), Some(frame));
        }
    }

    #[test]
    fn spec_corpus_matches_hand_built_corpus() {
        use dapc_core::engine::SolveConfig;
        let spec = CorpusSpec::parse_args([
            "ring=mis:cycle:12",
            "@backends=greedy",
            "@eps=0.3",
            "@seeds=0..2",
            "@ensemble=2",
        ])
        .unwrap();
        let by_hand = Corpus::builder()
            .instance(
                "ring",
                problems::max_independent_set_unweighted(&gen::cycle(12)),
            )
            .backend("greedy")
            .eps(0.3)
            .seeds(0..2)
            .base_config(SolveConfig::new().ensemble_runs(2))
            .build();
        let a = dapc_runtime::solve_many(&spec.build(), &dapc_runtime::RuntimeConfig::new());
        let b = dapc_runtime::solve_many(&by_hand, &dapc_runtime::RuntimeConfig::new());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.report.value, y.report.value);
        }
    }
}
