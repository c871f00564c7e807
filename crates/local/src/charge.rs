//! Charged round accounting for large-radius LOCAL algorithms.
//!
//! The paper's algorithms gather balls of radius `R = Θ(t·ln ñ/ε)` — far
//! beyond the diameter of any graph a simulation can hold, and far too
//! expensive to flood literally (`O(n · rounds · ball)` traffic). Since an
//! `r`-round LOCAL algorithm is precisely a function of `r`-balls (verified
//! against real message passing in [`crate::gather`]), we instead perform
//! gathers centrally and *charge* the rounds they would cost:
//!
//! * within one **phase**, all vertices act in parallel, so the phase costs
//!   the *maximum* radius any participant gathers;
//! * phases are sequential, so their costs *add*.
//!
//! Every decomposition/solver result carries its [`RoundLedger`] so
//! experiments can report exact LOCAL round complexities and their
//! per-phase breakdown.

/// Anything that carries a LOCAL round bill.
///
/// Every solver outcome, decomposition and report in the workspace exposes
/// its cost through this one trait (previously each type hand-rolled its
/// own `rounds()` accessor). Implementors provide [`RoundCost::ledger`];
/// [`RoundCost::rounds`] is derived.
///
/// # Examples
///
/// ```
/// use dapc_local::charge::{RoundCost, RoundLedger};
///
/// struct Outcome { ledger: RoundLedger }
/// impl RoundCost for Outcome {
///     fn ledger(&self) -> &RoundLedger { &self.ledger }
/// }
///
/// let mut ledger = RoundLedger::new();
/// ledger.begin_phase("gather");
/// ledger.charge_gather(5);
/// ledger.end_phase();
/// assert_eq!(Outcome { ledger }.rounds(), 5);
/// ```
pub trait RoundCost {
    /// The phase-by-phase round bill.
    fn ledger(&self) -> &RoundLedger;

    /// Total LOCAL rounds charged.
    fn rounds(&self) -> usize {
        self.ledger().total_rounds()
    }
}

impl RoundCost for RoundLedger {
    fn ledger(&self) -> &RoundLedger {
        self
    }
}

/// One sequential phase of a LOCAL algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Human-readable phase label (e.g. `"phase1/iter3"`).
    pub name: String,
    /// Rounds this phase costs (max over parallel participants).
    pub rounds: usize,
}

/// Accumulates the LOCAL round cost of an algorithm, phase by phase.
///
/// # Examples
///
/// ```
/// use dapc_local::charge::RoundLedger;
///
/// let mut ledger = RoundLedger::new();
/// ledger.begin_phase("estimate n_v");
/// ledger.charge_gather(12); // all vertices gather radius 12 in parallel
/// ledger.charge_gather(9);  // absorbed: same phase, smaller radius
/// ledger.end_phase();
/// ledger.begin_phase("carve");
/// ledger.charge_gather(30);
/// ledger.end_phase();
/// assert_eq!(ledger.total_rounds(), 42);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundLedger {
    phases: Vec<Phase>,
    current: Option<Phase>,
}

impl RoundLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new sequential phase. Any open phase is closed first.
    pub fn begin_phase(&mut self, name: impl Into<String>) {
        self.end_phase();
        self.current = Some(Phase {
            name: name.into(),
            rounds: 0,
        });
    }

    /// Records a parallel ball-gather of the given radius in the current
    /// phase; the phase cost is the maximum charge seen.
    ///
    /// # Panics
    ///
    /// Panics if no phase is open.
    pub fn charge_gather(&mut self, radius: usize) {
        let cur = self
            .current
            .as_mut()
            .expect("charge_gather outside of a phase");
        cur.rounds = cur.rounds.max(radius);
    }

    /// Records an unconditional cost of `rounds` *added* to the current
    /// phase (for sequential sub-steps that cannot overlap with the
    /// gathers, e.g. broadcasting a decision back over the same radius).
    ///
    /// # Panics
    ///
    /// Panics if no phase is open.
    pub fn charge_additive(&mut self, rounds: usize) {
        let cur = self
            .current
            .as_mut()
            .expect("charge_additive outside of a phase");
        cur.rounds += rounds;
    }

    /// Closes the current phase (no-op when none is open).
    pub fn end_phase(&mut self) {
        if let Some(p) = self.current.take() {
            self.phases.push(p);
        }
    }

    /// Appends all phases of another ledger (used when an algorithm invokes
    /// a sub-algorithm sequentially).
    pub fn absorb(&mut self, other: RoundLedger) {
        self.end_phase();
        let mut other = other;
        other.end_phase();
        self.phases.extend(other.phases);
    }

    /// Multiplies every phase cost by `factor` — the cost of simulating
    /// each hypergraph round by `factor` rounds of the underlying graph
    /// (e.g. `k`-distance dominating set, where one hyperedge round is `k`
    /// graph rounds).
    pub fn scaled(mut self, factor: usize) -> Self {
        self.end_phase();
        for p in &mut self.phases {
            p.rounds *= factor;
        }
        self
    }

    /// Total LOCAL rounds: the sum over closed phases plus the open one.
    pub fn total_rounds(&self) -> usize {
        self.phases.iter().map(|p| p.rounds).sum::<usize>()
            + self.current.as_ref().map_or(0, |p| p.rounds)
    }

    /// The closed phases, in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }
}

impl std::fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "RoundLedger(total = {} rounds)", self.total_rounds())?;
        for p in &self.phases {
            writeln!(f, "  {:<32} {:>10}", p.name, p.rounds)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_add_gathers_max() {
        let mut l = RoundLedger::new();
        l.begin_phase("a");
        l.charge_gather(5);
        l.charge_gather(3);
        l.charge_gather(7);
        l.begin_phase("b"); // implicitly closes "a"
        l.charge_gather(2);
        l.end_phase();
        assert_eq!(l.total_rounds(), 9);
        assert_eq!(l.phases().len(), 2);
        assert_eq!(l.phases()[0].rounds, 7);
    }

    #[test]
    fn additive_charges_stack() {
        let mut l = RoundLedger::new();
        l.begin_phase("gather+report");
        l.charge_gather(10);
        l.charge_additive(10); // report back
        l.end_phase();
        assert_eq!(l.total_rounds(), 20);
    }

    #[test]
    fn absorb_sequential() {
        let mut a = RoundLedger::new();
        a.begin_phase("x");
        a.charge_gather(4);
        a.end_phase();
        let mut b = RoundLedger::new();
        b.begin_phase("y");
        b.charge_gather(6);
        let mut total = RoundLedger::new();
        total.absorb(a);
        total.absorb(b);
        assert_eq!(total.total_rounds(), 10);
    }

    #[test]
    fn open_phase_counts_toward_total() {
        let mut l = RoundLedger::new();
        l.begin_phase("open");
        l.charge_gather(5);
        assert_eq!(l.total_rounds(), 5);
    }

    #[test]
    #[should_panic]
    fn charge_outside_phase_panics() {
        let mut l = RoundLedger::new();
        l.charge_gather(1);
    }

    #[test]
    fn scaled_multiplies_every_phase() {
        let mut l = RoundLedger::new();
        l.begin_phase("a");
        l.charge_gather(3);
        l.begin_phase("b");
        l.charge_gather(4);
        let scaled = l.scaled(5);
        assert_eq!(scaled.total_rounds(), 35);
        assert_eq!(scaled.phases()[0].rounds, 15);
    }

    #[test]
    fn round_cost_is_derived_from_ledger() {
        let mut l = RoundLedger::new();
        l.begin_phase("p");
        l.charge_gather(9);
        l.end_phase();
        assert_eq!(RoundCost::rounds(&l), 9);
        assert_eq!(RoundCost::ledger(&l).phases().len(), 1);
    }

    #[test]
    fn display_contains_breakdown() {
        let mut l = RoundLedger::new();
        l.begin_phase("alpha");
        l.charge_gather(2);
        l.end_phase();
        let s = format!("{l}");
        assert!(s.contains("alpha"));
        assert!(s.contains("total = 2"));
    }
}
