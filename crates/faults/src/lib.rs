//! Resource governor and deterministic fault injection.
//!
//! A certifier must *fail closed*: arbitrary client text or a pathological
//! spec may make a fixpoint enormous, but it must never make the pipeline
//! panic, hang, or silently report a wrong verdict. This crate provides the
//! two mechanisms the rest of the workspace builds its resilience layer on:
//!
//! * **[`Budget`] / [`Meter`]** — a shared resource governor (step count,
//!   wall-clock deadline, state-set size) threaded through every solver
//!   fixpoint. Exhaustion surfaces as a typed [`Exhaustion`] value which the
//!   engines degrade into an *inconclusive* verdict: a sound "cannot
//!   certify", mirroring the conservative-analysis contract of the paper.
//!   The default budget is unlimited and costs one predictable branch per
//!   fixpoint step.
//! * **Named fault-injection points** — deterministic, env-toggled failures
//!   (`CANVAS_FAULT=truncate-input|solver-abort|budget-trip|oracle-death|cache-corrupt|conn-drop|slow-client|queue-full`)
//!   that let CI prove each class of fault surfaces as a structured error or
//!   inconclusive verdict, never a crash. Injection is off unless explicitly
//!   requested, and each point fires identically on every run.
//!
//! The crate is dependency-free so every layer (frontend, solvers, engines,
//! suite driver, binaries) can use it without cycles.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------------

/// Resource limits for one certification run.
///
/// A budget is *shared semantics, local accounting*: each solver invocation
/// creates its own [`Meter`] from the budget, so `max_steps` bounds every
/// individual fixpoint (not their sum) while `deadline` is an absolute
/// instant and therefore bounds the run as a whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum fixpoint steps per solver invocation (`None` = unlimited).
    pub max_steps: Option<u64>,
    /// Absolute wall-clock deadline (`None` = unlimited).
    pub deadline: Option<Instant>,
    /// Maximum abstract-state-set size per program point (`None` =
    /// unlimited). Only the state-set engines (relational, TVLA) consult it.
    pub max_states: Option<usize>,
}

impl Budget {
    /// No limits: every check is a single untaken branch.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget { max_steps: None, deadline: None, max_states: None }
    }

    /// True if no limit is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.deadline.is_none() && self.max_states.is_none()
    }

    /// Bounds each fixpoint to `n` steps.
    #[must_use]
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Sets an absolute deadline `ms` milliseconds from now.
    ///
    /// The deadline is anchored at the moment this is called (typically CLI
    /// parse time), so later pipeline stages inherit however much of the
    /// allowance is left.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Instant::now() + std::time::Duration::from_millis(ms));
        self
    }

    /// Sets an absolute deadline at a pre-computed instant.
    ///
    /// The serve front-end anchors the deadline at *admission* time, so a
    /// request that waited in the bounded queue inherits only whatever
    /// allowance is left when a worker finally picks it up.
    #[must_use]
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Bounds per-point abstract state sets to `n` states.
    #[must_use]
    pub fn with_max_states(mut self, n: usize) -> Self {
        self.max_states = Some(n);
        self
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// Why a governed fixpoint stopped early.
///
/// This is not an error in the "something broke" sense: the solver state is
/// simply incomplete, and the caller must degrade to an inconclusive
/// verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Exhaustion {
    /// The per-invocation step budget ran out.
    Steps {
        /// The configured limit.
        limit: u64,
    },
    /// The absolute wall-clock deadline passed.
    Deadline,
    /// A per-point abstract state set outgrew the governor limit.
    States {
        /// The configured limit.
        limit: usize,
        /// The size that tripped it.
        seen: usize,
    },
    /// The `budget-trip` fault-injection point fired.
    Injected,
}

impl Exhaustion {
    /// Human-readable reason, used verbatim in `Inconclusive` verdicts.
    #[must_use]
    pub fn reason(&self) -> String {
        match self {
            Exhaustion::Steps { limit } => format!("step budget of {limit} exhausted"),
            Exhaustion::Deadline => "wall-clock deadline exceeded".to_string(),
            Exhaustion::States { limit, seen } => {
                format!("state budget of {limit} exceeded ({seen} states)")
            }
            Exhaustion::Injected => "injected budget-trip fault".to_string(),
        }
    }
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason())
    }
}

impl std::error::Error for Exhaustion {}

/// Per-invocation accountant for a [`Budget`].
///
/// Solvers call [`Meter::tick`] once per fixpoint step and
/// [`Meter::check_states`] when a state set grows. An unarmed meter (no
/// limits, no injected trip) reduces both to a single branch, keeping the
/// governed hot loops within the telemetry-overhead budget.
#[derive(Debug)]
pub struct Meter {
    steps: Cell<u64>,
    max_steps: u64,
    deadline: Option<Instant>,
    max_states: usize,
    armed: bool,
    trip: bool,
}

impl Meter {
    /// Builds a meter for `budget`, arming it if any limit is set or the
    /// `budget-trip` injection point is active.
    #[must_use]
    pub fn new(budget: Budget) -> Self {
        let trip = active(Fault::BudgetTrip);
        Meter {
            steps: Cell::new(0),
            max_steps: budget.max_steps.unwrap_or(u64::MAX),
            deadline: budget.deadline,
            max_states: budget.max_states.unwrap_or(usize::MAX),
            armed: trip || !budget.is_unlimited(),
            trip,
        }
    }

    /// A meter that can never trip — not even under fault injection.
    ///
    /// For ungoverned runs: the yardstick entry `fds::analyze`, solver unit
    /// tests, and the benchmarks that time a fixpoint kernel by itself.
    #[must_use]
    pub fn disarmed() -> Self {
        Meter {
            steps: Cell::new(0),
            max_steps: u64::MAX,
            deadline: None,
            max_states: usize::MAX,
            armed: false,
            trip: false,
        }
    }

    /// Accounts one fixpoint step.
    ///
    /// # Errors
    ///
    /// Returns the [`Exhaustion`] that tripped, if any limit did.
    #[inline]
    pub fn tick(&self) -> Result<(), Exhaustion> {
        if !self.armed {
            return Ok(());
        }
        self.tick_armed()
    }

    #[cold]
    fn tick_armed(&self) -> Result<(), Exhaustion> {
        if self.trip {
            return Err(Exhaustion::Injected);
        }
        let steps = self.steps.get() + 1;
        self.steps.set(steps);
        if steps > self.max_steps {
            return Err(Exhaustion::Steps { limit: self.max_steps });
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Exhaustion::Deadline);
            }
        }
        Ok(())
    }

    /// Checks a state-set size against the governor state budget.
    ///
    /// # Errors
    ///
    /// Returns [`Exhaustion::States`] when `seen` exceeds the limit.
    #[inline]
    pub fn check_states(&self, seen: usize) -> Result<(), Exhaustion> {
        if !self.armed || seen <= self.max_states {
            return Ok(());
        }
        Err(Exhaustion::States { limit: self.max_states, seen })
    }

    /// Steps accounted so far (0 while unarmed).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }
}

// ---------------------------------------------------------------------------
// Process-default budget
// ---------------------------------------------------------------------------

static PROCESS_BUDGET: OnceLock<Budget> = OnceLock::new();

/// Installs the process-wide default budget (read by certifier
/// constructors). First caller wins; returns `false` if one was already set.
pub fn set_process_budget(budget: Budget) -> bool {
    PROCESS_BUDGET.set(budget).is_ok()
}

/// The process-wide default budget (unlimited unless
/// [`set_process_budget`] was called).
#[must_use]
pub fn process_budget() -> Budget {
    PROCESS_BUDGET.get().copied().unwrap_or_else(Budget::unlimited)
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A named deterministic fault-injection point.
///
/// Each point models one class of production failure; CI runs the evaluation
/// under every point and asserts the pipeline surfaces a structured error or
/// an inconclusive verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Frontend hands the parsers a prefix of the input (mid-token, but
    /// always on a char boundary): models a truncated upload.
    TruncateInput,
    /// Every solver entry point panics: models a solver bug, proving the
    /// engine-registry `catch_unwind` isolation works.
    SolverAbort,
    /// Every armed meter trips immediately: models resource exhaustion,
    /// proving budget trips degrade to inconclusive verdicts.
    BudgetTrip,
    /// The suite oracle's exploration thread panics: models worker death,
    /// proving thread failures surface as oracle errors.
    OracleDeath,
    /// The certificate cache sees a corrupted on-disk store: models a
    /// truncated or bit-rotted cache file, proving the cache degrades to a
    /// cold miss instead of erroring out.
    CacheCorrupt,
    /// The serve front-end's writer tears the connection mid-response:
    /// models a client that vanished, proving a torn connection poisons
    /// only itself.
    ConnDrop,
    /// The serve front-end's writer stalls past the write timeout: models a
    /// client that stopped reading, proving slow readers cannot wedge a
    /// worker.
    SlowClient,
    /// The serve admission queue reports full on every enqueue: models a
    /// saturated daemon, proving admission rejection sheds in-band.
    QueueFull,
    /// One fleet worker dies mid-corpus: models a crashed shard in a
    /// corpus-scale run, proving shard death poisons only that shard (its
    /// in-flight program is lost; the other workers claim the rest).
    ShardDeath,
}

impl Fault {
    /// Every injection point, in catalog order.
    pub const ALL: [Fault; 9] = [
        Fault::TruncateInput,
        Fault::SolverAbort,
        Fault::BudgetTrip,
        Fault::OracleDeath,
        Fault::CacheCorrupt,
        Fault::ConnDrop,
        Fault::SlowClient,
        Fault::QueueFull,
        Fault::ShardDeath,
    ];

    /// The `CANVAS_FAULT` name of this point.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fault::TruncateInput => "truncate-input",
            Fault::SolverAbort => "solver-abort",
            Fault::BudgetTrip => "budget-trip",
            Fault::OracleDeath => "oracle-death",
            Fault::CacheCorrupt => "cache-corrupt",
            Fault::ConnDrop => "conn-drop",
            Fault::SlowClient => "slow-client",
            Fault::QueueFull => "queue-full",
            Fault::ShardDeath => "shard-death",
        }
    }

    /// Parses a `CANVAS_FAULT` name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Forced fault for in-process tests: 0 = follow the environment,
/// `fault as u8 + 1` = that fault, `u8::MAX` = forced off.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Programmatically forces an injection point on (`Some`) or all points off
/// (`None`), overriding `CANVAS_FAULT`. Test hook; process-global, so tests
/// using it must serialize. Call [`unforce`] to restore env-driven behavior.
pub fn force(fault: Option<Fault>) {
    let code = match fault {
        Some(f) => f as u8 + 1,
        None => u8::MAX,
    };
    FORCED.store(code, Ordering::SeqCst);
}

/// Clears any [`force`] override, restoring `CANVAS_FAULT` control.
pub fn unforce() {
    FORCED.store(0, Ordering::SeqCst);
}

fn env_fault() -> Option<Fault> {
    static ENV: OnceLock<Option<Fault>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("CANVAS_FAULT").ok()?;
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        match Fault::from_name(raw) {
            Some(f) => Some(f),
            None => {
                let known: Vec<&str> = Fault::ALL.iter().map(|f| f.name()).collect();
                canvas_telemetry::events::warn(
                    "faults.env",
                    format!("unknown CANVAS_FAULT {raw:?} ignored (known: {})", known.join(", ")),
                );
                None
            }
        }
    })
}

/// True if the named injection point is active (forced or via
/// `CANVAS_FAULT`).
#[must_use]
pub fn active(fault: Fault) -> bool {
    match FORCED.load(Ordering::SeqCst) {
        0 => env_fault() == Some(fault),
        u8::MAX => false,
        code => code == fault as u8 + 1,
    }
}

/// `truncate-input` injection point: returns a char-boundary-safe prefix of
/// `src` when active, `src` unchanged otherwise.
#[must_use]
pub fn truncate_input(src: &str) -> &str {
    if !active(Fault::TruncateInput) {
        return src;
    }
    let mut cut = src.len() / 2;
    while cut > 0 && !src.is_char_boundary(cut) {
        cut -= 1;
    }
    &src[..cut]
}

/// `solver-abort` injection point: panics when active. Called once per
/// engine run, inside the isolation layer of
/// `canvas_core::Certifier::certify_method_shared`, which every engine run
/// passes, so the layer is exercised on every engine.
pub fn solver_abort() {
    assert!(!active(Fault::SolverAbort), "injected fault: solver-abort");
}

/// `oracle-death` injection point: panics when active. Runs on the oracle's
/// exploration thread so the spawning side must survive a dead worker.
pub fn oracle_death() {
    assert!(!active(Fault::OracleDeath), "injected fault: oracle-death");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let m = Meter::new(Budget::unlimited());
        for _ in 0..10_000 {
            m.tick().unwrap();
        }
        m.check_states(usize::MAX).unwrap();
        assert_eq!(m.steps(), 0, "unarmed meters skip accounting");
    }

    #[test]
    fn step_budget_trips_with_reason() {
        let m = Meter::new(Budget::unlimited().with_max_steps(3));
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        let ex = m.tick().unwrap_err();
        assert_eq!(ex, Exhaustion::Steps { limit: 3 });
        assert!(ex.reason().contains("step budget"));
    }

    #[test]
    fn expired_deadline_trips() {
        let m = Meter::new(Budget::unlimited().with_deadline_ms(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(m.tick().unwrap_err(), Exhaustion::Deadline);
    }

    #[test]
    fn state_budget_trips_with_sizes() {
        let m = Meter::new(Budget::unlimited().with_max_states(8));
        m.check_states(8).unwrap();
        let ex = m.check_states(9).unwrap_err();
        assert_eq!(ex, Exhaustion::States { limit: 8, seen: 9 });
        assert!(ex.reason().contains("state budget"));
    }

    #[test]
    fn fault_names_round_trip() {
        for f in Fault::ALL {
            assert_eq!(Fault::from_name(f.name()), Some(f));
        }
        assert_eq!(Fault::from_name("no-such-point"), None);
    }

    #[test]
    fn forced_faults_toggle_and_truncate_is_boundary_safe() {
        // Serialized within this one test: `force` is process-global.
        force(Some(Fault::TruncateInput));
        assert!(active(Fault::TruncateInput));
        assert!(!active(Fault::SolverAbort));
        let multibyte = "ab\u{00e9}\u{00e9}"; // 6 bytes, cut lands mid-char
        let cut = truncate_input(multibyte);
        assert!(multibyte.starts_with(cut) && cut.len() < multibyte.len());
        force(Some(Fault::BudgetTrip));
        let m = Meter::new(Budget::unlimited());
        assert_eq!(m.tick().unwrap_err(), Exhaustion::Injected);
        force(None);
        assert!(!active(Fault::BudgetTrip));
        assert_eq!(truncate_input("abc"), "abc");
        unforce();
    }
}
