//! Deterministic, dependency-free fault injection.
//!
//! Production pipelines survive panicking workers, straggler threads, and
//! dropped messages; this workspace is single-core and dependency-free, so
//! the only way to *test* those paths is to inject the faults
//! deterministically. This crate provides:
//!
//! * a registry of named injection sites ([`sites`]) threaded through
//!   `batchprep`, `ddp`, and `core::checkpoint`;
//! * a seeded [`FaultPlan`] mapping `(site, occurrence)` to a
//!   [`FaultAction`] — the same seed always produces the identical fault
//!   schedule, independent of thread interleaving;
//! * a process-global install point with an atomic fast path: with no plan
//!   installed, [`point`] is one relaxed load and a predictable branch, so
//!   instrumented hot paths are behaviorally identical to uninstrumented
//!   ones.
//!
//! # Occurrence indices
//!
//! Every call site passes a *logical* occurrence id rather than a wall-clock
//! or arrival index, so a plan fires on the same logical event no matter
//! which worker thread happens to execute it:
//!
//! | site | occurrence |
//! |------|------------|
//! | `prep.sample`, `prep.slice`, `prep.send` | batch id |
//! | `prep.worker` | worker id |
//! | `ddp.send`, `ddp.recv`, `ddp.rank` | rank id |
//! | `ckpt.write` | entry index |
//! | `serve.request`, `serve.queue` | request id |
//! | `serve.sampler`, `serve.slice`, `serve.gemm` | micro-batch sequence |
//!
//! # Example
//!
//! ```
//! use salient_fault::{self as fault, FaultAction, FaultPlan};
//!
//! let plan = FaultPlan::new(42).panic_at(fault::sites::PREP_SAMPLE, 3);
//! assert_eq!(plan.decide(fault::sites::PREP_SAMPLE, 3), FaultAction::Panic);
//! assert_eq!(plan.decide(fault::sites::PREP_SAMPLE, 4), FaultAction::Proceed);
//!
//! // Nothing installed globally: every point is a no-op.
//! assert!(!fault::enabled());
//! assert_eq!(fault::point(fault::sites::PREP_SAMPLE, 3), FaultAction::Proceed);
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A named injection site: a newtype over `&'static str` that only this
/// crate can construct, so every site passed to [`point`], [`fire`] or a
/// [`FaultPlan`] builder is one of the [`sites`] constants — an unregistered
/// site does not compile. Text becomes a `Site` only in the
/// `SALIENT_FAULT_SPEC` parser, by lookup in [`sites::ALL`].
///
/// ```compile_fail,E0624
/// // The constructor is crate-private: outside `salient-fault` a literal
/// // cannot become a site.
/// let _ = salient_fault::Site::new("prep.ad_hoc");
/// ```
#[repr(transparent)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Site(&'static str);

impl Site {
    pub(crate) const fn new(name: &'static str) -> Site {
        Site(name)
    }

    /// The site's registered name, as written in fault specs and dumps.
    pub const fn as_str(self) -> &'static str {
        self.0
    }

    /// The registered site named `name`, if any.
    fn lookup(name: &str) -> Option<Site> {
        sites::ALL.iter().copied().find(|s| s.0 == name)
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// Declares the [`sites`] module: its constants and, from the same lines,
/// its `ALL` list — so a site cannot be missing from the list the spec
/// parser validates against.
macro_rules! sites {
    ($($(#[$doc:meta])* $id:ident = $name:literal,)*) => {
        /// The registry of named injection sites instrumented in the workspace.
        pub mod sites {
            use super::Site;
            $($(#[$doc])* pub const $id: Site = Site::new($name);)*

            /// Every known site, for spec validation and documentation.
            pub const ALL: &[Site] = &[$($id),*];
        }
    };
}

sites! {
    /// Batch-prep worker, inside neighborhood sampling (occ = batch id).
    PREP_SAMPLE = "prep.sample",
    /// Batch-prep worker, inside feature/label slicing (occ = batch id).
    PREP_SLICE = "prep.slice",
    /// Batch-prep worker, just before publishing a batch (occ = batch id).
    PREP_SEND = "prep.send",
    /// Batch-prep worker loop itself — kills the whole thread, exercising
    /// supervision rather than per-item retry (occ = worker id).
    PREP_WORKER = "prep.worker",
    /// DDP ring step, before sending to the next rank (occ = rank id).
    DDP_SEND = "ddp.send",
    /// DDP ring step, before receiving from the previous rank (occ = rank id).
    DDP_RECV = "ddp.recv",
    /// DDP rank training loop (occ = rank id).
    DDP_RANK = "ddp.rank",
    /// Checkpoint serialization, before writing an entry (occ = entry index).
    CKPT_WRITE = "ckpt.write",
    /// Serving request handler, inside the per-request pipeline (occ =
    /// request id). `panic` poisons exactly that request; the server's
    /// isolation boundary must contain it.
    SERVE_REQUEST = "serve.request",
    /// Serving admission queue (occ = request id). Any triggered action is
    /// treated as a forced queue-full: the request is shed with a typed
    /// `Rejected::Overload`, never silently dropped.
    SERVE_QUEUE = "serve.queue",
    /// Serving sampler stage (occ = micro-batch sequence number). `delay`
    /// models a slow-sampler stall; `panic` a crashed sampler.
    SERVE_SAMPLER = "serve.sampler",
    /// Serving feature-slice stage (occ = micro-batch sequence number).
    SERVE_SLICE = "serve.slice",
    /// Serving model-compute (GEMM) stage (occ = micro-batch sequence
    /// number).
    SERVE_GEMM = "serve.gemm",
    /// Stage-graph executor transfer/widen stage (occ = batch id). `panic`
    /// exercises the executor's per-item catch boundary: the batch is
    /// dropped and counted, the pinned slot returns via RAII, and the
    /// epoch completes on the remaining batches.
    PIPE_TRANSFER = "pipe.transfer",
    /// Stage-graph executor train stage, once the step's tape has been lent
    /// the batch's pinned slot (occ = batch id). `panic` unwinds the step
    /// through that tape: the slot must be back in the pool when the
    /// executor's catch boundary has retired the batch.
    PIPE_TRAIN = "pipe.train",
}

/// What a triggered site should do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (a crashing worker / rank).
    Panic,
    /// Sleep at the site (a straggler).
    Delay(Duration),
    /// Suppress the site's message or effect (a dropped message).
    Drop,
}

/// The decision returned by [`FaultPlan::decide`] / [`point`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: run the site normally.
    Proceed,
    /// Panic at the site.
    Panic,
    /// Sleep for the given duration, then proceed.
    Delay(Duration),
    /// Suppress the message/effect guarded by the site.
    Drop,
}

/// When a spec fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Fire on exactly this occurrence id.
    Once(u64),
    /// Fire on every occurrence.
    Always,
    /// Fire pseudo-randomly with this probability, derived from the plan
    /// seed and the occurrence id (deterministic per `(seed, site, occ)`).
    Prob(f64),
}

/// One injection rule: a site, a trigger, and the fault to apply.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// The named site this rule instruments.
    pub site: Site,
    /// The fault applied when the trigger fires.
    pub kind: FaultKind,
    /// When the rule fires.
    pub trigger: Trigger,
    /// Maximum number of firings (`None` = unlimited). Consumed across
    /// threads with a shared atomic counter.
    pub budget: Option<u64>,
}

#[derive(Debug)]
struct SpecState {
    spec: FaultSpec,
    fired: AtomicU64,
}

#[derive(Debug)]
struct PlanInner {
    seed: u64,
    specs: Vec<SpecState>,
}

/// A seeded, shareable fault schedule. Cloning shares firing budgets.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// Creates an empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner { seed, specs: Vec::new() }),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// The plan's rules, in matching order.
    pub fn specs(&self) -> Vec<FaultSpec> {
        self.inner.specs.iter().map(|s| s.spec.clone()).collect()
    }

    fn push(mut self, spec: FaultSpec) -> Self {
        inner_mut(&mut self.inner).specs.push(SpecState {
            spec,
            fired: AtomicU64::new(0),
        });
        self
    }

    /// Adds an arbitrary rule.
    pub fn with_spec(self, spec: FaultSpec) -> Self {
        self.push(spec)
    }

    /// Panic at `site` on occurrence `occ` (once).
    pub fn panic_at(self, site: Site, occ: u64) -> Self {
        self.push(FaultSpec {
            site,
            kind: FaultKind::Panic,
            trigger: Trigger::Once(occ),
            budget: Some(1),
        })
    }

    /// Sleep `delay` at `site` on occurrence `occ` (once).
    pub fn delay_at(self, site: Site, occ: u64, delay: Duration) -> Self {
        self.push(FaultSpec {
            site,
            kind: FaultKind::Delay(delay),
            trigger: Trigger::Once(occ),
            budget: Some(1),
        })
    }

    /// Drop the message at `site` on every hit of occurrence `occ`.
    ///
    /// Unlike [`FaultPlan::panic_at`], this is unbudgeted: a dropped rank
    /// stays dropped for every ring step it would have participated in.
    pub fn drop_at(self, site: Site, occ: u64) -> Self {
        self.push(FaultSpec {
            site,
            kind: FaultKind::Drop,
            trigger: Trigger::Once(occ),
            budget: None,
        })
    }

    /// Apply `kind` at `site` with seeded probability `p` per occurrence.
    pub fn prob(self, site: Site, kind: FaultKind, p: f64) -> Self {
        self.push(FaultSpec {
            site,
            kind,
            trigger: Trigger::Prob(p),
            budget: None,
        })
    }

    /// Decides what happens at `(site, occ)`. The first matching rule whose
    /// trigger fires (and whose budget is not exhausted) wins.
    ///
    /// For a given plan seed the decision is a pure function of
    /// `(site, occ)` up to budget exhaustion, so schedules are reproducible
    /// regardless of thread interleaving.
    pub fn decide(&self, site: Site, occ: u64) -> FaultAction {
        for st in &self.inner.specs {
            if st.spec.site != site {
                continue;
            }
            let hit = match st.spec.trigger {
                Trigger::Once(k) => occ == k,
                Trigger::Always => true,
                Trigger::Prob(p) => {
                    let h = splitmix64(self.inner.seed ^ fnv1a(site.as_str()) ^ occ.wrapping_mul(0x9E37));
                    // Map the top 53 bits to [0, 1).
                    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
                }
            };
            if !hit {
                continue;
            }
            if let Some(budget) = st.spec.budget {
                // Claim one firing; back off if the budget is spent.
                if st.fired.fetch_add(1, Ordering::AcqRel) >= budget {
                    continue;
                }
            }
            return match st.spec.kind {
                FaultKind::Panic => FaultAction::Panic,
                FaultKind::Delay(d) => FaultAction::Delay(d),
                FaultKind::Drop => FaultAction::Drop,
            };
        }
        FaultAction::Proceed
    }

    /// Builds a plan from `SALIENT_FAULT_SEED` / `SALIENT_FAULT_SPEC`.
    ///
    /// Returns `None` when `SALIENT_FAULT_SPEC` is unset or empty (a bare
    /// seed does nothing by itself).
    ///
    /// # Errors
    ///
    /// Returns a description of a seed that is not a `u64` or of the first
    /// malformed clause, beginning with the variable's name.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        let spec = match std::env::var("SALIENT_FAULT_SPEC") {
            Ok(s) if !s.trim().is_empty() => s,
            _ => return Ok(None),
        };
        let seed = std::env::var("SALIENT_FAULT_SEED")
            .ok()
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("SALIENT_FAULT_SEED is not a u64: {s:?}"))
            })
            .transpose()?
            .unwrap_or(0);
        Self::parse(seed, &spec).map(Some).map_err(|e| format!("SALIENT_FAULT_SPEC: {e}"))
    }

    /// Parses a spec string into a plan.
    ///
    /// Grammar (clauses separated by `;`):
    ///
    /// * `site=panic@K` — panic once, on occurrence `K`
    /// * `site=delay:MSms@K` — sleep `MS` milliseconds on occurrence `K`
    /// * `site=drop@K` — drop every message with occurrence `K`
    /// * `site=panic%P` / `site=drop%P` / `site=delay:MSms%P` — fire with
    ///   seeded probability `P` per occurrence
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause or unknown site.
    pub fn parse(seed: u64, spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site, rule) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause missing '=': {clause:?}"))?;
            let site = site.trim();
            let site = Site::lookup(site).ok_or_else(|| {
                let known: Vec<&str> = sites::ALL.iter().map(|s| s.as_str()).collect();
                format!("unknown fault site {site:?} (known: {})", known.join(", "))
            })?;
            let (kind_str, trigger) = if let Some((k, occ)) = rule.split_once('@') {
                let occ: u64 = occ
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad occurrence in clause {clause:?}"))?;
                (k.trim(), Trigger::Once(occ))
            } else if let Some((k, p)) = rule.split_once('%') {
                let p: f64 = p
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad probability in clause {clause:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability out of [0,1] in clause {clause:?}"));
                }
                (k.trim(), Trigger::Prob(p))
            } else {
                (rule.trim(), Trigger::Always)
            };
            let kind = if kind_str == "panic" {
                FaultKind::Panic
            } else if kind_str == "drop" {
                FaultKind::Drop
            } else if let Some(ms) = kind_str
                .strip_prefix("delay:")
                .and_then(|d| d.strip_suffix("ms"))
            {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("bad delay in clause {clause:?}"))?;
                FaultKind::Delay(Duration::from_millis(ms))
            } else {
                return Err(format!("unknown fault kind {kind_str:?} in clause {clause:?}"));
            };
            // Single-shot triggers default to a one-firing budget; drops are
            // sticky (a dropped link stays dropped).
            let budget = match (kind, trigger) {
                (FaultKind::Drop, _) => None,
                (_, Trigger::Once(_)) => Some(1),
                _ => None,
            };
            plan = plan.push(FaultSpec {
                site,
                kind,
                trigger,
                budget,
            });
        }
        Ok(plan)
    }
}

// `Arc::make_mut` requires `Clone` on the inner value (atomics aren't);
// builder methods consume `self` before the plan is shared, so the Arc is
// normally unique — rebuild only in the already-shared corner case.
#[expect(clippy::expect_used, reason = "the rebuild replaces a shared Arc with a fresh one, so by the last line it has a single owner")]
fn inner_mut(this: &mut Arc<PlanInner>) -> &mut PlanInner {
    if Arc::get_mut(this).is_none() {
        let rebuilt = PlanInner {
            seed: this.seed,
            specs: this
                .specs
                .iter()
                .map(|s| SpecState {
                    spec: s.spec.clone(),
                    fired: AtomicU64::new(s.fired.load(Ordering::Acquire)),
                })
                .collect(),
        };
        *this = Arc::new(rebuilt);
    }
    Arc::get_mut(this).expect("uniquely owned after rebuild")
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// A callback invoked whenever an installed plan actually triggers a fault
/// (any [`FaultAction`] other than `Proceed`), with the site name and
/// occurrence id. Used to hook the flight recorder: a dump taken *before*
/// an injected panic unwinds captures the causal window leading up to it.
pub type FireObserver = Arc<dyn Fn(&str, u64) + Send + Sync>;

static OBSERVER_ARMED: AtomicBool = AtomicBool::new(false);
static OBSERVER: Mutex<Option<FireObserver>> = Mutex::new(None);

/// Registers (or with `None`, clears) the process-global fire observer.
///
/// The observer runs on the faulting thread, after the plan decision and
/// before the action is applied — in particular before an injected panic
/// unwinds. It is called outside every fault-crate lock, so it may freely
/// take its own locks (e.g. to dump a trace).
pub fn set_fire_observer(obs: Option<FireObserver>) {
    // Armed flag first-cleared / last-set so the fast path in
    // `notify_observer` never observes the flag without the observer.
    OBSERVER_ARMED.store(false, Ordering::Release);
    let armed = obs.is_some();
    *OBSERVER.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = obs;
    OBSERVER_ARMED.store(armed, Ordering::Release);
}

fn notify_observer(site: &str, occ: u64) {
    // Relaxed fast path mirrors `point`: with no observer armed this is one
    // load on the (already cold) fault-firing path.
    if !OBSERVER_ARMED.load(Ordering::Relaxed) {
        return;
    }
    // Clone the handle out of the lock before calling so the observer can
    // itself reach fault/trace machinery without a lock-order cycle.
    let obs = OBSERVER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    if let Some(f) = obs {
        f(site, occ);
    }
}

/// Installs `plan` process-wide; subsequent [`point`] calls consult it.
#[expect(clippy::unwrap_used, reason = "set-up call, never on a decision point's path; every PLAN critical section is a plain read or assignment, so poison means a bug in this file")]
pub fn install(plan: FaultPlan) {
    *PLAN.lock().unwrap() = Some(plan);
    ENABLED.store(true, Ordering::Release);
}

/// Removes any installed plan; [`point`] returns to its no-op fast path.
#[expect(clippy::unwrap_used, reason = "tear-down call, never on a decision point's path; every PLAN critical section is a plain read or assignment, so poison means a bug in this file")]
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    *PLAN.lock().unwrap() = None;
}

/// Whether a plan is currently installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Installs a plan from the environment if `SALIENT_FAULT_SPEC` is set.
/// Returns whether a plan was installed.
///
/// # Errors
///
/// Propagates parse errors from [`FaultPlan::from_env`].
pub fn install_from_env() -> Result<bool, String> {
    match FaultPlan::from_env()? {
        Some(plan) => {
            install(plan);
            Ok(true)
        }
        None => Ok(false),
    }
}

/// A guard that keeps a plan installed for a scope (tests); clears on drop.
#[derive(Debug)]
pub struct ScopedPlan(());

/// Installs `plan` until the returned guard drops.
#[must_use = "the plan is cleared when the guard drops"]
pub fn scoped(plan: FaultPlan) -> ScopedPlan {
    install(plan);
    ScopedPlan(())
}

impl Drop for ScopedPlan {
    fn drop(&mut self) {
        clear();
    }
}

/// Consults the installed plan at a named site. With no plan installed this
/// is one relaxed atomic load — cheap enough for per-batch hot paths.
#[inline]
pub fn point(site: Site, occ: u64) -> FaultAction {
    // Relaxed: the enable flag is a monotone fast-path filter; plan
    // installation publishes through the PLAN mutex, not this load.
    if !ENABLED.load(Ordering::Relaxed) {
        return FaultAction::Proceed;
    }
    point_slow(site, occ)
}

#[cold]
fn point_slow(site: Site, occ: u64) -> FaultAction {
    // Poison recovery: the lock guards a read-mostly `Option<Plan>` whose
    // critical sections are plain reads/assignments, so a poisoned guard
    // carries no broken invariant — and decision points sit on hot paths
    // that must stay panic-free.
    let action = {
        let guard = PLAN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match guard.as_ref() {
            Some(plan) => plan.decide(site, occ),
            None => FaultAction::Proceed,
        }
    };
    // Notify after the plan lock drops: the observer may dump a trace or
    // take arbitrary locks of its own.
    if action != FaultAction::Proceed {
        notify_observer(site.as_str(), occ);
    }
    action
}

/// Evaluates `point(site, occ)` and applies panics and delays inline.
/// Returns `true` when the site's message/effect should be dropped.
///
/// # Panics
///
/// Panics (by design) when the installed plan injects a panic here.
#[inline]
pub fn fire(site: Site, occ: u64) -> bool {
    match point(site, occ) {
        FaultAction::Proceed => false,
        #[expect(clippy::panic, reason = "injected fault demands a panic: raising it at the site is how a plan tests what the caller does with one")]
        FaultAction::Panic => panic!("injected fault: panic at {site} (occ {occ})"),
        FaultAction::Delay(d) => {
            #[expect(clippy::disallowed_methods, reason = "deterministically injected fault delay; duration comes from the installed plan")]
            std::thread::sleep(d);
            false
        }
        FaultAction::Drop => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_proceeds() {
        let plan = FaultPlan::new(7);
        for occ in 0..100 {
            assert_eq!(plan.decide(sites::PREP_SAMPLE, occ), FaultAction::Proceed);
        }
    }

    #[test]
    fn once_trigger_fires_exactly_once() {
        let plan = FaultPlan::new(0).panic_at(sites::PREP_SAMPLE, 5);
        assert_eq!(plan.decide(sites::PREP_SAMPLE, 4), FaultAction::Proceed);
        assert_eq!(plan.decide(sites::PREP_SAMPLE, 5), FaultAction::Panic);
        // Budget of one: a retry of the same batch proceeds.
        assert_eq!(plan.decide(sites::PREP_SAMPLE, 5), FaultAction::Proceed);
        // Other sites are untouched.
        assert_eq!(plan.decide(sites::PREP_SLICE, 5), FaultAction::Proceed);
    }

    #[test]
    fn drop_is_sticky() {
        let plan = FaultPlan::new(0).drop_at(sites::DDP_SEND, 1);
        for _ in 0..10 {
            assert_eq!(plan.decide(sites::DDP_SEND, 1), FaultAction::Drop);
        }
        assert_eq!(plan.decide(sites::DDP_SEND, 0), FaultAction::Proceed);
    }

    #[test]
    fn same_seed_injects_identical_schedule() {
        // The property the whole crate hangs on: schedules are a pure
        // function of (seed, site, occ).
        let mk = |seed| {
            FaultPlan::new(seed)
                .prob(sites::PREP_SAMPLE, FaultKind::Panic, 0.25)
                .prob(sites::DDP_SEND, FaultKind::Drop, 0.1)
        };
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = mk(seed);
            let b = mk(seed);
            for site in [sites::PREP_SAMPLE, sites::DDP_SEND] {
                for occ in 0..2_000 {
                    assert_eq!(a.decide(site, occ), b.decide(site, occ), "seed {seed} {site} {occ}");
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = FaultPlan::new(1).prob(sites::PREP_SAMPLE, FaultKind::Panic, 0.5);
        let b = FaultPlan::new(2).prob(sites::PREP_SAMPLE, FaultKind::Panic, 0.5);
        let diverges = (0..1_000).any(|occ| {
            a.decide(sites::PREP_SAMPLE, occ) != b.decide(sites::PREP_SAMPLE, occ)
        });
        assert!(diverges, "seeds 1 and 2 produced the same 1000-event schedule");
    }

    #[test]
    fn probability_rate_is_roughly_honored() {
        let plan = FaultPlan::new(9).prob(sites::PREP_SAMPLE, FaultKind::Drop, 0.3);
        let fired = (0..10_000)
            .filter(|&occ| plan.decide(sites::PREP_SAMPLE, occ) == FaultAction::Drop)
            .count();
        let rate = fired as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn parse_round_trips_each_form() {
        let plan = FaultPlan::parse(
            3,
            "prep.sample=panic@4; ddp.send=drop@1; prep.slice=delay:25ms@0; ckpt.write=panic%0.5",
        )
        .unwrap();
        assert_eq!(plan.decide(sites::PREP_SAMPLE, 4), FaultAction::Panic);
        assert_eq!(plan.decide(sites::DDP_SEND, 1), FaultAction::Drop);
        assert_eq!(
            plan.decide(sites::PREP_SLICE, 0),
            FaultAction::Delay(Duration::from_millis(25))
        );
        assert_eq!(plan.specs().len(), 4);
    }

    #[test]
    fn sites_are_unique_and_all_lists_every_one() {
        // `ALL` is built from the same lines as the constants: its length
        // is the declaration count, and the parser resolves each name back
        // to the constant it was declared as.
        assert_eq!(sites::ALL.len(), 15);
        for (i, site) in sites::ALL.iter().enumerate() {
            assert_eq!(Site::lookup(site.as_str()), Some(*site));
            assert!(
                sites::ALL[..i].iter().all(|s| s.as_str() != site.as_str()),
                "duplicate site {site}"
            );
        }
        assert_eq!(Site::lookup("nosuchsite"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse(0, "nosuchsite=panic@1").is_err());
        assert!(FaultPlan::parse(0, "prep.sample-panic").is_err());
        assert!(FaultPlan::parse(0, "prep.sample=explode@1").is_err());
        assert!(FaultPlan::parse(0, "prep.sample=panic@x").is_err());
        assert!(FaultPlan::parse(0, "prep.sample=panic%1.5").is_err());
    }

    /// Held by the two tests that install the process-global plan: run side
    /// by side, one's plan replaces (or its guard clears) the other's.
    static GLOBAL_PLAN: Mutex<()> = Mutex::new(());

    #[test]
    fn global_install_and_scoped_clear() {
        // Note: this test manipulates process-global state and restores the
        // disabled state before returning.
        let _serial = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(point(sites::PREP_SAMPLE, 1), FaultAction::Proceed);
        {
            let _g = scoped(FaultPlan::new(0).drop_at(sites::PREP_SEND, 2));
            assert!(enabled());
            assert_eq!(point(sites::PREP_SEND, 2), FaultAction::Drop);
            assert_eq!(point(sites::PREP_SEND, 3), FaultAction::Proceed);
        }
        assert!(!enabled());
        assert_eq!(point(sites::PREP_SEND, 2), FaultAction::Proceed);
    }

    #[test]
    fn fire_observer_sees_triggered_sites_before_the_action() {
        // Global state, like global_install_and_scoped_clear: restores the
        // disarmed observer and cleared plan before returning.
        let _serial = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
        let seen: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        set_fire_observer(Some(Arc::new(move |site: &str, occ: u64| {
            sink.lock().unwrap().push((site.to_string(), occ));
        })));
        {
            let _g = scoped(FaultPlan::new(0).drop_at(sites::PREP_WORKER, 77));
            // A proceed decision must not notify.
            assert_eq!(point(sites::PREP_WORKER, 76), FaultAction::Proceed);
            // A triggered drop must.
            assert_eq!(point(sites::PREP_WORKER, 77), FaultAction::Drop);
        }
        set_fire_observer(None);
        let seen = seen.lock().unwrap();
        assert!(
            seen.contains(&(sites::PREP_WORKER.to_string(), 77)),
            "observer missed the triggered site: {seen:?}"
        );
        assert!(!seen.contains(&(sites::PREP_WORKER.to_string(), 76)));
    }

    #[test]
    fn budget_is_claimed_across_clones() {
        let plan = FaultPlan::new(0).panic_at(sites::PREP_SAMPLE, 0);
        let clone = plan.clone();
        assert_eq!(plan.decide(sites::PREP_SAMPLE, 0), FaultAction::Panic);
        // The clone shares the budget: already spent.
        assert_eq!(clone.decide(sites::PREP_SAMPLE, 0), FaultAction::Proceed);
    }
}
