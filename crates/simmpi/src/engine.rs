//! Deterministic discrete-event engine executing one [`Program`] per rank.
//!
//! ## Semantics
//!
//! * **Point-to-point matching** is FIFO per `(source, destination, tag)`
//!   channel (MPI non-overtaking rule).
//! * **Eager protocol** (below the interconnect's threshold): a send
//!   completes locally after the sender overhead `o`; the message arrives
//!   at `post + wire_time`; the receive completes at
//!   `max(recv_post, arrival)`.
//! * **Synchronous rendezvous** (at/above the threshold): sender and
//!   receiver hand-shake; the transfer starts at
//!   `max(send_post, recv_post)` and both sides complete at
//!   `start + wire_time`. This is the regime responsible for the
//!   minisweep serialization "ripple" of the paper (§4.1.5).
//! * **Collectives** are globally ordered per rank-local sequence number;
//!   every rank must execute the same sequence (mismatches are detected
//!   and reported). A collective completes for all ranks at
//!   `max(entry times) + algorithmic cost`.
//! * **Deadlocks** (cyclic rendezvous sends, missing matches) are
//!   detected: when no rank can make progress and not all are done, the
//!   engine reports which rank is stuck on which operation.
//!
//! ## Scheduling
//!
//! The engine is **event-driven**: runnable ranks live on a ready
//! queue, and a blocked rank is re-examined only when something it
//! waits on completes — a message match delivers a wake to the owning
//! rank(s), the last entrant of a collective wakes all participants.
//! Total scheduler work is `O(ops + messages)`; blocked ranks are never
//! polled. Results are *visiting-order independent*: completion times
//! are computed from posted timestamps alone (FIFO matching within a
//! channel involves exactly two ranks, whose postings are already in
//! program order; collective finishes are max-reductions over entry
//! times), so the ready-queue engine reproduces the earlier
//! polling-sweep engine bit for bit. `tests/prop_engine.rs` pins this
//! equivalence with golden fingerprints captured from the polling
//! implementation.
//!
//! The engine is deterministic: completion times depend only on the
//! programs and the network model, never on host scheduling.
//!
//! With [`SimConfig::threads`] `> 1` the run is executed by the
//! conservative parallel (PDES) scheduler in [`crate::pdes`]: the rank
//! range is split into contiguous, node-aligned partitions, each driven
//! by its own ready-queue scheduler on a host thread, with
//! cross-partition traffic forwarded over inter-partition channels. The
//! visiting-order independence above is exactly what makes this safe —
//! the parallel engine produces a bit-identical [`SimResult`] at every
//! thread count, and `threads == 1` (the default) runs the sequential
//! scheduler below unchanged.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::faults::{ActiveFaults, FaultPlan};
use crate::netmodel::NetModel;
use crate::profile::{Phase, Profile, Regime};
use crate::program::{Op, Program, ReqId};
use crate::trace::{EventKind, Timeline};

/// Engine configuration.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SimConfig {
    /// Record a full event timeline. Off by default — timelines hold
    /// one entry per executed op and dominate memory on large sweeps;
    /// the Fig. 2 insets and CSV export request tracing explicitly.
    pub trace: bool,
    /// Accumulate the online [`Profile`] (per-rank phase split,
    /// message-size histograms, rank×rank communication matrix). Cheap
    /// (O(ranks²) memory, O(1) per op) and on by default; works
    /// independently of `trace`. When off, the run is monomorphized
    /// against a no-op recorder, so the hot path carries no profile
    /// branches at all.
    pub profile: bool,
    /// Seeded fault-injection plan ([`FaultPlan::none()`] by default).
    /// Like the profile/trace sinks, the run loop is monomorphized over
    /// the fault hook: an empty plan selects a no-op hook, carries no
    /// fault branches on the hot path, and keeps [`SimResult`]
    /// bit-identical to a faults-free build.
    pub faults: FaultPlan,
    /// Number of partition threads for the parallel (PDES) scheduler.
    /// `1` (the default) runs the sequential engine unchanged; values
    /// above `1` split the rank range into contiguous, node-aligned
    /// partitions executed on host threads (see [`crate::pdes`]).
    /// `SimResult` is bit-identical at every thread count; `0` is
    /// clamped to `1`, and values above the rank count are clamped to
    /// it.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            trace: false,
            profile: true,
            faults: FaultPlan::none(),
            threads: 1,
        }
    }
}

impl SimConfig {
    /// Builder: set [`SimConfig::trace`].
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Builder: set [`SimConfig::profile`].
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Builder: set [`SimConfig::faults`].
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: set [`SimConfig::threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No rank can make progress. Contains `(rank, op index, op)` for
    /// every blocked rank.
    Deadlock(Vec<(usize, usize, Op)>),
    /// Ranks disagree on the collective sequence.
    CollectiveMismatch {
        seq: usize,
        rank: usize,
        expected: &'static str,
        found: &'static str,
    },
    /// A program failed structural validation.
    InvalidProgram { rank: usize, reason: String },
    /// An op referenced a rank outside `0..nranks`.
    RankOutOfRange { rank: usize, op_index: usize },
    /// A rank was hard-killed by an injected
    /// [`FaultEvent::Crash`](crate::faults::FaultEvent). MPI-abort
    /// semantics: the whole run aborts, blaming the crashed rank and
    /// the op it was about to execute.
    RankFailed {
        rank: usize,
        op_index: usize,
        at_s: f64,
    },
    /// The run was cancelled cooperatively (the harness's per-run
    /// timeout sets the engine's cancellation token).
    Cancelled,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(blocked) => {
                write!(f, "deadlock: {} rank(s) blocked", blocked.len())?;
                for (r, pc, op) in blocked.iter().take(8) {
                    write!(f, "; rank {r} at op {pc} ({op:?})")?;
                }
                if blocked.len() > 8 {
                    write!(f, "; … and {} more blocked ranks", blocked.len() - 8)?;
                }
                Ok(())
            }
            SimError::CollectiveMismatch {
                seq,
                rank,
                expected,
                found,
            } => write!(
                f,
                "collective mismatch at sequence {seq}: rank {rank} called {found}, others {expected}"
            ),
            SimError::InvalidProgram { rank, reason } => {
                write!(f, "invalid program on rank {rank}: {reason}")
            }
            SimError::RankOutOfRange { rank, op_index } => {
                write!(f, "rank {rank} out of range at op {op_index}")
            }
            SimError::RankFailed {
                rank,
                op_index,
                at_s,
            } => write!(
                f,
                "rank {rank} failed (injected crash) at t={at_s:.6}s before op {op_index}; aborting run"
            ),
            SimError::Cancelled => write!(f, "run cancelled"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a simulated run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Time at which the last rank finished (seconds).
    pub makespan: f64,
    /// Finish time of every rank.
    pub finish_times: Vec<f64>,
    /// Event timeline (empty if tracing was disabled).
    pub timeline: Timeline,
    /// Total point-to-point payload bytes moved.
    pub p2p_bytes: u64,
    /// Point-to-point payload bytes that crossed a node boundary.
    pub internode_bytes: u64,
    /// Per-rank time per event kind (indexed by [`EventKind::ALL`]
    /// order), accumulated online — available even without tracing.
    pub per_rank_breakdown: Vec<[f64; EventKind::COUNT]>,
    /// Online observability profile (empty if profiling was disabled).
    pub profile: Profile,
    /// State at the checkpoint collective (`None` unless the engine was
    /// built with [`Engine::with_checkpoint`] and the run reached it).
    pub checkpoint: Option<Checkpoint>,
}

impl SimResult {
    /// Aggregate [`Breakdown`](crate::trace::Breakdown) over all ranks from the online counters.
    pub fn breakdown(&self) -> crate::trace::Breakdown {
        aggregate_breakdown(&self.per_rank_breakdown)
    }
}

/// Sum per-rank breakdown rows into one [`Breakdown`](crate::trace::Breakdown).
fn aggregate_breakdown(rows: &[[f64; EventKind::COUNT]]) -> crate::trace::Breakdown {
    let mut b = crate::trace::Breakdown::default();
    for rank in rows {
        for (i, &kind) in EventKind::ALL.iter().enumerate() {
            if rank[i] > 0.0 {
                *b.seconds.entry(kind).or_insert(0.0) += rank[i];
                b.total += rank[i];
            }
        }
    }
    b
}

/// The run's state as it stands when the ranks leave the checkpoint
/// collective (see [`Engine::with_checkpoint`]).
///
/// When the checkpoint collective ends a prefix of every program, this
/// equals, field for field and bit for bit, the [`SimResult`] of running
/// that prefix alone:
///
/// * `makespan` is the collective's finish time, which is when every
///   rank of the prefix-only run finishes;
/// * each rank's breakdown row and [`Profile`] phase row are taken as
///   the rank leaves the collective — rows are written only by their own
///   rank, in program order, so they hold exactly the prefix's sums;
/// * the global views (size histograms, communication matrix,
///   `p2p_bytes`, `internode_bytes`) are taken as the first rank leaves
///   it: every rank has entered, so every prefix post is counted, and no
///   rank has gone past it, so no later post is. Messages are counted at
///   post time, so an eager send posted before the collective and
///   received after it counts in the prefix, as it does in the
///   prefix-only run.
///
/// Under a fault plan the checkpoint is still the prefix's state *in
/// this run*, so subtracting it from the run's totals isolates the
/// suffix exactly under every fault kind. (A separate prefix-only run
/// can differ there: its smaller request arena shifts the indices that
/// key flaky-link retransmit draws.)
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Finish time of the checkpoint collective.
    pub makespan: f64,
    /// Point-to-point payload bytes posted before the checkpoint.
    pub p2p_bytes: u64,
    /// The node-crossing share of `p2p_bytes`.
    pub internode_bytes: u64,
    /// Per-rank time per event kind up to the checkpoint.
    pub per_rank_breakdown: Vec<[f64; EventKind::COUNT]>,
    /// Profile up to the checkpoint (empty if profiling was disabled).
    pub profile: Profile,
}

impl Checkpoint {
    /// Aggregate [`Breakdown`](crate::trace::Breakdown) up to the checkpoint.
    pub fn breakdown(&self) -> crate::trace::Breakdown {
        aggregate_breakdown(&self.per_rank_breakdown)
    }
}

/// Records the [`Checkpoint`] while a scheduler runs. Each scheduler (or
/// PDES partition) owns one and calls [`CheckpointRec::leave`] whenever
/// one of its ranks leaves a collective.
pub(crate) struct CheckpointRec {
    /// Collective sequence number of the checkpoint (`usize::MAX`: off).
    seq: usize,
    cp: Option<Checkpoint>,
}

impl CheckpointRec {
    pub(crate) fn new(seq: Option<usize>) -> Self {
        CheckpointRec {
            seq: seq.unwrap_or(usize::MAX),
            cp: None,
        }
    }

    /// Rank `r` left collective `seq` at `finish`; its breakdown and
    /// profile rows already include the collective. The first call for
    /// the checkpoint also snapshots the global views.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn leave<P: ProfileSink>(
        &mut self,
        seq: usize,
        r: usize,
        finish: f64,
        breakdown: &[[f64; EventKind::COUNT]],
        profile: &P,
        p2p_bytes: u64,
        internode_bytes: u64,
    ) {
        if seq != self.seq {
            return;
        }
        let cp = self.cp.get_or_insert_with(|| Checkpoint {
            makespan: finish,
            p2p_bytes,
            internode_bytes,
            per_rank_breakdown: vec![[0.0; EventKind::COUNT]; breakdown.len()],
            profile: profile
                .view()
                .map(Profile::sparse_clone)
                .unwrap_or_default(),
        });
        cp.per_rank_breakdown[r] = breakdown[r];
        if let Some(p) = profile.view() {
            cp.profile.per_rank[r] = p.per_rank[r];
        }
    }

    pub(crate) fn finish(self) -> Option<Checkpoint> {
        self.cp
    }
}

/// Output of the engine's fused validation prepass: one walk over every
/// program performing the structural checks of [`Program::validate`]
/// (same rules, same messages), the peer range checks, and the
/// point-to-point post count that sizes the request arena.
///
/// A `Prepass` is reusable: it depends only on the programs, not on the
/// configuration, network model or fault plan, so a caller simulating
/// several runs of the same programs (or of programs *derived* from a
/// shared template — see [`Prepass::scaled`]) pays for the walk once.
#[derive(Debug, Clone)]
pub struct Prepass {
    /// Point-to-point posts per rank (`Send`/`Isend`/`Recv`/`Irecv`
    /// count 1, `Sendrecv` counts 2).
    pub(crate) p2p_ops: Vec<usize>,
}

impl Prepass {
    /// Run the fused validate/range/count walk over `programs`.
    ///
    /// Error precedence matches running [`Program::validate`] first: a
    /// structural error on a rank wins over any range error on that
    /// rank, regardless of op order, so range errors are buffered until
    /// the rank's walk finishes.
    pub fn analyze(programs: &[Program]) -> Result<Self, SimError> {
        let nranks = programs.len();
        let mut p2p_ops: Vec<usize> = vec![0; nranks];
        let mut open: std::collections::BTreeSet<ReqId> = std::collections::BTreeSet::new();
        for (rank, p) in programs.iter().enumerate() {
            open.clear();
            let invalid = |reason: String| SimError::InvalidProgram { rank, reason };
            let mut range_err: Option<SimError> = None;
            for (op_index, op) in p.ops.iter().enumerate() {
                let peer = match op {
                    Op::Send { to, .. } => {
                        p2p_ops[rank] += 1;
                        Some(*to)
                    }
                    Op::Isend { to, req, .. } => {
                        p2p_ops[rank] += 1;
                        if !open.insert(*req) {
                            return Err(invalid(format!("request {req} created while still open")));
                        }
                        Some(*to)
                    }
                    Op::Recv { from, .. } => {
                        p2p_ops[rank] += 1;
                        Some(*from)
                    }
                    Op::Irecv { from, req, .. } => {
                        p2p_ops[rank] += 1;
                        if !open.insert(*req) {
                            return Err(invalid(format!("request {req} created while still open")));
                        }
                        Some(*from)
                    }
                    Op::Wait { req } => {
                        if !open.remove(req) {
                            return Err(invalid(format!(
                                "wait on request {req} which is not open"
                            )));
                        }
                        None
                    }
                    Op::Bcast { root, .. } | Op::Reduce { root, .. } => Some(*root),
                    Op::Sendrecv { to, from, .. } => {
                        p2p_ops[rank] += 2;
                        if *to >= nranks && range_err.is_none() {
                            range_err = Some(SimError::RankOutOfRange {
                                rank: *to,
                                op_index,
                            });
                        }
                        Some(*from)
                    }
                    _ => None,
                };
                if let Some(p) = peer {
                    if p >= nranks && range_err.is_none() {
                        range_err = Some(SimError::RankOutOfRange { rank: p, op_index });
                    }
                }
            }
            if let Some(req) = open.iter().next() {
                return Err(invalid(format!("request {req} never waited on")));
            }
            if let Some(e) = range_err {
                return Err(e);
            }
        }
        Ok(Prepass { p2p_ops })
    }

    /// Prepass of the programs formed by concatenating `reps` copies of
    /// the analyzed template per rank: post counts scale linearly, and
    /// validity is preserved because [`Program::validate`] requires all
    /// requests closed at the end of the template, so every copy starts
    /// from a clean request namespace (the documented
    /// reuse-after-`Wait` rule). Inserting collectives (which post no
    /// point-to-point requests) into such a concatenation leaves the
    /// counts unchanged, so e.g. a `W×step + Barrier + M×step` program
    /// is described by `template.scaled(W + M)` exactly.
    pub fn scaled(&self, reps: usize) -> Prepass {
        Prepass {
            p2p_ops: self.p2p_ops.iter().map(|c| c * reps).collect(),
        }
    }

    /// Number of ranks the prepass describes.
    pub fn nranks(&self) -> usize {
        self.p2p_ops.len()
    }
}

// ---------------------------------------------------------------------------
// Profile recording strategy (monomorphized; see `SimConfig::profile`)
// ---------------------------------------------------------------------------

/// Profile-recording strategy the run loop is monomorphized over: the
/// profile-on instantiation records into a live [`Profile`], the
/// profile-off one compiles to nothing (no per-op branch, no dead
/// `Profile` allocation, and blocked-phase attribution is skipped
/// entirely).
pub(crate) trait ProfileSink {
    /// Whether phase attribution needs to be computed at all.
    const ENABLED: bool;
    fn phase(&mut self, rank: usize, phase: Phase, secs: f64);
    fn message(&mut self, from: usize, to: usize, bytes: usize, regime: Regime);
    /// The profile recorded so far (`None` when profiling is off).
    fn view(&self) -> Option<&Profile>;
    fn finish(self) -> Profile;
}

pub(crate) struct LiveProfile(pub(crate) Profile);

impl ProfileSink for LiveProfile {
    const ENABLED: bool = true;
    #[inline]
    fn phase(&mut self, rank: usize, phase: Phase, secs: f64) {
        self.0.record_phase(rank, phase, secs);
    }
    #[inline]
    fn message(&mut self, from: usize, to: usize, bytes: usize, regime: Regime) {
        self.0.record_message(from, to, bytes, regime);
    }
    fn view(&self) -> Option<&Profile> {
        Some(&self.0)
    }
    fn finish(self) -> Profile {
        self.0
    }
}

pub(crate) struct NoProfile;

impl ProfileSink for NoProfile {
    const ENABLED: bool = false;
    #[inline]
    fn phase(&mut self, _rank: usize, _phase: Phase, _secs: f64) {}
    #[inline]
    fn message(&mut self, _from: usize, _to: usize, _bytes: usize, _regime: Regime) {}
    fn view(&self) -> Option<&Profile> {
        None
    }
    fn finish(self) -> Profile {
        Profile::default()
    }
}

// ---------------------------------------------------------------------------
// Fault-injection strategy (monomorphized; see `SimConfig::faults`)
// ---------------------------------------------------------------------------

/// Fault-injection strategy the run loop is monomorphized over,
/// mirroring [`ProfileSink`]: the faults-off instantiation compiles to
/// nothing (no per-op branch, no crash/cancel polls, no wire-time
/// perturbation — results stay bit-identical to a faults-free build),
/// the active one reads the lookup tables an [`ActiveFaults`] compiled
/// from the plan.
pub(crate) trait FaultHook {
    /// Whether any fault logic needs to run at all.
    const ENABLED: bool;
    /// Perturbed duration of a compute op (`base` when off).
    fn compute_seconds(&self, rank: usize, pc: usize, clock: f64, base: f64) -> f64;
    /// Extra wire latency of the message with sender request `ireq`.
    fn wire_extra(&self, from: usize, to: usize, ireq: IReq) -> f64;
    /// Simulated time at which `rank` dies (`INFINITY` = never).
    fn crash_at(&self, rank: usize) -> f64;
    /// Whether cooperative cancellation was requested.
    fn cancelled(&self) -> bool;
}

/// The zero-cost off path.
pub(crate) struct NoFaults;

impl FaultHook for NoFaults {
    const ENABLED: bool = false;
    #[inline]
    fn compute_seconds(&self, _rank: usize, _pc: usize, _clock: f64, base: f64) -> f64 {
        base
    }
    #[inline]
    fn wire_extra(&self, _from: usize, _to: usize, _ireq: IReq) -> f64 {
        0.0
    }
    #[inline]
    fn crash_at(&self, _rank: usize) -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn cancelled(&self) -> bool {
        false
    }
}

impl FaultHook for ActiveFaults {
    const ENABLED: bool = true;
    #[inline]
    fn compute_seconds(&self, rank: usize, pc: usize, clock: f64, base: f64) -> f64 {
        ActiveFaults::compute_seconds(self, rank, pc, clock, base)
    }
    #[inline]
    fn wire_extra(&self, from: usize, to: usize, ireq: IReq) -> f64 {
        ActiveFaults::wire_extra(self, from, to, ireq)
    }
    #[inline]
    fn crash_at(&self, rank: usize) -> f64 {
        ActiveFaults::crash_at(self, rank)
    }
    #[inline]
    fn cancelled(&self) -> bool {
        ActiveFaults::cancelled(self)
    }
}

// ---------------------------------------------------------------------------
// Hot-path data structures
// ---------------------------------------------------------------------------

/// Multiply-rotate hasher (FxHash-style) for the channel map: the keys
/// are small integer tuples, for which the default SipHash dominates
/// the per-op cost at scale.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `(from, to, tag)` channel key.
type ChannelKey = (usize, usize, u32);

/// Channel storage: a dense slab plus a hash index resolving keys to
/// slab slots. The hash index is consulted only on a rank's memo miss
/// (see [`ChanMemo`]); steady-state communication patterns (rings,
/// halos) hit the memo and never hash.
#[derive(Default)]
pub(crate) struct Channels {
    pub(crate) store: Vec<Channel>,
    index: HashMap<ChannelKey, u32, BuildHasherDefault<FxHasher>>,
}

impl Channels {
    /// Slot of channel `(from, to, tag)`, creating it on first use.
    pub(crate) fn slot(&mut self, np: &NetParams, from: usize, to: usize, tag: u32) -> u32 {
        use std::collections::hash_map::Entry;
        match self.index.entry((from, to, tag)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let idx = self.store.len() as u32;
                self.store.push(Channel::new(np, from, to));
                e.insert(idx);
                idx
            }
        }
    }
}

/// One-slot memo of the channel a rank last used on each side. MPI
/// programs repeat their communication pattern across iterations, so
/// the memo turns almost every channel lookup into two integer
/// compares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChanMemo {
    pub(crate) peer: usize,
    pub(crate) tag: u32,
    pub(crate) idx: u32,
}

impl ChanMemo {
    pub(crate) const EMPTY: ChanMemo = ChanMemo {
        peer: usize::MAX,
        tag: 0,
        idx: 0,
    };
}

/// Internal request id (separate namespace from user [`ReqId`]s).
pub(crate) type IReq = usize;

/// Sentinel for an unoccupied user-request slot.
pub(crate) const NO_REQ: IReq = usize::MAX;

/// What an internal request stands for — used to attribute blocked time
/// to a [`Phase`] in the online profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqClass {
    EagerSend,
    RdvSend,
    Recv,
}

/// One internal request: pending until `done`, then complete at
/// `done_at`. State and classification live in one table so a post
/// touches a single cache line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Req {
    pub(crate) done_at: f64,
    pub(crate) class: ReqClass,
    pub(crate) done: bool,
}

/// Map the eager-protocol decision onto the profile's [`Regime`].
pub(crate) fn regime_of(eager: bool) -> Regime {
    if eager {
        Regime::Eager
    } else {
        Regime::Rendezvous
    }
}

/// Network parameters the hot path needs, flattened out of
/// [`NetModel`]: the per-message cost is `lat + bytes / denom`, chosen
/// by node placement, exactly as
/// [`InterconnectSpec::wire_time`](spechpc_machine::cluster::InterconnectSpec::wire_time)
/// computes it (the `bandwidth * 1e9` product is hoisted, the division
/// is not — keeping results bit-identical).
pub(crate) struct NetParams {
    pub(crate) send_overhead: f64,
    pub(crate) eager_threshold: usize,
    pub(crate) lat_intra: f64,
    pub(crate) denom_intra: f64,
    pub(crate) lat_inter: f64,
    pub(crate) denom_inter: f64,
    /// Node id per rank (dense copy of the pinning).
    pub(crate) node_of: Vec<u32>,
}

impl NetParams {
    pub(crate) fn of(net: &NetModel, nranks: usize) -> Self {
        let ic = net.interconnect();
        NetParams {
            send_overhead: net.send_overhead,
            eager_threshold: ic.eager_threshold,
            lat_intra: ic.intranode_latency_s,
            denom_intra: ic.intranode_bandwidth * 1e9,
            lat_inter: ic.latency_s,
            denom_inter: ic.effective_bandwidth * 1e9,
            node_of: (0..nranks)
                .map(|r| net.pinning().placement(r).node as u32)
                .collect(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct SendPost {
    pub(crate) time: f64,
    pub(crate) bytes: usize,
    pub(crate) ireq: IReq,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct RecvPost {
    pub(crate) time: f64,
    pub(crate) ireq: IReq,
}

/// FIFO with two inline slots and a heap spill area. A channel's
/// backlog spans only the current rendezvous window, so the steady
/// state of every point-to-point pattern fits inline and a run's
/// channels never heap-allocate; deeper backlogs (bursts of
/// non-blocking posts) spill to a `Vec` in push order. Inline entries
/// are always older than spilled ones, so popping inline-first
/// preserves FIFO order.
#[derive(Debug)]
pub(crate) struct Fifo<T> {
    inline: [Option<T>; 2],
    head: u8,
    len: u8,
    spill: Vec<T>,
    spill_head: usize,
}

impl<T> Default for Fifo<T> {
    fn default() -> Self {
        Fifo {
            inline: [None, None],
            head: 0,
            len: 0,
            spill: Vec::new(),
            spill_head: 0,
        }
    }
}

impl<T: Copy> Fifo<T> {
    #[inline]
    fn spill_pending(&self) -> bool {
        self.spill_head < self.spill.len()
    }
    #[inline]
    pub(crate) fn push(&mut self, t: T) {
        // Once anything has spilled, newer items must follow it there
        // until the spill drains, or they would overtake it.
        if self.len < 2 && !self.spill_pending() {
            self.inline[((self.head + self.len) & 1) as usize] = Some(t);
            self.len += 1;
        } else {
            self.spill.push(t);
        }
    }
    #[inline]
    pub(crate) fn pop(&mut self) -> T {
        if self.len > 0 {
            let t = self.inline[self.head as usize]
                .take()
                .expect("occupied slot");
            self.head = (self.head + 1) & 1;
            self.len -= 1;
            t
        } else {
            let t = self.spill[self.spill_head];
            self.spill_head += 1;
            if self.spill_head == self.spill.len() {
                self.spill.clear();
                self.spill_head = 0;
            }
            t
        }
    }
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0 && !self.spill_pending()
    }
}

/// One `(from, to, tag)` message channel. The wire parameters of the
/// rank pair are resolved once at channel creation, so matching never
/// consults the pinning tables.
#[derive(Debug)]
pub(crate) struct Channel {
    pub(crate) sends: Fifo<SendPost>,
    pub(crate) recvs: Fifo<RecvPost>,
    pub(crate) wire_lat: f64,
    pub(crate) wire_denom: f64,
    pub(crate) same_node: bool,
}

impl Channel {
    pub(crate) fn new(np: &NetParams, from: usize, to: usize) -> Self {
        let same_node = np.node_of[from] == np.node_of[to];
        Channel {
            sends: Fifo::default(),
            recvs: Fifo::default(),
            wire_lat: if same_node {
                np.lat_intra
            } else {
                np.lat_inter
            },
            wire_denom: if same_node {
                np.denom_intra
            } else {
                np.denom_inter
            },
            same_node,
        }
    }
}

/// Inline set of the internal requests one blocking op waits on.
/// `Sendrecv` is the maximum arity (2), so no blocking op ever
/// heap-allocates its request list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReqSet {
    reqs: [IReq; 2],
    len: u8,
}

impl ReqSet {
    #[inline]
    pub(crate) fn one(a: IReq) -> Self {
        ReqSet {
            reqs: [a, a],
            len: 1,
        }
    }
    #[inline]
    pub(crate) fn two(a: IReq, b: IReq) -> Self {
        ReqSet {
            reqs: [a, b],
            len: 2,
        }
    }
    #[inline]
    pub(crate) fn as_slice(&self) -> &[IReq] {
        &self.reqs[..self.len as usize]
    }
}

/// What a rank is currently blocked on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Blocked {
    /// Waiting for a set of internal requests; resumes at the max of
    /// their completion times (and not before `start`).
    Reqs {
        reqs: ReqSet,
        kind: EventKind,
        start: f64,
    },
    /// Waiting inside the collective at the rank's current sequence
    /// number.
    Collective { start: f64 },
}

pub(crate) struct RankState {
    pub(crate) pc: usize,
    pub(crate) clock: f64,
    pub(crate) blocked: Option<Blocked>,
    pub(crate) done: bool,
    /// Next free slot in the rank's range of the shared request arena.
    pub(crate) req_next: usize,
    /// One past the last slot of that range (bounds the posts the
    /// validation prepass counted for this rank).
    pub(crate) req_end: usize,
    /// Memo of the last send-side channel (`(to, tag)` → slot).
    pub(crate) send_memo: ChanMemo,
    /// Memo of the last receive-side channel (`(from, tag)` → slot).
    pub(crate) recv_memo: ChanMemo,
    /// User request id → internal request id, as a slot vector indexed
    /// by [`ReqId`] (program validation guarantees every `Wait` follows
    /// its creation, so a `Wait` always finds its slot occupied).
    pub(crate) user_reqs: Vec<IReq>,
    /// Rank-local collective sequence number.
    pub(crate) coll_seq: usize,
}

struct CollectiveEntry {
    event_kind: EventKind,
    bytes: usize,
    /// Ranks entered so far.
    entered: usize,
    /// Running max of the entry times (same accumulation order as the
    /// entries arrive, so the result is bit-identical to a fold over a
    /// stored entry list).
    max_entry: f64,
    /// Completion time once all ranks have entered.
    finish: Option<f64>,
}

/// The scheduler's wake-list: ranks that may be able to make progress.
///
/// Invariants:
/// * a rank is on the queue at most once (`queued` flags),
/// * every request completion delivered to a rank enqueues that rank
///   (unless it is the rank currently executing, which re-examines its
///   own blocked state inline before yielding),
/// * a popped rank that is still blocked simply stays off the queue —
///   the next completion delivered to it re-enqueues it.
///
/// Together these guarantee no lost wakeups: a rank blocks only on
/// requests/collectives that complete exactly once, and each completion
/// produces a wake.
pub(crate) struct ReadyQueue {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl ReadyQueue {
    fn with_all(nranks: usize) -> Self {
        Self::with_range(nranks, 0, nranks)
    }

    /// Queue over the global rank id space with only `lo..hi` initially
    /// runnable — the partition-local variant the PDES scheduler uses
    /// (a partition only ever enqueues its own ranks).
    pub(crate) fn with_range(nranks: usize, lo: usize, hi: usize) -> Self {
        ReadyQueue {
            queue: (lo..hi).collect(),
            queued: (0..nranks).map(|r| (lo..hi).contains(&r)).collect(),
        }
    }

    #[inline]
    pub(crate) fn wake(&mut self, rank: usize, running: usize) {
        if rank != running && !self.queued[rank] {
            self.queued[rank] = true;
            self.queue.push_back(rank);
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let r = self.queue.pop_front()?;
        self.queued[r] = false;
        Some(r)
    }
}

/// The discrete-event engine. See the module docs for semantics.
pub struct Engine {
    pub(crate) config: SimConfig,
    pub(crate) net: NetModel,
    pub(crate) programs: Vec<Program>,
    /// Cooperative cancellation token (see [`Engine::with_cancel`]).
    pub(crate) cancel: Option<Arc<AtomicBool>>,
    /// Collective sequence number of the checkpoint (see
    /// [`Engine::with_checkpoint`]).
    pub(crate) checkpoint: Option<usize>,
}

impl Engine {
    pub fn new(config: SimConfig, net: NetModel, programs: Vec<Program>) -> Self {
        assert_eq!(
            net.nprocs(),
            programs.len(),
            "network model sized for {} ranks but {} programs given",
            net.nprocs(),
            programs.len()
        );
        Engine {
            config,
            net,
            programs,
            cancel: None,
            checkpoint: None,
        }
    }

    /// Record a [`Checkpoint`] in [`SimResult::checkpoint`] as the ranks
    /// leave collective number `seq` (0-based) of the collective
    /// sequence every rank shares. Keying on the collective sequence
    /// rather than an op index names the same point on every rank even
    /// when rank programs differ in length (boundary ranks of a halo
    /// exchange post fewer messages).
    ///
    /// A run of `prefix ++ [Barrier] ++ suffix` with the checkpoint at
    /// that barrier yields the prefix-plus-barrier run's result as its
    /// checkpoint, so one run serves both (the harness subtracts the
    /// warm-up this way). Recording costs one compare per collective
    /// exit plus one profile copy at the checkpoint.
    pub fn with_checkpoint(mut self, seq: usize) -> Self {
        self.checkpoint = Some(seq);
        self
    }

    /// Attach a cooperative cancellation token: when another thread
    /// sets the flag, the run aborts at the next op boundary with
    /// [`SimError::Cancelled`]. Attaching a token routes the run
    /// through the fault-capable instantiation of the scheduler (the
    /// flag is polled at op granularity), so timing results remain
    /// identical but the zero-poll fast path is forgone.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Execute the programs to completion.
    pub fn run(self) -> Result<SimResult, SimError> {
        let prepass = Prepass::analyze(&self.programs)?;
        self.run_prevalidated(&prepass)
    }

    /// Execute programs whose [`Prepass`] was computed (or derived) in
    /// advance — the batch-simulation entry point: callers simulating a
    /// family of runs built from one program template analyze the
    /// template once and derive each run's prepass arithmetically (see
    /// [`Prepass::scaled`]) instead of re-walking every concatenated
    /// program.
    ///
    /// The prepass must describe exactly `self`'s programs (the rank
    /// count is asserted; the per-rank post counts are trusted, and a
    /// debug assertion in the scheduler catches undercounts).
    pub fn run_prevalidated(self, prepass: &Prepass) -> Result<SimResult, SimError> {
        let nranks = self.programs.len();
        assert_eq!(
            prepass.p2p_ops.len(),
            nranks,
            "prepass sized for {} ranks but {} programs given",
            prepass.p2p_ops.len(),
            nranks
        );
        // `threads` is a scheduling knob, never a semantic one: results
        // are bit-identical at every value, 0 is clamped to 1 and the
        // partition count never exceeds the rank count.
        let threads = self.config.threads.max(1).min(nranks.max(1));
        if threads > 1 {
            return crate::pdes::run_parallel(self, prepass, threads);
        }
        let p2p_ops = &prepass.p2p_ops;

        // Fault-capable instantiations are selected only when a plan or
        // a cancellation token is present; otherwise the zero-cost
        // `NoFaults` hook keeps the hot path free of fault branches.
        if !self.config.faults.is_none() || self.cancel.is_some() {
            let hook = ActiveFaults::compile(&self.config.faults, nranks, self.cancel.clone());
            match (self.config.profile, self.config.trace) {
                (true, false) => {
                    self.run_with::<_, _, false>(LiveProfile(Profile::new(nranks)), hook, p2p_ops)
                }
                (true, true) => {
                    self.run_with::<_, _, true>(LiveProfile(Profile::new(nranks)), hook, p2p_ops)
                }
                (false, false) => self.run_with::<_, _, false>(NoProfile, hook, p2p_ops),
                (false, true) => self.run_with::<_, _, true>(NoProfile, hook, p2p_ops),
            }
        } else {
            match (self.config.profile, self.config.trace) {
                (true, false) => self.run_with::<_, _, false>(
                    LiveProfile(Profile::new(nranks)),
                    NoFaults,
                    p2p_ops,
                ),
                (true, true) => self.run_with::<_, _, true>(
                    LiveProfile(Profile::new(nranks)),
                    NoFaults,
                    p2p_ops,
                ),
                (false, false) => self.run_with::<_, _, false>(NoProfile, NoFaults, p2p_ops),
                (false, true) => self.run_with::<_, _, true>(NoProfile, NoFaults, p2p_ops),
            }
        }
    }

    /// The event-driven scheduler, monomorphized over the profile
    /// recording strategy, the fault hook and the tracing flag.
    /// Programs are already validated.
    fn run_with<P: ProfileSink, F: FaultHook, const TRACE: bool>(
        self,
        mut profile: P,
        faults: F,
        p2p_ops: &[usize],
    ) -> Result<SimResult, SimError> {
        let nranks = self.programs.len();
        let np = NetParams::of(&self.net, nranks);
        // All internal requests live in one flat arena; each rank owns
        // the contiguous range sized by its prepass post count (one
        // allocation and dense locality instead of a table per rank).
        let mut base = 0usize;
        let mut ranks: Vec<RankState> = (0..nranks)
            .map(|r| {
                let start = base;
                base += p2p_ops[r];
                RankState {
                    pc: 0,
                    clock: 0.0,
                    blocked: None,
                    done: false,
                    req_next: start,
                    req_end: base,
                    send_memo: ChanMemo::EMPTY,
                    recv_memo: ChanMemo::EMPTY,
                    user_reqs: Vec::new(),
                    coll_seq: 0,
                }
            })
            .collect();
        let mut reqs: Vec<Req> = vec![
            Req {
                done_at: 0.0,
                class: ReqClass::Recv,
                done: false,
            };
            base
        ];
        let mut channels = Channels::default();
        let mut collectives: Vec<CollectiveEntry> = Vec::new();
        let mut timeline = Timeline::new(nranks);
        // Online per-rank breakdown (kept even when full tracing is off).
        let mut breakdown: Vec<[f64; EventKind::COUNT]> = vec![[0.0; EventKind::COUNT]; nranks];
        let mut p2p_bytes: u64 = 0;
        let mut internode_bytes: u64 = 0;
        let mut ready = ReadyQueue::with_all(nranks);
        let mut ckpt = CheckpointRec::new(self.checkpoint);

        while let Some(r) = ready.pop() {
            if ranks[r].done {
                continue; // woken spuriously after finishing
            }
            loop {
                if F::ENABLED {
                    // Cooperative cancellation and hard crashes are
                    // checked at op granularity; both abort the whole
                    // run (MPI-abort semantics for crashes).
                    if faults.cancelled() {
                        return Err(SimError::Cancelled);
                    }
                    if ranks[r].clock >= faults.crash_at(r) {
                        return Err(SimError::RankFailed {
                            rank: r,
                            op_index: ranks[r].pc,
                            at_s: ranks[r].clock,
                        });
                    }
                }
                // Re-examine the blocked state first: a popped rank was
                // woken by a completion that may end its blocked op.
                // (Blocking ops that can finish immediately never store
                // a `Blocked` at all — they unblock inline below.)
                match ranks[r].blocked {
                    Some(Blocked::Reqs {
                        reqs: set,
                        kind,
                        start,
                    }) => {
                        if !Self::try_unblock_reqs::<P, TRACE>(
                            r,
                            set,
                            kind,
                            start,
                            &mut ranks,
                            &reqs,
                            &mut timeline,
                            &mut breakdown,
                            &mut profile,
                        ) {
                            // Still pending; the next completion
                            // delivered to this rank re-enqueues it.
                            break;
                        }
                        continue;
                    }
                    Some(Blocked::Collective { start }) => {
                        let seq = ranks[r].coll_seq;
                        let entry = &collectives[seq];
                        let Some(finish) = entry.finish else {
                            break;
                        };
                        Self::unblock_collective::<P, TRACE>(
                            r,
                            start,
                            finish,
                            entry.event_kind,
                            &mut ranks,
                            &mut timeline,
                            &mut breakdown,
                            &mut profile,
                        );
                        ckpt.leave(
                            seq,
                            r,
                            finish,
                            &breakdown,
                            &profile,
                            p2p_bytes,
                            internode_bytes,
                        );
                        continue;
                    }
                    None => {}
                }

                if ranks[r].pc >= self.programs[r].ops.len() {
                    ranks[r].done = true;
                    break;
                }

                let op = self.programs[r].ops[ranks[r].pc];
                let clock = ranks[r].clock;
                match op {
                    Op::Compute { seconds } => {
                        // Fault inflation (noise, straggler, throttle)
                        // stretches the op; the excess over the
                        // fault-free duration is attributed to
                        // `Phase::FaultStall` so variability studies
                        // can read the injected time directly.
                        let (total, stall) = if F::ENABLED {
                            let t = faults.compute_seconds(r, ranks[r].pc, clock, seconds);
                            (t, (t - seconds).max(0.0))
                        } else {
                            (seconds, 0.0)
                        };
                        if TRACE {
                            timeline.record(r, clock, clock + total, EventKind::Compute);
                        }
                        breakdown[r][EventKind::Compute.index()] += total;
                        if F::ENABLED && stall > 0.0 {
                            profile.phase(r, Phase::Compute, total - stall);
                            profile.phase(r, Phase::FaultStall, stall);
                        } else {
                            profile.phase(r, Phase::Compute, total);
                        }
                        ranks[r].clock += total;
                        ranks[r].pc += 1;
                    }
                    Op::Send { to, tag, bytes } => {
                        let eager = bytes < np.eager_threshold;
                        let (ireq, same_node) = Self::post_send(
                            &np,
                            &mut ranks,
                            &mut reqs,
                            &mut channels,
                            &mut ready,
                            r,
                            to,
                            tag,
                            bytes,
                            clock,
                            eager,
                            &faults,
                        );
                        profile.message(r, to, bytes, regime_of(eager));
                        p2p_bytes += bytes as u64;
                        if !same_node {
                            internode_bytes += bytes as u64;
                        }
                        let set = ReqSet::one(ireq);
                        if !Self::try_unblock_reqs::<P, TRACE>(
                            r,
                            set,
                            EventKind::Send,
                            clock,
                            &mut ranks,
                            &reqs,
                            &mut timeline,
                            &mut breakdown,
                            &mut profile,
                        ) {
                            ranks[r].blocked = Some(Blocked::Reqs {
                                reqs: set,
                                kind: EventKind::Send,
                                start: clock,
                            });
                            break;
                        }
                    }
                    Op::Recv { from, tag } => {
                        let ireq = Self::post_recv(
                            &np,
                            &mut ranks,
                            &mut reqs,
                            &mut channels,
                            &mut ready,
                            from,
                            r,
                            tag,
                            clock,
                            &faults,
                        );
                        let set = ReqSet::one(ireq);
                        if !Self::try_unblock_reqs::<P, TRACE>(
                            r,
                            set,
                            EventKind::Recv,
                            clock,
                            &mut ranks,
                            &reqs,
                            &mut timeline,
                            &mut breakdown,
                            &mut profile,
                        ) {
                            ranks[r].blocked = Some(Blocked::Reqs {
                                reqs: set,
                                kind: EventKind::Recv,
                                start: clock,
                            });
                            break;
                        }
                    }
                    Op::Sendrecv {
                        to,
                        send_bytes,
                        from,
                        tag,
                    } => {
                        let eager = send_bytes < np.eager_threshold;
                        let (s, same_node) = Self::post_send(
                            &np,
                            &mut ranks,
                            &mut reqs,
                            &mut channels,
                            &mut ready,
                            r,
                            to,
                            tag,
                            send_bytes,
                            clock,
                            eager,
                            &faults,
                        );
                        let v = Self::post_recv(
                            &np,
                            &mut ranks,
                            &mut reqs,
                            &mut channels,
                            &mut ready,
                            from,
                            r,
                            tag,
                            clock,
                            &faults,
                        );
                        profile.message(r, to, send_bytes, regime_of(eager));
                        p2p_bytes += send_bytes as u64;
                        if !same_node {
                            internode_bytes += send_bytes as u64;
                        }
                        let set = ReqSet::two(s, v);
                        if !Self::try_unblock_reqs::<P, TRACE>(
                            r,
                            set,
                            EventKind::Sendrecv,
                            clock,
                            &mut ranks,
                            &reqs,
                            &mut timeline,
                            &mut breakdown,
                            &mut profile,
                        ) {
                            ranks[r].blocked = Some(Blocked::Reqs {
                                reqs: set,
                                kind: EventKind::Sendrecv,
                                start: clock,
                            });
                            break;
                        }
                    }
                    Op::Isend {
                        to,
                        tag,
                        bytes,
                        req,
                    } => {
                        let eager = bytes < np.eager_threshold;
                        let (ireq, same_node) = Self::post_send(
                            &np,
                            &mut ranks,
                            &mut reqs,
                            &mut channels,
                            &mut ready,
                            r,
                            to,
                            tag,
                            bytes,
                            clock,
                            eager,
                            &faults,
                        );
                        Self::set_user_req(&mut ranks[r].user_reqs, req, ireq);
                        ranks[r].pc += 1;
                        profile.message(r, to, bytes, regime_of(eager));
                        p2p_bytes += bytes as u64;
                        if !same_node {
                            internode_bytes += bytes as u64;
                        }
                    }
                    Op::Irecv { from, tag, req } => {
                        let ireq = Self::post_recv(
                            &np,
                            &mut ranks,
                            &mut reqs,
                            &mut channels,
                            &mut ready,
                            from,
                            r,
                            tag,
                            clock,
                            &faults,
                        );
                        Self::set_user_req(&mut ranks[r].user_reqs, req, ireq);
                        ranks[r].pc += 1;
                    }
                    Op::Wait { req } => {
                        let ireq = ranks[r].user_reqs[req as usize];
                        debug_assert_ne!(ireq, NO_REQ, "validated: wait follows creation");
                        let set = ReqSet::one(ireq);
                        if !Self::try_unblock_reqs::<P, TRACE>(
                            r,
                            set,
                            EventKind::Wait,
                            clock,
                            &mut ranks,
                            &reqs,
                            &mut timeline,
                            &mut breakdown,
                            &mut profile,
                        ) {
                            ranks[r].blocked = Some(Blocked::Reqs {
                                reqs: set,
                                kind: EventKind::Wait,
                                start: clock,
                            });
                            break;
                        }
                    }
                    Op::Allreduce { .. }
                    | Op::Barrier
                    | Op::Bcast { .. }
                    | Op::Reduce { .. }
                    | Op::Allgather { .. }
                    | Op::Alltoall { .. } => {
                        let (kind, bytes) = match op {
                            Op::Allreduce { bytes } => (EventKind::Allreduce, bytes),
                            Op::Barrier => (EventKind::Barrier, 0),
                            Op::Bcast { bytes, .. } => (EventKind::Bcast, bytes),
                            Op::Reduce { bytes, .. } => (EventKind::Reduce, bytes),
                            Op::Allgather { bytes } => (EventKind::Allgather, bytes),
                            Op::Alltoall { bytes } => (EventKind::Alltoall, bytes),
                            _ => unreachable!(),
                        };
                        let seq = ranks[r].coll_seq;
                        Self::enter_collective(
                            &mut collectives,
                            &mut ready,
                            seq,
                            kind,
                            bytes,
                            r,
                            clock,
                            nranks,
                            &self.net,
                        )?;
                        // The last entrant finishes the collective and
                        // unblocks inline; everyone else parks.
                        if let Some(finish) = collectives[seq].finish {
                            Self::unblock_collective::<P, TRACE>(
                                r,
                                clock,
                                finish,
                                kind,
                                &mut ranks,
                                &mut timeline,
                                &mut breakdown,
                                &mut profile,
                            );
                            ckpt.leave(
                                seq,
                                r,
                                finish,
                                &breakdown,
                                &profile,
                                p2p_bytes,
                                internode_bytes,
                            );
                        } else {
                            ranks[r].blocked = Some(Blocked::Collective { start: clock });
                            break;
                        }
                    }
                }
            }
        }

        if ranks.iter().any(|s| !s.done) {
            let blocked = ranks
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.done)
                .map(|(r, s)| {
                    let pc = s.pc.min(self.programs[r].ops.len().saturating_sub(1));
                    (r, s.pc, self.programs[r].ops[pc])
                })
                .collect();
            return Err(SimError::Deadlock(blocked));
        }

        let finish_times: Vec<f64> = ranks.iter().map(|s| s.clock).collect();
        let makespan = finish_times.iter().copied().fold(0.0, f64::max);
        Ok(SimResult {
            makespan,
            finish_times,
            timeline,
            p2p_bytes,
            internode_bytes,
            per_rank_breakdown: breakdown,
            profile: profile.finish(),
            checkpoint: ckpt.finish(),
        })
    }

    /// If every request in `reqs` has completed, perform the full
    /// unblock bookkeeping (trace, breakdown, profile phase, clock,
    /// program counter) and return `true`; otherwise leave the rank
    /// untouched. Shared by the inline fast path (blocking op completes
    /// at post time) and the wake path (rank re-examined off the ready
    /// queue).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn try_unblock_reqs<P: ProfileSink, const TRACE: bool>(
        r: usize,
        set: ReqSet,
        kind: EventKind,
        start: f64,
        ranks: &mut [RankState],
        reqs: &[Req],
        timeline: &mut Timeline,
        breakdown: &mut [[f64; EventKind::COUNT]],
        profile: &mut P,
    ) -> bool {
        let mut resume = start;
        for &ireq in set.as_slice() {
            let q = reqs[ireq];
            if !q.done {
                return false;
            }
            resume = resume.max(q.done_at);
        }
        // Attribute the blocked time: a rendezvous send in the set
        // means a hand-shake stall; otherwise an unfinished receive
        // dominates (eager sends complete in `o`). Skipped entirely
        // when profiling is off.
        let phase = if !P::ENABLED {
            Phase::Compute // unused
        } else if set
            .as_slice()
            .iter()
            .any(|&q| reqs[q].class == ReqClass::RdvSend)
        {
            Phase::RendezvousStall
        } else if set
            .as_slice()
            .iter()
            .any(|&q| reqs[q].class == ReqClass::Recv)
        {
            Phase::RecvWait
        } else {
            Phase::EagerSend
        };
        if TRACE {
            timeline.record(r, start, resume, kind);
        }
        if resume > start {
            breakdown[r][kind.index()] += resume - start;
            profile.phase(r, phase, resume - start);
        }
        let state = &mut ranks[r];
        state.clock = resume;
        state.blocked = None;
        state.pc += 1;
        true
    }

    /// Unblock bookkeeping for a finished collective: the rank leaves
    /// at the common `finish` time and advances to its next collective
    /// sequence number.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn unblock_collective<P: ProfileSink, const TRACE: bool>(
        r: usize,
        start: f64,
        finish: f64,
        kind: EventKind,
        ranks: &mut [RankState],
        timeline: &mut Timeline,
        breakdown: &mut [[f64; EventKind::COUNT]],
        profile: &mut P,
    ) {
        if TRACE {
            timeline.record(r, start, finish, kind);
        }
        if finish > start {
            breakdown[r][kind.index()] += finish - start;
            profile.phase(r, Phase::CollectiveWait, finish - start);
        }
        let state = &mut ranks[r];
        state.clock = finish;
        state.blocked = None;
        state.coll_seq += 1;
        state.pc += 1;
    }

    /// Record `user req id → ireq` in the slot vector, growing it on
    /// first use of a new id (ids may be reused after their `Wait`).
    #[inline]
    pub(crate) fn set_user_req(user_reqs: &mut Vec<IReq>, req: ReqId, ireq: IReq) {
        let slot = req as usize;
        if user_reqs.len() <= slot {
            user_reqs.resize(slot + 1, NO_REQ);
        }
        user_reqs[slot] = ireq;
    }

    /// Create the internal request for a send, append the posting to
    /// its channel (completing it locally right away if eager), and
    /// resolve any matches this enables. Returns the request and
    /// whether the pair shares a node.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn post_send<F: FaultHook>(
        np: &NetParams,
        ranks: &mut [RankState],
        reqs: &mut [Req],
        channels: &mut Channels,
        ready: &mut ReadyQueue,
        from: usize,
        to: usize,
        tag: u32,
        bytes: usize,
        time: f64,
        eager: bool,
        faults: &F,
    ) -> (IReq, bool) {
        let rank = &mut ranks[from];
        let ireq = rank.req_next;
        debug_assert!(ireq < rank.req_end, "prepass under-counted posts");
        rank.req_next += 1;
        // Eager sends complete locally after the sender overhead,
        // receiver or not.
        reqs[ireq] = Req {
            done_at: if eager { time + np.send_overhead } else { 0.0 },
            class: if eager {
                ReqClass::EagerSend
            } else {
                ReqClass::RdvSend
            },
            done: eager,
        };
        let memo = rank.send_memo;
        let slot = if memo.peer == to && memo.tag == tag {
            memo.idx
        } else {
            let idx = channels.slot(np, from, to, tag);
            rank.send_memo = ChanMemo { peer: to, tag, idx };
            idx
        };
        let ch = &mut channels.store[slot as usize];
        ch.sends.push(SendPost { time, bytes, ireq });
        let same_node = ch.same_node;
        Self::match_channel(np.eager_threshold, ch, from, to, reqs, ready, from, faults);
        (ireq, same_node)
    }

    /// Create the internal request for a receive, append the posting to
    /// its channel, and resolve any matches this enables.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn post_recv<F: FaultHook>(
        np: &NetParams,
        ranks: &mut [RankState],
        reqs: &mut [Req],
        channels: &mut Channels,
        ready: &mut ReadyQueue,
        from: usize,
        to: usize,
        tag: u32,
        time: f64,
        faults: &F,
    ) -> IReq {
        let rank = &mut ranks[to];
        let ireq = rank.req_next;
        debug_assert!(ireq < rank.req_end, "prepass under-counted posts");
        rank.req_next += 1;
        // The arena slot is pre-initialized to a pending `Recv`, which
        // is exactly this request's state.
        let memo = rank.recv_memo;
        let slot = if memo.peer == from && memo.tag == tag {
            memo.idx
        } else {
            let idx = channels.slot(np, from, to, tag);
            rank.recv_memo = ChanMemo {
                peer: from,
                tag,
                idx,
            };
            idx
        };
        let ch = &mut channels.store[slot as usize];
        ch.recvs.push(RecvPost { time, ireq });
        Self::match_channel(np.eager_threshold, ch, from, to, reqs, ready, to, faults);
        ireq
    }

    /// Match pending send/recv pairs in one channel (`from → to`),
    /// delivering completions straight into the owning ranks' request
    /// tables and waking those ranks (the currently executing rank
    /// `running` re-examines its own state inline instead). FIFO per
    /// channel preserves MPI's non-overtaking rule.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn match_channel<F: FaultHook>(
        eager_threshold: usize,
        ch: &mut Channel,
        from: usize,
        to: usize,
        reqs: &mut [Req],
        ready: &mut ReadyQueue,
        running: usize,
        faults: &F,
    ) {
        while !ch.sends.is_empty() && !ch.recvs.is_empty() {
            let s = ch.sends.pop();
            let v = ch.recvs.pop();
            let mut wire = ch.wire_lat + s.bytes as f64 / ch.wire_denom;
            if F::ENABLED {
                // Degraded-link retransmissions lengthen the transfer;
                // the draw is keyed by the sender's program-order
                // request id, keeping it visiting-order independent.
                wire += faults.wire_extra(from, to, s.ireq);
            }
            if s.bytes < eager_threshold {
                // The sender's completion was already issued at post time
                // (eager sends complete locally); only the receive side
                // completes here, at message arrival.
                let arrival = s.time + wire;
                let recv_done = v.time.max(arrival);
                let rq = &mut reqs[v.ireq];
                rq.done_at = recv_done;
                rq.done = true;
                ready.wake(to, running);
            } else {
                // Rendezvous: transfer starts when both are ready.
                let start = s.time.max(v.time);
                let done = start + wire;
                let sq = &mut reqs[s.ireq];
                sq.done_at = done;
                sq.done = true;
                let rq = &mut reqs[v.ireq];
                rq.done_at = done;
                rq.done = true;
                ready.wake(from, running);
                ready.wake(to, running);
            }
        }
    }

    /// Name used in collective-mismatch diagnostics.
    pub(crate) fn collective_name(kind: EventKind) -> &'static str {
        match kind {
            EventKind::Allreduce => "Allreduce",
            EventKind::Barrier => "Barrier",
            EventKind::Bcast => "Bcast",
            EventKind::Reduce => "Reduce",
            EventKind::Allgather => "Allgather",
            EventKind::Alltoall => "Alltoall",
            _ => "?",
        }
    }

    /// Enter rank `rank` into the collective at sequence `seq`; the
    /// last entrant computes the common finish time and wakes every
    /// participant (except the entrant itself, which re-examines its
    /// state inline).
    #[allow(clippy::too_many_arguments)]
    fn enter_collective(
        collectives: &mut Vec<CollectiveEntry>,
        ready: &mut ReadyQueue,
        seq: usize,
        kind: EventKind,
        bytes: usize,
        rank: usize,
        time: f64,
        nranks: usize,
        net: &NetModel,
    ) -> Result<(), SimError> {
        if collectives.len() <= seq {
            collectives.push(CollectiveEntry {
                event_kind: kind,
                bytes,
                entered: 0,
                max_entry: 0.0,
                finish: None,
            });
        }
        let entry = &mut collectives[seq];
        if entry.event_kind != kind {
            return Err(SimError::CollectiveMismatch {
                seq,
                rank,
                expected: Self::collective_name(entry.event_kind),
                found: Self::collective_name(kind),
            });
        }
        entry.bytes = entry.bytes.max(bytes);
        entry.entered += 1;
        entry.max_entry = entry.max_entry.max(time);
        if entry.entered == nranks {
            let max_entry = entry.max_entry;
            let cost = match entry.event_kind {
                EventKind::Barrier => net.barrier_cost(nranks),
                EventKind::Allreduce => net.allreduce_cost(nranks, entry.bytes),
                EventKind::Bcast => net.bcast_cost(nranks, entry.bytes),
                EventKind::Reduce => net.reduce_cost(nranks, entry.bytes),
                EventKind::Allgather => net.allgather_cost(nranks, entry.bytes),
                EventKind::Alltoall => net.alltoall_cost(nranks, entry.bytes),
                _ => 0.0,
            };
            entry.finish = Some(max_entry + cost);
            // Every rank participates in every collective, so the wake
            // targets are simply all ranks.
            for er in 0..nranks {
                ready.wake(er, rank);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Op, Program};
    use spechpc_machine::presets;

    fn engine_for(progs: Vec<Program>) -> Engine {
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, progs.len());
        Engine::new(SimConfig::default(), net, progs)
    }

    fn run(progs: Vec<Program>) -> SimResult {
        engine_for(progs).run().expect("simulation must succeed")
    }

    #[test]
    fn pure_compute_runs_independently() {
        let mut p0 = Program::new();
        p0.push(Op::compute(1.0));
        let mut p1 = Program::new();
        p1.push(Op::compute(2.0));
        let r = run(vec![p0, p1]);
        assert!((r.finish_times[0] - 1.0).abs() < 1e-12);
        assert!((r.finish_times[1] - 2.0).abs() < 1e-12);
        assert!((r.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eager_send_does_not_wait_for_receiver() {
        // Rank 0 sends a tiny message then computes; rank 1 computes for
        // a long time before receiving. Eager: sender is not delayed.
        let mut p0 = Program::new();
        p0.push(Op::send(1, 0, 8));
        p0.push(Op::compute(1.0));
        let mut p1 = Program::new();
        p1.push(Op::compute(5.0));
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        assert!(
            r.finish_times[0] < 1.1,
            "eager sender delayed: {:?}",
            r.finish_times
        );
        assert!(r.finish_times[1] >= 5.0);
    }

    #[test]
    fn rendezvous_send_blocks_until_recv_posted() {
        // 2 MiB is above the 64 KiB eager threshold.
        let mut p0 = Program::new();
        p0.push(Op::send(1, 0, 2 << 20));
        let mut p1 = Program::new();
        p1.push(Op::compute(3.0));
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        // Sender cannot finish before the receiver posts at t=3.
        assert!(
            r.finish_times[0] >= 3.0,
            "rendezvous not enforced: {:?}",
            r.finish_times
        );
    }

    #[test]
    fn recv_completes_at_arrival_not_post() {
        let mut p0 = Program::new();
        p0.push(Op::compute(2.0));
        p0.push(Op::send(1, 0, 8));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        // Receiver posts at t=0 but data only exists after t=2.
        assert!(r.finish_times[1] >= 2.0);
    }

    #[test]
    fn sendrecv_pair_exchanges_without_deadlock() {
        // Two ranks sendrecv large messages to each other — with plain
        // blocking rendezvous sends this would deadlock.
        let mk = |peer: usize| {
            let mut p = Program::new();
            p.push(Op::sendrecv(peer, 1 << 20, peer, 0));
            p
        };
        let r = run(vec![mk(1), mk(0)]);
        assert!(r.makespan > 0.0);
        assert!((r.finish_times[0] - r.finish_times[1]).abs() < 1e-9);
    }

    #[test]
    fn opposing_blocking_rendezvous_sends_deadlock() {
        let mk = |peer: usize| {
            let mut p = Program::new();
            p.push(Op::send(peer, 0, 1 << 20));
            p.push(Op::recv(peer, 0));
            p
        };
        let err = engine_for(vec![mk(1), mk(0)]).run().unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)));
    }

    #[test]
    fn deadlock_display_reports_all_blocked_ranks() {
        // An 11-rank cyclic rendezvous deadlock: the Display form
        // details the first 8 ranks and must say how many more are
        // blocked instead of silently truncating.
        let n = 11;
        let progs: Vec<Program> = (0..n)
            .map(|r| {
                let mut p = Program::new();
                p.push(Op::send((r + 1) % n, 0, 1 << 20));
                p.push(Op::recv((r + n - 1) % n, 0));
                p
            })
            .collect();
        let err = engine_for(progs).run().unwrap_err();
        let SimError::Deadlock(ref blocked) = err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(blocked.len(), n);
        let msg = err.to_string();
        assert!(
            msg.contains("and 3 more blocked ranks"),
            "truncated ranks not reported: {msg}"
        );
        // All 11 are still present in the payload, only the rendering
        // is summarized.
        assert!(msg.starts_with("deadlock: 11 rank(s) blocked"));
    }

    #[test]
    fn isend_wait_overlaps_compute() {
        let mut p0 = Program::new();
        p0.push(Op::isend(1, 0, 1 << 20, 0));
        p0.push(Op::compute(1.0));
        p0.push(Op::wait(0));
        let mut p1 = Program::new();
        p1.push(Op::irecv(0, 0, 0));
        p1.push(Op::compute(1.0));
        p1.push(Op::wait(0));
        let r = run(vec![p0, p1]);
        // Transfer overlaps the compute: finish ≈ 1.0 + wire, well under
        // the serialized 2.0 + wire.
        assert!(r.makespan < 1.5, "no overlap: makespan {}", r.makespan);
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let mut progs = Vec::new();
        for r in 0..4 {
            let mut p = Program::new();
            p.push(Op::compute(r as f64));
            p.push(Op::Barrier);
            progs.push(p);
        }
        let r = run(progs);
        let slowest_entry = 3.0;
        for t in &r.finish_times {
            assert!(*t >= slowest_entry, "barrier exited early: {t}");
        }
        // All ranks leave the barrier at the same time.
        let t0 = r.finish_times[0];
        assert!(r.finish_times.iter().all(|t| (t - t0).abs() < 1e-12));
    }

    #[test]
    fn allreduce_result_time_scales_with_ranks() {
        let mk_progs = |n: usize| {
            (0..n)
                .map(|_| {
                    let mut p = Program::new();
                    p.push(Op::allreduce(8));
                    p
                })
                .collect::<Vec<_>>()
        };
        let t4 = run(mk_progs(4)).makespan;
        let t64 = run(mk_progs(64)).makespan;
        assert!(t64 > t4, "allreduce cost must grow with rank count");
    }

    #[test]
    fn extended_collectives_synchronize_and_cost() {
        let mk = |nranks: usize| -> Vec<Program> {
            (0..nranks)
                .map(|r| {
                    let mut p = Program::new();
                    p.push(Op::compute(0.001 * r as f64));
                    p.push(Op::bcast(0, 4096));
                    p.push(Op::reduce(0, 4096));
                    p.push(Op::allgather(1024));
                    p.push(Op::alltoall(256));
                    p
                })
                .collect()
        };
        let r = run(mk(8));
        // Collectives synchronize: finishing spread is only the cost
        // differences, not the initial skew.
        let t0 = r.finish_times[0];
        assert!(r.finish_times.iter().all(|t| (t - t0).abs() < 1e-12));
        // Cost grows with rank count for the linear collectives.
        let r32 = run(mk(32));
        assert!(r32.makespan > r.makespan);
        // Breakdown records the new kinds.
        let b = r.breakdown();
        assert!(b.fraction(EventKind::Allgather) > 0.0);
        assert!(b.fraction(EventKind::Alltoall) > 0.0);
    }

    #[test]
    fn bcast_root_out_of_range_rejected() {
        let mut p0 = Program::new();
        p0.push(Op::bcast(5, 8));
        let err = engine_for(vec![p0]).run().unwrap_err();
        assert!(matches!(err, SimError::RankOutOfRange { .. }));
    }

    #[test]
    fn collective_mismatch_detected() {
        let mut p0 = Program::new();
        p0.push(Op::Barrier);
        let mut p1 = Program::new();
        p1.push(Op::allreduce(8));
        let err = engine_for(vec![p0, p1]).run().unwrap_err();
        assert!(matches!(err, SimError::CollectiveMismatch { .. }));
    }

    #[test]
    fn rendezvous_chain_ripples() {
        // The minisweep pattern: all ranks send up first (open chain).
        // Rendezvous serializes the chain; makespan grows with length.
        let chain = |n: usize| {
            let progs: Vec<Program> = (0..n)
                .map(|r| {
                    let mut p = Program::new();
                    if r + 1 < n {
                        p.push(Op::send(r + 1, 0, 1 << 20));
                    }
                    if r > 0 {
                        p.push(Op::recv(r - 1, 0));
                    }
                    p
                })
                .collect();
            run(progs).makespan
        };
        let t4 = chain(4);
        let t16 = chain(16);
        assert!(t16 > 3.0 * t4, "serialization missing: t4={t4} t16={t16}");
    }

    #[test]
    fn trace_breakdown_identifies_recv_wait() {
        // Rank 1 waits 10 s in MPI_Recv for rank 0's late message.
        let mut p0 = Program::new();
        p0.push(Op::compute(10.0));
        p0.push(Op::send(1, 0, 8));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        p1.push(Op::compute(0.1));
        let progs = vec![p0, p1];
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, progs.len());
        let cfg = SimConfig {
            trace: true,
            ..SimConfig::default()
        };
        let r = Engine::new(cfg, net, progs).run().unwrap();
        let b = r.timeline.rank_breakdown(1);
        assert_eq!(b.dominant_mpi(), Some(EventKind::Recv));
        assert!(b.fraction(EventKind::Recv) > 0.9);
    }

    #[test]
    fn byte_accounting_distinguishes_locality() {
        let cluster = presets::cluster_a();
        // 73 ranks: rank 72 is on node 1.
        let mut progs: Vec<Program> = (0..73).map(|_| Program::new()).collect();
        progs[0].push(Op::send(1, 0, 1000)); // intra-node
        progs[1].push(Op::recv(0, 0));
        progs[0].push(Op::send(72, 1, 500)); // inter-node
        progs[72].push(Op::recv(0, 1));
        let net = NetModel::compact(&cluster, 73);
        let r = Engine::new(SimConfig::default(), net, progs).run().unwrap();
        assert_eq!(r.p2p_bytes, 1500);
        assert_eq!(r.internode_bytes, 500);
    }

    #[test]
    fn out_of_range_rank_rejected() {
        let mut p0 = Program::new();
        p0.push(Op::send(5, 0, 8));
        let err = engine_for(vec![p0]).run().unwrap_err();
        assert!(matches!(err, SimError::RankOutOfRange { .. }));
    }

    #[test]
    fn invalid_program_rejected() {
        let mut p0 = Program::new();
        p0.push(Op::wait(3));
        let err = engine_for(vec![p0]).run().unwrap_err();
        assert!(matches!(err, SimError::InvalidProgram { .. }));
    }

    #[test]
    fn determinism_two_runs_identical() {
        let mk = || {
            let mut progs = Vec::new();
            for r in 0..8 {
                let mut p = Program::new();
                p.push(Op::compute(0.01 * (r + 1) as f64));
                p.push(Op::sendrecv((r + 1) % 8, 1 << 17, (r + 7) % 8, 0));
                p.push(Op::allreduce(64));
                progs.push(p);
            }
            progs
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a.finish_times, b.finish_times);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn tags_keep_channels_separate() {
        // Two messages with different tags received in reverse order.
        let mut p0 = Program::new();
        p0.push(Op::send(1, 7, 8));
        p0.push(Op::send(1, 9, 8));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 9));
        p1.push(Op::recv(0, 7));
        let r = run(vec![p0, p1]);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn user_request_ids_may_be_sparse() {
        // The slot-vector request table must cope with non-contiguous
        // user request ids.
        let mut p0 = Program::new();
        p0.push(Op::irecv(1, 0, 1000));
        p0.push(Op::wait(1000));
        let mut p1 = Program::new();
        p1.push(Op::send(0, 0, 64));
        let r = run(vec![p0, p1]);
        assert!(r.makespan > 0.0);
    }

    // ---------------------------------------------------------------
    // Online profile (the Fig.-2 / ITAC analog)
    // ---------------------------------------------------------------

    #[test]
    fn profile_populated_without_tracing() {
        // Default config: trace off, profile on.
        let mut p0 = Program::new();
        p0.push(Op::compute(10.0));
        p0.push(Op::send(1, 0, 8));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        assert!(r.timeline.events.is_empty(), "tracing must default off");
        let prof = &r.profile;
        assert!(prof.is_enabled());
        // Rank 0: 10 s compute plus the eager send overhead.
        assert!((prof.per_rank[0].compute_s - 10.0).abs() < 1e-12);
        // Rank 1 waited ~10 s for the late message.
        assert!(prof.per_rank[1].recv_wait_s > 9.0);
        assert!(prof.per_rank[1].comm_fraction() > 0.9);
        // The 8-byte message is in the eager histogram and the matrix.
        let eager = prof.regime_totals(Regime::Eager);
        let rdv = prof.regime_totals(Regime::Rendezvous);
        assert_eq!(eager.count, 1);
        assert_eq!(eager.bytes, 8);
        assert_eq!(rdv.count, 0);
        assert_eq!(prof.bytes_between(0, 1), 8);
        assert_eq!(prof.bytes_between(1, 0), 0);
    }

    #[test]
    fn profile_disabled_yields_empty() {
        let mut p0 = Program::new();
        p0.push(Op::compute(1.0));
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, 1);
        let cfg = SimConfig {
            trace: false,
            profile: false,
            ..SimConfig::default()
        };
        let r = Engine::new(cfg, net, vec![p0]).run().unwrap();
        assert!(!r.profile.is_enabled());
        assert_eq!(r.profile, Profile::default());
    }

    #[test]
    fn profile_off_leaves_results_bit_identical() {
        // The no-op recorder instantiation must not perturb any other
        // output: timings, breakdowns and byte counters match the
        // profile-on run exactly.
        let mk = || {
            let mut progs = Vec::new();
            for r in 0..12usize {
                let mut p = Program::new();
                p.push(Op::compute(0.002 * (r + 1) as f64));
                p.push(Op::sendrecv((r + 1) % 12, 1 << 17, (r + 11) % 12, 0));
                p.push(Op::send((r + 3) % 12, 1, 128));
                p.push(Op::recv((r + 9) % 12, 1));
                p.push(Op::allreduce(256));
                progs.push(p);
            }
            progs
        };
        let cluster = presets::cluster_a();
        let run_cfg = |profile: bool| {
            let net = NetModel::compact(&cluster, 12);
            Engine::new(
                SimConfig {
                    trace: false,
                    profile,
                    ..SimConfig::default()
                },
                net,
                mk(),
            )
            .run()
            .unwrap()
        };
        let on = run_cfg(true);
        let off = run_cfg(false);
        assert_eq!(on.finish_times, off.finish_times);
        assert_eq!(on.per_rank_breakdown, off.per_rank_breakdown);
        assert_eq!(on.p2p_bytes, off.p2p_bytes);
        assert_eq!(on.internode_bytes, off.internode_bytes);
        assert!(on.profile.is_enabled());
        assert!(!off.profile.is_enabled());
    }

    #[test]
    fn profile_distinguishes_rendezvous_stall_from_recv_wait() {
        // Rank 0 posts a 1 MiB rendezvous send immediately; rank 1 only
        // posts the receive after 5 s of compute. The sender's blocked
        // time is a rendezvous stall, not a receive wait.
        let mut p0 = Program::new();
        p0.push(Op::send(1, 0, 1 << 20));
        let mut p1 = Program::new();
        p1.push(Op::compute(5.0));
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        let prof = &r.profile;
        assert!(prof.per_rank[0].rendezvous_stall_s > 4.0);
        assert_eq!(prof.per_rank[0].recv_wait_s, 0.0);
        assert_eq!(prof.per_rank[1].rendezvous_stall_s, 0.0);
        let eager = prof.regime_totals(Regime::Eager);
        let rdv = prof.regime_totals(Regime::Rendezvous);
        assert_eq!(eager.count, 0);
        assert_eq!(rdv.count, 1);
        assert_eq!(rdv.bytes, 1 << 20);
    }

    #[test]
    fn profile_attributes_collective_wait() {
        // Rank 0 arrives 3 s late at the barrier; rank 1's wait shows up
        // as collective time.
        let mut p0 = Program::new();
        p0.push(Op::compute(3.0));
        p0.push(Op::Barrier);
        let mut p1 = Program::new();
        p1.push(Op::Barrier);
        let r = run(vec![p0, p1]);
        assert!(r.profile.per_rank[1].collective_wait_s > 2.9);
        assert!(r.profile.per_rank[0].collective_wait_s < 0.5);
    }

    #[test]
    fn profile_agrees_with_trace_breakdown() {
        // The online recv-wait total must match what the full timeline
        // reports for the same run.
        let mut p0 = Program::new();
        p0.push(Op::compute(2.0));
        p0.push(Op::send(1, 0, 64));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        let progs = vec![p0, p1];
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, progs.len());
        let cfg = SimConfig {
            trace: true,
            profile: true,
            ..SimConfig::default()
        };
        let r = Engine::new(cfg, net, progs).run().unwrap();
        let traced = r
            .timeline
            .rank_breakdown(1)
            .seconds
            .get(&EventKind::Recv)
            .copied()
            .unwrap_or(0.0);
        assert!((r.profile.per_rank[1].recv_wait_s - traced).abs() < 1e-12);
    }

    // ---------------------------------------------------------------
    // Edge cases: zero-byte messages, self-sends, odd rank counts
    // ---------------------------------------------------------------

    #[test]
    fn zero_byte_messages_deliver_and_profile() {
        let mut p0 = Program::new();
        p0.push(Op::send(1, 0, 0));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        assert!(r.makespan > 0.0, "latency still applies to empty payloads");
        let eager = r.profile.regime_totals(Regime::Eager);
        assert_eq!(eager.count, 1);
        assert_eq!(eager.bytes, 0);
        assert_eq!(r.profile.bytes_between(0, 1), 0);
        assert_eq!(r.p2p_bytes, 0);
    }

    #[test]
    fn eager_self_send_completes() {
        // MPI allows a rank to message itself; with an eager-sized
        // payload the blocking send completes locally and the receive
        // matches the queued message.
        let mut p0 = Program::new();
        p0.push(Op::send(0, 3, 128));
        p0.push(Op::recv(0, 3));
        p0.push(Op::compute(0.5));
        let r = run(vec![p0]);
        assert!(r.makespan >= 0.5);
        assert_eq!(r.profile.bytes_between(0, 0), 128);
        assert_eq!(r.internode_bytes, 0);
    }

    #[test]
    fn rendezvous_self_send_via_irecv() {
        // A rendezvous-sized self-send needs the receive pre-posted
        // (exactly like real MPI): irecv + send + wait.
        let mut p0 = Program::new();
        p0.push(Op::irecv(0, 0, 1));
        p0.push(Op::send(0, 0, 1 << 20));
        p0.push(Op::wait(1));
        let r = run(vec![p0]);
        assert!(r.makespan > 0.0);
        assert_eq!(r.profile.bytes_between(0, 0), 1 << 20);
    }

    #[test]
    fn collectives_at_non_power_of_two_ranks() {
        // p = 3, 6, 100: every collective must synchronize and finish.
        for &p in &[3usize, 6, 100] {
            let progs: Vec<Program> = (0..p)
                .map(|r| {
                    let mut prog = Program::new();
                    prog.push(Op::compute(0.001 * (r + 1) as f64));
                    prog.push(Op::Barrier);
                    prog.push(Op::allreduce(4096));
                    prog.push(Op::bcast(0, 1 << 16));
                    prog.push(Op::reduce(p - 1, 1 << 16));
                    prog.push(Op::allgather(512));
                    prog.push(Op::alltoall(256));
                    prog
                })
                .collect();
            let cluster = presets::cluster_a();
            let net = NetModel::compact(&cluster, p);
            let r = Engine::new(SimConfig::default(), net, progs)
                .run()
                .unwrap_or_else(|e| panic!("p={p}: {e:?}"));
            assert!(r.makespan.is_finite() && r.makespan > 0.0, "p={p}");
            // Everyone but the slowest entrant logged collective wait.
            let waits = r
                .profile
                .per_rank
                .iter()
                .filter(|ph| ph.collective_wait_s > 0.0)
                .count();
            assert!(waits >= p - 1, "p={p}: waits={waits}");
        }
    }

    // ---------------------------------------------------------------
    // Fault injection (see `crate::faults`)
    // ---------------------------------------------------------------

    use crate::faults::FaultEvent;

    fn faulted(progs: Vec<Program>, plan: FaultPlan) -> Result<SimResult, SimError> {
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, progs.len());
        let cfg = SimConfig {
            faults: plan,
            ..SimConfig::default()
        };
        Engine::new(cfg, net, progs).run()
    }

    #[test]
    fn crash_aborts_run_blaming_rank() {
        let mut progs = Vec::new();
        for _ in 0..4 {
            let mut p = Program::new();
            for _ in 0..10 {
                p.push(Op::compute(0.1));
                p.push(Op::allreduce(64));
            }
            progs.push(p);
        }
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Crash {
                rank: 2,
                at_s: 0.35,
            }],
        };
        let err = faulted(progs, plan).unwrap_err();
        let SimError::RankFailed { rank, at_s, .. } = err else {
            panic!("expected RankFailed, got {err:?}");
        };
        assert_eq!(rank, 2);
        assert!(at_s >= 0.35, "crash reported before its time: {at_s}");
    }

    #[test]
    fn crash_after_finish_is_benign() {
        let mut p0 = Program::new();
        p0.push(Op::compute(0.5));
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Crash {
                rank: 0,
                at_s: 100.0,
            }],
        };
        let r = faulted(vec![p0], plan).unwrap();
        assert!((r.makespan - 0.5).abs() < 1e-12);
    }

    #[test]
    fn straggler_inflates_and_attributes_fault_stall() {
        let mk = || {
            let mut p = Program::new();
            p.push(Op::compute(1.0));
            p
        };
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Straggler {
                rank: 0,
                slowdown: 2.0,
            }],
        };
        let r = faulted(vec![mk(), mk()], plan).unwrap();
        assert!((r.finish_times[0] - 2.0).abs() < 1e-12);
        assert!((r.finish_times[1] - 1.0).abs() < 1e-12);
        // The inflation is visible as fault stall, not as compute.
        assert!((r.profile.per_rank[0].fault_stall_s - 1.0).abs() < 1e-12);
        assert!((r.profile.per_rank[0].compute_s - 1.0).abs() < 1e-12);
        assert_eq!(r.profile.per_rank[1].fault_stall_s, 0.0);
        // The breakdown carries the full inflated compute time.
        assert!((r.per_rank_breakdown[0][EventKind::Compute.index()] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flaky_link_delays_messages_one_direction() {
        let mk = |r: usize| {
            let mut p = Program::new();
            if r == 0 {
                p.push(Op::send(1, 0, 8));
            } else {
                p.push(Op::recv(0, 0));
            }
            p
        };
        let plan = FaultPlan {
            seed: 3,
            events: vec![FaultEvent::FlakyLink {
                from: 0,
                to: 1,
                drop_prob: 0.999,
                retransmit_latency_s: 1.0,
            }],
        };
        let clean = faulted(vec![mk(0), mk(1)], FaultPlan::none()).unwrap();
        let dirty = faulted(vec![mk(0), mk(1)], plan).unwrap();
        // With p≈1 the first attempt virtually always retransmits, so
        // the receive completes at least one retransmit latency later.
        assert!(
            dirty.finish_times[1] >= clean.finish_times[1] + 1.0,
            "no retransmit delay: clean={} dirty={}",
            clean.finish_times[1],
            dirty.finish_times[1]
        );
        // The eager sender is unaffected (completes locally).
        assert!((dirty.finish_times[0] - clean.finish_times[0]).abs() < 1e-12);
    }

    #[test]
    fn empty_plan_through_fault_path_is_bit_identical() {
        // Force the ActiveFaults instantiation with an un-set cancel
        // token and an empty plan: every result must match the
        // zero-cost NoFaults path bit for bit.
        let mk = || {
            let mut progs = Vec::new();
            for r in 0..8usize {
                let mut p = Program::new();
                p.push(Op::compute(0.01 * (r + 1) as f64));
                p.push(Op::sendrecv((r + 1) % 8, 1 << 17, (r + 7) % 8, 0));
                p.push(Op::allreduce(64));
                progs.push(p);
            }
            progs
        };
        let cluster = presets::cluster_a();
        let fast = Engine::new(SimConfig::default(), NetModel::compact(&cluster, 8), mk())
            .run()
            .unwrap();
        let token = Arc::new(AtomicBool::new(false));
        let slow = Engine::new(SimConfig::default(), NetModel::compact(&cluster, 8), mk())
            .with_cancel(token)
            .run()
            .unwrap();
        assert_eq!(fast.finish_times, slow.finish_times);
        assert_eq!(fast.per_rank_breakdown, slow.per_rank_breakdown);
        assert_eq!(fast.profile, slow.profile);
        assert_eq!(fast.p2p_bytes, slow.p2p_bytes);
        assert_eq!(fast.internode_bytes, slow.internode_bytes);
    }

    #[test]
    fn pre_set_cancel_token_aborts_immediately() {
        let mut p0 = Program::new();
        p0.push(Op::compute(1.0));
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, 1);
        let token = Arc::new(AtomicBool::new(true));
        let err = Engine::new(SimConfig::default(), net, vec![p0])
            .with_cancel(token)
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::Cancelled);
    }
}
