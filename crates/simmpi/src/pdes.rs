//! Conservative parallel discrete-event scheduler (PDES) — the
//! implementation behind [`SimConfig::threads`](crate::engine::SimConfig)
//! `> 1`.
//!
//! ## Design
//!
//! The rank range is split into `threads` contiguous partitions, with
//! cut points snapped to node boundaries where one lies near the even
//! split (see `partition_ranks`). Each partition is driven by its own
//! copy of the sequential ready-queue scheduler on a host thread, with
//! its own channel table, trace timeline and profile sink. Partitions
//! exchange three kinds of messages over per-partition inboxes:
//!
//! * `Send` — a point-to-point posting whose receiver lives in another
//!   partition; the channel (and thus the FIFO matching state) is owned
//!   by the *receiver's* partition,
//! * `RdvDone` — the sender-side completion of a rendezvous hand-shake
//!   resolved by a remote receiver,
//! * `CollFinish` — the finish time of a collective, broadcast by the
//!   partition that observed the last entrant.
//!
//! ## Null messages, lookahead, and why the result is bit-identical
//!
//! The engine's completion times are *visiting-order independent*:
//! every timestamp is computed from posted timestamps alone (FIFO
//! matching involves exactly two ranks whose postings are in program
//! order; collective finishes are max-reductions — see the scheduling
//! notes in [`crate::engine`]). Parallel execution is therefore a
//! monotone dataflow fixed point: a partition can never observe a
//! message "too early", only make progress the moment its inputs exist,
//! and the fixed point it converges to is the sequential result bit for
//! bit. Classic conservative PDES needs LBTS/null-message rounds to
//! decide when it is *safe* to advance local virtual time; here safety
//! is unconditional, so the null-message machinery degenerates into two
//! honest throughput knobs:
//!
//! * **Lookahead-horizon flushing** — outgoing cross-partition traffic
//!   is batched and released whenever the executing rank's clock passes
//!   the last flush by [`NetModel::lookahead`] (the LogGP `L` of the
//!   interconnect — the minimum time any cross-node message needs
//!   anyway), bounding both the batching delay in virtual time and the
//!   lock traffic per real second. A partition always flushes before
//!   idling and immediately after finishing a collective (a global
//!   synchronization point every other partition is waiting on).
//! * **Quiescence accounting** — global sent/delivered counters double
//!   as the LBTS termination test: when every partition is idle and
//!   every sent message was delivered, no progress is possible anywhere
//!   and the run has reached its fixed point (completion *or* the same
//!   deadlock state the sequential engine would report).
//!
//! ## Deterministic merge
//!
//! Each per-rank output (finish time, program counter, breakdown row,
//! per-rank profile phases, trace events) is written only by the
//! partition owning that rank, in the rank's own program order — so
//! scattering the partition outputs back together reproduces the
//! sequential per-rank streams exactly. Cross-rank aggregates are
//! merged with exact, commutative reductions only: `u64` byte counters
//! and histogram buckets add, collective entry times max-reduce, and
//! the global request-arena numbering (which seeds the flaky-link
//! draws) is identical because every partition indexes the same
//! prepass-derived arena layout. A [`Checkpoint`] merges the same way:
//! each partition snapshots its own ranks' rows as they leave the
//! checkpoint collective and its own senders' global counters as the
//! first of its ranks leaves it, and the shares scatter and add.
//!
//! ## Errors under `threads > 1`
//!
//! Failures are resolved canonically so the report does not depend on
//! thread count or host timing:
//!
//! * `Cancelled` wins over everything (mirrors the sequential poll
//!   order),
//! * a crash freezes only the crashed rank; the run drains to
//!   quiescence and blames the candidate with the smallest
//!   `(at_s, rank)`. Single-crash plans — the common case — report
//!   exactly what the sequential engine reports,
//! * a collective mismatch blames the smallest rank whose call differs
//!   from the smallest entrant's call,
//! * deadlock reports the same blocked set as the sequential engine:
//!   the drained state *is* the sequential fixed point.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::engine::{
    regime_of, Blocked, ChanMemo, Channels, Checkpoint, CheckpointRec, Engine, FaultHook, IReq,
    LiveProfile, NetParams, NoFaults, NoProfile, Prepass, ProfileSink, RankState, ReadyQueue,
    RecvPost, Req, ReqClass, ReqSet, SendPost, SimError, SimResult,
};
use crate::faults::ActiveFaults;
use crate::netmodel::NetModel;
use crate::profile::Profile;
use crate::program::{Op, Program};
use crate::trace::{EventKind, Timeline};

/// Flush the outgoing buffers once this many messages are pending even
/// if the executing rank's clock has not crossed the lookahead horizon
/// yet — bounds the burst a receiver sees in one batch.
const FLUSH_CAP: usize = 512;

/// Lock a mutex, recovering from poisoning (a panicked peer worker is
/// surfaced through its join handle; the state itself stays usable).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// Split `0..nranks` into `parts` contiguous, non-empty ranges.
///
/// Cut points start from the even split and snap to the nearest node
/// boundary (a rank whose node differs from its predecessor's) when one
/// lies within half a partition width — node-aligned cuts keep
/// intra-node traffic (cheap, high-rate) inside a partition and route
/// only inter-node traffic (whose latency is the lookahead) across
/// partitions. Jobs on a single node simply get the even split.
pub(crate) fn partition_ranks(nranks: usize, parts: usize, node_of: &[u32]) -> Vec<Range<usize>> {
    let p = parts.clamp(1, nranks.max(1));
    let starts: Vec<usize> = (1..nranks)
        .filter(|&b| node_of[b] != node_of[b - 1])
        .collect();
    let mut cuts = Vec::with_capacity(p + 1);
    cuts.push(0usize);
    for i in 1..p {
        let ideal = i * nranks / p;
        let snapped = nearest_boundary(&starts, ideal);
        let half = (nranks / p / 2).max(1);
        let cut = match snapped {
            Some(s) if s.abs_diff(ideal) <= half => s,
            _ => ideal,
        };
        let prev = *cuts.last().expect("cuts is non-empty");
        // Keep every partition non-empty and leave room for the rest.
        cuts.push(cut.clamp(prev + 1, nranks - (p - i)));
    }
    cuts.push(nranks);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Nearest element of the sorted `starts` to `ideal` (ties toward the
/// smaller), or `None` if there are no boundaries.
fn nearest_boundary(starts: &[usize], ideal: usize) -> Option<usize> {
    let i = starts.partition_point(|&s| s < ideal);
    let right = starts.get(i).copied();
    let left = i.checked_sub(1).map(|j| starts[j]);
    match (left, right) {
        (Some(l), Some(r)) => Some(if ideal - l <= r - ideal { l } else { r }),
        (Some(l), None) => Some(l),
        (None, r) => r,
    }
}

// ---------------------------------------------------------------------------
// Inter-partition protocol
// ---------------------------------------------------------------------------

/// One cross-partition message.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// A point-to-point posting whose receiver is remote; carries the
    /// sender's global arena request id so rendezvous completions and
    /// flaky-link draws key exactly as in the sequential engine.
    Send {
        from: usize,
        to: usize,
        tag: u32,
        time: f64,
        bytes: usize,
        ireq: IReq,
    },
    /// Sender-side completion of a rendezvous resolved remotely.
    RdvDone {
        rank: usize,
        ireq: IReq,
        done_at: f64,
    },
    /// A collective completed; every partition unparks its entrants.
    CollFinish { seq: usize, finish: f64 },
}

/// A partition's message inbox.
#[derive(Default)]
struct Inbox {
    queue: Mutex<VecDeque<Msg>>,
    cv: Condvar,
}

/// Outgoing message buffers, one per destination partition, released in
/// lookahead-sized windows (see the module docs).
struct Outgoing {
    bufs: Vec<Vec<Msg>>,
    pending: usize,
}

impl Outgoing {
    fn new(nparts: usize) -> Self {
        Outgoing {
            bufs: vec![Vec::new(); nparts],
            pending: 0,
        }
    }

    #[inline]
    fn push(&mut self, dest: usize, m: Msg) {
        self.bufs[dest].push(m);
        self.pending += 1;
    }
}

/// Global state of one collective sequence number. Unlike the
/// sequential engine's entry (first entrant fixes the expected kind),
/// the expected kind is canonicalized to the *smallest* entrant's so
/// the mismatch report is independent of arrival order.
struct CollGlobal {
    kind: EventKind,
    /// Smallest rank entered so far; defines `kind`.
    owner: usize,
    bytes: usize,
    entered: usize,
    max_entry: f64,
    finish: Option<f64>,
    /// Smallest rank whose call differed from the owner's, if any.
    mismatch: Option<(usize, EventKind)>,
}

/// A rank that hit its injected crash time: `(at_s, rank)`-minimum wins
/// the blame after the drain.
struct CrashCand {
    at_s: f64,
    rank: usize,
    pc: usize,
}

/// State shared by all partition workers for one run.
struct Shared<'a> {
    np: NetParams,
    net: &'a NetModel,
    programs: &'a [Program],
    parts: Vec<Range<usize>>,
    /// Partition index per rank.
    part_of: Vec<u32>,
    /// Global request-arena layout: rank `r` owns
    /// `arena_start[r]..arena_start[r + 1]`.
    arena_start: Vec<usize>,
    arena_total: usize,
    lookahead: f64,
    /// Collective sequence number of the checkpoint, if any.
    checkpoint: Option<usize>,
    inboxes: Vec<Inbox>,
    /// Messages pushed to any inbox / drained from any inbox. Equality
    /// while everyone idles is the quiescence (termination) test.
    sent: AtomicU64,
    delivered: AtomicU64,
    idle: AtomicUsize,
    stop: AtomicBool,
    cancelled: AtomicBool,
    colls: Mutex<Vec<CollGlobal>>,
    crashes: Mutex<Vec<CrashCand>>,
}

/// Set the stop flag and wake every parked worker. Locking each inbox
/// before notifying pairs with the waiters' check-under-lock, so no
/// wakeup is lost.
fn stop_all(sh: &Shared<'_>) {
    sh.stop.store(true, Ordering::SeqCst);
    for ib in &sh.inboxes {
        let _guard = lock(&ib.queue);
        ib.cv.notify_all();
    }
}

/// Release every pending outgoing message to its destination inbox.
/// `sent` is incremented under the destination lock, before the push
/// becomes visible, so `sent >= delivered` always holds and equality
/// implies empty inboxes.
fn flush(sh: &Shared<'_>, out: &mut Outgoing) {
    if out.pending == 0 {
        return;
    }
    for (dest, buf) in out.bufs.iter_mut().enumerate() {
        if buf.is_empty() {
            continue;
        }
        let inbox = &sh.inboxes[dest];
        {
            let mut q = lock(&inbox.queue);
            sh.sent.fetch_add(buf.len() as u64, Ordering::SeqCst);
            q.extend(buf.drain(..));
        }
        inbox.cv.notify_all();
    }
    out.pending = 0;
}

// ---------------------------------------------------------------------------
// Remote-origin matching
// ---------------------------------------------------------------------------

/// Match pending pairs in a channel whose sender `from` lives in
/// another partition (the receiver `to` is local — channels are owned
/// by the receiving partition). The receive side completes locally with
/// the exact expressions of [`Engine::match_channel`]; the rendezvous
/// sender-side completion travels back as a [`Msg::RdvDone`].
#[allow(clippy::too_many_arguments)]
fn match_remote_origin<F: FaultHook>(
    eager_threshold: usize,
    ch: &mut crate::engine::Channel,
    from: usize,
    to: usize,
    reqs: &mut [Req],
    ready: &mut ReadyQueue,
    out: &mut Outgoing,
    part_of: &[u32],
    faults: &F,
) {
    while !ch.sends.is_empty() && !ch.recvs.is_empty() {
        let s = ch.sends.pop();
        let v = ch.recvs.pop();
        let mut wire = ch.wire_lat + s.bytes as f64 / ch.wire_denom;
        if F::ENABLED {
            wire += faults.wire_extra(from, to, s.ireq);
        }
        if s.bytes < eager_threshold {
            // Eager: the sender completed locally at post time; only
            // the receive completes here, at message arrival.
            let arrival = s.time + wire;
            let recv_done = v.time.max(arrival);
            let rq = &mut reqs[v.ireq];
            rq.done_at = recv_done;
            rq.done = true;
            ready.wake(to, usize::MAX);
        } else {
            let start = s.time.max(v.time);
            let done = start + wire;
            let rq = &mut reqs[v.ireq];
            rq.done_at = done;
            rq.done = true;
            ready.wake(to, usize::MAX);
            out.push(
                part_of[from] as usize,
                Msg::RdvDone {
                    rank: from,
                    ireq: s.ireq,
                    done_at: done,
                },
            );
        }
    }
}

/// Post a send whose receiver is remote: allocate the sender's arena
/// request exactly as [`Engine::post_send`] does (eager completes
/// locally after the sender overhead), and forward the posting to the
/// receiver's partition, which owns the channel. Returns the request
/// and whether the pair shares a node.
#[allow(clippy::too_many_arguments)]
fn post_send_remote(
    sh: &Shared<'_>,
    ranks: &mut [RankState],
    reqs: &mut [Req],
    out: &mut Outgoing,
    from: usize,
    to: usize,
    tag: u32,
    bytes: usize,
    time: f64,
    eager: bool,
) -> (IReq, bool) {
    let rank = &mut ranks[from];
    let ireq = rank.req_next;
    debug_assert!(ireq < rank.req_end, "prepass under-counted posts");
    rank.req_next += 1;
    reqs[ireq] = Req {
        done_at: if eager {
            time + sh.np.send_overhead
        } else {
            0.0
        },
        class: if eager {
            ReqClass::EagerSend
        } else {
            ReqClass::RdvSend
        },
        done: eager,
    };
    out.push(
        sh.part_of[to] as usize,
        Msg::Send {
            from,
            to,
            tag,
            time,
            bytes,
            ireq,
        },
    );
    (ireq, sh.np.node_of[from] == sh.np.node_of[to])
}

/// Post a receive whose sender is remote: the channel is local (the
/// receiver owns it) and may already hold forwarded sends.
#[allow(clippy::too_many_arguments)]
fn post_recv_remote<F: FaultHook>(
    sh: &Shared<'_>,
    ranks: &mut [RankState],
    reqs: &mut [Req],
    channels: &mut Channels,
    ready: &mut ReadyQueue,
    out: &mut Outgoing,
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
    // The arena slot is pre-initialized to a pending `Recv`.
    let memo = rank.recv_memo;
    let slot = if memo.peer == from && memo.tag == tag {
        memo.idx
    } else {
        let idx = channels.slot(&sh.np, from, to, tag);
        rank.recv_memo = ChanMemo {
            peer: from,
            tag,
            idx,
        };
        idx
    };
    let ch = &mut channels.store[slot as usize];
    ch.recvs.push(RecvPost { time, ireq });
    match_remote_origin(
        sh.np.eager_threshold,
        ch,
        from,
        to,
        reqs,
        ready,
        out,
        &sh.part_of,
        faults,
    );
    ireq
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

/// Outcome of entering a collective.
enum Enter {
    /// This rank was the last entrant; the collective finished.
    Finished(f64),
    /// Park until a `CollFinish` (or a local last entrant) releases it.
    Pending,
    /// This rank's call disagrees with the canonical one — freeze it.
    Mismatch,
}

/// Record `(rank, kind)` as a mismatch if it is the smallest-ranked one
/// seen.
fn min_mismatch(slot: &mut Option<(usize, EventKind)>, rank: usize, kind: EventKind) {
    if slot.is_none_or(|(r, _)| rank < r) {
        *slot = Some((rank, kind));
    }
}

/// Enter `rank` into the global collective at `seq`. The expected kind
/// is canonicalized to the smallest entrant's; entry times max-reduce
/// (exact and commutative, so the finish is bit-identical to the
/// sequential engine's regardless of arrival order). The last entrant
/// computes the finish, records it in the local mirror and queues the
/// broadcast — the caller must flush immediately.
#[allow(clippy::too_many_arguments)]
fn enter_global(
    sh: &Shared<'_>,
    me: usize,
    rank: usize,
    seq: usize,
    kind: EventKind,
    bytes: usize,
    time: f64,
    out: &mut Outgoing,
    coll_finish: &mut Vec<Option<f64>>,
) -> Enter {
    let nranks = sh.programs.len();
    let mut colls = lock(&sh.colls);
    if colls.len() <= seq {
        // A rank reaches `seq` only after every rank passed `seq - 1`,
        // so the table grows one sequence at a time.
        debug_assert_eq!(colls.len(), seq, "collective sequence entered out of order");
        colls.push(CollGlobal {
            kind,
            owner: rank,
            bytes: 0,
            entered: 0,
            max_entry: 0.0,
            finish: None,
            mismatch: None,
        });
    } else {
        let e = &mut colls[seq];
        if rank < e.owner {
            if kind != e.kind {
                // The old owner was the smallest entrant so far, hence
                // the smallest now disagreeing with the new canon.
                min_mismatch(&mut e.mismatch, e.owner, e.kind);
                e.kind = kind;
            }
            e.owner = rank;
        } else if kind != e.kind {
            min_mismatch(&mut e.mismatch, rank, kind);
            return Enter::Mismatch;
        }
    }
    let e = &mut colls[seq];
    e.bytes = e.bytes.max(bytes);
    e.entered += 1;
    e.max_entry = e.max_entry.max(time);
    if e.entered == nranks && e.mismatch.is_none() {
        let cost = match e.kind {
            EventKind::Barrier => sh.net.barrier_cost(nranks),
            EventKind::Allreduce => sh.net.allreduce_cost(nranks, e.bytes),
            EventKind::Bcast => sh.net.bcast_cost(nranks, e.bytes),
            EventKind::Reduce => sh.net.reduce_cost(nranks, e.bytes),
            EventKind::Allgather => sh.net.allgather_cost(nranks, e.bytes),
            EventKind::Alltoall => sh.net.alltoall_cost(nranks, e.bytes),
            _ => 0.0,
        };
        let finish = e.max_entry + cost;
        e.finish = Some(finish);
        drop(colls);
        set_finish(coll_finish, seq, finish);
        for p in 0..sh.parts.len() {
            if p != me {
                out.push(p, Msg::CollFinish { seq, finish });
            }
        }
        return Enter::Finished(finish);
    }
    Enter::Pending
}

fn set_finish(coll_finish: &mut Vec<Option<f64>>, seq: usize, finish: f64) {
    if coll_finish.len() <= seq {
        coll_finish.resize(seq + 1, None);
    }
    coll_finish[seq] = Some(finish);
}

/// The [`EventKind`] of a collective op (the parked rank recovers the
/// kind from its own program when a finish arrives; in a finished
/// collective every entrant's kind equals the canonical one).
fn collective_kind(op: Op) -> EventKind {
    match op {
        Op::Allreduce { .. } => EventKind::Allreduce,
        Op::Barrier => EventKind::Barrier,
        Op::Bcast { .. } => EventKind::Bcast,
        Op::Reduce { .. } => EventKind::Reduce,
        Op::Allgather { .. } => EventKind::Allgather,
        Op::Alltoall { .. } => EventKind::Alltoall,
        _ => unreachable!("not a collective op"),
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Per-partition sink construction for the monomorphized profile
/// strategies.
trait MakeSink: ProfileSink + Sized {
    fn make(nranks: usize) -> Self;
}

impl MakeSink for LiveProfile {
    fn make(nranks: usize) -> Self {
        LiveProfile(Profile::new(nranks))
    }
}

impl MakeSink for NoProfile {
    fn make(_nranks: usize) -> Self {
        NoProfile
    }
}

/// Everything a partition hands back for the deterministic merge. The
/// per-rank vectors cover `lo..hi` only.
struct PartOut {
    lo: usize,
    hi: usize,
    clocks: Vec<f64>,
    done: Vec<bool>,
    pcs: Vec<usize>,
    timeline: Timeline,
    breakdown: Vec<[f64; EventKind::COUNT]>,
    profile: Profile,
    p2p_bytes: u64,
    internode_bytes: u64,
    /// This partition's share of the checkpoint: rows `lo..hi`, and the
    /// global views counted by its own senders.
    checkpoint: Option<Checkpoint>,
}

/// Process one inbox message against the partition-local state.
#[allow(clippy::too_many_arguments)]
fn process_msg<F: FaultHook>(
    msg: Msg,
    sh: &Shared<'_>,
    lo: usize,
    hi: usize,
    ranks: &mut [RankState],
    reqs: &mut [Req],
    channels: &mut Channels,
    ready: &mut ReadyQueue,
    out: &mut Outgoing,
    coll_finish: &mut Vec<Option<f64>>,
    frozen: &[bool],
    faults: &F,
) {
    match msg {
        Msg::Send {
            from,
            to,
            tag,
            time,
            bytes,
            ireq,
        } => {
            let slot = channels.slot(&sh.np, from, to, tag);
            let ch = &mut channels.store[slot as usize];
            ch.sends.push(SendPost { time, bytes, ireq });
            match_remote_origin(
                sh.np.eager_threshold,
                ch,
                from,
                to,
                reqs,
                ready,
                out,
                &sh.part_of,
                faults,
            );
        }
        Msg::RdvDone {
            rank,
            ireq,
            done_at,
        } => {
            let q = &mut reqs[ireq];
            q.done_at = done_at;
            q.done = true;
            ready.wake(rank, usize::MAX);
        }
        Msg::CollFinish { seq, finish } => {
            set_finish(coll_finish, seq, finish);
            // Every non-done local rank entered this collective (the
            // finish required all ranks), so wake them all; spurious
            // wakes of ranks blocked on requests are harmless.
            for r in lo..hi {
                if !ranks[r].done && !frozen[r] {
                    ready.wake(r, usize::MAX);
                }
            }
        }
    }
}

/// One partition worker: the sequential ready-queue scheduler over
/// `lo..hi`, with remote peers reached through the message protocol.
fn worker<P: MakeSink, F: FaultHook, const TRACE: bool>(
    sh: &Shared<'_>,
    faults: &F,
    me: usize,
) -> PartOut {
    let nranks = sh.programs.len();
    let nparts = sh.parts.len();
    let (lo, hi) = (sh.parts[me].start, sh.parts[me].end);

    // Full-size, globally indexed state: only this partition's slots
    // (plus remote-completed rendezvous slots of local senders) are
    // ever touched, but global indexing keeps the arena numbering — and
    // with it the flaky-link draws — identical to the sequential run.
    let mut ranks: Vec<RankState> = (0..nranks)
        .map(|r| RankState {
            pc: 0,
            clock: 0.0,
            blocked: None,
            done: false,
            req_next: sh.arena_start[r],
            req_end: sh.arena_start[r + 1],
            send_memo: ChanMemo::EMPTY,
            recv_memo: ChanMemo::EMPTY,
            user_reqs: Vec::new(),
            coll_seq: 0,
        })
        .collect();
    let mut reqs: Vec<Req> = vec![
        Req {
            done_at: 0.0,
            class: ReqClass::Recv,
            done: false,
        };
        sh.arena_total
    ];
    let mut channels = Channels::default();
    let mut timeline = Timeline::new(nranks);
    let mut breakdown: Vec<[f64; EventKind::COUNT]> = vec![[0.0; EventKind::COUNT]; nranks];
    let mut profile = P::make(nranks);
    let mut p2p_bytes: u64 = 0;
    let mut internode_bytes: u64 = 0;
    let mut ready = ReadyQueue::with_range(nranks, lo, hi);
    let mut frozen = vec![false; nranks];
    let mut coll_finish: Vec<Option<f64>> = Vec::new();
    let mut out = Outgoing::new(nparts);
    let mut next_flush = sh.lookahead;
    // Snapshots its own global counters when the first local rank
    // leaves the checkpoint: every local rank has entered it by then
    // (the finish needs all ranks) and none has gone past it.
    let mut ckpt = CheckpointRec::new(sh.checkpoint);

    'main: loop {
        // Drain the inbox in one batch; `delivered` is credited only
        // after processing so in-flight messages keep the quiescence
        // test failing.
        let msgs: VecDeque<Msg> = std::mem::take(&mut *lock(&sh.inboxes[me].queue));
        if !msgs.is_empty() {
            for &m in &msgs {
                process_msg(
                    m,
                    sh,
                    lo,
                    hi,
                    &mut ranks,
                    &mut reqs,
                    &mut channels,
                    &mut ready,
                    &mut out,
                    &mut coll_finish,
                    &frozen,
                    faults,
                );
            }
            sh.delivered.fetch_add(msgs.len() as u64, Ordering::SeqCst);
        }

        while let Some(r) = ready.pop() {
            if sh.stop.load(Ordering::SeqCst) {
                break 'main;
            }
            if ranks[r].done || frozen[r] {
                continue;
            }
            'rank: loop {
                if F::ENABLED {
                    if faults.cancelled() {
                        sh.cancelled.store(true, Ordering::SeqCst);
                        stop_all(sh);
                        break 'main;
                    }
                    if ranks[r].clock >= faults.crash_at(r) {
                        // Freeze only this rank and drain the rest to
                        // quiescence; the smallest `(at_s, rank)`
                        // candidate wins the blame after the join.
                        lock(&sh.crashes).push(CrashCand {
                            at_s: ranks[r].clock,
                            rank: r,
                            pc: ranks[r].pc,
                        });
                        frozen[r] = true;
                        break 'rank;
                    }
                }
                match ranks[r].blocked {
                    Some(Blocked::Reqs {
                        reqs: set,
                        kind,
                        start,
                    }) => {
                        if !Engine::try_unblock_reqs::<P, TRACE>(
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
                            break 'rank;
                        }
                        continue 'rank;
                    }
                    Some(Blocked::Collective { start }) => {
                        let seq = ranks[r].coll_seq;
                        let Some(finish) = coll_finish.get(seq).copied().flatten() else {
                            break 'rank;
                        };
                        let kind = collective_kind(sh.programs[r].ops[ranks[r].pc]);
                        Engine::unblock_collective::<P, TRACE>(
                            r,
                            start,
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
                        continue 'rank;
                    }
                    None => {}
                }

                if ranks[r].pc >= sh.programs[r].ops.len() {
                    ranks[r].done = true;
                    break 'rank;
                }

                let op = sh.programs[r].ops[ranks[r].pc];
                let clock = ranks[r].clock;
                match op {
                    Op::Compute { seconds } => {
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
                            profile.phase(r, crate::profile::Phase::Compute, total - stall);
                            profile.phase(r, crate::profile::Phase::FaultStall, stall);
                        } else {
                            profile.phase(r, crate::profile::Phase::Compute, total);
                        }
                        ranks[r].clock += total;
                        ranks[r].pc += 1;
                    }
                    Op::Send { to, tag, bytes } => {
                        let eager = bytes < sh.np.eager_threshold;
                        let (ireq, same_node) = if sh.part_of[to] as usize == me {
                            Engine::post_send(
                                &sh.np,
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
                                faults,
                            )
                        } else {
                            post_send_remote(
                                sh, &mut ranks, &mut reqs, &mut out, r, to, tag, bytes, clock,
                                eager,
                            )
                        };
                        profile.message(r, to, bytes, regime_of(eager));
                        p2p_bytes += bytes as u64;
                        if !same_node {
                            internode_bytes += bytes as u64;
                        }
                        let set = ReqSet::one(ireq);
                        if !Engine::try_unblock_reqs::<P, TRACE>(
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
                            break 'rank;
                        }
                    }
                    Op::Recv { from, tag } => {
                        let ireq = if sh.part_of[from] as usize == me {
                            Engine::post_recv(
                                &sh.np,
                                &mut ranks,
                                &mut reqs,
                                &mut channels,
                                &mut ready,
                                from,
                                r,
                                tag,
                                clock,
                                faults,
                            )
                        } else {
                            post_recv_remote(
                                sh,
                                &mut ranks,
                                &mut reqs,
                                &mut channels,
                                &mut ready,
                                &mut out,
                                from,
                                r,
                                tag,
                                clock,
                                faults,
                            )
                        };
                        let set = ReqSet::one(ireq);
                        if !Engine::try_unblock_reqs::<P, TRACE>(
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
                            break 'rank;
                        }
                    }
                    Op::Sendrecv {
                        to,
                        send_bytes,
                        from,
                        tag,
                    } => {
                        let eager = send_bytes < sh.np.eager_threshold;
                        let (s, same_node) = if sh.part_of[to] as usize == me {
                            Engine::post_send(
                                &sh.np,
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
                                faults,
                            )
                        } else {
                            post_send_remote(
                                sh, &mut ranks, &mut reqs, &mut out, r, to, tag, send_bytes, clock,
                                eager,
                            )
                        };
                        let v = if sh.part_of[from] as usize == me {
                            Engine::post_recv(
                                &sh.np,
                                &mut ranks,
                                &mut reqs,
                                &mut channels,
                                &mut ready,
                                from,
                                r,
                                tag,
                                clock,
                                faults,
                            )
                        } else {
                            post_recv_remote(
                                sh,
                                &mut ranks,
                                &mut reqs,
                                &mut channels,
                                &mut ready,
                                &mut out,
                                from,
                                r,
                                tag,
                                clock,
                                faults,
                            )
                        };
                        profile.message(r, to, send_bytes, regime_of(eager));
                        p2p_bytes += send_bytes as u64;
                        if !same_node {
                            internode_bytes += send_bytes as u64;
                        }
                        let set = ReqSet::two(s, v);
                        if !Engine::try_unblock_reqs::<P, TRACE>(
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
                            break 'rank;
                        }
                    }
                    Op::Isend {
                        to,
                        tag,
                        bytes,
                        req,
                    } => {
                        let eager = bytes < sh.np.eager_threshold;
                        let (ireq, same_node) = if sh.part_of[to] as usize == me {
                            Engine::post_send(
                                &sh.np,
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
                                faults,
                            )
                        } else {
                            post_send_remote(
                                sh, &mut ranks, &mut reqs, &mut out, r, to, tag, bytes, clock,
                                eager,
                            )
                        };
                        Engine::set_user_req(&mut ranks[r].user_reqs, req, ireq);
                        ranks[r].pc += 1;
                        profile.message(r, to, bytes, regime_of(eager));
                        p2p_bytes += bytes as u64;
                        if !same_node {
                            internode_bytes += bytes as u64;
                        }
                    }
                    Op::Irecv { from, tag, req } => {
                        let ireq = if sh.part_of[from] as usize == me {
                            Engine::post_recv(
                                &sh.np,
                                &mut ranks,
                                &mut reqs,
                                &mut channels,
                                &mut ready,
                                from,
                                r,
                                tag,
                                clock,
                                faults,
                            )
                        } else {
                            post_recv_remote(
                                sh,
                                &mut ranks,
                                &mut reqs,
                                &mut channels,
                                &mut ready,
                                &mut out,
                                from,
                                r,
                                tag,
                                clock,
                                faults,
                            )
                        };
                        Engine::set_user_req(&mut ranks[r].user_reqs, req, ireq);
                        ranks[r].pc += 1;
                    }
                    Op::Wait { req } => {
                        let ireq = ranks[r].user_reqs[req as usize];
                        let set = ReqSet::one(ireq);
                        if !Engine::try_unblock_reqs::<P, TRACE>(
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
                            break 'rank;
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
                        match enter_global(
                            sh,
                            me,
                            r,
                            seq,
                            kind,
                            bytes,
                            clock,
                            &mut out,
                            &mut coll_finish,
                        ) {
                            Enter::Finished(finish) => {
                                // A finished collective is a global
                                // synchronization point every other
                                // partition is parked on — release the
                                // broadcast immediately.
                                flush(sh, &mut out);
                                next_flush = clock + sh.lookahead;
                                for wr in lo..hi {
                                    if wr != r && !ranks[wr].done && !frozen[wr] {
                                        ready.wake(wr, r);
                                    }
                                }
                                Engine::unblock_collective::<P, TRACE>(
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
                            }
                            Enter::Pending => {
                                ranks[r].blocked = Some(Blocked::Collective { start: clock });
                                break 'rank;
                            }
                            Enter::Mismatch => {
                                frozen[r] = true;
                                break 'rank;
                            }
                        }
                    }
                }
            }
            // The lookahead horizon: withhold cross-partition traffic
            // for at most one inter-node latency of this partition's
            // virtual time (or FLUSH_CAP messages, whichever is first).
            if out.pending >= FLUSH_CAP || (out.pending > 0 && ranks[r].clock >= next_flush) {
                flush(sh, &mut out);
                next_flush = ranks[r].clock + sh.lookahead;
            }
        }

        if sh.stop.load(Ordering::SeqCst) {
            break 'main;
        }
        flush(sh, &mut out);

        // Idle protocol: park on the inbox condvar; the last idler with
        // sent == delivered declares quiescence and stops everyone.
        {
            let inbox = &sh.inboxes[me];
            let mut q = lock(&inbox.queue);
            if !q.is_empty() {
                continue 'main;
            }
            let idlers = sh.idle.fetch_add(1, Ordering::SeqCst) + 1;
            if idlers == nparts
                && sh.sent.load(Ordering::SeqCst) == sh.delivered.load(Ordering::SeqCst)
            {
                sh.idle.fetch_sub(1, Ordering::SeqCst);
                drop(q);
                stop_all(sh);
                break 'main;
            }
            loop {
                if sh.stop.load(Ordering::SeqCst) {
                    sh.idle.fetch_sub(1, Ordering::SeqCst);
                    break 'main;
                }
                if !q.is_empty() {
                    sh.idle.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
                q = inbox.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    PartOut {
        lo,
        hi,
        clocks: ranks[lo..hi].iter().map(|s| s.clock).collect(),
        done: ranks[lo..hi].iter().map(|s| s.done).collect(),
        pcs: ranks[lo..hi].iter().map(|s| s.pc).collect(),
        timeline,
        breakdown,
        profile: profile.finish(),
        p2p_bytes,
        internode_bytes,
        checkpoint: ckpt.finish(),
    }
}

// ---------------------------------------------------------------------------
// Entry point, error resolution, merge
// ---------------------------------------------------------------------------

/// Run `engine` under the parallel scheduler with `threads` partitions.
/// Called from [`Engine::run_prevalidated`] when
/// [`SimConfig::threads`](crate::engine::SimConfig) `> 1` (already
/// clamped to the rank count).
pub(crate) fn run_parallel(
    engine: Engine,
    prepass: &Prepass,
    threads: usize,
) -> Result<SimResult, SimError> {
    let nranks = engine.programs.len();
    // Same dispatch as the sequential engine: fault-capable
    // instantiations only when a plan or a cancellation token exists.
    if !engine.config.faults.is_none() || engine.cancel.is_some() {
        let hook = ActiveFaults::compile(&engine.config.faults, nranks, engine.cancel.clone());
        match (engine.config.profile, engine.config.trace) {
            (true, false) => run_pdes::<LiveProfile, _, false>(&engine, prepass, threads, &hook),
            (true, true) => run_pdes::<LiveProfile, _, true>(&engine, prepass, threads, &hook),
            (false, false) => run_pdes::<NoProfile, _, false>(&engine, prepass, threads, &hook),
            (false, true) => run_pdes::<NoProfile, _, true>(&engine, prepass, threads, &hook),
        }
    } else {
        match (engine.config.profile, engine.config.trace) {
            (true, false) => {
                run_pdes::<LiveProfile, _, false>(&engine, prepass, threads, &NoFaults)
            }
            (true, true) => run_pdes::<LiveProfile, _, true>(&engine, prepass, threads, &NoFaults),
            (false, false) => run_pdes::<NoProfile, _, false>(&engine, prepass, threads, &NoFaults),
            (false, true) => run_pdes::<NoProfile, _, true>(&engine, prepass, threads, &NoFaults),
        }
    }
}

fn run_pdes<P: MakeSink, F: FaultHook + Sync, const TRACE: bool>(
    engine: &Engine,
    prepass: &Prepass,
    threads: usize,
    faults: &F,
) -> Result<SimResult, SimError> {
    let nranks = engine.programs.len();
    let np = NetParams::of(&engine.net, nranks);
    let parts = partition_ranks(nranks, threads, &np.node_of);
    let nparts = parts.len();
    let mut part_of = vec![0u32; nranks];
    for (i, rg) in parts.iter().enumerate() {
        for r in rg.clone() {
            part_of[r] = i as u32;
        }
    }
    let mut arena_start = Vec::with_capacity(nranks + 1);
    let mut acc = 0usize;
    arena_start.push(0);
    for r in 0..nranks {
        acc += prepass.p2p_ops[r];
        arena_start.push(acc);
    }
    let lookahead = engine.net.lookahead();
    let sh = Shared {
        np,
        net: &engine.net,
        programs: &engine.programs,
        parts,
        part_of,
        arena_start,
        arena_total: acc,
        lookahead,
        checkpoint: engine.checkpoint,
        inboxes: (0..nparts).map(|_| Inbox::default()).collect(),
        sent: AtomicU64::new(0),
        delivered: AtomicU64::new(0),
        idle: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        cancelled: AtomicBool::new(false),
        colls: Mutex::new(Vec::new()),
        crashes: Mutex::new(Vec::new()),
    };

    let outs: Vec<PartOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nparts)
            .map(|me| {
                let sh = &sh;
                scope.spawn(move || worker::<P, F, TRACE>(sh, faults, me))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pdes worker panicked"))
            .collect()
    });

    // Canonical error precedence (see the module docs): cancellation,
    // then the earliest crash, then the collective mismatch, then
    // deadlock — every payload independent of thread count.
    if sh.cancelled.load(Ordering::SeqCst) {
        return Err(SimError::Cancelled);
    }
    let mut crashes = sh.crashes.into_inner().unwrap_or_else(|e| e.into_inner());
    crashes.sort_by(|a, b| {
        a.at_s
            .partial_cmp(&b.at_s)
            .expect("finite crash times")
            .then(a.rank.cmp(&b.rank))
    });
    if let Some(c) = crashes.first() {
        return Err(SimError::RankFailed {
            rank: c.rank,
            op_index: c.pc,
            at_s: c.at_s,
        });
    }
    let colls = sh.colls.into_inner().unwrap_or_else(|e| e.into_inner());
    for (seq, e) in colls.iter().enumerate() {
        if let Some((rank, found)) = e.mismatch {
            return Err(SimError::CollectiveMismatch {
                seq,
                rank,
                expected: Engine::collective_name(e.kind),
                found: Engine::collective_name(found),
            });
        }
    }

    // Deterministic merge: scatter owner-written per-rank state, add
    // the commutative aggregates.
    let mut finish_times = vec![0.0f64; nranks];
    let mut done = vec![false; nranks];
    let mut pcs = vec![0usize; nranks];
    let mut timeline = Timeline::new(nranks);
    let mut breakdown = vec![[0.0f64; EventKind::COUNT]; nranks];
    let mut p2p_bytes = 0u64;
    let mut internode_bytes = 0u64;
    let mut profile = if P::ENABLED {
        Profile::new(nranks)
    } else {
        Profile::default()
    };
    for po in &outs {
        for (i, r) in (po.lo..po.hi).enumerate() {
            finish_times[r] = po.clocks[i];
            done[r] = po.done[i];
            pcs[r] = po.pcs[i];
            breakdown[r] = po.breakdown[r];
        }
        timeline.absorb(&po.timeline);
        if P::ENABLED {
            profile.absorb_partition(&po.profile, po.lo, po.hi);
        }
        p2p_bytes += po.p2p_bytes;
        internode_bytes += po.internode_bytes;
    }

    if done.iter().any(|&d| !d) {
        let blocked = (0..nranks)
            .filter(|&r| !done[r])
            .map(|r| {
                let pc = pcs[r].min(engine.programs[r].ops.len().saturating_sub(1));
                (r, pcs[r], engine.programs[r].ops[pc])
            })
            .collect();
        return Err(SimError::Deadlock(blocked));
    }

    let makespan = finish_times.iter().copied().fold(0.0, f64::max);
    Ok(SimResult {
        makespan,
        finish_times,
        timeline,
        p2p_bytes,
        internode_bytes,
        per_rank_breakdown: breakdown,
        profile,
        checkpoint: merge_checkpoints::<P>(&outs, nranks),
    })
}

/// Merge the partitions' checkpoint shares exactly like the results:
/// owner-written rows scatter, `u64` global views add. Every partition
/// holds a share once the run has passed the checkpoint; otherwise there
/// is none.
fn merge_checkpoints<P: ProfileSink>(outs: &[PartOut], nranks: usize) -> Option<Checkpoint> {
    let shares: Vec<&Checkpoint> = outs
        .iter()
        .map(|po| po.checkpoint.as_ref())
        .collect::<Option<_>>()?;
    let mut cp = Checkpoint {
        makespan: shares[0].makespan,
        p2p_bytes: 0,
        internode_bytes: 0,
        per_rank_breakdown: vec![[0.0f64; EventKind::COUNT]; nranks],
        profile: if P::ENABLED {
            Profile::new(nranks)
        } else {
            Profile::default()
        },
    };
    for (po, share) in outs.iter().zip(shares) {
        cp.per_rank_breakdown[po.lo..po.hi]
            .copy_from_slice(&share.per_rank_breakdown[po.lo..po.hi]);
        if P::ENABLED {
            cp.profile.absorb_partition(&share.profile, po.lo, po.hi);
        }
        cp.p2p_bytes += share.p2p_bytes;
        cp.internode_bytes += share.internode_bytes;
    }
    Some(cp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(parts: &[Range<usize>]) -> Vec<usize> {
        parts.iter().map(|r| r.len()).collect()
    }

    #[test]
    fn partitions_cover_contiguously() {
        let node_of: Vec<u32> = (0..100).map(|r| (r / 16) as u32).collect();
        for p in 1..=10 {
            let parts = partition_ranks(100, p, &node_of);
            assert_eq!(parts.len(), p);
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts.last().unwrap().end, 100);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            assert!(parts.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn cuts_snap_to_node_boundaries() {
        // 64 ranks, 16 per node: every even split at 4 parts lands
        // exactly on a node boundary, snapping must keep it there.
        let node_of: Vec<u32> = (0..64).map(|r| (r / 16) as u32).collect();
        let parts = partition_ranks(64, 4, &node_of);
        assert_eq!(sizes(&parts), vec![16, 16, 16, 16]);
        // 60 ranks, 16 per node: the even split at 3 parts is 20/20/20,
        // but node boundaries at 16/32/48 are within half a partition
        // width — cuts snap to them.
        let node_of: Vec<u32> = (0..60).map(|r| (r / 16) as u32).collect();
        let parts = partition_ranks(60, 3, &node_of);
        assert_eq!(sizes(&parts), vec![16, 16, 28]);
    }

    #[test]
    fn single_node_gets_even_split() {
        let node_of = vec![0u32; 31];
        let parts = partition_ranks(31, 4, &node_of);
        assert_eq!(sizes(&parts), vec![7, 8, 8, 8]);
    }

    #[test]
    fn more_parts_than_ranks_clamps() {
        let node_of = vec![0u32; 3];
        let parts = partition_ranks(3, 8, &node_of);
        assert_eq!(sizes(&parts), vec![1, 1, 1]);
    }

    #[test]
    fn nearest_boundary_picks_closest() {
        assert_eq!(nearest_boundary(&[], 5), None);
        assert_eq!(nearest_boundary(&[16, 32], 20), Some(16));
        assert_eq!(nearest_boundary(&[16, 32], 30), Some(32));
        assert_eq!(nearest_boundary(&[16, 32], 24), Some(16)); // tie → smaller
        assert_eq!(nearest_boundary(&[16], 3), Some(16));
        assert_eq!(nearest_boundary(&[16], 40), Some(16));
    }
}
