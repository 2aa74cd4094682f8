//! Property-style tests of the discrete-event MPI engine: determinism,
//! causality, and semantic bounds over randomly generated (but
//! well-formed) communication patterns.
//!
//! Cases are drawn from the in-tree deterministic RNG
//! (`spechpc::kernels::common::rng::Rng`) with fixed seeds, so every
//! run explores the same parameter sample — failures are reproducible
//! by construction.

use spechpc::kernels::common::model::NodeModel;
use spechpc::kernels::common::rng::Rng;
use spechpc::machine::presets;
use spechpc::prelude::{all_benchmarks, WorkloadClass};
use spechpc::simmpi::engine::{Checkpoint, Engine, Prepass, SimConfig, SimResult};
use spechpc::simmpi::netmodel::NetModel;
use spechpc::simmpi::program::{Op, Program};
use spechpc::simmpi::trace::EventKind;

/// A well-formed random workload: every rank runs `steps` rounds of
/// compute + a ring sendrecv + optionally a collective, so matching is
/// guaranteed deadlock-free.
fn ring_programs(
    nranks: usize,
    steps: usize,
    compute_ms: &[u8],
    msg_bytes: usize,
    collective: bool,
) -> Vec<Program> {
    (0..nranks)
        .map(|r| {
            let mut p = Program::new();
            for s in 0..steps {
                let c = compute_ms[(r * steps + s) % compute_ms.len()] as f64 * 1e-4;
                p.push(Op::compute(c));
                if nranks > 1 {
                    p.push(Op::sendrecv(
                        (r + 1) % nranks,
                        msg_bytes,
                        (r + nranks - 1) % nranks,
                        s as u32,
                    ));
                }
                if collective {
                    p.push(Op::allreduce(64));
                }
            }
            p
        })
        .collect()
}

fn run(progs: Vec<Program>) -> spechpc::simmpi::engine::SimResult {
    let cluster = presets::cluster_a();
    let net = NetModel::compact(&cluster, progs.len());
    Engine::new(SimConfig::default().with_trace(true), net, progs)
        .run()
        .expect("well-formed pattern must not deadlock")
}

/// Draw `len` compute durations in `[lo, hi)` milliseconds-ish units.
fn draw_compute(rng: &mut Rng, lo: u8, hi: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| rng.range(lo as f64, hi as f64) as u8)
        .collect()
}

/// The engine is deterministic: identical inputs give identical
/// finish times.
#[test]
fn determinism() {
    let mut rng = Rng::seed_from_u64(0xE1);
    for _ in 0..48 {
        let nranks = rng.range(1.0, 24.0) as usize;
        let steps = rng.range(1.0, 6.0) as usize;
        let len = 4 + rng.range(0.0, 12.0) as usize;
        let compute = draw_compute(&mut rng, 0, 100, len);
        let bytes = rng.range(1.0, 262_144.0) as usize;
        let coll = rng.next_f64() < 0.5;
        let a = run(ring_programs(nranks, steps, &compute, bytes, coll));
        let b = run(ring_programs(nranks, steps, &compute, bytes, coll));
        assert_eq!(a.finish_times, b.finish_times);
        assert_eq!(a.p2p_bytes, b.p2p_bytes);
    }
}

/// Causality: the makespan is at least the largest per-rank compute
/// total, and finish times stay within [0, makespan].
#[test]
fn makespan_bounds() {
    let mut rng = Rng::seed_from_u64(0xE2);
    for _ in 0..48 {
        let nranks = rng.range(1.0, 24.0) as usize;
        let steps = rng.range(1.0, 6.0) as usize;
        let len = 4 + rng.range(0.0, 12.0) as usize;
        let compute = draw_compute(&mut rng, 0, 100, len);
        let bytes = rng.range(1.0, 65_536.0) as usize;
        let progs = ring_programs(nranks, steps, &compute, bytes, true);
        let max_compute = progs
            .iter()
            .map(|p| p.compute_seconds())
            .fold(0.0, f64::max);
        let r = run(progs);
        assert!(
            r.makespan >= max_compute - 1e-12,
            "makespan {} below compute bound {}",
            r.makespan,
            max_compute
        );
        for t in &r.finish_times {
            assert!(*t >= 0.0 && *t <= r.makespan + 1e-12);
        }
    }
}

/// Per-rank timeline events never overlap and never run backwards.
#[test]
fn timeline_is_well_ordered() {
    let mut rng = Rng::seed_from_u64(0xE3);
    for _ in 0..40 {
        let nranks = rng.range(2.0, 12.0) as usize;
        let steps = rng.range(1.0, 5.0) as usize;
        let len = 4 + rng.range(0.0, 4.0) as usize;
        let compute = draw_compute(&mut rng, 1, 50, len);
        let r = run(ring_programs(nranks, steps, &compute, 4096, true));
        for rank in 0..nranks {
            let events = r.timeline.rank_events(rank);
            for w in events.windows(2) {
                assert!(
                    w[0].end <= w[1].start + 1e-12,
                    "rank {rank}: overlapping events {:?} {:?}",
                    w[0],
                    w[1]
                );
            }
            for e in &events {
                assert!(e.end >= e.start);
            }
        }
    }
}

/// Byte accounting: p2p payload equals exactly what the programs
/// declare, and internode bytes never exceed the total.
#[test]
fn byte_accounting() {
    let mut rng = Rng::seed_from_u64(0xE4);
    for _ in 0..48 {
        let nranks = rng.range(2.0, 100.0) as usize;
        let bytes = rng.range(1.0, 1_000_000.0) as usize;
        let progs = ring_programs(nranks, 1, &[10], bytes, false);
        let declared: usize = progs.iter().map(|p| p.bytes_sent()).sum();
        let r = run(progs);
        assert_eq!(r.p2p_bytes, declared as u64);
        assert!(r.internode_bytes <= r.p2p_bytes);
    }
}

/// Adding a barrier at the end synchronizes every rank to a common
/// finish time that is no earlier than anyone's previous finish.
#[test]
fn barrier_synchronizes() {
    let mut rng = Rng::seed_from_u64(0xE5);
    for _ in 0..40 {
        let nranks = rng.range(2.0, 16.0) as usize;
        let len = 2 + rng.range(0.0, 6.0) as usize;
        let compute = draw_compute(&mut rng, 0, 200, len);
        let mut progs = ring_programs(nranks, 1, &compute, 1024, false);
        let before = run(progs.clone());
        for p in &mut progs {
            p.push(Op::Barrier);
        }
        let after = run(progs);
        let t0 = after.finish_times[0];
        for (i, t) in after.finish_times.iter().enumerate() {
            assert!(
                (t - t0).abs() < 1e-12,
                "rank {i} left the barrier at {t} != {t0}"
            );
            assert!(*t >= before.finish_times[i] - 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// Scheduler equivalence: golden vectors pinned from the polling engine
// ---------------------------------------------------------------------
//
// The fingerprints below were captured from the pre-ready-queue
// (polling-sweep) engine. Any scheduler or data-structure change must
// reproduce them bit for bit: `SimResult` is defined to be independent
// of the order in which runnable ranks are visited.

/// FNV-1a accumulation over raw bytes.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Bit-exact digest of everything `SimResult` promises to keep stable:
/// finish times, the online per-rank breakdown, byte counters, and the
/// full observability profile. Timeline events are digested per rank
/// (their global interleaving is scheduler-visiting-order and is *not*
/// part of the contract).
fn fingerprint(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for t in &r.finish_times {
        fnv(&mut h, &t.to_bits().to_le_bytes());
    }
    for row in &r.per_rank_breakdown {
        for v in row {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
    }
    fnv(&mut h, &r.p2p_bytes.to_le_bytes());
    fnv(&mut h, &r.internode_bytes.to_le_bytes());
    let p = &r.profile;
    fnv(&mut h, &(p.nranks as u64).to_le_bytes());
    for ph in &p.per_rank {
        for v in [
            ph.compute_s,
            ph.eager_send_s,
            ph.rendezvous_stall_s,
            ph.recv_wait_s,
            ph.collective_wait_s,
        ] {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
    }
    for hist in [&p.eager_hist, &p.rendezvous_hist] {
        for b in hist.iter() {
            fnv(&mut h, &b.count.to_le_bytes());
            fnv(&mut h, &b.bytes.to_le_bytes());
        }
    }
    for v in &p.comm_matrix {
        fnv(&mut h, &v.to_le_bytes());
    }
    for rank in 0..r.timeline.nranks {
        for e in r.timeline.rank_events(rank) {
            fnv(&mut h, &(e.rank as u64).to_le_bytes());
            fnv(&mut h, &e.start.to_bits().to_le_bytes());
            fnv(&mut h, &e.end.to_bits().to_le_bytes());
            fnv(&mut h, &[e.kind.glyph() as u8]);
        }
    }
    h
}

/// Randomized but deadlock-free workload mixing every scheduling shape
/// the engine supports: eager and rendezvous point-to-point, blocking
/// sendrecv rings, non-blocking exchanges with reordered waits, and all
/// six collectives, with per-rank compute skew in between.
fn mixed_programs(rng: &mut Rng, nranks: usize, steps: usize) -> Vec<Program> {
    let mut progs: Vec<Program> = (0..nranks).map(|_| Program::new()).collect();
    for step in 0..steps {
        let tag = step as u32;
        for (r, p) in progs.iter_mut().enumerate() {
            let skew = rng.range(0.0, 2.0) * 1e-4 * ((r % 7) + 1) as f64;
            p.push(Op::compute(skew));
        }
        let next = |r: usize| (r + 1) % nranks;
        let prev = |r: usize| (r + nranks - 1) % nranks;
        match rng.range(0.0, 5.0) as usize {
            0 if nranks > 1 => {
                // Blocking sendrecv ring, eager or rendezvous payloads.
                let bytes = rng.range(1.0, 300_000.0) as usize;
                for (r, p) in progs.iter_mut().enumerate() {
                    p.push(Op::sendrecv(next(r), bytes, prev(r), tag));
                }
            }
            1 if nranks > 1 => {
                // Eager-only ring of blocking sends: safe because the
                // payload stays below the protocol threshold, so sends
                // complete locally before the matching receive posts.
                let bytes = rng.range(0.0, 16_384.0) as usize;
                for (r, p) in progs.iter_mut().enumerate() {
                    p.push(Op::send(next(r), tag, bytes));
                }
                for (r, p) in progs.iter_mut().enumerate() {
                    p.push(Op::recv(prev(r), tag));
                }
            }
            2 if nranks > 1 => {
                // Non-blocking exchange; half the time the waits are
                // issued in the reverse order of the posts.
                let bytes = rng.range(1.0, 500_000.0) as usize;
                let reorder = rng.next_f64() < 0.5;
                for (r, p) in progs.iter_mut().enumerate() {
                    p.push(Op::irecv(prev(r), tag, 0));
                    p.push(Op::isend(next(r), tag, bytes, 1));
                    p.push(Op::compute(1e-4));
                    let (first, second) = if reorder { (1, 0) } else { (0, 1) };
                    p.push(Op::wait(first));
                    p.push(Op::wait(second));
                }
            }
            3 => {
                let bytes = rng.range(1.0, 100_000.0) as usize;
                let root = rng.range(0.0, nranks as f64) as usize % nranks;
                let op = match rng.range(0.0, 6.0) as usize {
                    0 => Op::allreduce(bytes),
                    1 => Op::Barrier,
                    2 => Op::bcast(root, bytes),
                    3 => Op::reduce(root, bytes),
                    4 => Op::allgather(bytes.min(4096)),
                    _ => Op::alltoall(bytes.min(2048)),
                };
                for p in &mut progs {
                    p.push(op);
                }
            }
            _ => {} // compute-only step
        }
    }
    progs
}

/// Run one golden case: `trace` exercises the timeline path, `profile`
/// off exercises the no-op recorder path.
fn golden_case(seed: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let nranks = 2 + rng.range(0.0, 30.0) as usize;
    let steps = 1 + rng.range(0.0, 7.0) as usize;
    let trace = rng.next_f64() < 0.3;
    let profile = rng.next_f64() < 0.8;
    let progs = mixed_programs(&mut rng, nranks, steps);
    let cluster = presets::cluster_a();
    let net = NetModel::compact(&cluster, nranks);
    let r = Engine::new(
        SimConfig::default().with_trace(trace).with_profile(profile),
        net,
        progs,
    )
    .run()
    .expect("well-formed golden case must not deadlock");
    fingerprint(&r)
}

/// Pinned from the pre-rewrite polling engine (see module note above).
const GOLDEN: [u64; 24] = [
    0xf8e02a51d3285e96,
    0x559334651cc55837,
    0x7495f6a1630b87cc,
    0xed1ec5837bb154dd,
    0x12c59472c6e04af5,
    0xb44f49ade1b87109,
    0x33e8028dad38434d,
    0xe53ae00f0a76c644,
    0xd766250d1eefe3f7,
    0xde02b3f345b4429b,
    0x542225f392ce9fd3,
    0x8e8644a9152f56a3,
    0x18a411296cf15c63,
    0x74a2413a439edf0e,
    0x16f6c6769f1d97cf,
    0x2e0a063f010ac896,
    0xf70efac7f0e27013,
    0x57786eb26675187e,
    0x6e7be5479ebc7e98,
    0x409f4fc51b671387,
    0x1c5f04ce967e1ea3,
    0x2e8d1ced7e25bc79,
    0xb658fce9a578dc43,
    0xe6076a4057ad3bf9,
];

#[test]
fn scheduler_matches_golden_vectors() {
    let got: Vec<u64> = (0..GOLDEN.len())
        .map(|i| golden_case(0xD00D + i as u64))
        .collect();
    let want: Vec<u64> = GOLDEN.to_vec();
    if got != want {
        let rendered: Vec<String> = got.iter().map(|v| format!("0x{v:016x}")).collect();
        panic!(
            "scheduler diverged from the pinned polling-engine results.\n\
             computed fingerprints: [{}]",
            rendered.join(", ")
        );
    }
}

/// One larger case than the pinned set: the scheduler must stay
/// deterministic under a 128-rank mixed workload (the golden vectors
/// already pin the small/medium shapes bit-exactly).
#[test]
fn mixed_workload_large_case_deterministic() {
    let run_once = || {
        let mut rng = Rng::seed_from_u64(0xBEEF);
        let progs = mixed_programs(&mut rng, 128, 4);
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, 128);
        Engine::new(SimConfig::default(), net, progs)
            .run()
            .expect("no deadlock")
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert!(a.makespan > 0.0);
}

/// Growing a message can never make the run finish earlier.
#[test]
fn monotone_in_message_size() {
    let mut rng = Rng::seed_from_u64(0xE6);
    for _ in 0..48 {
        let nranks = rng.range(2.0, 16.0) as usize;
        let small = rng.range(1.0, 10_000.0) as usize;
        let extra = rng.range(1.0, 500_000.0) as usize;
        let a = run(ring_programs(nranks, 2, &[5, 9], small, false));
        let b = run(ring_programs(nranks, 2, &[5, 9], small + extra, false));
        assert!(
            b.makespan >= a.makespan - 1e-12,
            "bigger messages finished earlier: {} vs {}",
            a.makespan,
            b.makespan
        );
    }
}

// ---------------------------------------------------------------------
// Checkpoints: one run carries the warm-up-only result
// ---------------------------------------------------------------------
//
// `Engine::with_checkpoint` at the barrier closing a prefix must return,
// bit for bit, what a separate run of `prefix ++ [Barrier]` returns.

/// `(prefix ++ [Barrier], prefix ++ [Barrier] ++ suffix, barrier's
/// collective number)`.
fn split_at_barrier(prefix: &[Program], suffix: &[Program]) -> (Vec<Program>, Vec<Program>, usize) {
    let warm: Vec<Program> = prefix
        .iter()
        .map(|p| {
            let mut w = p.clone();
            w.push(Op::Barrier);
            w
        })
        .collect();
    let full = warm
        .iter()
        .zip(suffix)
        .map(|(w, s)| {
            let mut f = w.clone();
            f.ops.extend_from_slice(&s.ops);
            f
        })
        .collect();
    let seq = prefix[0].ops.iter().filter(|op| op.is_collective()).count();
    (warm, full, seq)
}

/// Bitwise equality of a checkpoint and a warm-up-only result:
/// makespan, breakdown rows, profile phases, histograms, matrix, bytes.
fn assert_checkpoint_is(cp: &Checkpoint, warm: &SimResult, what: &str) {
    assert_eq!(
        cp.makespan.to_bits(),
        warm.makespan.to_bits(),
        "{what}: makespan"
    );
    assert_eq!(cp.p2p_bytes, warm.p2p_bytes, "{what}: p2p bytes");
    assert_eq!(
        cp.internode_bytes, warm.internode_bytes,
        "{what}: internode bytes"
    );
    let bits = |rows: &[[f64; EventKind::COUNT]]| -> Vec<u64> {
        rows.iter().flatten().map(|v| v.to_bits()).collect()
    };
    assert_eq!(
        bits(&cp.per_rank_breakdown),
        bits(&warm.per_rank_breakdown),
        "{what}: per-rank breakdown"
    );
    let phases = |p: &spechpc::simmpi::profile::Profile| -> Vec<u64> {
        p.per_rank
            .iter()
            .flat_map(|ph| {
                [
                    ph.compute_s,
                    ph.eager_send_s,
                    ph.rendezvous_stall_s,
                    ph.recv_wait_s,
                    ph.collective_wait_s,
                    ph.fault_stall_s,
                ]
            })
            .map(f64::to_bits)
            .collect()
    };
    assert_eq!(
        phases(&cp.profile),
        phases(&warm.profile),
        "{what}: profile phases"
    );
    assert_eq!(
        cp.profile.nranks, warm.profile.nranks,
        "{what}: profile ranks"
    );
    assert_eq!(
        cp.profile.eager_hist, warm.profile.eager_hist,
        "{what}: eager histogram"
    );
    assert_eq!(
        cp.profile.rendezvous_hist, warm.profile.rendezvous_hist,
        "{what}: rendezvous histogram"
    );
    assert_eq!(
        cp.profile.comm_matrix, warm.profile.comm_matrix,
        "{what}: comm matrix"
    );
}

/// Run `warm` alone and `full` with a checkpoint at collective `seq`,
/// and check the checkpoint against the warm-only result.
fn check_split(warm: Vec<Program>, full: Vec<Program>, seq: usize, what: &str) {
    let cluster = presets::cluster_a();
    let nranks = warm.len();
    let w = Engine::new(
        SimConfig::default(),
        NetModel::compact(&cluster, nranks),
        warm,
    )
    .run()
    .expect("warm-only run");
    let f = Engine::new(
        SimConfig::default(),
        NetModel::compact(&cluster, nranks),
        full,
    )
    .with_checkpoint(seq)
    .run()
    .expect("full run");
    let cp = f
        .checkpoint
        .as_ref()
        .expect("the run passed its checkpoint");
    assert_checkpoint_is(cp, &w, what);
}

/// Random fault-free programs: a `mixed_programs` prefix and suffix,
/// some of them with an eager message per rank posted before the
/// barrier and received after it, and some with an empty prefix (no
/// warm-up steps).
#[test]
fn checkpoint_equals_a_warm_only_run() {
    let mut rng = Rng::seed_from_u64(0xC4EC);
    for case in 0..32 {
        let nranks = 1 + rng.range(0.0, 24.0) as usize;
        let warm_steps = if case % 4 == 0 {
            0
        } else {
            1 + rng.range(0.0, 4.0) as usize
        };
        let mut prefix = mixed_programs(&mut rng, nranks, warm_steps);
        let measured_steps = 1 + rng.range(0.0, 4.0) as usize;
        let mut suffix = mixed_programs(&mut rng, nranks, measured_steps);
        if case % 2 == 1 && nranks > 1 {
            // Eager send before the barrier, matching receive after it.
            for r in 0..nranks {
                prefix[r].push(Op::send((r + 1) % nranks, 900, 64));
                suffix[r]
                    .ops
                    .insert(0, Op::recv((r + nranks - 1) % nranks, 900));
            }
        }
        let (warm, full, seq) = split_at_barrier(&prefix, &suffix);
        check_split(warm, full, seq, &format!("case {case} ({nranks} ranks)"));
    }
}

/// The step programs of all nine benchmarks, `W` warm-up steps (0 and
/// 2) and the runner's `M = 3` measured steps, at small rank counts.
#[test]
fn checkpoint_equals_a_warm_only_run_for_every_benchmark() {
    let cluster = presets::cluster_a();
    for nranks in [4, 13] {
        for bench in all_benchmarks() {
            let sig = bench.signature(WorkloadClass::Tiny);
            let model = NodeModel::new(&cluster, nranks);
            let ct = model.compute_times(&sig, &bench.penalties(WorkloadClass::Tiny, nranks));
            let step = bench.step_programs(WorkloadClass::Tiny, &ct);
            let repeat = |n: usize| -> Vec<Program> {
                step.iter()
                    .map(|p| Program {
                        ops: p.ops.repeat(n),
                    })
                    .collect()
            };
            for warmup in [0, 2] {
                let (warm, full, seq) = split_at_barrier(&repeat(warmup), &repeat(3));
                let name = bench.meta().name;
                check_split(warm, full, seq, &format!("{name} n={nranks} W={warmup}"));
            }
        }
    }
}

/// The runner's shape end to end: a checkpointed run of a prepass
/// derived by `Prepass::scaled` keeps the result of the unsplit run,
/// and a run that never reaches the checkpoint reports none.
#[test]
fn checkpoint_leaves_the_result_alone() {
    let mut rng = Rng::seed_from_u64(0xC4ED);
    let prefix = mixed_programs(&mut rng, 9, 3);
    let suffix = mixed_programs(&mut rng, 9, 2);
    let (_, full, seq) = split_at_barrier(&prefix, &suffix);
    let cluster = presets::cluster_a();
    let net = || NetModel::compact(&cluster, 9);
    let prepass = Prepass::analyze(&full).expect("valid programs");
    let plain = Engine::new(SimConfig::default(), net(), full.clone())
        .run_prevalidated(&prepass)
        .unwrap();
    let split = Engine::new(SimConfig::default(), net(), full.clone())
        .with_checkpoint(seq)
        .run_prevalidated(&prepass)
        .unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&split));
    assert!(plain.checkpoint.is_none());
    assert!(split.checkpoint.is_some());
    let beyond = Engine::new(SimConfig::default(), net(), full)
        .with_checkpoint(usize::MAX - 1)
        .run()
        .unwrap();
    assert!(beyond.checkpoint.is_none());
}
