//! `figures-cold`: cold regeneration of every paper artifact.
//!
//! Untraced, the benchmark runs `spechpc figures all --jobs 1` in a
//! private, empty directory, digests its stdout, and stamps each stdout
//! line as it arrives: every figure is timed from outside the program,
//! and scaled to the reference host speed (see `hostspeed`).
//! Traced, it runs the same public drivers in process with spans around
//! each driver, then re-runs every simulated grid point through the
//! public parts of `SimRunner::run` one stage at a time and checks that
//! the decomposed result encodes byte-identically to the executor's.

use crate::hostspeed::{reference_ms, slowness, OneCpu, Probe, REFERENCE_MS};
use crate::procs::{run_stamping_lines, run_to_files};
use crate::stats::{median, percentile, sorted};
use crate::{Outcome, Run};
use spechpc::analysis::counters::CounterSample;
use spechpc::harness::cache::{encode_entry, RunCache, RunKey};
use spechpc::harness::experiments::{multi_node, node_level, power_energy, tables};
use spechpc::harness::HarnessError;
use spechpc::power::energy::energy_to_solution;
use spechpc::power::rapl::PowerState;
use spechpc::prelude::*;
use spechpc::simmpi::engine::{Engine, Prepass, SimConfig};
use spechpc::simmpi::netmodel::NetModel;
use spechpc::simmpi::program::{Op, Program};
use spechpc::simmpi::trace::Breakdown;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// FNV-1a 64 of the `figures all` stdout at the seed revision. Any
/// change to a paper artifact fails the gate.
const FIGURES_DIGEST: u64 = 0xe4ae_ade4_ae72_1b5c;

/// Grid points behind that output: 369 simulated into the cache, 180
/// memory-cache hits and fig2's 2 traced runs, which bypass the cache.
/// The digest pins the output, and with it this grid.
const GRID_POINTS: f64 = 551.0;

/// CLI start-ups timed as the workload's set-up, per round.
const SETUPS: usize = 5;

/// Cold regenerations per untraced run, at least. A 2-vCPU host with
/// busy neighbours stretches single ~14 s regenerations by up to 30 %;
/// the median of three rejects one stretched run outright.
const COLD_RUNS: usize = 3;

/// Reference-kernel samples taken before, and again after, the traced
/// drivers.
const KERNEL_SAMPLES: usize = 5;

/// FNV-1a 64 of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    if run.trace {
        traced(run)
    } else {
        untraced(run)
    }
}

fn untraced(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let limit = Duration::from_secs(150);

    // Set-up: a fresh private directory and a CLI start-up that prints
    // the static tables (no simulation). SETUPS of them before each cold
    // regeneration and after the last, so that their median samples the
    // host through the whole run, not one moment of it.
    let mut setups = Vec::new();
    let mut set_up = |out: &mut Outcome| -> Result<(), String> {
        for _ in 0..SETUPS {
            let dir = run.private_dir("setup").map_err(|e| e.to_string())?;
            let (exit, wall) = run_to_files(
                &run.bin,
                &["figures", "tables"],
                &dir,
                &dir.join("out"),
                &dir.join("err"),
                limit,
            )
            .map_err(|e| e.to_string())?;
            out.gate(exit.code == Some(0), "figures tables exited non-zero");
            setups.push(wall);
        }
        Ok(())
    };

    // Timed: cold regenerations, each in a fresh empty directory, until
    // the time budget is spent (at least COLD_RUNS); the median run. A
    // line's latency is its arrival since spawn: with one job the
    // sections print in order as their drivers finish. A probe samples
    // the host's speed on the CLI's core meanwhile, and each run is
    // scaled by the speed measured during it.
    let started = Instant::now();
    let [mut walls, mut ok_per_s, mut p50, mut p90, mut rss] = [(); 5].map(|_| Vec::new());
    let mut kernel_ms = Vec::new();
    while walls.len() < COLD_RUNS || started.elapsed().as_secs_f64() < run.seconds {
        set_up(&mut out)?;
        let dir = run.private_dir("cold").map_err(|e| e.to_string())?;
        let pinned = OneCpu::pin();
        let probe = Probe::start();
        let regenerated = run_stamping_lines(
            &run.bin,
            &["figures", "all", "--jobs", "1"],
            &dir,
            &dir.join("stderr"),
            limit,
        );
        let samples = probe.finish();
        drop(pinned);
        let (exit, wall, stdout, stamps) = regenerated.map_err(|e| e.to_string())?;
        let ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        let slow = slowness(&ms);
        kernel_ms.extend(&ms);
        // A line is scaled by the host's speed from spawn to its arrival.
        let slow_until = |t: f64| {
            let n = samples.iter().take_while(|s| s.at_s <= t).count();
            slowness(&ms[..n.max(1)])
        };
        let digest = fnv64(&stdout);
        let ok = exit.code == Some(0) && digest == FIGURES_DIGEST;
        out.attempted += GRID_POINTS as u64;
        if !ok {
            out.fail(
                GRID_POINTS as u64,
                format!(
                    "figures all: exit {:?}, digest {digest:016x} (want {FIGURES_DIGEST:016x})",
                    exit.code
                ),
            );
        }
        let lines_ms = sorted(
            &stamps
                .iter()
                .map(|&t| t * 1e3 / slow_until(t))
                .collect::<Vec<_>>(),
        );
        walls.push(wall / slow);
        ok_per_s.push(if ok { GRID_POINTS / wall * slow } else { 0.0 });
        p50.push(percentile(&lines_ms, 0.5).ok_or("too few stdout lines for p50")?);
        p90.push(percentile(&lines_ms, 0.9).ok_or("too few stdout lines for p90")?);
        rss.push(exit.maxrss_kb as f64 / 1024.0);
        eprintln!(
            "perfbench: figures all cold {wall:.3} s as measured, {:.3} s at reference speed \
             (kernel {:.3} ms over {} samples), peak RSS {:.1} MB",
            wall / slow,
            slow * REFERENCE_MS,
            ms.len(),
            exit.maxrss_kb as f64 / 1024.0
        );
    }
    set_up(&mut out)?;
    // The millisecond start-ups at the run's host speed.
    let kernel_ms = median(&kernel_ms);
    eprintln!(
        "perfbench: set-up {:.6} s as measured at reference kernel {kernel_ms:.3} ms",
        median(&setups)
    );
    out.set("setup_s", median(&setups) / slowness(&[kernel_ms]));
    out.set("wall_s", median(&walls));
    out.set("ok_per_s", median(&ok_per_s));
    out.set("p50_ms", median(&p50));
    out.set("p90_ms", median(&p90));
    out.set("rss_mb", median(&rss));
    out.set(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// Named wall-time spans, in seconds.
type Spans = Vec<(&'static str, f64)>;

/// Regenerate `figures all` in process through `exec`, exactly as the
/// CLI prints it. Returns the text and one span per driver call.
fn regenerate(exec: &Executor) -> Result<(String, Spans), HarnessError> {
    use std::fmt::Write;
    let a = presets::cluster_a();
    let b = presets::cluster_b();
    let mut s = String::new();
    let mut spans = Vec::new();
    let mut span = |name: &'static str, t: Instant| spans.push((name, t.elapsed().as_secs_f64()));

    let t = Instant::now();
    let _ = writeln!(s, "{}", tables::table1().render());
    let _ = writeln!(s, "{}", tables::table2().render());
    let _ = writeln!(s, "{}", tables::table3(&[&a, &b]).render());
    span("tables", t);

    let t = Instant::now();
    let f1a = node_level::fig1_with(exec, &a, 8)?;
    let f1b = node_level::fig1_with(exec, &b, 8)?;
    let _ = writeln!(s, "== §4.1.1 parallel efficiency [%] ==");
    for ((n, x), (_, y)) in node_level::efficiency_table(&f1a, &a)
        .iter()
        .zip(&node_level::efficiency_table(&f1b, &b))
    {
        let _ = writeln!(s, "{n:<12} A {x:>5.0}  B {y:>5.0}");
    }
    let _ = writeln!(s, "== §4.1.2 acceleration B/A ==");
    for (n, x) in node_level::acceleration_table(&f1a, &f1b) {
        let _ = writeln!(s, "{n:<12} {x:>5.2}");
    }
    let _ = writeln!(s, "== §4.1.3 vectorization [%] ==");
    for (n, x) in node_level::vectorization_table(&f1a) {
        let _ = writeln!(s, "{n:<12} {x:>5.1}");
    }
    span("fig1", t);

    let t = Instant::now();
    let f2 = node_level::fig2_with(exec, &a, 24)?;
    let _ = writeln!(
        s,
        "Fig. 2 insets: minisweep@59 Recv {:.0} %, lbm@{} wait+barrier {:.0} %",
        f2.minisweep_59.recv_fraction * 100.0,
        f2.lbm_odd.nranks,
        (f2.lbm_odd.wait_fraction + f2.lbm_odd.barrier_fraction) * 100.0
    );
    span("fig2", t);

    let t = Instant::now();
    let f1a = node_level::fig1_with(exec, &a, 8)?;
    let f3 = power_energy::fig3(&f1a, &a);
    let _ = writeln!(
        s,
        "Fig. 3 ({}): extrapolated baseline {:.0} W/socket",
        a.name, f3.extrapolated_baseline_w
    );
    for (name, w, frac) in power_energy::hot_cool_table(&f1a, &a) {
        let _ = writeln!(
            s,
            "  {name:<12} {w:>5.0} W/socket ({:.0} % TDP)",
            frac * 100.0
        );
    }
    let f4 = power_energy::fig4(&f1a);
    for z in &f4.zplots {
        let _ = writeln!(
            s,
            "  {:<24} E/EDP minima separation: {} step(s)",
            z.label,
            z.min_separation_steps().unwrap_or(0)
        );
    }
    span("fig3_fig4", t);

    let t = Instant::now();
    for cl in [&a, &b] {
        let f5 = multi_node::fig5_with(exec, cl, &[1, 2, 4, 8])?;
        let _ = writeln!(s, "{}", f5.render());
        let _ = writeln!(s, "scaling cases ({}):", cl.name);
        for (n, c) in multi_node::scaling_cases(&f5) {
            let _ = writeln!(s, "  {n:<12} {c}");
        }
    }
    span("fig5_fig6", t);
    Ok((s, spans))
}

/// Seconds per `SimRunner::run` stage, summed over decomposed points.
#[derive(Default)]
struct Stages {
    signature: f64,
    model: f64,
    step_programs: f64,
    glue: f64,
    prepass: f64,
    engine: f64,
    rapl: f64,
    /// `encode_entry`, timed on its own.
    encode: f64,
    /// `RunCache::put` (encode + crash-safe write) as a whole.
    put: f64,
    ops: u64,
    p2p_bytes: u64,
    entry_bytes: u64,
}

impl Stages {
    /// The stages the executor's own `run_one` pays for (the separate
    /// `encode_entry` repeats work `put` does inside).
    fn executor_path(&self) -> f64 {
        self.signature
            + self.model
            + self.step_programs
            + self.glue
            + self.prepass
            + self.engine
            + self.rapl
            + self.put
    }
}

/// Deterministic per-(run, repetition) jitter: the runner's private
/// noise model, restated so the decomposition can finish the result.
fn jitter(benchmark: &str, nranks: usize, rep: usize) -> f64 {
    let mut bytes = benchmark.as_bytes().to_vec();
    bytes.extend(nranks.to_le_bytes());
    bytes.extend(rep.to_le_bytes());
    1.0 + ((fnv64(&bytes) % 2001) as f64 / 1000.0 - 1.0) * 0.01
}

/// Per-kind `full − warm` breakdown (the runner's private helper).
fn subtract_breakdown(full: &Breakdown, warm: &Breakdown) -> Breakdown {
    let mut b = Breakdown::default();
    for (kind, secs) in &full.seconds {
        let w = warm.seconds.get(kind).copied().unwrap_or(0.0);
        let d = (secs - w).max(0.0);
        if d > 0.0 {
            b.seconds.insert(*kind, d);
            b.total += d;
        }
    }
    b
}

fn lap(acc: &mut f64, t: &mut Instant) {
    let now = Instant::now();
    *acc += (now - *t).as_secs_f64();
    *t = now;
}

/// `SimRunner::run` (untraced, fault-free, sequential) of the point
/// `key` names, one public stage at a time, then `encode_entry` and
/// `RunCache::put` into `store`. Returns the encoded entry.
fn decompose(
    key: &RunKey,
    cfg: &RunConfig,
    store: &RunCache,
    st: &mut Stages,
) -> Result<String, String> {
    let cluster = &[presets::cluster_a(), presets::cluster_b()]
        .into_iter()
        .find(|c| c.name == key.cluster)
        .ok_or_else(|| format!("unknown cluster {}", key.cluster))?;
    let bench = benchmark_by_name(&key.benchmark)
        .ok_or_else(|| format!("unknown benchmark {}", key.benchmark))?;
    let class = spechpc::harness::api::parse_class(&key.class).map_err(|e| e.to_string())?;
    let nranks = key.nranks;

    let mut t = Instant::now();
    let sig = bench.signature(class);
    lap(&mut st.signature, &mut t);

    let model = NodeModel::new(cluster, nranks);
    let penalties = bench.penalties(class, nranks);
    let ct = model.compute_times(&sig, &penalties);
    lap(&mut st.model, &mut t);

    let step_progs = bench.step_programs(class, &ct);
    lap(&mut st.step_programs, &mut t);

    let warm: Vec<Program> = step_progs
        .iter()
        .map(|p| {
            let mut prog = Program::new();
            for _ in 0..cfg.warmup_steps {
                prog.ops.extend_from_slice(&p.ops);
            }
            prog.push(Op::Barrier);
            prog
        })
        .collect();
    let full: Vec<Program> = warm
        .iter()
        .zip(&step_progs)
        .map(|(w, p)| {
            let mut prog = w.clone();
            for _ in 0..cfg.measured_steps {
                prog.ops.extend_from_slice(&p.ops);
            }
            prog
        })
        .collect();
    lap(&mut st.glue, &mut t);

    let step_prepass = Prepass::analyze(&step_progs).map_err(|e| e.to_string())?;
    let warm_prepass = step_prepass.scaled(cfg.warmup_steps);
    let full_prepass = step_prepass.scaled(cfg.warmup_steps + cfg.measured_steps);
    lap(&mut st.prepass, &mut t);

    st.ops += warm
        .iter()
        .chain(&full)
        .map(|p| p.ops.len() as u64)
        .sum::<u64>();
    let t_engine = Instant::now();
    let warm_result = Engine::new(
        SimConfig::default(),
        NetModel::compact(cluster, nranks),
        warm,
    )
    .run_prevalidated(&warm_prepass)
    .map_err(|e| e.to_string())?;
    let full_result = Engine::new(
        SimConfig::default(),
        NetModel::compact(cluster, nranks),
        full,
    )
    .run_prevalidated(&full_prepass)
    .map_err(|e| e.to_string())?;
    st.engine += t_engine.elapsed().as_secs_f64();
    st.p2p_bytes += warm_result.p2p_bytes + full_result.p2p_bytes;
    t = Instant::now();

    let measured = (full_result.makespan - warm_result.makespan).max(1e-12);
    let base_step = measured / cfg.measured_steps as f64;
    let name = bench.meta().name;
    let steps: Vec<f64> = (0..cfg.repetitions.max(1))
        .map(|rep| base_step * jitter(name, nranks, rep))
        .collect();
    let step_mean = steps.iter().sum::<f64>() / steps.len() as f64;
    let step_min = steps.iter().copied().fold(f64::INFINITY, f64::min);
    let step_max = steps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let runtime = step_mean * sig.steps as f64;
    let counters = CounterSample {
        runtime_s: runtime,
        dp_flops: sig.flops * sig.steps as f64,
        dp_avx_flops: sig.flops * sig.simd_fraction * sig.steps as f64,
        mem_bytes: ct.effective_mem_bytes * sig.steps as f64,
        l3_bytes: ct.effective_l3_bytes * sig.steps as f64,
        l2_bytes: ct.effective_l2_bytes * sig.steps as f64,
    };
    let breakdown = subtract_breakdown(&full_result.breakdown(), &warm_result.breakdown());
    let profile = full_result.profile.saturating_sub(&warm_result.profile);
    let pinning = model.pinning().clone();
    let util: Vec<f64> = (0..nranks)
        .map(|r| {
            let t_comp = ct.per_rank[r].min(step_mean);
            let t_mpi = (step_mean - t_comp).max(0.0);
            let u = (t_comp * ct.utilization[r] + t_mpi * 0.7) / step_mean.max(1e-30);
            u.clamp(0.0, 1.0)
        })
        .collect();
    let dram = model.dram_utilization(&ct, step_mean);
    lap(&mut st.glue, &mut t);

    let rapl = RaplModel::new(cluster);
    let power = rapl.job_power(
        &pinning,
        &PowerState {
            heat: sig.heat,
            utilization: util,
            dram_utilization: dram,
        },
    );
    let energy = energy_to_solution(power, runtime);
    lap(&mut st.rapl, &mut t);

    let result = RunResult {
        benchmark: name.to_string(),
        cluster: cluster.name.clone(),
        class: class.to_string(),
        nranks,
        nodes_used: pinning.nodes_used(),
        step_seconds: step_mean,
        step_seconds_min: step_min,
        step_seconds_max: step_max,
        runtime_s: runtime,
        counters,
        breakdown,
        power,
        energy,
        timeline: full_result.timeline,
        profile,
    };
    lap(&mut st.glue, &mut t);

    let entry = encode_entry(&key.canonical(), &result);
    lap(&mut st.encode, &mut t);
    st.entry_bytes += entry.len() as u64;

    store.put(key, &result);
    lap(&mut st.put, &mut t);
    Ok(entry)
}

/// What the per-miss hook accumulates while the drivers run.
#[derive(Default)]
struct Decomposed {
    stages: Stages,
    /// Wall time spent inside the hook, spans included.
    wall_s: f64,
    /// Each decomposed point's key and encoded entry.
    entries: Vec<(RunKey, String)>,
    errors: Vec<String>,
    /// Misses seen so far; every second one is deferred.
    misses: usize,
    /// A miss whose decomposition waits until the executor has run it.
    deferred: Option<RunKey>,
}

impl Decomposed {
    fn decompose(&mut self, key: &RunKey, cfg: &RunConfig, store: &RunCache) {
        match decompose(key, cfg, store, &mut self.stages) {
            Ok(entry) => self.entries.push((key.clone(), entry)),
            Err(e) => self.errors.push(format!("{}: {e}", key.canonical())),
        }
    }
}

fn traced(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = run.private_dir("traced").map_err(|e| e.to_string())?;
    let cfg = RunConfig::default().with_repetitions(3).with_trace(false);

    // The executor calls its peer-fetch hook on every cache miss, just
    // before it simulates the point itself. The hook re-runs points one
    // SimRunner stage at a time and declines (returns None), so the
    // decomposed and the executor's own run of each point are adjacent
    // in time and share the host's conditions. Whichever of the two runs
    // first pays the first touch of the point's memory, so the order
    // alternates: every second miss is decomposed at the next miss,
    // after the executor has run it.
    let state = Arc::new(Mutex::new(Decomposed::default()));
    // One store for every point, retaining results as the executor's
    // cache does, so both paths pay the same heap growth.
    let store = Arc::new(RunCache::on_disk(dir.join("decomposed")));
    let hook = {
        let state = Arc::clone(&state);
        let store = Arc::clone(&store);
        let cfg = cfg.clone();
        move |key: &RunKey| -> Option<RunResult> {
            let t = Instant::now();
            let mut s = state
                .lock()
                .expect("the hook never panics holding the lock");
            if let Some(earlier) = s.deferred.take() {
                s.decompose(&earlier, &cfg, &store);
            }
            s.misses += 1;
            if s.misses % 2 == 0 {
                s.deferred = Some(key.clone());
            } else {
                s.decompose(key, &cfg, &store);
            }
            s.wall_s += t.elapsed().as_secs_f64();
            None
        }
    };
    let exec = Executor::new(
        cfg.clone(),
        ExecConfig::default()
            .with_jobs(1)
            .with_cache_dir(dir.join("results/cache")),
    )
    .with_peer_fetch(Arc::new(hook));

    // The public drivers, a span around each driver call. The host's
    // speed is sampled just before and after, not meanwhile: a probe
    // beside the drivers stretched the stage timings (layer sum / wall
    // 1.07 instead of 0.98).
    let mut kernel_ms: Vec<f64> = (0..KERNEL_SAMPLES).map(|_| reference_ms()).collect();
    let t = Instant::now();
    let regenerated = regenerate(&exec);
    let total = t.elapsed().as_secs_f64();
    kernel_ms.extend((0..KERNEL_SAMPLES).map(|_| reference_ms()));
    out.set("host.reference_ms", median(&kernel_ms));
    let (text, spans) = regenerated.map_err(|e| e.to_string())?;
    for (name, secs) in &spans {
        eprintln!(
            "perfbench: span harness.experiments.{name} {:.1} ms",
            secs * 1e3
        );
    }
    let digest = fnv64(text.as_bytes());
    out.gate(
        digest == FIGURES_DIGEST,
        format!("in-process figures text digest {digest:016x}, want {FIGURES_DIGEST:016x}"),
    );

    let m = exec.metrics();
    let mut d = std::mem::take(&mut *state.lock().expect("the drivers are done"));
    // The last deferred miss, decomposed after the timed drivers.
    if let Some(last) = d.deferred.take() {
        d.decompose(&last, &cfg, &store);
    }
    for e in &d.errors {
        out.gate(false, format!("decomposing {e}"));
    }
    // Decomposed results must encode byte-identically to the executor's
    // SimRunner::run results for the same keys.
    let cache = exec.cache().ok_or("the traced executor runs cached")?;
    for (key, entry) in &d.entries {
        let same = cache
            .get(key)
            .is_some_and(|r| encode_entry(&key.canonical(), &r) == *entry);
        out.gate(
            same,
            format!("decomposed {} differs from SimRunner::run", key.canonical()),
        );
    }
    out.gate(!d.entries.is_empty(), "no grid point was decomposed");

    // Take the hook's time out of both the drivers' wall and the
    // executor's per-point walls: what remains is the untraced run.
    let st = &d.stages;
    let wall = total - d.wall_s;
    let executor_s = m.point_wall_s.iter().map(|p| p.1).sum::<f64>() - d.wall_s;
    let experiments_self = wall - executor_s;
    let layer_sum = st.executor_path() + experiments_self;
    let ms = 1e3;
    out.set("kernels.signature_ms", st.signature * ms);
    out.set("kernels.model_ms", st.model * ms);
    out.set("kernels.step_programs_ms", st.step_programs * ms);
    out.set("harness.runner.glue_ms", st.glue * ms);
    out.set("power.rapl_ms", st.rapl * ms);
    out.set("simmpi.prepass_ms", st.prepass * ms);
    out.set("simmpi.engine_ms", st.engine * ms);
    out.set("simmpi.ops", st.ops as f64);
    out.set("simmpi.p2p_bytes", st.p2p_bytes as f64);
    out.set("simmpi.ops_per_s", st.ops as f64 / st.engine);
    out.set("harness.cache.encode_ms", st.encode * ms);
    // put's own self time: its crash-safe write, without the encode it
    // also performs (reported above).
    out.set("harness.cache.put_ms", (st.put - st.encode).max(0.0) * ms);
    out.set("harness.cache.entry_bytes", st.entry_bytes as f64);
    out.set("harness.exec.points", m.point_wall_s.len() as f64);
    out.set("harness.exec.runs_executed", m.runs_executed as f64);
    out.set("harness.exec.hits_mem", m.cache.hits_mem as f64);
    out.set("harness.experiments.self_ms", experiments_self * ms);
    out.set("harness.experiments.traced_wall_ms", wall * ms);
    out.set("trace.layer_sum_ratio", layer_sum / wall);
    out.set("trace.overhead_ratio", st.executor_path() / executor_s);
    eprintln!(
        "perfbench: drivers {wall:.3} s, executor {executor_s:.3} s, decomposed {:.3} s ({} points), layer sum / wall {:.4}",
        st.executor_path(),
        d.entries.len(),
        layer_sum / wall
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decomposed pipeline must reproduce `SimRunner::run` exactly,
    /// or the traced split would describe a different computation.
    #[test]
    fn decomposed_pipeline_equals_simrunner_run() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../.perfbench-work/test-decompose-{}",
            std::process::id()
        ));
        let cfg = RunConfig::default().with_repetitions(3).with_trace(false);
        let points = [
            ("lbm", WorkloadClass::Tiny, 9, presets::cluster_a()),
            ("minisweep", WorkloadClass::Tiny, 25, presets::cluster_b()),
            ("soma", WorkloadClass::Small, 72, presets::cluster_a()),
            ("tealeaf", WorkloadClass::Tiny, 104, presets::cluster_b()),
        ];
        let mut st = Stages::default();
        let store = RunCache::on_disk(&dir);
        for (name, class, n, cluster) in points {
            let bench = benchmark_by_name(name).unwrap();
            let key = RunKey::new(&cluster.name, name, &class.to_string(), n, &cfg);
            let entry = decompose(&key, &cfg, &store, &mut st).unwrap();
            let reference = SimRunner::new(cfg.clone())
                .run(&cluster, &*bench, class, n)
                .unwrap();
            assert_eq!(
                entry,
                encode_entry(&key.canonical(), &reference),
                "{name}/{n}"
            );
        }
        assert!(st.ops > 0 && st.p2p_bytes > 0 && st.entry_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = dir.parent().map(std::fs::remove_dir);
    }
}
