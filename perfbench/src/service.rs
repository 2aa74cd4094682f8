//! The service workloads: `run-replay` and `plan-replay`.
//!
//! Set-up starts the daemon in a private working directory on a free
//! port and primes a seeded request pool; the timed phase replays a
//! seeded order of that pool from one closed-loop client over one
//! keep-alive connection, checking every body byte for byte against its
//! primed copy. Every time the untraced run reports is scaled to the
//! reference host speed (see `hostspeed`). The traced run adds
//! in-process timings of the API and planner layers on the same pool,
//! the daemon's counter deltas, and (run-replay) the coordinator hop of
//! a two-worker `spechpc fleet`.

use crate::hostspeed::{reference_ms, slowness};
use crate::http::{request_bytes, Conn};
use crate::pools::{pass_order, plan_pool, run_pool};
use crate::procs::{time_wait_count, Daemon, Exit};
use crate::stats::{median, percentile, sorted};
use crate::{Outcome, Run};
use spechpc::harness::api::{dispatch_run, RunRequest};
use spechpc::harness::fleet::HashRing;
use spechpc::harness::plan::{self, evaluate_plan, JobShape, PlanRequest};
use spechpc::prelude::*;
use std::net::SocketAddr;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The coordinator forwards over one `Connection: close` socket per
/// request, so each fleet measurement leaves thousands of loopback
/// sockets in TIME_WAIT for a minute. Back-to-back runs once fell from
/// 1343 to 528 req/s at ~15k of them; a fleet measurement waits (up to
/// [`TIME_WAIT_PATIENCE_S`]) until the count is below this ceiling.
const TIME_WAIT_CEILING: u64 = 10_000;
const TIME_WAIT_PATIENCE_S: f64 = 45.0;

/// Space fleet measurements so one's TIME_WAIT sockets do not slow the
/// next; returns the count the measurement starts with.
fn settle_time_wait() -> u64 {
    let t0 = Instant::now();
    loop {
        let n = time_wait_count();
        if n < TIME_WAIT_CEILING || t0.elapsed().as_secs_f64() > TIME_WAIT_PATIENCE_S {
            if t0.elapsed().as_secs_f64() > 0.5 {
                eprintln!(
                    "perfbench: waited {:.1} s for TIME_WAIT to drain to {n}",
                    t0.elapsed().as_secs_f64()
                );
            }
            return n;
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Run,
    Plan,
    Fleet,
}

/// Requests per replay pass, at least: each pass reports its own p90,
/// which needs ten samples beyond it.
const MIN_PASS: usize = 100;

/// A seeded pool: bodies, their encoded requests, one pass's order.
struct Pool {
    bodies: Vec<String>,
    requests: Vec<Vec<u8>>,
    order: Vec<usize>,
}

impl Pool {
    fn new(kind: Kind, seed: u64) -> Pool {
        let (bodies, path) = match kind {
            Kind::Plan => (plan_pool(seed), "/v1/plan"),
            _ => (run_pool(seed), "/v1/run"),
        };
        let requests = bodies
            .iter()
            .map(|b| request_bytes("POST", path, b.as_bytes()))
            .collect();
        let order = pass_order(seed, bodies.len(), MIN_PASS.div_ceil(bodies.len()));
        Pool {
            bodies,
            requests,
            order,
        }
    }
}

/// The started daemons: `front` is what the client talks to (the
/// daemon, or the coordinator); `workers` are the fleet's workers.
struct Service {
    front: Daemon,
    workers: Vec<Daemon>,
}

impl Service {
    /// The daemons that execute runs (and own run caches).
    fn executors(&self) -> Vec<&Daemon> {
        if self.workers.is_empty() {
            vec![&self.front]
        } else {
            self.workers.iter().collect()
        }
    }

    /// Stop the front door first, then the workers behind it; the exit
    /// of `front`, the measured process.
    fn stop(self) -> Result<Exit, String> {
        let exit = self.front.stop().map_err(|e| e.to_string())?;
        for w in self.workers {
            w.stop().map_err(|e| e.to_string())?;
        }
        Ok(exit)
    }
}

/// `GET /v1/metrics` of `addr`, parsed.
fn metrics(addr: SocketAddr) -> Result<Json, String> {
    let r = Conn::connect(addr)
        .and_then(|mut c| c.get("/v1/metrics"))
        .map_err(|e| format!("GET /v1/metrics: {e}"))?;
    parse_json(&String::from_utf8_lossy(&r.body)).ok_or_else(|| "unparsable /v1/metrics".into())
}

/// Run-cache counters, summed over a service's executors.
struct CacheCounters {
    runs_executed: u64,
    hits_mem: u64,
    lookups: u64,
}

impl CacheCounters {
    /// The counters of `daemons`, read from their `/v1/metrics`.
    fn read(daemons: &[&Daemon]) -> Result<CacheCounters, String> {
        let mut acc = CacheCounters {
            runs_executed: 0,
            hits_mem: 0,
            lookups: 0,
        };
        for d in daemons {
            let m = metrics(d.addr)?;
            let c = m.get("cache").ok_or("no cache block in /v1/metrics")?;
            let n = |v: &Json, k: &str| v.u64_of(k).unwrap_or(0);
            acc.runs_executed += n(&m, "runs_executed");
            acc.hits_mem += n(c, "hits_mem");
            acc.lookups += n(c, "hits_mem") + n(c, "hits_disk") + n(c, "misses") + n(c, "corrupt");
        }
        Ok(acc)
    }

    /// What grew since `before`.
    fn since(self, before: CacheCounters) -> CacheCounters {
        CacheCounters {
            runs_executed: self.runs_executed.saturating_sub(before.runs_executed),
            hits_mem: self.hits_mem.saturating_sub(before.hits_mem),
            lookups: self.lookups.saturating_sub(before.lookups),
        }
    }
}

/// Start the workload's daemons in `dir` and prime `pool` through the
/// front door. Returns the service and the primed response bodies.
fn start(run: &Run, kind: Kind, pool: &Pool, dir: &str) -> Result<(Service, Vec<Vec<u8>>), String> {
    let root = run.private_dir(dir).map_err(|e| e.to_string())?;
    let spawn = |args: &[&str], sub: &str| {
        Daemon::spawn(&run.bin, args, root.join(sub)).map_err(|e| format!("{sub}: {e}"))
    };
    let service = if kind == Kind::Fleet {
        let workers = vec![spawn(&["serve"], "worker0")?, spawn(&["serve"], "worker1")?];
        let list = format!("{},{}", workers[0].addr, workers[1].addr);
        Service {
            front: spawn(&["fleet", "--workers", &list], "coordinator")?,
            workers,
        }
    } else {
        Service {
            front: spawn(&["serve"], "daemon")?,
            workers: Vec::new(),
        }
    };
    let post = |conn: &mut Conn, i: usize| -> Result<Vec<u8>, String> {
        let r = conn
            .exchange(&pool.requests[i])
            .map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!(
                "priming answered {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
        }
        Ok(r.body)
    };
    // A fleet's workers are primed directly first, so that a hedged
    // forward to the second ring preference is a cache hit as well.
    let prime = |addr: SocketAddr| -> Result<Vec<Vec<u8>>, String> {
        let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
        (0..pool.bodies.len()).map(|i| post(&mut conn, i)).collect()
    };
    let direct: Vec<Vec<Vec<u8>>> = service
        .workers
        .iter()
        .map(|w| prime(w.addr))
        .collect::<Result<_, _>>()?;
    let primed = prime(service.front.addr)?;
    if direct.iter().any(|d| *d != primed) {
        return Err("coordinator bodies differ from the workers' own".into());
    }
    Ok((service, primed))
}

/// One closed-loop replay, summarized pass by pass.
#[derive(Default)]
struct Replay {
    /// Per pass: wall seconds, good answers per second, p50 and p90
    /// latency in milliseconds, and the host's reference kernel time
    /// sampled just before the pass.
    wall_s: Vec<f64>,
    ok_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    reference_ms: Vec<f64>,
    attempted: u64,
    ok: u64,
    elapsed_s: f64,
}

impl Replay {
    /// The median pass, as measured. Every pass replays the same
    /// requests, so the median over passes shrugs off host interference
    /// that slows a minority of them, where pooling all requests would
    /// not.
    fn median_pass(&self) -> [f64; 4] {
        [&self.wall_s, &self.ok_per_s, &self.p50_ms, &self.p90_ms].map(|v| median(v))
    }

    /// The median pass at the reference host speed: each pass scaled by
    /// the kernel time sampled just before it.
    fn median_pass_at_reference(&self) -> [f64; 4] {
        let slow: Vec<f64> = self.reference_ms.iter().map(|&r| slowness(&[r])).collect();
        let scaled = |v: &[f64], rate: bool| -> f64 {
            let v: Vec<f64> = v
                .iter()
                .zip(&slow)
                .map(|(x, s)| if rate { x * s } else { x / s })
                .collect();
            median(&v)
        };
        [
            scaled(&self.wall_s, false),
            scaled(&self.ok_per_s, true),
            scaled(&self.p50_ms, false),
            scaled(&self.p90_ms, false),
        ]
    }
}

/// Replay whole passes of `pool.order` against `addr` until `seconds`
/// have elapsed; every body must equal its primed copy.
fn replay(addr: SocketAddr, pool: &Pool, primed: &[Vec<u8>], seconds: f64) -> Replay {
    let mut out = Replay::default();
    let mut conn = Conn::connect(addr).ok();
    let t0 = Instant::now();
    while out.elapsed_s < seconds {
        out.reference_ms.push(reference_ms());
        let pass = Instant::now();
        let mut latency_ms = Vec::with_capacity(pool.order.len());
        let ok_before = out.ok;
        for &i in &pool.order {
            let t = Instant::now();
            let answer = match conn.as_mut() {
                Some(c) => c.exchange(&pool.requests[i]),
                None => Err(std::io::Error::other("not connected")),
            };
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match answer {
                Ok(r) if r.status == 200 && r.body == primed[i] => out.ok += 1,
                Ok(r) => eprintln!(
                    "perfbench: request {i} answered {} with {} bytes (primed {})",
                    r.status,
                    r.body.len(),
                    primed[i].len()
                ),
                Err(e) => {
                    eprintln!("perfbench: request {i} failed: {e}");
                    conn = Conn::connect(addr).ok();
                }
            }
        }
        let wall = pass.elapsed().as_secs_f64();
        let latency_ms = sorted(&latency_ms);
        out.wall_s.push(wall);
        out.ok_per_s.push((out.ok - ok_before) as f64 / wall);
        // Passes hold at least MIN_PASS requests, so both exist.
        out.p50_ms
            .push(percentile(&latency_ms, 0.5).unwrap_or(f64::NAN));
        out.p90_ms
            .push(percentile(&latency_ms, 0.9).unwrap_or(f64::NAN));
        out.elapsed_s = t0.elapsed().as_secs_f64();
    }
    out
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let kind = match run.workload.as_str() {
        "run-replay" => Kind::Run,
        "plan-replay" => Kind::Plan,
        other => return Err(format!("not a service workload: {other}")),
    };
    let pool = Pool::new(kind, run.seed);
    if run.trace {
        traced(run, kind, &pool)
    } else {
        untraced(run, kind, &pool)
    }
}

fn untraced(run: &Run, kind: Kind, pool: &Pool) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut started = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = start(run, kind, pool, &format!("setup{i}"))?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some((previous, _)) = started.replace(s) {
            Service::stop(previous)?;
        }
    }
    let (service, primed) = started.expect("at least one set-up");

    let mut out = Outcome::default();
    // A hit that silently re-simulates is a failed request, not a slow
    // one: counted_replay counts it in `failed`.
    let (rep, _) = counted_replay(&service, pool, &primed, run.seconds, &mut out)?;
    let exit = stop_gated(service, &mut out)?;
    let [wall, ok_per_s, p50_ms, p90_ms] = rep.median_pass_at_reference();
    // Set-ups at the run's host speed: a second-long set-up spans
    // several speed changes, and one kernel sample beside it (±30 %)
    // scattered it more than the host did (±12 %).
    let kernel_ms = median(&rep.reference_ms);
    out.set("setup_s", median(&setups) / slowness(&[kernel_ms]));
    out.set("wall_s", wall);
    out.set("ok_per_s", ok_per_s);
    out.set("p50_ms", p50_ms);
    out.set("p90_ms", p90_ms);
    out.set("rss_mb", exit.maxrss_kb as f64 / 1024.0);
    out.set(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    let [wall, ok_per_s, p50_ms, p90_ms] = rep.median_pass();
    eprintln!(
        "perfbench: {} requests in {:.3} s, {} passes, {} failed; as measured: \
         set-up {:.4} s, pass {wall:.4} s, {ok_per_s:.1}/s, p50 {p50_ms:.4} ms, \
         p90 {p90_ms:.4} ms at reference kernel {kernel_ms:.3} ms",
        rep.attempted,
        rep.elapsed_s,
        rep.wall_s.len(),
        out.failed,
        median(&setups),
    );
    Ok(out)
}

fn p50(v: &[f64]) -> Result<f64, String> {
    percentile(&sorted(v), 0.5).ok_or_else(|| "too few samples for a p50".into())
}

/// Replay `pool` against `service` for `seconds`, counting every
/// request and re-simulation in `out`; returns the replay and what the
/// executors' run-cache counters did during it.
fn counted_replay(
    service: &Service,
    pool: &Pool,
    primed: &[Vec<u8>],
    seconds: f64,
    out: &mut Outcome,
) -> Result<(Replay, CacheCounters), String> {
    let before = CacheCounters::read(&service.executors())?;
    let rep = replay(service.front.addr, pool, primed, seconds);
    let delta = CacheCounters::read(&service.executors())?.since(before);
    out.attempted += rep.attempted;
    out.failed += rep.attempted - rep.ok;
    out.fail(
        delta.runs_executed.min(rep.ok),
        format!("replay re-simulated {} runs", delta.runs_executed),
    );
    Ok((rep, delta))
}

/// Stop `service`, gating on a clean SIGTERM drain; the exit of its
/// front door.
fn stop_gated(service: Service, out: &mut Outcome) -> Result<Exit, String> {
    let exit = service.stop()?;
    out.gate(
        exit.code == Some(0),
        format!("daemon exited {:?} on SIGTERM", exit.code),
    );
    Ok(exit)
}

fn traced(run: &Run, kind: Kind, pool: &Pool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (service, primed) = start(run, kind, pool, "traced")?;

    // Counter deltas over the replay, read where the work happens.
    let rss_before = service.front.rss_kb();
    let (rep, delta) = counted_replay(&service, pool, &primed, run.seconds, &mut out)?;
    let rss_after = service.front.rss_kb();
    stop_gated(service, &mut out)?;
    // As measured, like the in-process timings it is compared with.
    let e2e_us = rep.median_pass()[2] * 1e3;
    out.set("host.reference_ms", median(&rep.reference_ms));
    out.set(
        "harness.serve.runs_executed_delta",
        delta.runs_executed as f64,
    );
    out.set(
        "harness.serve.hit_ratio",
        delta.hits_mem as f64 / delta.lookups.max(1) as f64,
    );
    out.set(
        "harness.serve.rss_kb_per_kreq",
        (rss_after as f64 - rss_before as f64) / (rep.attempted as f64 / 1e3),
    );

    // The same pool in process: decode → dispatch → encode.
    let budget = run.seconds / 2.0;
    if kind == Kind::Plan {
        plan_layers(pool, &primed, budget, e2e_us, &mut out)?;
    } else {
        api_layers(pool, &primed, budget, e2e_us, &mut out)?;
        fleet_layers(run, pool, &primed, &mut out)?;
    }
    Ok(out)
}

/// The coordinator hop on the run pool: `spechpc fleet` (default flags,
/// hedging on) in front of two workers; its counter deltas over a
/// replay through the coordinator, then the hop itself.
fn fleet_layers(
    run: &Run,
    pool: &Pool,
    primed: &[Vec<u8>],
    out: &mut Outcome,
) -> Result<(), String> {
    out.set("net.time_wait_start", settle_time_wait() as f64);
    let (service, fleet_primed) = start(run, Kind::Fleet, pool, "fleet")?;
    out.gate(
        fleet_primed == primed,
        "fleet bodies differ from the daemon's",
    );
    let fb = metrics(service.front.addr)?;
    let (_, delta) = counted_replay(&service, pool, primed, run.seconds / 4.0, out)?;
    let fa = metrics(service.front.addr)?;
    let d = |k: &str| fa.u64_of(k).unwrap_or(0) as f64 - fb.u64_of(k).unwrap_or(0) as f64;
    let requests = d("requests").max(1.0);
    // Each forward opens one upstream connection and makes one worker
    // cache lookup.
    out.set(
        "harness.fleet.upstream_conns_per_req",
        delta.lookups as f64 / requests,
    );
    out.set("harness.fleet.hedges_per_req", d("hedges_fired") / requests);
    out.set(
        "harness.fleet.hedges_won_ratio",
        d("hedges_won") / d("hedges_fired").max(1.0),
    );
    out.set(
        "harness.fleet.retries_per_req",
        d("retries_spent") / requests,
    );
    let routed = |m: &Json| -> Vec<f64> {
        m.get("per_worker_routed")
            .and_then(Json::arr)
            .map(|a| a.iter().filter_map(Json::num).collect())
            .unwrap_or_default()
    };
    let delta: Vec<f64> = routed(&fa)
        .iter()
        .zip(routed(&fb))
        .map(|(a, b)| a - b)
        .collect();
    let mean = delta.iter().sum::<f64>() / delta.len().max(1) as f64;
    let max = delta.iter().copied().fold(0.0, f64::max);
    out.set("harness.fleet.route_skew", max / mean.max(1.0));
    let hop = hop_us(&service, pool, primed, run.seconds / 4.0, out)?;
    out.set("harness.fleet.hop_us", hop);
    stop_gated(service, out)?;
    Ok(())
}

/// Coordinator hop: p50 through the coordinator minus p50 straight to
/// the owning worker, alternating request by request over one
/// keep-alive connection to each.
fn hop_us(
    service: &Service,
    pool: &Pool,
    primed: &[Vec<u8>],
    seconds: f64,
    out: &mut Outcome,
) -> Result<f64, String> {
    let ring = HashRing::new(service.workers.len(), 64);
    let cfg = RunConfig::default();
    let owners: Vec<usize> = pool
        .bodies
        .iter()
        .map(|b| {
            let req = RunRequest::from_json(b).map_err(|e| e.to_string())?;
            let cluster =
                spechpc::harness::api::resolve_cluster(&req.cluster).map_err(|e| e.to_string())?;
            let spec = req.spec(&cluster);
            let key = RunKey::new(
                &cluster.name,
                &spec.benchmark,
                &spec.class.to_string(),
                spec.nranks,
                &cfg,
            );
            let hash = u64::from_str_radix(&key.hash_hex(), 16).map_err(|e| e.to_string())?;
            Ok(ring.preference(hash)[0])
        })
        .collect::<Result<_, String>>()?;
    let mut front = Conn::connect(service.front.addr).map_err(|e| e.to_string())?;
    let mut direct: Vec<Conn> = service
        .workers
        .iter()
        .map(|w| Conn::connect(w.addr))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let (mut via, mut straight) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        for &i in &pool.order {
            for hop in [true, false] {
                let conn = if hop {
                    &mut front
                } else {
                    &mut direct[owners[i]]
                };
                let t = Instant::now();
                let r = conn
                    .exchange(&pool.requests[i])
                    .map_err(|e| e.to_string())?;
                let us = t.elapsed().as_secs_f64() * 1e6;
                out.gate(
                    r.status == 200 && r.body == primed[i],
                    "hop replay body differs",
                );
                if hop {
                    via.push(us)
                } else {
                    straight.push(us)
                }
            }
        }
    }
    Ok(p50(&via)? - p50(&straight)?)
}

/// `RunRequest::from_json` → `api::dispatch_run` → `RunResponse::to_json`
/// in process against a memory-cached executor primed with the pool.
fn api_layers(
    pool: &Pool,
    primed: &[Vec<u8>],
    seconds: f64,
    e2e_us: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let exec = Executor::new(RunConfig::default(), ExecConfig::default().with_jobs(1));
    for (i, body) in pool.bodies.iter().enumerate() {
        let req = RunRequest::from_json(body).map_err(|e| e.to_string())?;
        let resp = dispatch_run(&exec, &req).map_err(|e| e.to_string())?;
        out.gate(
            resp.to_json().as_bytes() == primed[i],
            "in-process run body differs from the daemon's",
        );
    }
    let (mut decode, mut dispatch, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        for &i in &pool.order {
            let t = Instant::now();
            let req = RunRequest::from_json(&pool.bodies[i]).map_err(|e| e.to_string())?;
            decode.push(us(t));
            let t = Instant::now();
            let resp = dispatch_run(&exec, &req).map_err(|e| e.to_string())?;
            dispatch.push(us(t));
            let t = Instant::now();
            let body = std::hint::black_box(resp.to_json());
            encode.push(us(t));
            out.gate(
                body.as_bytes() == primed[i],
                "in-process run body changed on replay",
            );
        }
    }
    let (d, x, e) = (p50(&decode)?, p50(&dispatch)?, p50(&encode)?);
    out.set("harness.api.decode_us", d);
    out.set("harness.api.dispatch_us", x);
    out.set("harness.api.encode_us", e);
    out.set("harness.api.response_bytes", mean_len(pool, primed));
    out.set("harness.serve.residual_us", e2e_us - (d + x + e));
    Ok(())
}

/// Mean response bytes over one pass of the replay order.
fn mean_len(pool: &Pool, primed: &[Vec<u8>]) -> f64 {
    pool.order
        .iter()
        .map(|&i| primed[i].len() as f64)
        .sum::<f64>()
        / pool.order.len() as f64
}

/// The service's job-shape resolution (one cached run per distinct
/// shape), restated from public parts so its time can be split out.
fn shape_of(
    exec: &Executor,
    config: &RunConfig,
    cluster: &ClusterSpec,
    benchmark: &str,
    class: WorkloadClass,
    nranks: usize,
    faults: &FaultPlan,
) -> Result<JobShape, ApiError> {
    let forked = exec.with_run_config(config.clone().with_faults(faults.clone()));
    let result = forked.run_one(cluster, &RunSpec::new(benchmark, class, nranks))?;
    Ok(JobShape {
        runtime_s: result.runtime_s,
        nodes: result.nodes_used,
        package_w: result.power.package_w,
        dram_w: result.power.dram_w,
        flops_fraction: plan::flops_fraction(cluster, benchmark, class, nranks),
    })
}

/// `PlanRequest::from_json` → `evaluate_plan` (shape resolution timed
/// apart from scheduling) → `PlanResponse::to_json`, in process.
fn plan_layers(
    pool: &Pool,
    primed: &[Vec<u8>],
    seconds: f64,
    e2e_us: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let exec = Executor::new(RunConfig::default(), ExecConfig::default().with_jobs(1));
    let evaluate = |req: &PlanRequest, shape_s: &mut f64, shapes: &mut u64| {
        evaluate_plan(req, &mut |cluster, benchmark, class, nranks, faults| {
            let t = Instant::now();
            let shape = shape_of(
                &exec,
                &req.config,
                cluster,
                benchmark,
                class,
                nranks,
                faults,
            );
            *shape_s += t.elapsed().as_secs_f64();
            *shapes += 1;
            shape
        })
        .map_err(|e| e.to_string())
    };
    for (i, body) in pool.bodies.iter().enumerate() {
        let req = PlanRequest::from_json(body).map_err(|e| e.to_string())?;
        let resp = evaluate(&req, &mut 0.0, &mut 0)?;
        out.gate(
            resp.to_json().as_bytes() == primed[i],
            "in-process plan body differs from the daemon's",
        );
    }
    let (mut decode, mut shape, mut schedule, mut encode) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut shapes = Vec::new();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        for &i in &pool.order {
            let t = Instant::now();
            let req = PlanRequest::from_json(&pool.bodies[i]).map_err(|e| e.to_string())?;
            decode.push(us(t));
            let (mut shape_s, mut n) = (0.0, 0u64);
            let t = Instant::now();
            let resp = evaluate(&req, &mut shape_s, &mut n)?;
            schedule.push(us(t) - shape_s * 1e6);
            shape.push(shape_s * 1e6);
            shapes.push(n as f64);
            let t = Instant::now();
            let body = std::hint::black_box(resp.to_json());
            encode.push(us(t));
            out.gate(
                body.as_bytes() == primed[i],
                "in-process plan body changed on replay",
            );
        }
    }
    let (d, sh, sc, e) = (p50(&decode)?, p50(&shape)?, p50(&schedule)?, p50(&encode)?);
    out.set("harness.plan.decode_us", d);
    out.set("harness.plan.shape_us", sh);
    out.set("harness.plan.schedule_us", sc);
    out.set("harness.plan.encode_us", e);
    out.set("harness.plan.response_bytes", mean_len(pool, primed));
    out.set("harness.plan.shapes", median(&shapes));
    out.set("harness.serve.plan_residual_us", e2e_us - (d + sh + sc + e));
    Ok(())
}
