//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload run-replay --seed 1 --seconds 8 --trace 0
//! ```
//!
//! Run from the repository root. It builds the `spechpc` CLI from
//! source, runs one workload, checks the program's outputs, and prints
//! one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set, with `--trace 1` the per-layer
//! set. A failed correctness gate still prints the result (with
//! `"correct": false`) and exits 1. See README.md for the workloads and
//! the metric → layer map.

mod figures;
mod hostspeed;
mod http;
mod pools;
mod procs;
mod service;
mod stats;

use std::path::{Path, PathBuf};

/// End-to-end metrics (reported with `--trace 0` on every workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ok_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("rss_mb", "MB"),
    ("ok_ratio", "1"),
];

/// Per-layer metrics (reported with `--trace 1`). A layer that is off a
/// workload's measured path reports 0 there: it did no work.
pub const PER_LAYER: &[(&str, &str)] = &[
    // figures-cold: the simulation path, split by SimRunner stage.
    ("kernels.signature_ms", "ms"),
    ("kernels.model_ms", "ms"),
    ("kernels.step_programs_ms", "ms"),
    ("harness.runner.glue_ms", "ms"),
    ("power.rapl_ms", "ms"),
    ("simmpi.prepass_ms", "ms"),
    ("simmpi.engine_ms", "ms"),
    ("simmpi.ops", "count"),
    ("simmpi.p2p_bytes", "B"),
    ("simmpi.ops_per_s", "1/s"),
    ("harness.cache.encode_ms", "ms"),
    ("harness.cache.put_ms", "ms"),
    ("harness.cache.entry_bytes", "B"),
    ("harness.exec.points", "count"),
    ("harness.exec.runs_executed", "count"),
    ("harness.exec.hits_mem", "count"),
    ("harness.experiments.self_ms", "ms"),
    ("harness.experiments.traced_wall_ms", "ms"),
    ("trace.layer_sum_ratio", "1"),
    ("trace.overhead_ratio", "1"),
    // Every workload: the reference kernel's time during the traced
    // run, the host speed the raw layer timings were taken at.
    ("host.reference_ms", "ms"),
    // run-replay: the cached request path.
    ("harness.api.decode_us", "us"),
    ("harness.api.dispatch_us", "us"),
    ("harness.api.encode_us", "us"),
    ("harness.api.response_bytes", "B"),
    ("harness.serve.residual_us", "us"),
    ("harness.serve.runs_executed_delta", "count"),
    ("harness.serve.hit_ratio", "1"),
    ("harness.serve.rss_kb_per_kreq", "kB"),
    // plan-replay: the planner.
    ("harness.plan.decode_us", "us"),
    ("harness.plan.shape_us", "us"),
    ("harness.plan.schedule_us", "us"),
    ("harness.plan.encode_us", "us"),
    ("harness.plan.response_bytes", "B"),
    ("harness.plan.shapes", "count"),
    ("harness.serve.plan_residual_us", "us"),
    // run-replay, traced only: the coordinator hop of a two-worker fleet.
    ("harness.fleet.hop_us", "us"),
    ("harness.fleet.upstream_conns_per_req", "1"),
    ("harness.fleet.hedges_per_req", "1"),
    ("harness.fleet.hedges_won_ratio", "1"),
    ("harness.fleet.retries_per_req", "1"),
    ("harness.fleet.route_skew", "1"),
    ("net.time_wait_start", "count"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["figures-cold", "run-replay", "plan-replay"];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that failed, in words.
    pub gates: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record a correctness gate: one attempted operation, failed
    /// unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what);
        }
    }

    /// Mark `n` operations already counted as attempted as failed, for
    /// the reason `what`.
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.gates.push(what.into());
        }
    }
}

/// One benchmark invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The freshly built `spechpc` binary.
    pub bin: PathBuf,
    /// Private scratch directory for this invocation.
    pub work: PathBuf,
}

impl Run {
    /// A fresh, empty private directory under the scratch directory.
    pub fn private_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

fn parse_args(argv: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 8.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok((workload, seed, seconds, trace))
}

/// Every file under `dir` with its length, sorted — to prove a run
/// left the repository's own `results/` untouched.
fn listing(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(path),
                Ok(m) => out.push((path, m.len())),
                Err(_) => {}
            }
        }
    }
    out.sort();
    out
}

/// Identify the code under test: the git revision when the checkout is
/// a repository, and always a digest of the sources the binary is built
/// from.
fn source_rev(root: &Path) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    let mut files: Vec<PathBuf> = listing(&root.join("crates"))
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    files.extend(["Cargo.toml", "Cargo.lock"].map(|f| root.join(f)));
    files.sort();
    let mut sources = Vec::new();
    for f in files {
        sources.extend(std::fs::read(&f).unwrap_or_default());
    }
    let h = figures::fnv64(&sources);
    format!("git {git}, sources {h:016x}")
}

fn render(out: &Outcome, trace: bool) -> Result<String, String> {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let measured = out.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
        let value = match measured {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.gates.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("the working directory is readable");
    if !root.join("crates/cli/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root (no crates/cli here)");
        std::process::exit(2);
    }
    let bin = match procs::build_cli(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("perfbench: spechpc {}", source_rev(&root));

    let results_before = listing(&root.join("results"));
    let work = root
        .join(".perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    let run = Run {
        workload,
        seed,
        seconds,
        trace,
        bin,
        work,
    };
    let outcome = match run.workload.as_str() {
        "figures-cold" => figures::run(&run),
        _ => service::run(&run),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    let _ = std::fs::remove_dir(root.join(".perfbench-work"));
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", run.workload);
            std::process::exit(1);
        }
    };
    outcome.gate(
        listing(&root.join("results")) == results_before,
        "the repository's results/ changed during the run",
    );
    for g in &outcome.gates {
        eprintln!("perfbench: GATE FAILED: {g}");
    }
    match render(&outcome, trace) {
        Ok(line) => {
            println!("{line}");
            if !outcome.gates.is_empty() || outcome.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_match_the_contract_pattern_and_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        all.extend(WORKLOADS);
        for n in &all {
            assert!(valid_name(n), "bad name {n}");
        }
        let distinct: std::collections::BTreeSet<&&str> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = spechpc::prelude::parse_json(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match v.get(key) {
                Some(spechpc::prelude::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| m.str_of(f).unwrap_or_default();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_every_metric_of_its_kind() {
        let mut o = Outcome::default();
        for (n, _) in END_TO_END {
            o.set(n, 1.5);
        }
        let line = render(&o, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (n, _) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\": {{\"value\": 1.5")));
        }
        // Per-layer metrics off the workload's path read 0.
        let traced = render(&o, true).unwrap();
        assert!(traced.contains("\"net.time_wait_start\": {\"value\": 0, \"unit\": \"count\"}"));
        // A missing end-to-end metric is an error, not a silent 0.
        assert!(render(&Outcome::default(), false).is_err());
    }
}
