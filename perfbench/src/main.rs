//! The pipeline benchmark: one command that drives `ch-serve`, `figures`
//! and the fuzzing library, checks their outputs, and prints one JSON
//! result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-test|figures-test|fuzz-campaign \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload end to end; `--trace 1` instead
//! walks the layers the workload's program reaches, in-process (see
//! [`layers`]), and prints per-layer metrics. See
//! `perfbench/README.md` for the workloads, metrics and reference figures.

mod figures;
mod fuzz;
mod kern_eval;
mod layers;
mod measure;
mod serve;

use ch_common::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Worker threads and client connections: the benchmark host has two
/// vCPUs, and each workload uses at most that many.
pub const PARALLELISM: usize = 2;

/// Fisher-Yates shuffle driven by the benchmark seed's generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut proptest::TestRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// What one run found: operations attempted and failed, whether every
/// check held, and the metrics it measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a failed correctness check (the run is then incorrect).
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("perfbench: CHECK FAILED: {msg}");
        self.problems.push(msg);
    }

    /// Records `cond`, naming the check when it does not hold.
    pub fn check(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.problem(what());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]);
                (name.clone(), m)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.problems.is_empty())),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// The release binaries a run drives, and a scratch directory for the
/// files they write.
pub struct Env {
    pub ch_serve: PathBuf,
    pub figures: PathBuf,
    pub scratch: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload serve-test|figures-test|fuzz-campaign \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a non-negative integer")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number()),
            "--trace" => trace = Some(number() != 0),
            other => usage(&format!("unknown option {other}")),
        }
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds == 0 {
        usage("--seconds must be positive");
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Builds `ch-serve` and `figures` from the repository's sources into
/// this benchmark's own target directory, next to its executable.
fn build_binaries() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?;
    let target_dir = bin_dir.parent().ok_or("binary directory has no parent")?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark directory has no parent")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .args(["-p", "ch-serve", "-p", "ch-bench", "--bins"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ch-serve and figures failed: {status}"));
    }
    Ok((bin_dir.join("ch-serve"), bin_dir.join("figures")))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, seed, round] = &argv[..] {
        if flag == "--fuzz-round" {
            let seed = seed
                .parse()
                .unwrap_or_else(|_| usage("bad --fuzz-round seed"));
            let round = round
                .parse()
                .unwrap_or_else(|_| usage("bad --fuzz-round round"));
            return fuzz::child(seed, round);
        }
    }
    let args = parse_args();
    let run: fn(&Env, u64, Duration, &mut Report) = match (args.workload.as_str(), args.trace) {
        ("serve-test", false) => serve::run,
        ("figures-test", false) => figures::run,
        ("fuzz-campaign", false) => fuzz::run,
        ("serve-test", true) => |e, s, d, r| layers::run(layers::Walked::Serve, e, s, d, r),
        ("figures-test", true) => |e, s, d, r| layers::run(layers::Walked::Figures, e, s, d, r),
        ("fuzz-campaign", true) => |e, s, d, r| layers::run(layers::Walked::Fuzz, e, s, d, r),
        (other, _) => usage(&format!("unknown workload `{other}`")),
    };
    let (ch_serve, figures) = build_binaries().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let scratch = figures
        .parent()
        .expect("binary directory")
        .join(format!("perfbench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    });
    let env = Env {
        ch_serve,
        figures,
        scratch,
    };
    let mut report = Report::default();
    run(
        &env,
        args.seed,
        Duration::from_secs(args.seconds),
        &mut report,
    );
    let _ = std::fs::remove_dir_all(&env.scratch);
    println!("{}", report.to_json().render());
}
