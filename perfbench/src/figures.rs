//! `figures-test`: fresh `figures --scale test --jobs 2` processes, each
//! running the default suite plus `density` in a scratch directory.

use crate::measure::{median, ms, reap};
use crate::{shuffle, Env, Report, PARALLELISM};
use ch_common::json::Json;
use proptest::TestRng;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The default experiment list of `figures`, plus the code-density
/// snapshot (which writes `BENCH_9.json` into the working directory).
/// The seed picks the order in which they are named.
const EXPERIMENTS: [&str; 17] = [
    "table1", "table2", "table3", "fig3", "fig4", "fig7", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "ablation", "stalls", "trace", "verify", "density",
];

/// One finished invocation.
struct Invocation {
    code: Option<i32>,
    stdout: Vec<u8>,
    setup_s: f64,
    wall_ms: f64,
    peak_rss_mb: f64,
}

/// Runs `figures` once in `dir`. Set-up ends when the process reports
/// its worker count on stderr, before any experiment runs.
fn invoke(bin: &Path, dir: &Path, ids: &[&str], jobs: usize) -> Result<Invocation, String> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(["--scale", "test", "--jobs", &jobs.to_string()])
        .args(ids)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let (out, setup) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut buf = Vec::new();
            stdout.read_to_end(&mut buf).map(|_| buf)
        });
        let mut setup = None;
        for line in stderr.lines() {
            let Ok(line) = line else { break };
            if setup.is_none() && line.contains("worker thread") {
                setup = Some(t0.elapsed().as_secs_f64());
            }
        }
        (reader.join().expect("stdout reader"), setup)
    });
    let reaped = reap(child).map_err(|e| format!("wait4: {e}"))?;
    let wall_ms = ms(t0.elapsed());
    Ok(Invocation {
        code: reaped.code,
        stdout: out.map_err(|e| format!("reading figures stdout: {e}"))?,
        setup_s: setup.ok_or("figures never reported its worker count")?,
        wall_ms,
        peak_rss_mb: reaped.peak_rss_mb,
    })
}

/// The size identities of the density snapshot, for every kernel and
/// ISA: fixed text is four bytes per instruction, and each compact
/// (16-bit) instruction saves two bytes.
fn check_density(dir: &Path, r: &mut Report) {
    let path = dir.join("BENCH_9.json");
    let parsed = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|s| Json::parse(&s));
    let snap = match parsed {
        Ok(j) => j,
        Err(e) => return r.problem(format!("{}: {e}", path.display())),
    };
    for isa in ["riscv", "straight", "clockhands"] {
        for (variant, compressed) in [("fixed", false), ("compressed", true)] {
            let rows = snap
                .get(isa)
                .and_then(|v| v.get(variant))
                .and_then(Json::as_arr)
                .unwrap_or(&[]);
            r.check(rows.len() == 5, || {
                format!("density {isa}/{variant}: {} kernels, not 5", rows.len())
            });
            for row in rows {
                let field = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
                let (insts, text, compact) =
                    (field("insts"), field("text_bytes"), field("compact"));
                let want = if compressed {
                    4 * insts - 2 * compact
                } else {
                    4 * insts
                };
                r.check(text == want && (compressed || compact == 0), || {
                    format!(
                        "density {isa}/{variant}: text_bytes {text} for {insts} insts, \
                         {compact} compact"
                    )
                });
            }
        }
    }
}

fn judge(inv: &Invocation, reference: &[u8], what: &str, r: &mut Report) {
    r.attempted += 1;
    if inv.code != Some(0) {
        r.failed += 1;
        r.problem(format!("{what}: figures exited with {:?}", inv.code));
    }
    r.check(inv.stdout == reference, || {
        format!("{what}: stdout differs from the first invocation's")
    });
}

pub fn run(env: &Env, seed: u64, seconds: Duration, r: &mut Report) {
    let mut ids = EXPERIMENTS;
    shuffle(&mut ids, &mut TestRng::from_seed(seed));
    let dir = env.scratch.join("figures");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return r.problem(format!("{}: {e}", dir.display()));
    }
    let start = Instant::now();
    let mut runs: Vec<Invocation> = Vec::new();
    while runs.is_empty() || start.elapsed() < seconds {
        match invoke(&env.figures, &dir, &ids, PARALLELISM) {
            Ok(inv) => {
                let reference = runs.first().map_or(&inv.stdout, |f| &f.stdout);
                judge(&inv, reference, "figures --jobs 2", r);
                check_density(&dir, r);
                runs.push(inv);
            }
            Err(e) => {
                r.attempted += 1;
                r.failed += 1;
                return r.problem(e);
            }
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    match invoke(&env.figures, &dir, &ids, 1) {
        Ok(serial) => judge(&serial, &runs[0].stdout, "figures --jobs 1", r),
        Err(e) => {
            r.attempted += 1;
            r.failed += 1;
            r.problem(e);
        }
    }
    let pick = |f: fn(&Invocation) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    eprintln!("perfbench: figures-test: {} invocations", runs.len());
    r.metric("setup_s", pick(|x| x.setup_s), "s");
    r.metric("peak_rss_mb", pick(|x| x.peak_rss_mb), "MB");
    r.metric("op_p50_ms", pick(|x| x.wall_ms), "ms");
    r.metric("results_per_s", runs.len() as f64 / measured_s, "1/s");
}
