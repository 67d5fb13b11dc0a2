//! `serve-test`: a fresh `ch-serve` process per round, swept cold by two
//! concurrent connections (the second joins the first's in-flight
//! work), then re-swept warm by both.

use crate::measure::{median, ms};
use crate::{shuffle, Env, Report, PARALLELISM};
use ch_bench::remote::{Client, ResultRecord, ServerStats, SweepRequest};
use ch_common::config::MachineConfig;
use ch_serve::ConfigKey;
use proptest::TestRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The sweep's problem size. The Fig. 13/14 sweep at `small` holds
/// about 12 GB of traces and takes about a minute cold on two workers;
/// `test` runs the same 75 configurations in seconds.
pub const SCALE: &str = "test";
/// Warm re-sends per connection in each round.
const WARM_SWEEPS: u64 = 50;
/// Sweep configurations: 5 kernels x 3 ISAs x 5 widths.
const CONFIGS: u64 = 75;

/// A running `ch-serve serve` child, killed and reaped on drop.
pub struct Server {
    child: Child,
    // Held open so the server's stdout never sees a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn until the first answered `ping`.
    pub setup_s: f64,
}

impl Server {
    pub fn start(bin: &Path) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(PARALLELISM.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: String::new(),
            setup_s: 0.0,
        };
        read.map_err(|e| format!("reading the server's address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected first line from ch-serve: {line:?}"))?
            .to_string();
        loop {
            match Client::connect(&server.addr).map(|mut c| c.ping()) {
                Ok(Ok(())) => break,
                _ if t0.elapsed() > Duration::from_secs(30) => {
                    return Err("ch-serve did not answer ping within 30 s".into())
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Peak resident set of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::measure::peak_rss_mb(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The sweep request: every kernel, ISA and width at [`SCALE`]. The seed
/// permutes the order in which ISAs and widths are listed, which changes
/// the request and the server's queue order but not the set of configs.
pub fn sweep_request(seed: u64) -> SweepRequest {
    let mut rng = TestRng::from_seed(seed);
    let mut isas = vec!["riscv", "straight", "clockhands"];
    let mut widths = vec!["4f", "6f", "8f", "12f", "16f"];
    shuffle(&mut isas, &mut rng);
    shuffle(&mut widths, &mut rng);
    SweepRequest {
        id: 0,
        workloads: Vec::new(),
        isas: isas.into_iter().map(String::from).collect(),
        widths: widths.into_iter().map(String::from).collect(),
        scale: SCALE.into(),
        encoding: "fixed".into(),
        engine: "fast".into(),
        timeout_ms: 0,
    }
}

/// One connection's view of one sweep.
pub struct SweepOut {
    pub sent: Instant,
    pub done: Instant,
    pub records: Vec<ResultRecord>,
    pub errors: u64,
}

fn sweep(client: &mut Client, req: &SweepRequest) -> Result<SweepOut, String> {
    let sent = Instant::now();
    let mut records = Vec::with_capacity(CONFIGS as usize);
    let mut errors = 0;
    client
        .sweep(req.clone(), |rec| match rec {
            Ok(r) => records.push(r),
            Err(e) => {
                eprintln!("perfbench: sweep error record: {} {}", e.code, e.message);
                errors += 1;
            }
        })
        .map_err(|e| format!("sweep: {e}"))?;
    Ok(SweepOut {
        sent,
        done: Instant::now(),
        records,
        errors,
    })
}

/// Runs `sweeps` back-to-back sweeps on each of the connections at once.
fn concurrent_sweeps(
    clients: &mut [Client],
    req: &SweepRequest,
    sweeps: u64,
) -> Result<Vec<SweepOut>, String> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    (0..sweeps).map(|_| sweep(c, req)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep thread"))
            .collect()
    })
}

/// What one round measured and returned.
pub struct Round {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub cold_ms: f64,
    pub warm_configs_per_s: f64,
    /// Server statistics after the cold phase and at the end.
    pub cold_stats: ServerStats,
    pub end_stats: ServerStats,
    /// The first connection's cold results, by canonical key.
    pub cold: BTreeMap<String, ResultRecord>,
}

/// Checks one connection's sweep against the expected key set: every
/// config answered once, without error. Returns the results by key and
/// counts missing or failed configs as failed operations.
fn collect(out: &SweepOut, expected: &[String], r: &mut Report) -> BTreeMap<String, ResultRecord> {
    let mut by_key = BTreeMap::new();
    for rec in &out.records {
        r.check(
            by_key.insert(rec.key.clone(), rec.clone()).is_none(),
            || format!("sweep answered {} twice", rec.key),
        );
    }
    let missing = expected.iter().filter(|k| !by_key.contains_key(*k)).count() as u64;
    r.attempted += CONFIGS;
    r.failed += missing.max(out.errors);
    r.check(by_key.len() as u64 == CONFIGS, || {
        format!(
            "sweep returned {} distinct configs, not {CONFIGS}",
            by_key.len()
        )
    });
    by_key
}

/// The simulated-statistics properties every result must satisfy:
/// commit slots are conserved, no machine commits more than its width
/// per cycle, and the commit count of a (kernel, ISA) is the same at
/// every width.
pub fn check_properties(results: &BTreeMap<String, ResultRecord>, r: &mut Report) {
    let mut committed: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (key, rec) in results {
        let parts: Vec<&str> = key.split('/').collect();
        let parsed = match parts[..] {
            [w, isa, width, scale, enc, engine] => {
                ConfigKey::parse(w, isa, width, scale, enc, engine).ok()
            }
            _ => None,
        };
        let Some(k) = parsed else {
            r.problem(format!("unparseable result key {key}"));
            continue;
        };
        let width = MachineConfig::preset(k.width, k.isa).commit_width;
        let c = &rec.counters;
        r.check(c.slots_conserved(width), || {
            format!("{key}: commit slots not conserved")
        });
        r.check(c.committed <= width as u64 * c.cycles, || {
            format!(
                "{key}: committed {} > {width} x {} cycles",
                c.committed, c.cycles
            )
        });
        let at_width = *committed
            .entry((parts[0].to_string(), parts[1].to_string()))
            .or_insert(c.committed);
        r.check(at_width == c.committed, || {
            format!(
                "{key}: committed {} differs across widths ({at_width})",
                c.committed
            )
        });
    }
}

fn same_counters(
    a: &BTreeMap<String, ResultRecord>,
    b: &BTreeMap<String, ResultRecord>,
    what: &str,
    r: &mut Report,
) {
    for (key, ra) in a {
        if let Some(rb) = b.get(key) {
            r.check(ra.counters.to_json() == rb.counters.to_json(), || {
                format!("{key}: {what} counters differ from the cold ones")
            });
        }
    }
}

fn check_stats(s: &ServerStats, requested: u64, r: &mut Report) {
    r.check(
        s.computed == CONFIGS && s.failed == 0 && s.timeouts == 0 && s.sim_requests == requested,
        || {
            format!(
                "server stats: computed {} (want {CONFIGS}), failed {}, timeouts {}, \
                 requested {} (want {requested})",
                s.computed, s.failed, s.timeouts, s.sim_requests
            )
        },
    );
}

/// One round on a fresh server: cold sweep on both connections, then
/// [`WARM_SWEEPS`] warm re-sends on each. `None` if the server could not
/// be driven at all (reported as a problem and a failed round).
pub fn round(env: &Env, req: &SweepRequest, r: &mut Report) -> Option<Round> {
    match try_round(env, req, r) {
        Ok(round) => Some(round),
        Err(e) => {
            r.problem(format!("serve round: {e}"));
            let requested = CONFIGS * PARALLELISM as u64 * (1 + WARM_SWEEPS);
            r.attempted += requested;
            r.failed += requested;
            None
        }
    }
}

fn try_round(env: &Env, req: &SweepRequest, r: &mut Report) -> Result<Round, String> {
    let expected: Vec<String> = ch_serve::key::expand_sweep(
        &req.workloads,
        &req.isas,
        &req.widths,
        &req.scale,
        &req.encoding,
        &req.engine,
    )?
    .iter()
    .map(ConfigKey::canonical)
    .collect();
    let server = Server::start(&env.ch_serve)?;
    let mut clients = (0..PARALLELISM)
        .map(|_| server.client())
        .collect::<Result<Vec<_>, _>>()?;
    let mut stats_client = server.client()?;

    let cold = concurrent_sweeps(&mut clients, req, 1)?;
    let cold_ms = ms(cold.iter().map(|o| o.done).max().expect("sweeps")
        - cold.iter().map(|o| o.sent).min().expect("sweeps"));
    let cold_stats = stats_client.stats().map_err(|e| format!("stats: {e}"))?;
    let first = collect(&cold[0], &expected, r);
    for other in &cold[1..] {
        let joined = collect(other, &expected, r);
        same_counters(&first, &joined, "joined", r);
    }
    check_properties(&first, r);
    check_stats(&cold_stats, CONFIGS * PARALLELISM as u64, r);
    r.check(
        cold_stats.cache_hits + cold_stats.inflight_joins == CONFIGS * (PARALLELISM as u64 - 1),
        || "the second cold sweep was not served by joins or hits".into(),
    );

    let warm = concurrent_sweeps(&mut clients, req, WARM_SWEEPS)?;
    let warm_s = (warm.iter().map(|o| o.done).max().expect("sweeps")
        - warm.iter().map(|o| o.sent).min().expect("sweeps"))
    .as_secs_f64();
    let mut warm_configs = 0;
    for out in &warm {
        let got = collect(out, &expected, r);
        warm_configs += got.len() as u64;
        r.check(got.values().all(|rec| rec.cached), || {
            "a warm result was not served from the cache".into()
        });
        same_counters(&first, &got, "warm", r);
    }
    let end_stats = stats_client.stats().map_err(|e| format!("stats: {e}"))?;
    check_stats(
        &end_stats,
        CONFIGS * PARALLELISM as u64 * (1 + WARM_SWEEPS),
        r,
    );
    let peak_rss_mb = server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    Ok(Round {
        setup_s: server.setup_s,
        peak_rss_mb,
        cold_ms,
        warm_configs_per_s: warm_configs as f64 / warm_s,
        cold_stats,
        end_stats,
        cold: first,
    })
}

pub fn run(env: &Env, seed: u64, seconds: Duration, r: &mut Report) {
    let req = sweep_request(seed);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < seconds {
        match round(env, &req, r) {
            Some(round) => rounds.push(round),
            None => break,
        }
    }
    if rounds.is_empty() {
        return;
    }
    let pick = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    eprintln!("perfbench: serve-test: {} rounds", rounds.len());
    r.metric("setup_s", pick(|x| x.setup_s), "s");
    r.metric("peak_rss_mb", pick(|x| x.peak_rss_mb), "MB");
    r.metric("op_p50_ms", pick(|x| x.cold_ms), "ms");
    r.metric("results_per_s", pick(|x| x.warm_configs_per_s), "1/s");
}
