//! `fuzz-campaign`: generated Kern programs timed one by one through
//! `ch_fuzz::run_differential`, with every exit value checked against
//! the reference evaluator of [`crate::kern_eval`].
//!
//! The campaign runs in rounds of [`ROUND`] fresh programs, each round in
//! a child process (this executable with `--fuzz-round`). A process's
//! peak resident set is set by its single largest program, whose size
//! has a heavy tail; a child per round gives one peak per round, and the
//! median over rounds is steady where the peak of a whole run is not.
//!
//! About one generated program in 2,500 is rejected by the Clockhands
//! backend with one known hand-distance error: a value read from beyond
//! the `u` hand's reach (16 or 18 writes back, seen so far), with no
//! relay inserted. Which programs hit it
//! depends on the seed, so a failed-operation count would differ from
//! seed to seed; those cases are left out, neither attempted nor timed,
//! and counted on stderr. Only that error is left out, and a run
//! in which more than [`MAX_LEFT_OUT`] of the cases hit it is incorrect.

use crate::kern_eval::eval;
use crate::measure::{median, ms, quantile, reap};
use crate::{Env, Report};
use ch_common::error::Stage;
use ch_fuzz::{gen_program, render, run_differential, KernProgram, Skip, DEFAULT_LIMIT};
use clockhands::Hand;
use proptest::TestRng;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Programs per round.
pub const ROUND: usize = 25;
/// Fewest cases a run times, so that its 99th percentile has ten cases
/// beyond it.
const MIN_CASES: usize = 1000;

/// Round `k`'s programs, with their rendered sources. Each round's
/// generator is seeded with a splitmix64 hash of the benchmark seed and
/// `k`: the generator is xorshift, whose first outputs from a small seed
/// are poorly mixed.
pub fn programs(seed: u64, k: u64) -> Vec<(KernProgram, String)> {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let mut rng = TestRng::from_seed(z ^ (z >> 31));
    (0..ROUND)
        .map(|_| {
            let p = gen_program(&mut rng);
            let src = render(&p);
            (p, src)
        })
        .collect()
}

/// Largest share of a run's cases that may be left out as the known
/// backend defect: 25 times the rate of about one in 2,500 seen in
/// campaign runs.
const MAX_LEFT_OUT: f64 = 0.01;

/// Whether a compile error is the Clockhands backend's known defect:
/// `backend error: <function>: v<N> at u-distance <d>`, with `d` beyond
/// the `u` hand's reach.
pub fn known_backend_defect(detail: &str) -> bool {
    let number = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let Some((rest, d)) = detail
        .strip_prefix("backend error: ")
        .and_then(|d| d.rsplit_once(" at u-distance "))
    else {
        return false;
    };
    let beyond_reach = number(d)
        && d.parse::<u64>()
            .is_ok_and(|d| d > u64::from(Hand::U.max_src_distance()));
    beyond_reach
        && rest
            .rsplit_once(": v")
            .is_some_and(|(function, vreg)| !function.is_empty() && number(vreg))
}

/// Fails the run if more than [`MAX_LEFT_OUT`] of `cases` were left out.
pub fn check_left_out(left_out: u64, cases: u64, r: &mut Report) {
    r.check(left_out as f64 <= MAX_LEFT_OUT * cases as f64, || {
        format!(
            "{left_out} of {cases} fuzz cases hit the known Clockhands hand-distance defect, \
             more than {:.0}%",
            MAX_LEFT_OUT * 100.0
        )
    });
}

/// The child side of one round: generates the round's programs (its
/// set-up), then times each case. Prints `setup <s>` and one
/// `case <ms> ok|skip|fail|out` line per case (`out`: left out as a known
/// backend defect); details of a failure go to stderr.
pub fn child(seed: u64, k: u64) {
    let t0 = Instant::now();
    let set = programs(seed, k);
    println!("setup {}", t0.elapsed().as_secs_f64());
    let expected: Vec<u64> = set.iter().map(|(p, _)| eval(p)).collect();
    for (i, (_, src)) in set.iter().enumerate() {
        let ctx = format!("round {k} case {i}");
        let t0 = Instant::now();
        let outcome = run_differential(&ctx, src, DEFAULT_LIMIT);
        let took = ms(t0.elapsed());
        let verdict = match outcome {
            Ok(Ok(out)) if out.exit_value == expected[i] => "ok",
            Ok(Ok(out)) => {
                eprintln!(
                    "{ctx}: ISAs agree on {:#x}, the evaluator says {:#x}\n{src}",
                    out.exit_value, expected[i]
                );
                "fail"
            }
            Ok(Err(Skip::LimitReached(_))) => "skip",
            Err(e) if e.stage == Stage::Compile && known_backend_defect(&e.detail) => "out",
            Err(e) => {
                eprintln!("{ctx}: {e}\n{src}");
                "fail"
            }
        };
        println!("case {took} {verdict}");
    }
}

/// What one round reported.
struct Round {
    setup_s: f64,
    case_ms: Vec<f64>,
    failed: u64,
    skipped: u64,
    left_out: u64,
    peak_rss_mb: f64,
}

fn round(seed: u64, k: u64) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--fuzz-round", &seed.to_string(), &k.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a fuzz round: {e}"))?;
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut out = Round {
        setup_s: f64::NAN,
        case_ms: Vec::with_capacity(ROUND),
        failed: 0,
        skipped: 0,
        left_out: 0,
        peak_rss_mb: 0.0,
    };
    for line in stdout.lines() {
        let line = line.map_err(|e| format!("reading a fuzz round: {e}"))?;
        let mut words = line.split(' ');
        let number = |w: Option<&str>| w.and_then(|w| w.parse::<f64>().ok());
        match (words.next(), number(words.next()), words.next()) {
            (Some("setup"), Some(s), None) => out.setup_s = s,
            (Some("case"), _, Some("out")) => out.left_out += 1,
            (Some("case"), Some(t), Some(verdict)) => {
                out.case_ms.push(t);
                match verdict {
                    "ok" => {}
                    "skip" => out.skipped += 1,
                    _ => out.failed += 1,
                }
            }
            _ => return Err(format!("unexpected line from a fuzz round: {line:?}")),
        }
    }
    let reaped = reap(child).map_err(|e| format!("wait4: {e}"))?;
    let cases = out.case_ms.len() + out.left_out as usize;
    if reaped.code != Some(0) || cases != ROUND || out.setup_s.is_nan() {
        return Err(format!(
            "fuzz round {k} ended with {:?} after {cases} of {ROUND} cases",
            reaped.code
        ));
    }
    out.peak_rss_mb = reaped.peak_rss_mb;
    Ok(out)
}

pub fn run(_env: &Env, seed: u64, seconds: Duration, r: &mut Report) {
    let mut rounds = Vec::new();
    let mut cases = 0;
    let start = Instant::now();
    while cases < MIN_CASES || start.elapsed() < seconds {
        match round(seed, rounds.len() as u64) {
            Ok(round) => {
                cases += round.case_ms.len();
                r.attempted += round.case_ms.len() as u64;
                r.failed += round.failed;
                r.check(round.failed == 0, || {
                    format!("{} fuzz cases failed (details above)", round.failed)
                });
                rounds.push(round);
            }
            Err(e) => {
                r.attempted += ROUND as u64;
                r.failed += ROUND as u64;
                return r.problem(e);
            }
        }
    }
    let case_ms: Vec<f64> = rounds.iter().flat_map(|x| x.case_ms.clone()).collect();
    let skipped: u64 = rounds.iter().map(|x| x.skipped).sum();
    let left_out: u64 = rounds.iter().map(|x| x.left_out).sum();
    check_left_out(left_out, case_ms.len() as u64 + left_out, r);
    eprintln!(
        "perfbench: fuzz-campaign: {} rounds, {} cases ({skipped} over the step budget, \
         {left_out} left out as known backend defects), p99 {:.3} ms",
        rounds.len(),
        case_ms.len(),
        quantile(&case_ms, 0.99)
    );
    let pick = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    r.metric("setup_s", pick(|x| x.setup_s), "s");
    r.metric("peak_rss_mb", pick(|x| x.peak_rss_mb), "MB");
    r.metric("op_p50_ms", median(&case_ms), "ms");
    // A round's rate is set by its few largest programs; the median over
    // rounds is steadier than the rate of the whole run.
    r.metric(
        "results_per_s",
        pick(|x| 1e3 * x.case_ms.len() as f64 / x.case_ms.iter().sum::<f64>()),
        "1/s",
    );
}

#[cfg(test)]
mod tests {
    use super::known_backend_defect;

    #[test]
    fn only_the_known_defect_is_left_out() {
        for known in [
            "backend error: h1: v5 at u-distance 16",
            "backend error: main: v0 at u-distance 18",
        ] {
            assert!(known_backend_defect(known), "{known}");
        }
        for other in [
            "backend error: h1: v5 at t-distance 16",
            "backend error: h1: v5 at u-distance 15",
            "backend error: h1: v5 at u-distance -1",
            "backend error: h1: vx at u-distance 16",
            "backend error: main: SP at s-distance 16",
            "backend error: h1: v5 has no location",
            "h1: v5 at u-distance 16",
        ] {
            assert!(!known_backend_defect(other), "{other}");
        }
    }
}
