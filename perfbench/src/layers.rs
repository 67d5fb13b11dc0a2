//! The traced run: the layers a workload's program reaches, called
//! in-process in the order that program calls them, with a span around
//! each call into a layer's public functions.
//!
//! - `serve-test`: what a `ch-serve` job runs for each config of the
//!   sweep (`ch_bench::simulate`: per kernel and ISA, compile and verify,
//!   emulate, pack and replay the branch predictor, then time each width),
//!   in the request's order; then one round against a fresh `ch-serve`,
//!   the wire codec over its results, and `Service::submit` on a
//!   completed key.
//! - `figures-test`: what `figures --scale test` runs for the default
//!   suite plus `density`: the RISC-V traces and the Fig. 3/4/7 passes
//!   over them, the Fig. 13/14 timing sweep, the Fig. 15–18 passes, the
//!   lint pass (a verified compile, then `ch-verify` again), and for
//!   `density` an unverified compile per kernel, both encodings, and per
//!   ISA and encoding a decode round trip, relocation, pack, replay and
//!   8-wide timing. Ablation's modified machines and the pipeline tracer
//!   are left out: no metric covers them.
//! - `fuzz-campaign`: the stages of `ch_fuzz::run_differential` on the
//!   seed's first [`FUZZ_ROUNDS`] rounds of programs.
//!
//! A layer the workload's program does not reach reads 0. The reported
//! walk is the process's first, and it keeps every trace and packed
//! trace until it ends, as the programs' caches do, so `sim.pack_rss_mb`
//! is growth into fresh pages rather than into pages an earlier walk
//! freed. An untraced and a second traced walk follow: their time
//! difference is the tracing overhead, printed on stderr, and all three
//! must produce the same simulated statistics.

use crate::measure::{ms, self_rss_mb};
use crate::{fuzz, kern_eval, serve, Env, Report};
use ch_bench::remote::{Response, SweepRequest};
use ch_common::config::{MachineConfig, WidthClass};
use ch_common::{DynInst, EncodingVariant, IsaKind};
use ch_compiler::{backend, build_ir, CompileError, CompiledSet, EncodedSet};
use ch_sim::{run_fast_profiled, BranchProfile, CommitLog, Counters, Simulator, SoaTrace};
use ch_workloads::{Scale, Workload};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Interpreter budget for the kernels (the one `ch-bench` uses).
const KERNEL_LIMIT: u64 = 2_000_000_000;
/// Passes of the wire codec over the cold results.
const WIRE_PASSES: usize = 20;
/// Timed `Service::submit` calls on a completed key.
const HITS: usize = 1000;
/// `fuzz-campaign` rounds walked.
const FUZZ_ROUNDS: u64 = 20;

/// Which workload's program the walk follows.
#[derive(Clone, Copy)]
pub enum Walked {
    Serve,
    Figures,
    Fuzz,
}

/// Total time per span name. When off, [`Tracer::span`] only calls
/// through.
struct Tracer {
    on: bool,
    totals: HashMap<&'static str, Duration>,
}

impl Tracer {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        *self.totals.entry(name).or_default() += t0.elapsed();
        out
    }

    /// Total time in spans called `name`, in ms.
    fn total_ms(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |d| ms(*d))
    }
}

/// Work counts gathered next to the spans.
#[derive(Default)]
struct Counts {
    /// Operations completed: kernel traces, or fuzz cases judged.
    ops: u64,
    /// Fuzz cases left out as the known backend defect.
    left_out: u64,
    static_insts: u64,
    emulated: [u64; 3],
    trace_bytes: u64,
    pack_rss_mb: f64,
    timed: [u64; 5],
    /// Timing results by canonical config key.
    counters: BTreeMap<String, Counters>,
    /// Fuzz outcomes by case: exit value and committed counts, or `None`
    /// when a case ran out of its step budget or was left out.
    cases: Vec<Option<(u64, [u64; 3])>>,
}

/// One walk: spans, counts, and what it keeps resident until it ends.
struct Walk {
    t: Tracer,
    c: Counts,
    traces: HashMap<(Workload, IsaKind), Rc<[DynInst]>>,
    packed: Vec<(SoaTrace, BranchProfile)>,
}

/// Per-ISA span names, in `IsaKind::ALL` order.
const COMPILE_SPANS: [&str; 3] = ["compiler.riscv", "compiler.straight", "compiler.clockhands"];
const VERIFY_SPANS: [&str; 3] = ["verify.riscv", "verify.straight", "verify.clockhands"];
const EMULATE_SPANS: [&str; 3] = ["emulate.riscv", "emulate.straight", "emulate.clockhands"];

const WIDTH_SPANS: [&str; 5] = [
    "sim.timing.w4",
    "sim.timing.w6",
    "sim.timing.w8",
    "sim.timing.w12",
    "sim.timing.w16",
];

fn isa_index(isa: IsaKind) -> usize {
    IsaKind::ALL
        .iter()
        .position(|&i| i == isa)
        .expect("known ISA")
}

fn width_index(width: WidthClass) -> usize {
    WidthClass::ALL
        .iter()
        .position(|&w| w == width)
        .expect("known width")
}

fn config_key(k: Workload, isa: IsaKind, width: WidthClass, variant: EncodingVariant) -> String {
    format!(
        "{}/{}/{}/test/{}/fast",
        k.name(),
        isa.name(),
        width.label(),
        variant.name()
    )
}

impl Walk {
    fn new(traced: bool) -> Walk {
        Walk {
            t: Tracer {
                on: traced,
                totals: HashMap::new(),
            },
            c: Counts::default(),
            traces: HashMap::new(),
            packed: Vec::new(),
        }
    }

    /// `ch_compiler::compile`: the front end, then the three backends.
    fn compile(&mut self, src: &str) -> Result<CompiledSet, String> {
        let module = self
            .t
            .span("compiler.frontend", || build_ir(src))
            .map_err(|e| e.to_string())?;
        let backend_err = |e| CompileError::Backend(e).to_string();
        let riscv = self
            .t
            .span(COMPILE_SPANS[0], || backend::riscv::compile(&module))
            .map_err(backend_err)?;
        let straight = self
            .t
            .span(COMPILE_SPANS[1], || backend::straight::compile(&module))
            .map_err(backend_err)?;
        let clockhands = self
            .t
            .span(COMPILE_SPANS[2], || backend::clockhands::compile(&module))
            .map_err(backend_err)?;
        self.c.static_insts +=
            (riscv.insts.len() + straight.insts.len() + clockhands.insts.len()) as u64;
        Ok(CompiledSet {
            riscv,
            straight,
            clockhands,
        })
    }

    /// `ch_compiler::verify_set`: `ch-verify` on each program, in its
    /// order.
    fn verify(&mut self, set: &CompiledSet) -> Result<(), String> {
        let opts = ch_verify::Options::default();
        let reports = [
            self.t.span(VERIFY_SPANS[2], || {
                ch_verify::verify_clockhands(&set.clockhands, &opts)
            }),
            self.t.span(VERIFY_SPANS[1], || {
                ch_verify::verify_straight(&set.straight, &opts)
            }),
            self.t.span(VERIFY_SPANS[0], || {
                ch_verify::verify_riscv(&set.riscv, &opts)
            }),
        ];
        match reports.iter().find(|r| !r.is_clean()) {
            Some(bad) => Err(format!("{} program fails verification", bad.isa)),
            None => Ok(()),
        }
    }

    /// Runs one ISA's interpreter to completion: `Ok(None)` if it ran out
    /// of its step budget.
    fn emulate(
        &mut self,
        set: &CompiledSet,
        isa: IsaKind,
        limit: u64,
    ) -> Result<Option<(Vec<DynInst>, u64)>, String> {
        let out = self.t.span(EMULATE_SPANS[isa_index(isa)], || match isa {
            IsaKind::Riscv => {
                use ch_baselines::riscv::interp::{Interpreter, RvError};
                match Interpreter::new(set.riscv.clone()).map(|mut i| i.trace(limit)) {
                    Ok(Ok((tr, r))) => Ok(Some((tr, r.exit_value))),
                    Ok(Err(RvError::LimitReached)) => Ok(None),
                    Ok(Err(e)) | Err(e) => Err(e.to_string()),
                }
            }
            IsaKind::Straight => {
                use ch_baselines::straight::interp::{Interpreter, StError};
                match Interpreter::new(set.straight.clone()).map(|mut i| i.trace(limit)) {
                    Ok(Ok((tr, r))) => Ok(Some((tr, r.exit_value))),
                    Ok(Err(StError::LimitReached)) => Ok(None),
                    Ok(Err(e)) => Err(e.to_string()),
                    Err(e) => Err(e.to_string()),
                }
            }
            IsaKind::Clockhands => {
                use clockhands::interp::{InterpError, Interpreter};
                match Interpreter::new(set.clockhands.clone()) {
                    Ok(mut i) => match i.trace(limit) {
                        Ok((tr, r)) => Ok(Some((tr, r.exit_value))),
                        Err(InterpError::LimitReached) => Ok(None),
                        Err(e) => Err(e.to_string()),
                    },
                    Err(e) => Err(e.to_string()),
                }
            }
        })?;
        if let Some((trace, _)) = &out {
            self.c.emulated[isa_index(isa)] += trace.len() as u64;
            self.c.trace_bytes += (trace.len() * std::mem::size_of::<DynInst>()) as u64;
        }
        Ok(out)
    }

    /// `Workload::trace_on` for a kernel at test scale, kept for the rest
    /// of the walk: a verified compile of all three ISAs, then this
    /// ISA's interpreter, checked against the Rust reference.
    fn trace(&mut self, k: Workload, isa: IsaKind) -> Result<Rc<[DynInst]>, String> {
        if !self.traces.contains_key(&(k, isa)) {
            let set = self.compile(&k.source(Scale::Test))?;
            self.verify(&set)?;
            let (trace, exit) = self
                .emulate(&set, isa, KERNEL_LIMIT)?
                .ok_or("kernel ran out of its step budget")?;
            if exit != k.reference(Scale::Test) {
                return Err(format!(
                    "{}/{}: checksum {exit:#x} differs from the reference",
                    k.name(),
                    isa.name()
                ));
            }
            self.c.ops += 1;
            self.traces.insert((k, isa), trace.into());
        }
        Ok(Rc::clone(&self.traces[&(k, isa)]))
    }

    /// Packs `trace` and replays the branch predictor over it, keeping
    /// both; returns their index in `packed`.
    fn pack(&mut self, isa: IsaKind, trace: &[DynInst]) -> usize {
        let rss0 = self_rss_mb().unwrap_or(0.0);
        let soa = self.t.span("sim.pack", || SoaTrace::new(trace.iter()));
        self.c.pack_rss_mb += self_rss_mb().unwrap_or(0.0) - rss0;
        let profile = self.t.span("sim.bpred", || {
            BranchProfile::new(&MachineConfig::preset(WidthClass::W4, isa), &soa)
        });
        self.packed.push((soa, profile));
        self.packed.len() - 1
    }

    /// Times packed trace `at` on one Table 2 machine.
    fn time(&mut self, at: usize, isa: IsaKind, width: WidthClass) -> Counters {
        let (soa, profile) = &self.packed[at];
        let i = width_index(width);
        self.c.timed[i] += soa.len() as u64;
        self.t.span(WIDTH_SPANS[i], || {
            run_fast_profiled(MachineConfig::preset(width, isa), soa, profile)
        })
    }

    /// Packs, replays and times a kernel's trace at `widths`.
    fn simulate(&mut self, k: Workload, isa: IsaKind, widths: &[WidthClass]) -> Result<(), String> {
        let trace = self.trace(k, isa)?;
        let at = self.pack(isa, &trace);
        for &width in widths {
            let counters = self.time(at, isa, width);
            let key = config_key(k, isa, width, EncodingVariant::Fixed);
            self.c.counters.insert(key, counters);
        }
        Ok(())
    }

    /// One `ch-analysis` pass over a kept trace.
    fn analyse<R>(&mut self, k: Workload, isa: IsaKind, pass: fn(&[DynInst]) -> R) {
        let trace = Rc::clone(&self.traces[&(k, isa)]);
        self.t.span("analysis", || black_box(pass(&trace)));
    }

    /// `ch_compiler::encode_set`.
    fn encode(
        &mut self,
        set: &CompiledSet,
        variant: EncodingVariant,
    ) -> Result<EncodedSet, String> {
        self.t
            .span("encode.encode", || ch_compiler::encode_set(set, variant))
            .map_err(|e| e.to_string())
    }

    /// The decoder round trip `density` makes of one ISA's layout.
    fn decode(&mut self, set: &CompiledSet, enc: &EncodedSet, isa: IsaKind) -> Result<(), String> {
        let round_trips = self.t.span("encode.decode", || match isa {
            IsaKind::Riscv => ch_encode::decode_riscv(&enc.riscv.bytes, &enc.riscv.pool)
                .is_ok_and(|p| p == set.riscv.insts),
            IsaKind::Straight => {
                ch_encode::decode_straight(&enc.straight.bytes, &enc.straight.pool)
                    .is_ok_and(|p| p == set.straight.insts)
            }
            IsaKind::Clockhands => {
                ch_encode::decode_clockhands(&enc.clockhands.bytes, &enc.clockhands.pool)
                    .is_ok_and(|p| p == set.clockhands.insts)
            }
        });
        if !round_trips {
            return Err(format!(
                "{} {} encoding does not decode to the program",
                isa.name(),
                enc.variant
            ));
        }
        Ok(())
    }
}

/// The sweep of one `ch-serve` round, as its jobs compute it.
fn serve_walk(w: &mut Walk, req: &SweepRequest) -> Result<(), String> {
    let isas: Vec<IsaKind> = req
        .isas
        .iter()
        .map(|s| IsaKind::ALL.into_iter().find(|i| i.name() == s))
        .collect::<Option<_>>()
        .ok_or("unknown ISA in the sweep request")?;
    let widths: Vec<WidthClass> = req
        .widths
        .iter()
        .map(|s| WidthClass::ALL.into_iter().find(|w| w.label() == s))
        .collect::<Option<_>>()
        .ok_or("unknown width in the sweep request")?;
    for k in Workload::ALL {
        for &isa in &isas {
            w.simulate(k, isa, &widths)?;
        }
    }
    Ok(())
}

/// `figures --scale test`, default suite plus `density`.
fn figures_walk(w: &mut Walk) -> Result<(), String> {
    use ch_analysis::{hand_usage, hands_sweep, instruction_mix, lifetimes_of, straight_increase};
    let rv = IsaKind::Riscv;
    let ch = IsaKind::Clockhands;
    // Figs. 3, 4 and 7 read the RISC-V traces.
    for k in Workload::ALL {
        w.trace(k, rv)?;
    }
    for k in Workload::ALL {
        w.analyse(k, rv, straight_increase);
    }
    for k in Workload::ALL {
        w.analyse(k, rv, |t| lifetimes_of(t.iter()));
    }
    for k in Workload::ALL {
        w.analyse(k, rv, hands_sweep);
    }
    // Figs. 13 and 14: every kernel, ISA and width.
    for k in Workload::ALL {
        for isa in IsaKind::ALL {
            w.simulate(k, isa, &WidthClass::ALL)?;
        }
    }
    // Figs. 15 to 18.
    for k in Workload::ALL {
        for isa in IsaKind::ALL {
            w.analyse(k, isa, |t| instruction_mix(t.iter()));
        }
    }
    for k in Workload::ALL {
        w.analyse(k, ch, |t| hand_usage(t.iter()));
    }
    for k in Workload::ALL {
        for isa in IsaKind::ALL {
            w.analyse(k, isa, |t| lifetimes_of(t.iter()));
        }
    }
    for k in Workload::ALL {
        w.analyse(k, ch, |t| lifetimes_of(t.iter()));
    }
    // The lint pass: `Workload::compile`, then `ch-verify` again.
    for k in Workload::ALL {
        let set = w.compile(&k.source(Scale::Test))?;
        w.verify(&set)?;
        w.verify(&set)?;
    }
    // `density`: each kernel's unverified compile, laid out under both
    // encodings, each layout decoded back and simulated 8-wide.
    for k in Workload::ALL {
        let set = w.compile(&k.source(Scale::Test))?;
        let mut encoded = Vec::new();
        for isa in IsaKind::ALL {
            for (vi, variant) in EncodingVariant::ALL.into_iter().enumerate() {
                if encoded.len() == vi {
                    encoded.push(w.encode(&set, variant)?);
                }
                let enc = &encoded[vi];
                w.decode(&set, enc, isa)?;
                let layout = match isa {
                    IsaKind::Riscv => &enc.riscv.layout,
                    IsaKind::Straight => &enc.straight.layout,
                    IsaKind::Clockhands => &enc.clockhands.layout,
                };
                let mut relocated = w.traces[&(k, isa)].to_vec();
                w.t.span("encode.relocate", || {
                    ch_encode::relocate_trace(&mut relocated, layout)
                });
                let at = w.pack(isa, &relocated);
                drop(relocated);
                let counters = w.time(at, isa, WidthClass::W8);
                let key = config_key(k, isa, WidthClass::W8, variant);
                // The fixed layout must time as the abstract-PC trace did.
                if w.c
                    .counters
                    .insert(key.clone(), counters.clone())
                    .is_some_and(|c| c != counters)
                {
                    return Err(format!(
                        "{key}: fixed layout times differently from the trace"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The stages of `run_differential` on one program, its exit value
/// checked against the reference evaluator. `Ok(None)`: the case ran out
/// of its step budget, or was left out as the known backend defect.
fn fuzz_case(
    w: &mut Walk,
    program: &ch_fuzz::KernProgram,
    src: &str,
) -> Result<Option<(u64, [u64; 3])>, String> {
    // `run_differential` builds the IR once for the globals' addresses,
    // then again inside `compile`.
    w.t.span("compiler.frontend", || build_ir(src))
        .map_err(|e| e.to_string())?;
    let set = match w.compile(src) {
        Err(e) if fuzz::known_backend_defect(&e) => {
            w.c.left_out += 1;
            return Ok(None);
        }
        other => other?,
    };
    w.verify(&set)?;
    let expected = kern_eval::eval(program);
    let mut traces = Vec::with_capacity(3);
    for isa in IsaKind::ALL {
        let Some((trace, exit)) = w.emulate(&set, isa, ch_fuzz::DEFAULT_LIMIT)? else {
            return Ok(None);
        };
        if exit != expected {
            return Err(format!(
                "{} exits with {exit:#x}, the evaluator says {expected:#x}",
                isa.name()
            ));
        }
        traces.push(trace);
    }
    let mut committed = [0; 3];
    for (i, isa) in IsaKind::ALL.into_iter().enumerate() {
        let trace = &traces[i];
        let (counters, in_order) = w.t.span("sim.commit_check", || {
            let mut sim = Simulator::with_tracer(
                MachineConfig::preset(WidthClass::W8, isa),
                CommitLog::new(),
            );
            let counters = sim.run(trace.iter().cloned());
            let log = sim.into_tracer();
            let in_order = log.is_in_commit_order()
                && log.entries().len() == trace.len()
                && log
                    .entries()
                    .iter()
                    .zip(trace)
                    .all(|(e, d)| e.seq == d.seq && e.pc == d.pc);
            (counters, in_order)
        });
        if !in_order || counters.committed != trace.len() as u64 {
            return Err(format!(
                "{}: the simulator's commit stream differs from the trace",
                isa.name()
            ));
        }
        committed[i] = counters.committed;
    }
    Ok(Some((expected, committed)))
}

fn fuzz_walk(w: &mut Walk, programs: &[(ch_fuzz::KernProgram, String)]) -> Result<(), String> {
    for (i, (program, src)) in programs.iter().enumerate() {
        let left_out = w.c.left_out;
        let outcome =
            fuzz_case(w, program, src).map_err(|e| format!("fuzz case {i}: {e}\n{src}"))?;
        w.c.ops += u64::from(w.c.left_out == left_out);
        w.c.cases.push(outcome);
    }
    Ok(())
}

/// One walk of `walked`, timed. The walk's operations are counted in `r`,
/// and a failure stops it.
fn walk(
    walked: Walked,
    traced: bool,
    req: &SweepRequest,
    programs: &[(ch_fuzz::KernProgram, String)],
    r: &mut Report,
) -> (f64, Walk) {
    let mut w = Walk::new(traced);
    let t0 = Instant::now();
    let result = match walked {
        Walked::Serve => serve_walk(&mut w, req),
        Walked::Figures => figures_walk(&mut w),
        Walked::Fuzz => fuzz_walk(&mut w, programs),
    };
    let took = ms(t0.elapsed());
    r.attempted += w.c.ops;
    if let Err(e) = result {
        r.attempted += 1;
        r.failed += 1;
        r.problem(e);
    }
    (took, w)
}

/// Mean time per call of `f` over `n` calls, each in its own span.
fn per_call_us(t: &mut Tracer, name: &'static str, n: usize, mut f: impl FnMut()) -> f64 {
    let before = t.total_ms(name);
    for _ in 0..n {
        t.span(name, &mut f);
    }
    (t.total_ms(name) - before) * 1e3 / n as f64
}

/// Serve/wire metrics of `serve-test`; zeros elsewhere.
#[derive(Default)]
struct ServeLayer {
    cold_wait_p50_ms: f64,
    dedup_ratio: f64,
    hit_us: f64,
    encode_us: f64,
    decode_us: f64,
}

/// Step 2 of the `serve-test` walk: one round on a fresh `ch-serve`,
/// whose results must equal the walk's counters, then the wire codec and
/// the registry in-process.
fn serve_layer(env: &Env, req: &SweepRequest, w: &mut Walk, r: &mut Report) -> ServeLayer {
    let Some(round) = serve::round(env, req, r) else {
        return ServeLayer::default();
    };
    for (key, rec) in &round.cold {
        r.check(w.c.counters.get(key) == Some(&rec.counters), || {
            format!("{key}: served counters differ from the traced walk's")
        });
    }
    let records: Vec<_> = round.cold.values().cloned().collect();
    let responses: Vec<_> = (0..WIRE_PASSES * records.len())
        .map(|i| Response::Result(Box::new(records[i % records.len()].clone())))
        .collect();
    let mut lines = Vec::with_capacity(responses.len());
    let encode_us = per_call_us(&mut w.t, "wire.encode", responses.len(), || {
        lines.push(responses[lines.len()].to_line());
    });
    let mut parsed = Vec::with_capacity(lines.len());
    let decode_us = per_call_us(&mut w.t, "wire.decode", lines.len(), || {
        parsed.push(Response::parse(&lines[parsed.len()]));
    });
    r.check(
        parsed
            .into_iter()
            .zip(&responses)
            .all(|(p, want)| p.as_ref() == Ok(want)),
        || "a result record does not survive the wire codec".into(),
    );
    let service = ch_serve::Service::start(ch_serve::ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let key = ch_serve::ConfigKey::parse("xz", "clockhands", "8f", "test", "fixed", "fast")
        .expect("valid key");
    r.check(service.submit(key, None).is_ok(), || {
        "in-process submit failed".into()
    });
    let mut hits = Vec::with_capacity(HITS);
    let hit_us = per_call_us(&mut w.t, "serve.hit", HITS, || {
        hits.push(service.submit(key, None));
    });
    service.shutdown();
    r.check(
        hits.iter()
            .all(|h| matches!(h, Ok(out) if out.was_cached())),
        || "a completed key was not served from the registry".into(),
    );
    ServeLayer {
        cold_wait_p50_ms: round.cold_stats.p50_ms,
        dedup_ratio: round.end_stats.dedup_ratio,
        hit_us,
        encode_us,
        decode_us,
    }
}

/// The walk's results against the untraced programs: `figures`' library
/// path for the figures walk, `run_differential` for the fuzz walk. (The
/// serve walk is checked against a served round in [`serve_layer`].)
fn check_untraced(
    walked: Walked,
    w: &Walk,
    programs: &[(ch_fuzz::KernProgram, String)],
    r: &mut Report,
) {
    match walked {
        Walked::Serve => {}
        Walked::Figures => {
            for (key, counters) in &w.c.counters {
                let parts: Vec<&str> = key.split('/').collect();
                let Ok(k) = ch_serve::ConfigKey::parse(
                    parts[0], parts[1], parts[2], parts[3], parts[4], parts[5],
                ) else {
                    r.problem(format!("unparseable key {key}"));
                    continue;
                };
                let want = match k.encoding {
                    EncodingVariant::Fixed => {
                        ch_bench::simulate(k.workload, k.isa, k.width, Scale::Test)
                    }
                    variant => {
                        ch_bench::simulate_encoded(k.workload, k.isa, k.width, Scale::Test, variant)
                    }
                };
                r.check(&want == counters, || {
                    format!("{key}: the walk's counters differ from ch_bench's")
                });
            }
        }
        Walked::Fuzz => {
            for (i, ((_, src), walked)) in programs.iter().zip(&w.c.cases).enumerate() {
                let want = match ch_fuzz::run_differential("walk", src, ch_fuzz::DEFAULT_LIMIT) {
                    Ok(Ok(out)) => Some((out.exit_value, out.committed)),
                    _ => None,
                };
                r.check(&want == walked, || {
                    format!("fuzz case {i}: the walk found {walked:?}, run_differential {want:?}")
                });
            }
            fuzz::check_left_out(w.c.left_out, w.c.cases.len() as u64, r);
        }
    }
}

pub fn run(walked: Walked, env: &Env, seed: u64, _seconds: Duration, r: &mut Report) {
    let req = serve::sweep_request(seed);
    let programs: Vec<_> = match walked {
        Walked::Fuzz => (0..FUZZ_ROUNDS)
            .flat_map(|k| fuzz::programs(seed, k))
            .collect(),
        _ => Vec::new(),
    };
    let (_, mut w) = walk(walked, true, &req, &programs, r);
    w.traces.clear();
    w.packed.clear();
    // Tracing overhead, from two further walks that, unlike the first,
    // run on a warm heap.
    let (untraced_ms, Walk { c: untraced, .. }) =
        walk(walked, false, &req, &programs, &mut Report::default());
    let (traced_ms, Walk { c: traced, .. }) =
        walk(walked, true, &req, &programs, &mut Report::default());
    eprintln!(
        "perfbench: walk {traced_ms:.1} ms traced, {untraced_ms:.1} ms untraced: \
         tracing overhead {:+.2}%",
        (traced_ms / untraced_ms - 1.0) * 100.0
    );
    for other in [untraced, traced] {
        r.check(
            other.counters == w.c.counters && other.cases == w.c.cases,
            || "the traced and untraced walks simulate differently".into(),
        );
    }
    check_untraced(walked, &w, &programs, r);
    let serve = match walked {
        Walked::Serve => serve_layer(env, &req, &mut w, r),
        _ => ServeLayer::default(),
    };

    let (t, c) = (&w.t, &w.c);
    let per_s = |insts: u64, ms: f64| {
        if ms > 0.0 {
            insts as f64 / (ms * 1e3)
        } else {
            0.0
        }
    };
    r.metric(
        "compiler.frontend_ms",
        t.total_ms("compiler.frontend"),
        "ms",
    );
    for name in COMPILE_SPANS {
        r.metric(format!("{name}_ms"), t.total_ms(name), "ms");
    }
    r.metric("compiler.static_insts", c.static_insts as f64, "count");
    for name in VERIFY_SPANS {
        r.metric(format!("{name}_ms"), t.total_ms(name), "ms");
    }
    r.metric("encode.encode_ms", t.total_ms("encode.encode"), "ms");
    r.metric("encode.decode_ms", t.total_ms("encode.decode"), "ms");
    r.metric("encode.relocate_ms", t.total_ms("encode.relocate"), "ms");
    for (name, insts) in EMULATE_SPANS.into_iter().zip(c.emulated) {
        let rate = per_s(insts, t.total_ms(name));
        r.metric(format!("{name}_minst_per_s"), rate, "Minst/s");
    }
    r.metric(
        "emulate.insts",
        c.emulated.iter().sum::<u64>() as f64,
        "count",
    );
    r.metric(
        "emulate.trace_mb",
        c.trace_bytes as f64 / (1 << 20) as f64,
        "MB",
    );
    r.metric("sim.pack_ms", t.total_ms("sim.pack"), "ms");
    r.metric("sim.pack_rss_mb", c.pack_rss_mb, "MB");
    r.metric("sim.bpred_ms", t.total_ms("sim.bpred"), "ms");
    for (i, name) in WIDTH_SPANS.into_iter().enumerate() {
        let rate = per_s(c.timed[i], t.total_ms(name));
        r.metric(format!("{name}_minst_per_s"), rate, "Minst/s");
    }
    r.metric("sim.commit_check_ms", t.total_ms("sim.commit_check"), "ms");
    r.metric("analysis.ms", t.total_ms("analysis"), "ms");
    r.metric("serve.cold_wait_p50_ms", serve.cold_wait_p50_ms, "ms");
    r.metric("serve.dedup_ratio", serve.dedup_ratio, "ratio");
    r.metric("serve.hit_us", serve.hit_us, "us");
    r.metric("wire.result_encode_us", serve.encode_us, "us");
    r.metric("wire.result_decode_us", serve.decode_us, "us");
}
