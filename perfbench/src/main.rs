//! Trace-replay benchmark for the analysis pipeline.
//!
//! ```text
//! perfbench --workload <http-binpac|dns-binpac|http-flows-x1> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload's public pipeline call, untraced, over
//! and over for `--seconds` and reports the end-to-end metrics as medians
//! over the calls. `--trace 1` replays the same input through the
//! pipeline rebuilt from each layer's public functions with a span
//! around every layer call, and reports the per-layer ledger, the
//! tracing overhead and the paper's Pac÷Std and compiled÷interpreted
//! ratios; its spans are written to `out/<workload>.trace.json` in this
//! package as a `hilti.trace.v1` Chrome trace.
//! Every call's logs are checked against reference logs made once per
//! seed by a second program path. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod alloc;
mod check;
mod ledger;
mod replay;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use broscript::host::Engine;
use broscript::pipeline::{AnalysisResult, Governance, ParserStack};
use hilti_rt::error::{RtError, RtResult};
use hilti_rt::trace::Stage;
use netpkt::pcap::RawPacket;

use check::Logs;
use ledger::Ledger;
use replay::{Layer, Spans};
use workload::{governance, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Empty-trace calls timed for `setup_s` before the measured calls; one
/// more follows each measured call, so the samples span the whole run
/// and a transient slowdown cannot own the median.
const SETUP_REPS: usize = 20;
/// Fewest measured calls (or traced iterations) a run makes, however
/// short `--seconds` is.
const MIN_REPS: usize = 3;
/// Spans written to the Chrome trace per replay (the earliest ones).
const MAX_TRACE_SPANS: usize = 50_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Process CPU time (user + system, all threads), in nanoseconds.
fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The smallest sample: the call least disturbed by other tenants of a
/// shared host, whose interference only ever adds time. 0 when empty.
fn best(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// What one call cost, measured from outside.
struct Cost {
    wall_ns: u64,
    cpu_ns: u64,
    allocs: u64,
    peak_bytes: u64,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let heap_base = alloc::reset_peak();
    let a0 = alloc::count();
    let c0 = cpu_ns();
    let t0 = Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cost = Cost {
        cpu_ns: cpu_ns() - c0,
        allocs: alloc::count() - a0,
        peak_bytes: alloc::peak_since(heap_base),
        wall_ns,
    };
    (out, cost)
}

/// Tallies calls and failed calls; a call fails if it returns `Err` or
/// its logs differ from the reference.
struct Checker {
    reference: Option<Logs>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Checker {
    fn new(reference: RtResult<Logs>) -> Checker {
        let (reference, correct) = match reference {
            Ok(r) => {
                let live = check::self_test(&r);
                if !live {
                    eprintln!("perfbench: output-check self-test failed");
                }
                (Some(r), live)
            }
            Err(e) => {
                eprintln!("perfbench: reference run failed: {e}");
                (None, false)
            }
        };
        Checker {
            reference,
            attempted: 0,
            failed: 0,
            correct,
        }
    }

    /// Checks one call's logs; true if they match the reference.
    fn logs(&mut self, what: &str, logs: Result<&Logs, &RtError>) -> bool {
        self.attempted += 1;
        let bad = match (logs, &self.reference) {
            (Err(e), _) => Some(format!("returned Err: {e}")),
            (Ok(_), None) => Some("no reference logs".to_string()),
            (Ok(l), Some(r)) => l.mismatch(r),
        };
        if let Some(why) = &bad {
            eprintln!("perfbench: {what}: output check failed: {why}");
            self.failed += 1;
            self.correct = false;
        }
        bad.is_none()
    }

    fn result(&mut self, what: &str, r: &RtResult<AnalysisResult>) -> bool {
        let logs = r.as_ref().map(Logs::of);
        self.logs(what, logs.as_ref().map_err(|e| *e))
    }
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn reference_logs(w: Workload, packets: &[RawPacket], gov: &Governance) -> RtResult<Logs> {
    w.reference(packets, gov).map(|r| Logs::of(&r))
}

/// `setup_s`: the workload's call on an empty trace — script compile,
/// parser generation and, for the sharded pipeline, blueprint plus shard
/// start-up. Each sample is one call.
fn setup_samples(w: Workload, gov: &Governance, n: usize, out: &mut Vec<f64>) {
    for _ in 0..n {
        let t0 = Instant::now();
        let r = w.run(&[], gov);
        out.push(t0.elapsed().as_secs_f64());
        if let Err(e) = r {
            eprintln!("perfbench: empty-trace call failed: {e}");
        }
    }
}

fn end_to_end(w: Workload, packets: &[RawPacket], seconds: f64) -> (Checker, Metrics) {
    let gov = governance();
    let mut chk = Checker::new(reference_logs(w, packets, &gov));
    // The first empty-trace call pays one-time process costs (lazy
    // statics, allocator arenas) that no later set-up repeats.
    let _ = w.run(&[], &gov);
    let mut setup = Vec::new();
    setup_samples(w, &gov, SETUP_REPS, &mut setup);

    let warm = w.run(packets, &gov);
    chk.result("warm-up call", &warm);
    drop(warm);

    let (mut wall, mut cpu, mut allocs, mut heap, mut success) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let n = packets.len().max(1) as f64;
    let start = Instant::now();
    while success.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let (r, cost) = measure(|| w.run(packets, &gov));
        let ok = chk.result("measured call", &r);
        match (&r, ok) {
            (Ok(r), true) => {
                wall.push(cost.wall_ns as f64 / n);
                cpu.push(cost.cpu_ns as f64 / n);
                allocs.push(cost.allocs as f64 / n);
                heap.push(cost.peak_bytes as f64 / 1e6);
                success.push(1.0 - workload::errors(r) as f64 / n);
            }
            _ => success.push(0.0),
        }
        drop(r);
        setup_samples(w, &gov, 1, &mut setup);
    }

    eprintln!(
        "perfbench: {} calls; per-call ns/pkt wall best {:.0} median {:.0}, cpu best {:.0} median {:.0}",
        success.len(),
        best(&wall),
        median(&wall),
        best(&cpu),
        median(&cpu)
    );
    let mut m = Metrics::default();
    m.put("pkts_per_s", 1e9 / best(&wall), "pkts/s");
    m.put("cpu_us_per_pkt", best(&cpu) / 1e3, "us");
    m.put("allocs_per_pkt", median(&allocs), "count");
    m.put("peak_heap_mb", median(&heap), "MB");
    m.put("setup_s", median(&setup), "s");
    m.put("success_rate", median(&success), "frac");
    (chk, m)
}

/// Per-layer metrics of one layer, read from `led`.
fn put_layer(m: &mut Metrics, l: Layer, led: &Ledger, replays: u64) {
    let st = led.layer(l);
    let name = l.name();
    m.put(format!("{name}.ns_per_pkt"), led.per_pkt(st.self_ns), "ns");
    m.put(
        format!("{name}.allocs_per_pkt"),
        led.per_pkt(st.allocs),
        "count",
    );
    m.put(
        format!("{name}.calls"),
        st.calls as f64 / replays.max(1) as f64,
        "count",
    );
    m.put(format!("{name}.p50_ns"), st.quantile(0.50) as f64, "ns");
    m.put(format!("{name}.p99_ns"), st.quantile(0.99) as f64, "ns");
}

/// One traced replay, absorbed into `led`; returns its logs and its
/// wall time per packet.
fn traced(
    w: Workload,
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
    led: &mut Ledger,
) -> (RtResult<Logs>, Spans, f64) {
    let mut sp = Spans::with_capacity(packets.len() * 12 + 1024);
    let t0 = Instant::now();
    let r = replay::replay(w.proto(), packets, stack, engine, gov, &mut sp);
    let ns = t0.elapsed().as_nanos() as f64;
    let n = packets.len().max(1) as f64;
    if let Ok(rep) = &r {
        led.absorb(&sp, rep.packets);
    }
    (r.map(|rep| rep.logs), sp, ns / n)
}

fn per_layer(
    w: Workload,
    packets: &[RawPacket],
    seconds: f64,
    trace_out: &str,
) -> (Checker, Metrics) {
    let gov = governance();
    let mut chk = Checker::new(reference_logs(w, packets, &gov));
    let stack = w.stack();
    let n = packets.len().max(1) as f64;

    let warm = w.run(packets, &gov);
    chk.result("warm-up call", &warm);
    let error_rate = warm
        .as_ref()
        .map(|r| workload::errors(r) as f64 / r.packets.max(1) as f64)
        .unwrap_or(1.0);
    drop(warm);

    // Each iteration runs the traced replay, the untraced sequential call
    // on the same input (for the sharded workload, also its x1 call), and
    // the comparator passes: the other parser stack and the interpreted
    // script engine. Interleaving exposes all of them to the same host
    // drift; only the first two enter `trace.overhead_frac`.
    let other_stack = match stack {
        ParserStack::Binpac => ParserStack::Standard,
        ParserStack::Standard => ParserStack::Binpac,
    };
    let (mut main, mut other, mut interp) = (Ledger::new(), Ledger::new(), Ledger::new());
    let (mut main_spans, mut other_spans) = (None, None);
    let (mut traced_ns, mut untraced_ns, mut seq_cpu, mut x1_cpu) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let seq = |p: &[RawPacket]| {
        if w.parallel() {
            w.reference(p, &gov)
        } else {
            w.run(p, &gov)
        }
    };
    let start = Instant::now();
    while traced_ns.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let (logs, sp, ns) = traced(w, packets, stack, Engine::Compiled, &gov, &mut main);
        chk.logs("traced replay", logs.as_ref());
        traced_ns.push(ns);
        main_spans.get_or_insert(sp);

        let (r, cost) = measure(|| seq(packets));
        chk.result("untraced sequential call", &r);
        untraced_ns.push(cost.wall_ns as f64 / n);
        seq_cpu.push(cost.cpu_ns as f64);
        if w.parallel() {
            let (r, cost) = measure(|| w.run(packets, &gov));
            chk.result("untraced x1 call", &r);
            x1_cpu.push(cost.cpu_ns as f64);
        }

        // The other stack's logs legitimately differ (Table 2), so only
        // an error fails it; the interpreted engine must match exactly.
        let (logs, sp, _) = traced(w, packets, other_stack, Engine::Compiled, &gov, &mut other);
        if let Err(e) = logs {
            chk.logs("other-stack replay", Err(&e));
        }
        other_spans.get_or_insert(sp);
        let (logs, _, _) = traced(w, packets, stack, Engine::Interpreted, &gov, &mut interp);
        chk.logs("interpreted replay", logs.as_ref());
    }
    let replays = traced_ns.len() as u64;
    for led in [&mut main, &mut other, &mut interp] {
        led.seal();
    }

    // The sharded pipeline's own flight recorder, for its dispatch,
    // queue-wait and merge stages.
    let mut stages = Vec::new();
    if w.parallel() {
        let traced_gov = Governance {
            tracing: true,
            ..gov
        };
        let r = w.run(packets, &traced_gov);
        chk.result("traced x1 call", &r);
        if let Ok(Some(rep)) = r.map(|r| r.trace) {
            stages = rep.latency.stages;
        }
    }

    let parse_main = Layer::parser(w.proto(), stack);
    let parse_other = Layer::parser(w.proto(), other_stack);
    let mut m = Metrics::default();
    for l in Layer::MEASURED {
        if l == parse_other {
            put_layer(&mut m, l, &other, replays);
        } else {
            put_layer(&mut m, l, &main, replays);
        }
    }
    m.put(
        "netpkt.flow.copied_share",
        main.copied as f64 / main.delivered.max(1) as f64,
        "frac",
    );
    let roots = main.layer(Layer::Packet);
    m.put(
        "pipeline.unattributed_ns_per_pkt",
        main.unattributed_ns_per_pkt(),
        "ns",
    );
    m.put(
        "pipeline.delivery_p50_us",
        roots.quantile(0.50) as f64 / 1e3,
        "us",
    );
    m.put(
        "pipeline.delivery_p99_us",
        roots.quantile(0.99) as f64 / 1e3,
        "us",
    );
    m.put("pipeline.error_rate", error_rate, "frac");
    m.put("trace.replays", replays as f64, "count");
    m.put(
        "pipeline.allocs_per_pkt",
        main.per_pkt(main.total_allocs),
        "count",
    );
    m.put(
        "trace.overhead_frac",
        best(&traced_ns) / best(&untraced_ns) - 1.0,
        "frac",
    );

    let ((pac, pac_parse), (std, std_parse)) = match stack {
        ParserStack::Binpac => ((&main, parse_main), (&other, parse_other)),
        ParserStack::Standard => ((&other, parse_other), (&main, parse_main)),
    };
    let self_ns = |led: &Ledger, l: Layer| led.per_pkt(led.layer(l).self_ns);
    m.put(
        "ratio.parse_pac_over_std",
        self_ns(pac, pac_parse) / self_ns(std, std_parse),
        "x",
    );
    m.put(
        "ratio.script_compiled_over_interp",
        self_ns(&main, Layer::Script) / self_ns(&interp, Layer::Script),
        "x",
    );
    m.put(
        "ratio.allocs_pac_over_std",
        pac.per_pkt(pac.total_allocs) / std.per_pkt(std.total_allocs),
        "x",
    );

    let stage = |s: Stage, q: fn(&hilti_rt::trace::StageLatency) -> u64| {
        stages
            .iter()
            .find(|l| l.stage == s)
            .map_or(0.0, |l| q(l) as f64)
    };
    m.put(
        "broscript.parallel.cpu_ratio",
        if w.parallel() {
            best(&x1_cpu) / best(&seq_cpu)
        } else {
            0.0
        },
        "x",
    );
    for (s, name) in [
        (Stage::Dispatch, "dispatch"),
        (Stage::QueueWait, "queue_wait"),
        (Stage::Merge, "merge"),
    ] {
        m.put(
            format!("broscript.parallel.{name}_p50_ns"),
            stage(s, |l| l.p50_ns),
            "ns",
        );
        m.put(
            format!("broscript.parallel.{name}_p99_ns"),
            stage(s, |l| l.p99_ns),
            "ns",
        );
    }
    m.put(
        "broscript.parallel.batches",
        stage(Stage::Dispatch, |l| l.count),
        "count",
    );

    let (main_spans, other_spans) = (
        main_spans.unwrap_or_else(|| Spans::with_capacity(0)),
        other_spans.unwrap_or_else(|| Spans::with_capacity(0)),
    );
    let doc = ledger::chrome_json(
        &[
            (&format!("{} traced", w.name()), &main_spans),
            (&format!("{} other stack", w.name()), &other_spans),
        ],
        MAX_TRACE_SPANS,
    );
    match write_file(trace_out, &doc) {
        Ok(()) => eprintln!("perfbench: wrote {trace_out} (hilti.trace.v1)"),
        Err(e) => eprintln!("perfbench: could not write {trace_out}: {e}"),
    }
    (chk, m)
}

fn write_file(path: &str, doc: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let t0 = Instant::now();
    let packets = w.trace(args.seed);
    eprintln!(
        "perfbench: {} seed {} on {} cpu(s): {} packets, {} bytes, generated in {:.2}s",
        w.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        packets.len(),
        packets.iter().map(|p| p.data.len()).sum::<usize>(),
        t0.elapsed().as_secs_f64()
    );
    let (chk, m) = if args.trace {
        let out = format!("{}/out/{}.trace.json", env!("CARGO_MANIFEST_DIR"), w.name());
        per_layer(w, &packets, args.seconds, &out)
    } else {
        end_to_end(w, &packets, args.seconds)
    };
    for (name, value, unit) in &m.0 {
        eprintln!("  {name:<44} {value:>16.4} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        chk.correct && chk.failed == 0,
        chk.attempted,
        chk.failed,
        m.json()
    );
    ExitCode::SUCCESS
}
