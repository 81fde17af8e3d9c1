//! Resource-governance integration tests: fuel metering, heap budgets,
//! call-depth limits, and deterministic fault injection.
//!
//! The central property is *engine parity*: the bytecode VM (specialized
//! and unspecialized) and the tree-walking interpreter charge fuel on the
//! same schedule — one unit per IR body instruction plus one per block
//! terminator — so a program run under any fuel limit produces the same
//! outcome and the same printed output on every engine.

use hilti::host::BuildOptions;
use hilti::passes::OptLevel;
use hilti::{Program, Value};
use hilti_rt::error::ExceptionKind;
use hilti_rt::limits::ResourceLimits;

fn build(src: &str, specialize: bool) -> Program {
    Program::from_sources_opts(
        &[src],
        OptLevel::None,
        BuildOptions {
            specialize,
            ..Default::default()
        },
    )
    .expect("test program compiles")
}

fn fuel(n: u64) -> ResourceLimits {
    ResourceLimits {
        fuel: Some(n),
        ..Default::default()
    }
}

/// A counted loop that prints each iteration, so fuel exhaustion at any
/// point leaves an observable output prefix.
const LOOP_SRC: &str = r#"
module G
int<64> looper(int<64> n) {
    local int<64> i
    local bool m
    i = assign 0
loop:
    call Hilti::print i
    i = int.add i 1
    m = int.lt i n
    if.else m loop done
done:
    return i
}
"#;

fn outcome(r: Result<Value, hilti_rt::error::RtError>) -> Result<i64, ExceptionKind> {
    match r {
        Ok(v) => Ok(v.as_int().expect("int result")),
        Err(e) => Err(e.kind),
    }
}

#[test]
fn fuel_parity_between_engines_across_all_limits() {
    let mut interp = build(LOOP_SRC, false);
    let mut vm_spec = build(LOOP_SRC, true);
    let mut vm_nospec = build(LOOP_SRC, false);
    let args = [Value::Int(8)];

    // Reference run, unmetered.
    let full = interp.run_interpreted("G::looper", &args).unwrap();
    assert!(full.equals(&Value::Int(8)));
    let full_out = interp.take_output();
    assert_eq!(full_out.len(), 8);

    // Sweep every fuel value up to well past what the program needs: the
    // three engines must agree on the outcome *and* on the output prefix
    // at every single limit.
    for f in 0..=80u64 {
        interp.set_limits(fuel(f));
        let oracle = outcome(interp.run_interpreted("G::looper", &args));
        let oracle_out = interp.take_output();

        for (label, p) in [("vm+spec", &mut vm_spec), ("vm", &mut vm_nospec)] {
            p.set_limits(fuel(f));
            let got = outcome(p.run("G::looper", &args));
            let out = p.take_output();
            assert_eq!(oracle, got, "{label} diverged from interpreter at fuel={f}");
            assert_eq!(oracle_out, out, "{label} output diverged at fuel={f}");
        }

        // Whatever was printed before running dry is a prefix of the
        // unmetered run's output.
        assert!(
            oracle_out.len() <= full_out.len() && oracle_out[..] == full_out[..oracle_out.len()],
            "fuel={f}: output is not a prefix of the unmetered run"
        );
        if let Err(kind) = oracle {
            assert_eq!(kind, ExceptionKind::ResourceExhausted, "fuel={f}");
        }
    }

    // Generous fuel: both engines finish and report identical remaining
    // fuel (the strongest form of charge-schedule parity).
    interp.set_limits(fuel(10_000));
    interp.run_interpreted("G::looper", &args).unwrap();
    let left_interp = interp.context().fuel_remaining().unwrap();
    vm_spec.set_limits(fuel(10_000));
    vm_spec.run("G::looper", &args).unwrap();
    let left_vm = vm_spec.context().fuel_remaining().unwrap();
    assert_eq!(left_interp, left_vm, "engines charged different totals");
}

#[test]
fn fuel_bounds_infinite_loops_in_both_engines() {
    const SPIN: &str = r#"
module G
void spin() {
loop:
    jump loop
}
"#;
    let mut p = build(SPIN, true);
    p.set_limits(fuel(100_000));
    let e = p.run_void("G::spin", &[]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);

    let mut p = build(SPIN, false);
    p.set_limits(fuel(100_000));
    let e = p.run_interpreted("G::spin", &[]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
}

#[test]
fn fuel_cannot_be_outrun_by_catching() {
    // A handler that catches ResourceExhausted gets no free instructions:
    // the meter is pinned at zero, so the program still terminates with
    // the exhaustion error instead of looping inside the handler.
    const CATCHER: &str = r#"
module G
int<64> greedy() {
    local int<64> i
    i = assign 0
    try {
loop:
        i = int.add i 1
        jump loop
    } catch ( ref<Hilti::ResourceExhausted> e ) {
        return -1
    }
    return i
}
"#;
    let mut p = build(CATCHER, true);
    p.set_limits(fuel(5_000));
    let e = p.run("G::greedy", &[]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
    assert_eq!(p.context().fuel_remaining(), Some(0));
}

const RECURSE_SRC: &str = r#"
module G
int<64> down(int<64> n) {
    local bool base
    local int<64> r
    base = int.leq n 0
    if.else base stop rec
stop:
    return 0
rec:
    r = int.sub n 1
    r = call down (r)
    r = int.add r 1
    return r
}
"#;

#[test]
fn call_depth_limit_enforced_in_both_engines() {
    let limits = ResourceLimits {
        max_call_depth: Some(64),
        ..Default::default()
    };

    let mut p = build(RECURSE_SRC, true);
    p.set_limits(limits);
    let e = p.run("G::down", &[Value::Int(1000)]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
    // Shallow recursion still fits.
    assert!(p
        .run("G::down", &[Value::Int(20)])
        .unwrap()
        .equals(&Value::Int(20)));

    let mut p = build(RECURSE_SRC, false);
    p.set_limits(limits);
    let e = p
        .run_interpreted("G::down", &[Value::Int(1000)])
        .unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
    assert!(p
        .run_interpreted("G::down", &[Value::Int(20)])
        .unwrap()
        .equals(&Value::Int(20)));
}

#[test]
fn depth_limit_is_catchable_at_the_call_site() {
    const GUARDED: &str = r#"
module G
int<64> down(int<64> n) {
    local bool base
    local int<64> r
    base = int.leq n 0
    if.else base stop rec
stop:
    return 0
rec:
    r = int.sub n 1
    r = call down (r)
    r = int.add r 1
    return r
}
int<64> guard() {
    local int<64> r
    try {
        r = call down (1000)
    } catch ( ref<Hilti::ResourceExhausted> e ) {
        return -1
    }
    return r
}
"#;
    let mut p = build(GUARDED, true);
    p.set_limits(ResourceLimits {
        max_call_depth: Some(64),
        ..Default::default()
    });
    assert!(p.run("G::guard", &[]).unwrap().equals(&Value::Int(-1)));
}

#[test]
fn heap_budget_bounds_bytes_growth() {
    const FILLER: &str = r#"
module G
int<64> fill(int<64> n) {
    local ref<bytes> b
    local int<64> i
    local bool m
    b = new bytes
    i = assign 0
loop:
    bytes.append b "0123456789abcdef"
    i = int.add i 1
    m = int.lt i n
    if.else m loop done
done:
    return i
}
"#;
    // Unmetered: 1000 iterations * 16 bytes is fine.
    let mut p = build(FILLER, true);
    assert!(p
        .run("G::fill", &[Value::Int(1000)])
        .unwrap()
        .equals(&Value::Int(1000)));

    // A 256-byte budget stops the program long before that, and the peak
    // accounted usage never exceeds the configured cap.
    let mut p = build(FILLER, true);
    p.set_limits(ResourceLimits {
        max_heap_bytes: Some(256),
        ..Default::default()
    });
    let e = p.run("G::fill", &[Value::Int(1000)]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
    let budget = p.context().heap_budget().unwrap();
    assert!(budget.peak() <= 256, "peak {} > cap", budget.peak());

    // Interpreter: identical enforcement.
    let mut p = build(FILLER, false);
    p.set_limits(ResourceLimits {
        max_heap_bytes: Some(256),
        ..Default::default()
    });
    let e = p
        .run_interpreted("G::fill", &[Value::Int(1000)])
        .unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
}

#[test]
fn heap_budget_bounds_container_growth() {
    const HOARDER: &str = r#"
module G
int<64> hoard(int<64> n) {
    local ref<set<int<64>>> s
    local int<64> i
    local bool m
    s = new set<int<64>>
    i = assign 0
loop:
    set.insert s i
    i = int.add i 1
    m = int.lt i n
    if.else m loop done
done:
    return i
}
"#;
    let mut p = build(HOARDER, true);
    assert!(p
        .run("G::hoard", &[Value::Int(500)])
        .unwrap()
        .equals(&Value::Int(500)));

    let mut p = build(HOARDER, true);
    p.set_limits(ResourceLimits {
        max_heap_bytes: Some(2_000),
        ..Default::default()
    });
    let e = p.run("G::hoard", &[Value::Int(500)]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
    let budget = p.context().heap_budget().unwrap();
    assert!(budget.peak() <= 2_000, "peak {} > cap", budget.peak());
}

#[test]
fn zero_deadline_trips_on_every_engine() {
    // deadline_ms = 0 pre-expires the watchdog, so the first amortized
    // check — which arming schedules for the first fuel charge — trips
    // deterministically on every engine, including the interpreter.
    let deadline = ResourceLimits {
        deadline_ms: Some(0),
        ..Default::default()
    };

    let mut p = build(LOOP_SRC, true);
    p.set_limits(deadline);
    let e = p.run("G::looper", &[Value::Int(1000)]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);

    let mut p = build(LOOP_SRC, false);
    p.set_limits(deadline);
    let e = p.run("G::looper", &[Value::Int(1000)]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);

    let mut p = build(LOOP_SRC, false);
    p.set_limits(deadline);
    let e = p
        .run_interpreted("G::looper", &[Value::Int(1000)])
        .unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
}

#[test]
fn deadline_cannot_be_outrun_by_catching() {
    // Like fuel, a tripped deadline stays tripped: a handler that catches
    // ResourceExhausted re-trips within one check interval, so a wedged
    // program cannot loop forever inside its own handler.
    const CATCHER: &str = r#"
module G
int<64> greedy() {
    local int<64> i
    i = assign 0
    try {
loop:
        i = int.add i 1
        jump loop
    } catch ( ref<Hilti::ResourceExhausted> e ) {
        return -1
    }
    return i
}
"#;
    let mut p = build(CATCHER, true);
    p.set_limits(ResourceLimits {
        deadline_ms: Some(0),
        ..Default::default()
    });
    let e = p.run("G::greedy", &[]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
}

#[test]
fn generous_deadline_does_not_perturb_execution() {
    // A deadline the program comfortably beats must not change the result,
    // the printed output, or the fuel charge schedule.
    let args = [Value::Int(8)];
    let mut plain = build(LOOP_SRC, true);
    plain.set_limits(fuel(10_000));
    let want = plain.run("G::looper", &args).unwrap();
    let want_out = plain.take_output();
    let want_fuel = plain.context().fuel_remaining().unwrap();

    let mut p = build(LOOP_SRC, true);
    p.set_limits(ResourceLimits {
        fuel: Some(10_000),
        deadline_ms: Some(600_000),
        ..Default::default()
    });
    let got = p.run("G::looper", &args).unwrap();
    assert!(got.equals(&want));
    assert_eq!(p.take_output(), want_out);
    assert_eq!(p.context().fuel_remaining().unwrap(), want_fuel);
}

#[test]
fn fault_injection_is_deterministic() {
    let run_with_fault = |after: u64| {
        let mut p = build(LOOP_SRC, true);
        p.context_mut()
            .inject_fault_after(after, hilti_rt::error::RtError::io("injected I/O fault"));
        let r = outcome(p.run("G::looper", &[Value::Int(50)]));
        (r, p.take_output())
    };

    let (r1, out1) = run_with_fault(40);
    let (r2, out2) = run_with_fault(40);
    assert_eq!(r1, r2, "same countdown must fail identically");
    assert_eq!(out1, out2, "same countdown must print identically");
    assert_eq!(r1, Err(ExceptionKind::IoError));

    // A later trigger point strictly extends the observable prefix.
    let (_, out_later) = run_with_fault(120);
    assert!(out_later.len() > out1.len());
    assert_eq!(out1[..], out_later[..out1.len()]);

    // Disarmed (never triggered): the program completes and the armed
    // error does not linger into later runs.
    let mut p = build(LOOP_SRC, true);
    p.context_mut()
        .inject_fault_after(1_000_000, hilti_rt::error::RtError::io("never fires"));
    assert!(p
        .run("G::looper", &[Value::Int(8)])
        .unwrap()
        .equals(&Value::Int(8)));
}

#[test]
fn injected_faults_are_catchable() {
    const GUARDED: &str = r#"
module G
int<64> guard() {
    local int<64> i
    local bool m
    try {
        i = assign 0
loop:
        i = int.add i 1
        m = int.lt i 1000
        if.else m loop done
    } catch ( ref<Hilti::IoError> e ) {
        return -1
    }
done:
    return i
}
"#;
    let mut p = build(GUARDED, true);
    p.context_mut()
        .inject_fault_after(100, hilti_rt::error::RtError::io("flaky disk"));
    assert!(p.run("G::guard", &[]).unwrap().equals(&Value::Int(-1)));
}

#[test]
fn exception_unwinds_across_fiber_suspend_resume() {
    // The incremental-parsing failure pattern: a handler is installed,
    // parsing blocks on missing input (WouldBlock suspends the fiber
    // *inside* the try), the host feeds more data and resumes, and only
    // then does the parse fail — the error must still reach the handler
    // installed before the suspension.
    const SRC: &str = r#"
module G
string parse(ref<bytes> data) {
    local iterator<bytes> it
    local int<64> a
    local string m
    try {
        it = bytes.begin data
        a = iterator.deref it
        exception.throw Hilti::ValueError "bad byte"
    } catch ( ref<Hilti::ValueError> e ) {
        m = exception.message e
        return m
    }
    return "no error"
}
"#;
    let p = build(SRC, true);
    let data = hilti_rt::Bytes::new();
    let mut fiber = p.fiber("G::parse", vec![Value::Bytes(data.clone())]);

    let mut p = p;
    match p.resume(&mut fiber).unwrap() {
        hilti::fiber::Step::Suspended => {}
        other => panic!("expected suspension on empty input, got {other:?}"),
    }
    data.append(&[0x41]).unwrap();
    match p.resume(&mut fiber).unwrap() {
        hilti::fiber::Step::Finished(v) => assert_eq!(v.render(), "bad byte"),
        other => panic!("expected completion after resume, got {other:?}"),
    }
}

#[test]
fn fuel_persists_across_fiber_suspensions() {
    // A suspended fiber does not refill its context's meter: the charge
    // state spans suspend/resume, so a flow cannot evade its budget by
    // blocking on input.
    const SRC: &str = r#"
module G
int<64> read_two(ref<bytes> data) {
    local iterator<bytes> it
    local int<64> a
    local int<64> b
    it = bytes.begin data
    a = iterator.deref it
    it = iterator.incr it 1
    b = iterator.deref it
    a = int.mul a 256
    a = int.add a b
    return a
}
"#;
    let mut p = build(SRC, true);
    p.set_limits(fuel(1_000));
    let data = hilti_rt::Bytes::new();
    let mut fiber = p.fiber("G::read_two", vec![Value::Bytes(data.clone())]);
    assert!(matches!(
        p.resume(&mut fiber).unwrap(),
        hilti::fiber::Step::Suspended
    ));
    let after_first = p.context().fuel_remaining().unwrap();
    assert!(after_first < 1_000);
    data.append(&[0x01, 0x02]).unwrap();
    match p.resume(&mut fiber).unwrap() {
        hilti::fiber::Step::Finished(v) => assert!(v.equals(&Value::Int(0x0102))),
        other => panic!("unexpected {other:?}"),
    }
    assert!(p.context().fuel_remaining().unwrap() < after_first);
}

/// Recursion with a print (a threaded-tier deopt site) on every call, so
/// tiered execution constantly crosses the threaded ↔ generic boundary
/// while fuel runs down.
const REC_PRINT_SRC: &str = r#"
module G
int<64> pfib(int<64> n) {
    local bool base
    local int<64> a
    local int<64> b
    call Hilti::print n
    base = int.lt n 2
    if.else base ret rec
ret:
    return n
rec:
    a = int.sub n 1
    a = call pfib (a)
    b = int.sub n 2
    b = call pfib (b)
    a = int.add a b
    return a
}
"#;

fn tiered(src: &str, mode: hilti::tier::TieringMode) -> Program {
    use hilti::tier::TierConfig;
    let mut p = Program::from_sources_opts(
        &[src],
        OptLevel::None,
        BuildOptions {
            tiering: Some(mode),
            ..Default::default()
        },
    )
    .expect("test program compiles");
    // Tiny thresholds so the sweep workloads tier up almost immediately.
    p.context_mut().set_tiering_config(
        mode,
        TierConfig {
            hot_invocations: 2,
            hot_retired: 16,
            ic_cap: 4,
        },
    );
    p
}

/// All four tiering modes — or just the one named by `HILTI_TIERING`, so
/// the CI tier matrix splits the differential cost across jobs.
fn modes_under_test() -> Vec<hilti::tier::TieringMode> {
    use hilti::tier::TieringMode;
    match TieringMode::from_env() {
        Some(m) => vec![m],
        None => vec![
            TieringMode::Off,
            TieringMode::Lazy,
            TieringMode::Eager,
            TieringMode::Threaded,
        ],
    }
}

#[test]
fn fuel_parity_across_tiering_modes_with_deopt_sites() {
    // The strongest tier-parity property: at *every* fuel limit, every
    // tiering mode reproduces the interpreter's outcome and output prefix
    // exactly — through warmup, tier-up, threaded execution and the deopt
    // single-steps around each print.
    let mut interp = build(REC_PRINT_SRC, false);
    let args = [Value::Int(9)];
    interp.set_limits(fuel(1_000_000));
    interp.run_interpreted("G::pfib", &args).unwrap();
    let need = 1_000_000 - interp.context().fuel_remaining().unwrap();
    interp.take_output();
    assert!(need > 100, "workload too small to be interesting: {need}");

    let oracle: Vec<(Result<i64, ExceptionKind>, Vec<String>)> = (0..=need + 8)
        .map(|f| {
            interp.set_limits(fuel(f));
            let o = outcome(interp.run_interpreted("G::pfib", &args));
            (o, interp.take_output())
        })
        .collect();

    for mode in modes_under_test() {
        // One program per mode: tier state deliberately persists across the
        // sweep, so later limits run fully tiered from the first call.
        let mut p = tiered(REC_PRINT_SRC, mode);
        for (f, (want, want_out)) in oracle.iter().enumerate() {
            p.set_limits(fuel(f as u64));
            let got = outcome(p.run("G::pfib", &args));
            let out = p.take_output();
            assert_eq!(*want, got, "{mode:?} diverged from interpreter at fuel={f}");
            assert_eq!(*want_out, out, "{mode:?} output diverged at fuel={f}");
        }
    }
}

#[test]
fn call_depth_limit_parity_across_tiering_modes() {
    // The threaded executor deopts *before* charging when the next call
    // would cross the depth limit, so the generic arm performs its exact
    // charge-then-raise sequence: same error, same fuel, every mode.
    let limits = ResourceLimits {
        max_call_depth: Some(24),
        fuel: Some(1_000_000),
        ..Default::default()
    };

    let mut oracle = build(RECURSE_SRC, true);
    oracle.set_limits(limits);
    let e = oracle.run("G::down", &[Value::Int(1000)]).unwrap_err();
    assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
    let want_fuel = oracle.context().fuel_spent();

    for mode in modes_under_test() {
        let mut p = tiered(RECURSE_SRC, mode);
        // Warm until `down` is tiered (and threaded-compiled) before the
        // erroring deep run.
        for _ in 0..4 {
            assert!(p
                .run("G::down", &[Value::Int(8)])
                .unwrap()
                .equals(&Value::Int(8)));
        }
        let warm_fuel = p.context().fuel_spent();
        p.set_limits(limits);
        let e = p.run("G::down", &[Value::Int(1000)]).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::ResourceExhausted, "{mode:?}");
        assert_eq!(
            p.context().fuel_spent() - warm_fuel,
            want_fuel,
            "{mode:?} charged a different total on the depth-limited run"
        );
    }
}
