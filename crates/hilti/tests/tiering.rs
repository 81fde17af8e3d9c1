//! Integration tests for the adaptive tiering layer (profile-guided
//! re-lowering with inline caches).
//!
//! Covers the IC state machine end to end — hit, miss-refill, polymorphic
//! cap, de-optimization — plus output/fuel parity across tiering modes and
//! the `engine.tierup` / `ic.*` telemetry surface.

use hilti::host::{BuildOptions, Program};
use hilti::passes::OptLevel;
use hilti::tier::{TierConfig, TieringMode};
use hilti::Value;
use hilti_rt::bytestring::Bytes;

const SRC: &str = r#"
module M

type T1 = struct { int<64> a, int<64> b }
type T2 = struct { int<64> b, int<64> a }
type T3 = struct { int<64> c, int<64> d, int<64> b }
type T4 = struct { int<64> x, int<64> y, int<64> z, int<64> b }
type T5 = struct { int<64> p, int<64> b, int<64> q }
type T6 = struct { int<64> b, int<64> c }
type NoB = struct { int<64> a }

type Hdr = overlay {
    tag: int<16> at 0 unpack UInt16BigEndian,
    len: int<16> at 2 unpack UInt16BigEndian
}

int<64> getb(any s) {
    local int<64> v
    v = struct.get s b
    return v
}

int<64> setb(any s, int<64> v) {
    struct.set s b v
    return v
}

any mk1() {
    local any s
    s = new T1
    struct.set s a 10
    struct.set s b 1
    return s
}

any mk2() {
    local any s
    s = new T2
    struct.set s b 2
    return s
}

any mk3() {
    local any s
    s = new T3
    struct.set s b 3
    return s
}

any mk4() {
    local any s
    s = new T4
    struct.set s b 4
    return s
}

any mk5() {
    local any s
    s = new T5
    struct.set s b 5
    return s
}

any mk6() {
    local any s
    s = new T6
    struct.set s b 6
    return s
}

any mk_unset() {
    local any s
    s = new T1
    return s
}

any mk_nob() {
    local any s
    s = new NoB
    return s
}

int<16> hdr_len(ref<bytes> pkt) {
    local int<16> v
    v = overlay.get Hdr len pkt
    return v
}

int<64> double(int<64> x) {
    local int<64> y
    y = int.add x x
    return y
}

int<64> callit(any c, int<64> x) {
    local int<64> r
    r = callable.call c x
    return r
}

any mkcb() {
    local any c
    c = callable.bind double
    return c
}

int<64> fib(int<64> n) {
    local bool base
    local int<64> a
    local int<64> b
    local int<64> r
    base = int.lt n 2
    if.else base ret rec
ret:
    return n
rec:
    a = int.sub n 1
    a = call fib (a)
    b = int.sub n 2
    b = call fib (b)
    r = int.add a b
    return r
}
"#;

fn build(mode: TieringMode) -> Program {
    let mut p = Program::from_sources_opts(
        &[SRC],
        OptLevel::Full,
        BuildOptions {
            tiering: Some(mode),
            ..Default::default()
        },
    )
    .unwrap();
    // Tiny thresholds so short test workloads cross them.
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

fn site<'r>(
    report: &'r hilti::tier::TierReport,
    func: &str,
    kind: &str,
) -> &'r hilti::tier::IcSiteReport {
    report
        .functions
        .iter()
        .find(|f| f.name == func)
        .unwrap_or_else(|| panic!("{func} not tiered: {report:?}"))
        .ic_sites
        .iter()
        .find(|s| s.kind == kind)
        .unwrap_or_else(|| panic!("no {kind} site in {func}: {report:?}"))
}

#[test]
fn ic_hit_after_monomorphic_miss_refill() {
    let mut p = build(TieringMode::Eager);
    let s = p.run("M::mk1", &[]).unwrap();
    for _ in 0..10 {
        let v = p.run("M::getb", std::slice::from_ref(&s)).unwrap();
        assert!(v.equals(&Value::Int(1)), "{v:?}");
    }
    let report = p.context().tier_report();
    assert!(report.tierups >= 1);
    let ic = site(&report, "M::getb", "struct.get");
    assert_eq!(ic.misses, 1, "{ic:?}");
    assert_eq!(ic.hits, 9, "{ic:?}");
    assert_eq!(ic.entries, 1, "{ic:?}");
    assert!(!ic.deopt);
}

#[test]
fn ic_refills_per_receiver_type_up_to_cap() {
    let mut p = build(TieringMode::Eager);
    let s1 = p.run("M::mk1", &[]).unwrap();
    let s2 = p.run("M::mk2", &[]).unwrap();
    // Two receiver types: one miss each, hits thereafter. The field lives
    // at a different index in each struct, so a stale cache entry would
    // return the wrong field value — correctness proves the guard works.
    for _ in 0..4 {
        assert!(p
            .run("M::getb", std::slice::from_ref(&s1))
            .unwrap()
            .equals(&Value::Int(1)));
        assert!(p
            .run("M::getb", std::slice::from_ref(&s2))
            .unwrap()
            .equals(&Value::Int(2)));
    }
    let report = p.context().tier_report();
    let ic = site(&report, "M::getb", "struct.get");
    assert_eq!(ic.entries, 2, "{ic:?}");
    assert_eq!(ic.misses, 2, "{ic:?}");
    assert_eq!(ic.hits, 6, "{ic:?}");
    assert!(!ic.deopt);
}

#[test]
fn ic_polymorphic_cap_deoptimizes_but_stays_correct() {
    let mut p = build(TieringMode::Eager);
    let vals: Vec<Value> = (1..=6)
        .map(|i| p.run(&format!("M::mk{i}"), &[]).unwrap())
        .collect();
    // Six receiver types against a cap of four: the site must de-optimize
    // to the generic lookup — and keep producing correct answers.
    for round in 0..3 {
        for (i, s) in vals.iter().enumerate() {
            let v = p.run("M::getb", std::slice::from_ref(s)).unwrap();
            assert!(
                v.equals(&Value::Int(i as i64 + 1)),
                "round {round} type T{} gave {v:?}",
                i + 1
            );
        }
    }
    let report = p.context().tier_report();
    let ic = site(&report, "M::getb", "struct.get");
    assert!(ic.deopt, "{ic:?}");
    assert_eq!(ic.entries, 0, "de-opt clears the cache: {ic:?}");
}

#[test]
fn struct_set_ic_writes_through() {
    let mut p = build(TieringMode::Eager);
    let s = p.run("M::mk1", &[]).unwrap();
    for k in 0..5 {
        p.run("M::setb", &[s.clone(), Value::Int(100 + k)]).unwrap();
    }
    let v = p.run("M::getb", &[s]).unwrap();
    assert!(v.equals(&Value::Int(104)), "{v:?}");
    let report = p.context().tier_report();
    let ic = site(&report, "M::setb", "struct.set");
    assert_eq!(ic.misses, 1, "{ic:?}");
    assert_eq!(ic.hits, 4, "{ic:?}");
}

#[test]
fn overlay_ic_caches_resolved_overlay_type() {
    let mut p = build(TieringMode::Eager);
    let pkt = Value::Bytes(Bytes::frozen_from_slice(&[0x00, 0x07, 0x00, 0x2a]));
    for _ in 0..6 {
        let v = p.run("M::hdr_len", std::slice::from_ref(&pkt)).unwrap();
        assert!(v.equals(&Value::Int(42)), "{v:?}");
    }
    let report = p.context().tier_report();
    let ic = site(&report, "M::hdr_len", "overlay.get");
    assert_eq!(ic.misses, 1, "{ic:?}");
    assert_eq!(ic.hits, 5, "{ic:?}");
}

#[test]
fn callable_ic_caches_callee_resolution() {
    let mut p = build(TieringMode::Eager);
    let c = p.run("M::mkcb", &[]).unwrap();
    for _ in 0..6 {
        let v = p.run("M::callit", &[c.clone(), Value::Int(21)]).unwrap();
        assert!(v.equals(&Value::Int(42)), "{v:?}");
    }
    let report = p.context().tier_report();
    let ic = site(&report, "M::callit", "callable.call");
    assert_eq!(ic.misses, 1, "{ic:?}");
    assert_eq!(ic.hits, 5, "{ic:?}");
}

#[test]
fn tiering_modes_agree_on_output_and_fuel() {
    // The same recursive workload under static specialization and all four
    // tiering modes: byte-identical results and identical fuel.
    let mut stat =
        Program::from_sources_opts(&[SRC], OptLevel::Full, BuildOptions::default()).unwrap();
    let want = stat.run("M::fib", &[Value::Int(15)]).unwrap();
    let want_fuel = stat.context().fuel_spent();
    assert!(want.equals(&Value::Int(610)), "{want:?}");

    for mode in [
        TieringMode::Off,
        TieringMode::Lazy,
        TieringMode::Eager,
        TieringMode::Threaded,
    ] {
        let mut p = build(mode);
        let got = p.run("M::fib", &[Value::Int(15)]).unwrap();
        let fuel = p.context().fuel_spent();
        assert!(got.equals(&want), "{mode:?}: {got:?} != {want:?}");
        assert_eq!(fuel, want_fuel, "{mode:?} fuel diverged");
        let tierups = p.context().tier_report().tierups;
        match mode {
            TieringMode::Off => assert_eq!(tierups, 0),
            _ => assert!(tierups >= 1, "{mode:?} never tiered"),
        }
    }
}

#[test]
fn ic_errors_match_generic_messages() {
    // IC fast paths must raise byte-identical exceptions to the generic
    // ops they replace: wrong receiver type, missing field, unset field.
    let cases: Vec<(&str, Vec<Value>)> = vec![
        ("M::getb", vec![Value::Int(3)]),
        ("M::setb", vec![Value::Bool(true), Value::Int(1)]),
    ];
    for (func, args) in cases {
        let mut off = build(TieringMode::Off);
        let mut eager = build(TieringMode::Eager);
        // Warm the eager build so the erroring call runs tiered code.
        let e_off = off.run(func, &args).unwrap_err();
        let e_tier = eager.run(func, &args).unwrap_err();
        let _ = eager.run(func, &args).unwrap_err();
        assert_eq!(e_off.kind, e_tier.kind, "{func}");
        assert_eq!(e_off.message, e_tier.message, "{func}");
    }

    // Struct-typed receivers that still fail: no such field / unset field.
    for maker in ["M::mk_nob", "M::mk_unset"] {
        let mut off = build(TieringMode::Off);
        let mut eager = build(TieringMode::Eager);
        let s_off = off.run(maker, &[]).unwrap();
        let s_tier = eager.run(maker, &[]).unwrap();
        let e_off = off.run("M::getb", &[s_off]).unwrap_err();
        let e_tier = eager
            .run("M::getb", std::slice::from_ref(&s_tier))
            .unwrap_err();
        let e_tier2 = eager.run("M::getb", &[s_tier]).unwrap_err();
        assert_eq!(e_off.kind, e_tier.kind, "{maker}");
        assert_eq!(e_off.message, e_tier.message, "{maker}");
        assert_eq!(e_off.message, e_tier2.message, "{maker} (warm)");
    }
}

#[test]
fn tierup_and_ic_telemetry_counters() {
    use hilti_rt::telemetry::Telemetry;

    let mut p = build(TieringMode::Eager);
    let tel = Telemetry::new();
    p.context_mut().set_telemetry(&tel);
    let s = p.run("M::mk1", &[]).unwrap();
    for _ in 0..8 {
        p.run("M::getb", std::slice::from_ref(&s)).unwrap();
    }
    let snap = tel.snapshot();
    assert!(snap.counter("engine.tierup") >= 1, "{:?}", snap.counters);
    assert!(snap.counter("ic.hit") >= 7, "{:?}", snap.counters);
    assert!(snap.counter("ic.miss") >= 1, "{:?}", snap.counters);
    assert!(
        snap.events_of_kind("tier_up") >= 1,
        "{}",
        snap.events_jsonl()
    );
}

#[test]
fn observational_modes_pin_generic_tier() {
    // Tracing executions must not tier up: the trace is defined against
    // generic bytecode and must stay byte-identical across modes.
    let mut p = build(TieringMode::Eager);
    p.context_mut().trace = true;
    let s = p.run("M::mk1", &[]).unwrap();
    for _ in 0..6 {
        p.run("M::getb", std::slice::from_ref(&s)).unwrap();
    }
    assert_eq!(p.context().tier_report().tierups, 0);
}

#[test]
fn threaded_tier_dominates_hot_recursion() {
    // Once `fib` crosses the hotness threshold the threaded executor should
    // retire essentially all remaining fuel; only warmup and tier-boundary
    // single-steps stay generic.
    let mut p = build(TieringMode::Threaded);
    let got = p.run("M::fib", &[Value::Int(20)]).unwrap();
    assert!(got.equals(&Value::Int(6765)), "{got:?}");
    let mix = p.context().tier_mix();
    assert!(
        mix.threaded * 10 > mix.total() * 9,
        "threaded share too low: {mix:?}"
    );
}

#[test]
#[ignore]
fn perf_probe() {
    for mode in [TieringMode::Off, TieringMode::Lazy, TieringMode::Threaded] {
        let mut p = Program::from_sources_opts(
            &[SRC],
            OptLevel::Full,
            BuildOptions {
                tiering: Some(mode),
                ..Default::default()
            },
        )
        .unwrap();
        let t = std::time::Instant::now();
        let got = p.run("M::fib", &[Value::Int(28)]).unwrap();
        let el = t.elapsed();
        let mix = p.context().tier_mix();
        let fuel = p.context().fuel_spent();
        eprintln!(
            "{mode:?}: {el:?} result={got:?} fuel={fuel} ns/unit={:.1} mix={mix:?}",
            el.as_nanos() as f64 / fuel as f64
        );
    }
}

#[test]
fn observational_modes_never_enter_threaded_code() {
    // Tracing, stats and profiling (and armed fault injection) must see
    // the canonical instruction stream: with any of them enabled the
    // dispatch loop never enters tiered code, so their outputs are
    // byte-identical across tiering modes by construction.
    let mut off = build(TieringMode::Off);
    off.context_mut().trace = true;
    let want = off.run("M::fib", &[Value::Int(12)]).unwrap();
    let want_trace = off.context_mut().take_trace();
    assert!(!want_trace.is_empty());

    let mut traced = build(TieringMode::Threaded);
    traced.context_mut().trace = true;
    let got = traced.run("M::fib", &[Value::Int(12)]).unwrap();
    let got_trace = traced.context_mut().take_trace();
    assert!(got.equals(&want));
    assert_eq!(want_trace, got_trace, "trace diverged under threaded mode");
    let mix = traced.context().tier_mix();
    assert_eq!(
        mix.threaded, 0,
        "tracing must pin the generic tier: {mix:?}"
    );
    assert_eq!(mix.specialized, 0, "{mix:?}");

    for set in [
        (|c: &mut hilti::vm::Context| c.stats = true) as fn(&mut hilti::vm::Context),
        |c| c.profile = true,
    ] {
        let mut p = build(TieringMode::Threaded);
        set(p.context_mut());
        let got = p.run("M::fib", &[Value::Int(12)]).unwrap();
        assert!(got.equals(&want));
        let mix = p.context().tier_mix();
        assert_eq!(mix.threaded + mix.specialized, 0, "{mix:?}");
        assert_eq!(mix.generic, mix.total(), "{mix:?}");
    }
}

#[test]
fn threaded_ic_miss_deopts_and_recovers() {
    // A monomorphic hot function compiles to threaded code with a bound IC
    // slot; feeding a new receiver type misses in the threaded hit path,
    // deopts to the generic arm (which owns the refill), and subsequent
    // calls keep working — with both shapes now cached.
    let mut p = build(TieringMode::Threaded);
    let s1 = p.run("M::mk1", &[]).unwrap();
    let s2 = p.run("M::mk2", &[]).unwrap();
    for _ in 0..4 {
        let v = p.run("M::getb", std::slice::from_ref(&s1)).unwrap();
        assert!(v.equals(&Value::Int(1)), "{v:?}");
    }
    let v = p.run("M::getb", std::slice::from_ref(&s2)).unwrap();
    assert!(
        v.equals(&Value::Int(2)),
        "post-deopt miss mishandled: {v:?}"
    );
    let v = p.run("M::getb", std::slice::from_ref(&s1)).unwrap();
    assert!(v.equals(&Value::Int(1)), "{v:?}");

    let report = p.context().tier_report();
    let ic = site(&report, "M::getb", "struct.get");
    assert!(ic.misses >= 2, "warmup + T2 refill: {ic:?}");
    assert!(ic.hits >= 3, "{ic:?}");
    let mix = p.context().tier_mix();
    assert!(mix.threaded > 0, "never entered threaded code: {mix:?}");
    assert!(mix.generic > 0, "deopt path never ran: {mix:?}");
}
