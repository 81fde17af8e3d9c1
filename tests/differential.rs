//! Differential testing of the execution engines and the optimizer.
//!
//! Random structured programs are generated from a compact recipe, emitted
//! as textual HILTI, and executed several ways:
//!
//!   1. the tree-walking interpreter on unoptimized IR (the oracle),
//!   2. the bytecode VM on unoptimized IR, specializer off,
//!   3. the bytecode VM on unoptimized IR, specializer on,
//!   4. the bytecode VM on fully optimized IR, specializer off,
//!   5. the bytecode VM on fully optimized IR, specializer on.
//!
//! All must agree on the outcome — the returned value, or the kind of
//! exception raised — *and* on printed output (each kernel prints its
//! result through `Hilti::print`, so host-call marshalling is covered
//! too). Integer arithmetic wraps in HILTI, so the only reachable trap in
//! these programs is division/modulo by zero — which the generator
//! deliberately does not avoid, so that trap behaviour is differentially
//! tested too (e.g. that dead-code elimination never deletes a trapping
//! instruction, constant folding never hides one, and the specialized
//! fast tier raises exactly where the generic path would).

use hilti::host::BuildOptions;
use hilti::passes::OptLevel;
use hilti::tier::{TierConfig, TieringMode};
use hilti::{Program, Value};
use proptest::prelude::*;

const SLOTS: u8 = 6;

/// One step of a generated kernel, operating on int slots `t0..t5`.
/// `t0`/`t1` start as the two function arguments, `t2..t5` as constants.
#[derive(Debug, Clone)]
enum Step {
    /// `t[dst] = <add|sub|mul|div|mod> t[a] t[b]`
    Bin { op: u8, dst: u8, a: u8, b: u8 },
    /// `if t[a] <eq|lt|gt> t[b] { t[dst] = t[x] + t[y] } else { t[dst] = t[x] - t[y] }`
    Diamond {
        cmp: u8,
        a: u8,
        b: u8,
        dst: u8,
        x: u8,
        y: u8,
    },
    /// `repeat iters times: t[dst] = t[dst] + t[src]`
    Loop { iters: u8, dst: u8, src: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let slot = || 0u8..SLOTS;
    prop_oneof![
        3 => (0u8..5, slot(), slot(), slot())
            .prop_map(|(op, dst, a, b)| Step::Bin { op, dst, a, b }),
        2 => (0u8..3, slot(), slot(), slot(), slot(), slot())
            .prop_map(|(cmp, a, b, dst, x, y)| Step::Diamond { cmp, a, b, dst, x, y }),
        1 => (1u8..5, slot(), slot())
            .prop_map(|(iters, dst, src)| Step::Loop { iters, dst, src }),
    ]
}

/// Loop-heavy variant: the distribution the specializer targets — counted
/// loops with compare-and-branch back-edges dominate, with longer
/// iteration counts so the fast tier executes thousands of specialized
/// instructions per case rather than a handful.
fn loop_heavy_step_strategy() -> impl Strategy<Value = Step> {
    let slot = || 0u8..SLOTS;
    prop_oneof![
        4 => (1u8..40, slot(), slot())
            .prop_map(|(iters, dst, src)| Step::Loop { iters, dst, src }),
        2 => (0u8..3, slot(), slot(), slot(), slot(), slot())
            .prop_map(|(cmp, a, b, dst, x, y)| Step::Diamond { cmp, a, b, dst, x, y }),
        2 => (0u8..5, slot(), slot(), slot())
            .prop_map(|(op, dst, a, b)| Step::Bin { op, dst, a, b }),
    ]
}

/// Renders a recipe as a textual HILTI module with a single
/// `int<64> kernel(int<64> a, int<64> b)` function.
fn emit(recipe: &[Step], consts: &[i64], ret: u8) -> String {
    let mut src = String::from("module Fuzz\n\nint<64> kernel(int<64> a, int<64> b) {\n");
    for t in 0..SLOTS {
        src.push_str(&format!("    local int<64> t{t}\n"));
    }
    for (i, step) in recipe.iter().enumerate() {
        match step {
            Step::Diamond { .. } => src.push_str(&format!("    local bool c{i}\n")),
            Step::Loop { .. } => {
                src.push_str(&format!("    local int<64> i{i}\n"));
                src.push_str(&format!("    local bool m{i}\n"));
            }
            Step::Bin { .. } => {}
        }
    }
    src.push_str("    t0 = assign a\n    t1 = assign b\n");
    for (t, c) in consts.iter().enumerate() {
        src.push_str(&format!("    t{} = assign {c}\n", t + 2));
    }
    for (i, step) in recipe.iter().enumerate() {
        match *step {
            Step::Bin { op, dst, a, b } => {
                let mnem = ["int.add", "int.sub", "int.mul", "int.div", "int.mod"][op as usize];
                src.push_str(&format!("    t{dst} = {mnem} t{a} t{b}\n"));
            }
            Step::Diamond {
                cmp,
                a,
                b,
                dst,
                x,
                y,
            } => {
                let mnem = ["int.eq", "int.lt", "int.gt"][cmp as usize];
                src.push_str(&format!("    c{i} = {mnem} t{a} t{b}\n"));
                src.push_str(&format!("    if.else c{i} then{i} else{i}\n"));
                src.push_str(&format!("then{i}:\n"));
                src.push_str(&format!("    t{dst} = int.add t{x} t{y}\n"));
                src.push_str(&format!("    jump end{i}\n"));
                src.push_str(&format!("else{i}:\n"));
                src.push_str(&format!("    t{dst} = int.sub t{x} t{y}\n"));
                src.push_str(&format!("end{i}:\n"));
            }
            Step::Loop { iters, dst, src: s } => {
                src.push_str(&format!("    i{i} = assign 0\n"));
                src.push_str(&format!("loop{i}:\n"));
                src.push_str(&format!("    t{dst} = int.add t{dst} t{s}\n"));
                src.push_str(&format!("    i{i} = int.add i{i} 1\n"));
                src.push_str(&format!("    m{i} = int.lt i{i} {iters}\n"));
                src.push_str(&format!("    if.else m{i} loop{i} end{i}\n"));
                src.push_str(&format!("end{i}:\n"));
            }
        }
    }
    // Print the result so output parity is differentially tested too.
    src.push_str(&format!("    call Hilti::print t{ret}\n"));
    src.push_str(&format!("    return t{ret}\n}}\n"));
    src
}

/// Builds the generated source with the given optimization level and
/// specializer switch.
fn build(src: &str, opt: OptLevel, specialize: bool) -> Program {
    Program::from_sources_opts(
        &[src],
        opt,
        BuildOptions {
            specialize,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("generated program rejected: {e}\n{src}"))
}

/// Runs one engine configuration, returning (outcome, printed output).
fn run_vm(p: &mut Program, args: &[Value]) -> (Result<i64, String>, Vec<String>) {
    let r = outcome(p.run("Fuzz::kernel", args));
    (r, p.take_output())
}

/// Normalizes a run result to something comparable across engines:
/// the integer outcome, or the exception kind's HILTI-level name.
fn outcome(r: Result<Value, hilti_rt::error::RtError>) -> Result<i64, String> {
    match r {
        Ok(v) => Ok(v.as_int().expect("kernel returns int<64>")),
        Err(e) => Err(e.kind.name().to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_and_optimizer_agree(
        recipe in prop::collection::vec(step_strategy(), 1..10),
        consts in prop::collection::vec(-50i64..50, 4),
        ret in 0u8..SLOTS,
        a in -1000i64..1000,
        b in -1000i64..1000,
    ) {
        let src = emit(&recipe, &consts, ret);
        let args = [Value::Int(a), Value::Int(b)];

        let mut plain = build(&src, OptLevel::None, true);
        let mut plain_nospec = build(&src, OptLevel::None, false);
        let mut opt = build(&src, OptLevel::Full, true);
        let mut opt_nospec = build(&src, OptLevel::Full, false);

        let oracle = outcome(plain.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = plain.take_output();

        for (label, p) in [
            ("plain VM, specialized", &mut plain),
            ("plain VM, no specializer", &mut plain_nospec),
            ("optimized VM, specialized", &mut opt),
            ("optimized VM, no specializer", &mut opt_nospec),
        ] {
            let (r, out) = run_vm(p, &args);
            prop_assert_eq!(&oracle, &r, "{} diverged from interpreter\n{}", label, src);
            prop_assert_eq!(&oracle_out, &out, "{} printed differently\n{}", label, src);
        }
    }

    /// The specializer's target distribution: loop-heavy integer/branch
    /// kernels, run with the pass on and off at both optimization levels.
    #[test]
    fn loop_heavy_specializer_on_off_agree(
        recipe in prop::collection::vec(loop_heavy_step_strategy(), 2..12),
        consts in prop::collection::vec(-50i64..50, 4),
        ret in 0u8..SLOTS,
        a in -1000i64..1000,
        b in -1000i64..1000,
    ) {
        let src = emit(&recipe, &consts, ret);
        let args = [Value::Int(a), Value::Int(b)];

        let mut plain_nospec = build(&src, OptLevel::None, false);
        let mut plain_spec = build(&src, OptLevel::None, true);
        let mut opt_spec = build(&src, OptLevel::Full, true);

        let oracle = outcome(plain_nospec.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = plain_nospec.take_output();

        let (vm_nospec, out_nospec) = run_vm(&mut plain_nospec, &args);
        let (vm_spec, out_spec) = run_vm(&mut plain_spec, &args);
        let (vm_opt_spec, out_opt_spec) = run_vm(&mut opt_spec, &args);

        prop_assert_eq!(&oracle, &vm_nospec, "generic VM diverged\n{}", src);
        prop_assert_eq!(&oracle, &vm_spec, "specialized VM diverged\n{}", src);
        prop_assert_eq!(&oracle, &vm_opt_spec, "optimized+specialized VM diverged\n{}", src);
        prop_assert_eq!(&oracle_out, &out_nospec, "generic VM printed differently\n{}", src);
        prop_assert_eq!(&oracle_out, &out_spec, "specialized VM printed differently\n{}", src);
        prop_assert_eq!(&oracle_out, &out_opt_spec, "optimized+specialized VM printed differently\n{}", src);
    }

    /// Resource governance differential: under a fuel limit, the
    /// tree-walking interpreter and the bytecode VM (specializer on and
    /// off) must exhaust at the *same* point — same outcome (including
    /// `Hilti::ResourceExhausted`), same printed prefix, same remaining
    /// fuel. Fuel parity holds only at matching optimization level, so
    /// every engine runs unoptimized IR here.
    #[test]
    fn fuel_exhaustion_is_engine_equivalent(
        recipe in prop::collection::vec(loop_heavy_step_strategy(), 2..10),
        consts in prop::collection::vec(-50i64..50, 4),
        ret in 0u8..SLOTS,
        a in -1000i64..1000,
        fuel_limit in 0u64..400,
    ) {
        let src = emit(&recipe, &consts, ret);
        let args = [Value::Int(a), Value::Int(9)];
        let limits = hilti_rt::limits::ResourceLimits {
            fuel: Some(fuel_limit),
            ..Default::default()
        };

        let mut interp = build(&src, OptLevel::None, true);
        interp.set_limits(limits);
        let oracle = outcome(interp.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = interp.take_output();
        let oracle_left = interp.context().fuel_remaining();

        for (label, specialize) in [("specialized", true), ("generic", false)] {
            let mut vm = build(&src, OptLevel::None, specialize);
            vm.set_limits(limits);
            let (r, out) = run_vm(&mut vm, &args);
            prop_assert_eq!(&oracle, &r, "{} VM outcome diverged under fuel\n{}", label, src);
            prop_assert_eq!(&oracle_out, &out, "{} VM output diverged under fuel\n{}", label, src);
            prop_assert_eq!(
                oracle_left,
                vm.context().fuel_remaining(),
                "{} VM remaining fuel diverged\n{}",
                label,
                src
            );
        }
    }

    /// The optimizer is deterministic and idempotent at the outcome level:
    /// two independent optimized builds of the same source agree.
    #[test]
    fn optimized_build_is_deterministic(
        recipe in prop::collection::vec(step_strategy(), 1..6),
        consts in prop::collection::vec(-20i64..20, 4),
        a in -100i64..100,
    ) {
        let src = emit(&recipe, &consts, 0);
        let args = [Value::Int(a), Value::Int(7)];
        let mut p1 = Program::from_sources(&[&src], OptLevel::Full).unwrap();
        let mut p2 = Program::from_sources(&[&src], OptLevel::Full).unwrap();
        prop_assert_eq!(
            outcome(p1.run("Fuzz::kernel", &args)),
            outcome(p2.run("Fuzz::kernel", &args))
        );
    }
}

/// A fixed regression-style case: division by zero must trap identically
/// under every engine/optimization combination, even when the dividend is
/// a compile-time constant (constant folding must not fold the trap away
/// or turn it into a different exception).
#[test]
fn div_by_zero_trap_is_engine_independent() {
    let src = "module Fuzz\n\nint<64> kernel(int<64> a, int<64> b) {\n    local int<64> z\n    z = int.sub b b\n    a = int.div 7 z\n    return a\n}\n";
    let args = [Value::Int(3), Value::Int(5)];
    let mut plain = Program::from_sources(&[src], OptLevel::None).unwrap();
    let mut opt = Program::from_sources(&[src], OptLevel::Full).unwrap();
    let oracle = outcome(plain.run_interpreted("Fuzz::kernel", &args));
    assert_eq!(oracle, outcome(plain.run("Fuzz::kernel", &args)));
    assert_eq!(oracle, outcome(opt.run("Fuzz::kernel", &args)));
    assert_eq!(oracle, Err("Hilti::ArithmeticError".to_string()));
}

/// Fixed-case fuel differential: sweeping a small fuel budget over a
/// looping, printing kernel, both engines transition from exhausted to
/// completed at the same budget, and agree on everything in between.
#[test]
fn fuel_sweep_hits_resource_exhausted_at_equivalent_points() {
    let recipe = [
        Step::Loop {
            iters: 10,
            dst: 2,
            src: 3,
        },
        Step::Bin {
            op: 0,
            dst: 0,
            a: 2,
            b: 1,
        },
    ];
    let src = emit(&recipe, &[1, 2, 3, 4], 0);
    let args = [Value::Int(5), Value::Int(7)];
    let (mut exhausted, mut completed) = (0u32, 0u32);
    for fuel in 0..=120u64 {
        let limits = hilti_rt::limits::ResourceLimits {
            fuel: Some(fuel),
            ..Default::default()
        };
        let mut interp = build(&src, OptLevel::None, true);
        interp.set_limits(limits);
        let oracle = outcome(interp.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = interp.take_output();
        for specialize in [true, false] {
            let mut vm = build(&src, OptLevel::None, specialize);
            vm.set_limits(limits);
            let (r, out) = run_vm(&mut vm, &args);
            assert_eq!(oracle, r, "fuel={fuel} specialize={specialize}\n{src}");
            assert_eq!(
                oracle_out, out,
                "fuel={fuel} specialize={specialize}\n{src}"
            );
        }
        match &oracle {
            Err(k) if k == "Hilti::ResourceExhausted" => exhausted += 1,
            Ok(_) => completed += 1,
            Err(other) => panic!("unexpected exception {other} at fuel={fuel}"),
        }
    }
    // The sweep must actually cross the boundary: small budgets exhaust,
    // large ones complete.
    assert!(exhausted > 0, "no budget was small enough to exhaust");
    assert!(completed > 0, "no budget was large enough to complete");
}

/// Exception handling differential: a trap raised inside `try` must be
/// caught by the handler — and reach the same handler — in all three
/// configurations, including when every operand feeding the trap is a
/// compile-time constant the optimizer could fold.
#[test]
fn try_catch_is_engine_and_optimizer_independent() {
    let src = r#"
module Fuzz

int<64> kernel(int<64> a, int<64> b) {
    local int<64> r
    local int<64> z
    r = assign 0
    try {
        z = int.sub b b
        r = int.div a z
        r = assign 99
    } catch ( ref<Hilti::ArithmeticError> e ) {
        r = assign -1
    }
    return r
}
"#;
    let args = [Value::Int(3), Value::Int(5)];
    let mut plain = Program::from_sources(&[src], OptLevel::None).unwrap();
    let mut opt = Program::from_sources(&[src], OptLevel::Full).unwrap();
    let oracle = outcome(plain.run_interpreted("Fuzz::kernel", &args));
    assert_eq!(oracle, Ok(-1));
    assert_eq!(oracle, outcome(plain.run("Fuzz::kernel", &args)));
    assert_eq!(oracle, outcome(opt.run("Fuzz::kernel", &args)));
}

/// Builds the generated source with adaptive tiering armed at tiny
/// thresholds, so `lazy` re-lowers mid-kernel (the counters cross inside
/// the first run) and `eager` tiers on first dispatch.
fn build_tiered(src: &str, opt: OptLevel, specialize: bool, mode: TieringMode) -> Program {
    let mut p = Program::from_sources_opts(
        &[src],
        opt,
        BuildOptions {
            specialize,
            tiering: Some(mode),
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("generated program rejected: {e}\n{src}"));
    p.context_mut().set_tiering_config(
        mode,
        TierConfig {
            hot_invocations: 1,
            hot_retired: 8,
            ic_cap: 4,
        },
    );
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The adaptive-tiering dimension: off × lazy × eager, crossed with
    /// the static specializer switch, must agree with the interpreter
    /// oracle on outcome (value or exception kind), printed output *and*
    /// total fuel — tier-up and inline caches may only change dispatch
    /// speed, never observable behaviour. Unoptimized IR throughout, so
    /// fuel parity with the oracle is exact.
    #[test]
    fn tiering_modes_agree_with_oracle(
        recipe in prop::collection::vec(loop_heavy_step_strategy(), 2..10),
        consts in prop::collection::vec(-50i64..50, 4),
        ret in 0u8..SLOTS,
        a in -1000i64..1000,
        b in -1000i64..1000,
    ) {
        let src = emit(&recipe, &consts, ret);
        let args = [Value::Int(a), Value::Int(b)];

        let mut oracle_p = build(&src, OptLevel::None, true);
        let oracle = outcome(oracle_p.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = oracle_p.take_output();
        let oracle_fuel = oracle_p.context().fuel_spent();

        for mode in [TieringMode::Off, TieringMode::Lazy, TieringMode::Eager] {
            for specialize in [true, false] {
                let mut p = build_tiered(&src, OptLevel::None, specialize, mode);
                let (r, out) = run_vm(&mut p, &args);
                prop_assert_eq!(
                    &oracle, &r,
                    "tiering={:?} spec={} outcome diverged\n{}", mode, specialize, src
                );
                prop_assert_eq!(
                    &oracle_out, &out,
                    "tiering={:?} spec={} printed differently\n{}", mode, specialize, src
                );
                prop_assert_eq!(
                    oracle_fuel, p.context().fuel_spent(),
                    "tiering={:?} spec={} fuel diverged\n{}", mode, specialize, src
                );
            }
        }
    }

    /// Fuel exhaustion under adaptive tiering: a limited run must trip
    /// `Hilti::ResourceExhausted` at exactly the same point in every
    /// tiering mode — tiered code charges instruction-identical fuel.
    #[test]
    fn tiering_fuel_exhaustion_parity(
        recipe in prop::collection::vec(loop_heavy_step_strategy(), 2..8),
        consts in prop::collection::vec(-50i64..50, 4),
        ret in 0u8..SLOTS,
        a in -1000i64..1000,
        fuel_limit in 0u64..400,
    ) {
        let src = emit(&recipe, &consts, ret);
        let args = [Value::Int(a), Value::Int(9)];
        let limits = hilti_rt::limits::ResourceLimits {
            fuel: Some(fuel_limit),
            ..Default::default()
        };

        let mut interp = build(&src, OptLevel::None, true);
        interp.set_limits(limits);
        let oracle = outcome(interp.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = interp.take_output();
        let oracle_left = interp.context().fuel_remaining();

        for mode in [TieringMode::Off, TieringMode::Lazy, TieringMode::Eager] {
            let mut vm = build_tiered(&src, OptLevel::None, true, mode);
            vm.set_limits(limits);
            let (r, out) = run_vm(&mut vm, &args);
            prop_assert_eq!(&oracle, &r, "tiering={:?} outcome diverged under fuel\n{}", mode, src);
            prop_assert_eq!(&oracle_out, &out, "tiering={:?} output diverged under fuel\n{}", mode, src);
            prop_assert_eq!(
                oracle_left,
                vm.context().fuel_remaining(),
                "tiering={:?} remaining fuel diverged\n{}",
                mode,
                src
            );
        }
    }
}
