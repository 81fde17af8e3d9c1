//! Network time on both engines: `ScriptHost::advance_time` expires
//! `&create_expire` / `&read_expire` state at the same network time on the
//! interpreter and on compiled scripts, and — a direct runtime call on
//! both — charges no script fuel, so a per-event budget reaches the
//! handler whole.

use broscript::host::{Engine, ScriptHost};
use broscript::pipeline::Governance;
use hilti::value::Value;
use hilti_rt::limits::ResourceLimits;
use hilti_rt::time::Time;

const SCRIPT: &str = r#"
global created: table[string] of count &create_expire=1.0;
global read: table[string] of count &read_expire=1.0;
global peers: set[string] &create_expire=1.0;

event put(k: string) {
    created[k] = 1;
    read[k] = 1;
    add peers[k];
}

event use(k: string) {
    if ( k in read )
        read[k] = read[k] + 1;
}

event probe(k: string) {
    log_write("expire.log", cat(network_time(), "\t", k, "\t", k in created,
        "\t", k in read, "\t", k in peers));
}
"#;

/// Drives one host through a schedule of puts, reads and probes every
/// 100 ms of network time; returns the probe log.
fn drive(engine: Engine) -> Vec<String> {
    let mut h = ScriptHost::new(&[SCRIPT], engine, None).unwrap();
    for step in 0..=30u64 {
        let now = Time::from_nanos(step * 100_000_000);
        h.advance_time(now).unwrap();
        let ev = |k: &str| [Value::str(k)];
        match step {
            0 => {
                h.dispatch("put", &ev("a")).unwrap();
                h.dispatch("put", &ev("b")).unwrap();
            }
            // Reading `a` at 0.5 s pushes its read deadline to 1.5 s.
            5 => h.dispatch("use", &ev("a")).unwrap(),
            9 => h.dispatch("put", &ev("c")).unwrap(),
            _ => {}
        }
        for k in ["a", "b", "c"] {
            h.dispatch("probe", &ev(k)).unwrap();
        }
    }
    h.log_lines("expire.log")
}

#[test]
fn state_expires_at_the_same_network_time_on_both_engines() {
    let interp = drive(Engine::Interpreted);
    let compiled = drive(Engine::Compiled);
    assert_eq!(interp, compiled);
    let at = |t: &str, k: &str| {
        compiled
            .iter()
            .find(|l| l.starts_with(&format!("{t}\t{k}\t")))
            .unwrap_or_else(|| panic!("no probe of {k} at {t}"))
            .clone()
    };
    // Created at 0 s with a 1 s timeout: alive at 0.9 s, gone at 1.0 s.
    assert_eq!(at("0.900000", "a"), "0.900000\ta\tTrue\tTrue\tTrue");
    assert_eq!(at("1.000000", "b"), "1.000000\tb\tFalse\tFalse\tFalse");
    // `a` was read at 0.5 s, so only its read-expire entry outlives 1 s.
    assert_eq!(at("1.000000", "a"), "1.000000\ta\tFalse\tTrue\tFalse");
    assert_eq!(at("1.400000", "a"), "1.400000\ta\tFalse\tTrue\tFalse");
    assert_eq!(at("1.500000", "a"), "1.500000\ta\tFalse\tFalse\tFalse");
    // Put at 0.9 s: its creation deadline is 1.9 s.
    assert_eq!(at("1.800000", "c"), "1.800000\tc\tTrue\tTrue\tTrue");
    assert_eq!(at("1.900000", "c"), "1.900000\tc\tFalse\tFalse\tFalse");
}

#[test]
fn advancing_time_leaves_the_fuel_budget_whole_on_both_engines() {
    let gov = Governance {
        script_fuel: Some(1_000),
        ..Governance::default()
    };
    for engine in [Engine::Interpreted, Engine::Compiled] {
        let mut h = ScriptHost::new(&[SCRIPT], engine, None).unwrap();
        h.dispatch("put", &[Value::str("a")]).unwrap();
        // The pipeline re-arms this budget before every event.
        h.set_limits(ResourceLimits {
            fuel: gov.script_fuel,
            ..ResourceLimits::default()
        });
        for s in 1..5 {
            h.advance_time(Time::from_secs(s)).unwrap();
        }
        assert_eq!(h.fuel_remaining(), 1_000, "{engine:?}");
    }
}
