//! Shard supervision and overload-control tests: injected worker panics
//! must be contained to the owning shard with a deterministic loss
//! ledger, stalled shards must never change output under the `Block`
//! policy, the `Shed` policy must drop traffic only at the dispatcher
//! with full accounting, and the per-delivery watchdog deadline must
//! quarantine wedged flows without perturbing healthy runs.

use broscript::host::Engine;
use broscript::parallel::{run_http_analysis_parallel, OverloadPolicy, PipelineOptions};
use broscript::pipeline::{
    run_http_analysis_governed, AnalysisResult, FlowError, Governance, ParserStack,
};
use netpkt::synth::{chaos_http_trace, http_trace, ChaosConfig, SynthConfig};

fn gov() -> Governance {
    Governance {
        idle_timeout_ms: Some(10),
        per_flow_heap: Some(8 * 1024),
        script_fuel: Some(500_000),
        quarantine: true,
        inject_fault_after: None,
        telemetry: true,
        tiering: None,
        delivery_deadline_ms: None,
        tracing: false,
        force_copy: false,
    }
}

fn opts(workers: usize) -> PipelineOptions {
    PipelineOptions {
        workers,
        governance: gov(),
        ..Default::default()
    }
}

/// Byte-level equality across every externally observable field.
fn assert_identical(a: &AnalysisResult, b: &AnalysisResult, what: &str) {
    assert_eq!(a.http_log, b.http_log, "{what}: http.log");
    assert_eq!(a.files_log, b.files_log, "{what}: files.log");
    assert_eq!(a.output, b.output, "{what}: printed output");
    assert_eq!(a.flow_errors, b.flow_errors, "{what}: flow-error ledger");
    assert_eq!(a.events, b.events, "{what}: dispatched events");
    assert_eq!(a.packets, b.packets, "{what}: packets");
    assert_eq!(a.shard_faults, b.shard_faults, "{what}: shard faults");
    assert_eq!(a.shed_packets, b.shed_packets, "{what}: shed packets");
    assert_eq!(a.telemetry, b.telemetry, "{what}: telemetry snapshot");
    assert_eq!(
        a.telemetry.to_json(),
        b.telemetry.to_json(),
        "{what}: telemetry JSON bytes"
    );
}

/// Multiset subset: every line of `small` appears in `big` at least as
/// often.
fn is_sublog(small: &[String], big: &[String]) -> bool {
    use std::collections::HashMap;
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for l in big {
        *counts.entry(l.as_str()).or_default() += 1;
    }
    small.iter().all(|l| {
        let c = counts.entry(l.as_str()).or_default();
        *c -= 1;
        *c >= 0
    })
}

#[test]
fn injected_shard_panic_is_contained_and_accounted() {
    let trace = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    let clean =
        run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(4))
            .expect("unfaulted run");
    assert!(clean.shard_faults.is_empty());
    assert_eq!(clean.telemetry.counter("pipeline.shard_faults"), 0);

    for workers in [1, 2, 4] {
        let o = opts(workers).inject_shard_panic_after(0, 3);
        let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
            .unwrap_or_else(|e| panic!("x{workers}: faulted run must still complete: {e}"));

        // Exactly one fault, charged to the shard we armed.
        assert_eq!(r.shard_faults.len(), 1, "x{workers}: {:?}", r.shard_faults);
        assert_eq!(r.shard_faults[0].shard, 0);
        assert!(
            r.shard_faults[0].detail.contains("injected shard panic"),
            "x{workers}: {:?}",
            r.shard_faults
        );
        assert_eq!(r.telemetry.counter("pipeline.shard_faults"), 1);

        // The panicked shard's live flows died as `ShardPanic`; the loss
        // ledger is mirrored into telemetry.
        let lost: Vec<&FlowError> = r
            .flow_errors
            .iter()
            .filter(|f| f.kind == FlowError::SHARD_PANIC)
            .collect();
        assert!(!lost.is_empty(), "x{workers}: no ShardPanic quarantines");
        assert_eq!(
            r.telemetry.counter("pipeline.flow_errors.ShardPanic"),
            lost.len() as u64,
            "x{workers}"
        );

        // Every packet was still decoded and accounted for, and nothing
        // the surviving shards produced diverges from the clean run:
        // the faulted log is a strict sub-multiset of the unfaulted one.
        assert_eq!(r.packets, trace.len() as u64, "x{workers}");
        assert!(
            is_sublog(&r.http_log, &clean.http_log),
            "x{workers}: faulted run logged lines the clean run never produced"
        );
    }
}

#[test]
fn shard_panic_losses_are_deterministic() {
    // Same trace, same injection point: the loss ledger, the surviving
    // logs, and the rendered telemetry must be byte-identical on rerun.
    let trace = chaos_http_trace(&ChaosConfig::new(7));
    let o = opts(4).inject_shard_panic_after(2, 10);
    let a = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("first faulted run");
    let b = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("second faulted run");
    assert_eq!(a.shard_faults.len(), 1);
    assert_identical(&a, &b, "faulted rerun");
}

#[test]
fn compiled_engine_survives_a_shard_panic_too() {
    // The respawn path rebuilds the compiled script engine from the
    // shared blueprint; the run still completes with one fault.
    let trace = chaos_http_trace(&ChaosConfig::new(11));
    let o = opts(2).inject_shard_panic_after(1, 2);
    let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Compiled, &o)
        .expect("compiled faulted run");
    assert_eq!(r.shard_faults.len(), 1);
    assert_eq!(r.shard_faults[0].shard, 1);
    assert!(r
        .flow_errors
        .iter()
        .any(|f| f.kind == FlowError::SHARD_PANIC));
}

#[test]
fn ungoverned_shard_panic_aborts_the_run() {
    // Without quarantine the all-or-nothing contract holds: a worker
    // panic surfaces as the run's error instead of a loss ledger.
    let trace = http_trace(&SynthConfig::new(42, 10));
    let o = PipelineOptions {
        workers: 2,
        governance: Governance {
            quarantine: false,
            telemetry: false,
            ..Governance::default()
        },
        ..Default::default()
    }
    .inject_shard_panic_after(0, 1);
    let Err(err) = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
    else {
        panic!("ungoverned panic must abort")
    };
    assert!(
        err.to_string().contains("shard panicked"),
        "unexpected error: {err}"
    );
}

#[test]
fn stalled_shard_under_block_changes_nothing() {
    // `Block` is lossless by construction: a shard that sleeps before
    // draining its ring only slows the run down. Output, ledger and
    // telemetry stay byte-identical, and nothing is shed.
    let trace = chaos_http_trace(&ChaosConfig::new(0xBA7C4));
    let base =
        run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(2))
            .expect("unstalled run");
    assert_eq!(base.shed_packets, 0);
    let o = opts(2).inject_shard_stall(1, 100);
    let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("stalled run");
    assert_eq!(r.shed_packets, 0, "Block must never shed");
    assert_identical(&base, &r, "stalled Block run");
}

#[test]
fn shed_policy_drops_batches_at_the_dispatcher_with_accounting() {
    // A tiny ring plus a stalled consumer forces the dispatcher to shed:
    // the run completes, every decoded packet is still counted, and the
    // drops show up both in the result field and the dispatch-plane
    // telemetry.
    let trace = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    let o = PipelineOptions {
        workers: 2,
        batch: 4,
        governance: gov(),
        overload: OverloadPolicy::Shed { max_queue_depth: 4 },
        ..Default::default()
    }
    .inject_shard_stall(0, 200);
    let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("shedding run must complete");
    assert!(
        r.shed_packets > 0,
        "stalled shard with a 4-deep ring must shed"
    );
    // Every flow that lost a delivery is quarantined, once.
    let shed_flows: Vec<&str> = r
        .flow_errors
        .iter()
        .filter(|fe| fe.kind == FlowError::SHED)
        .map(|fe| fe.uid.as_str())
        .collect();
    assert!(!shed_flows.is_empty());
    let mut unique = shed_flows.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), shed_flows.len());
    assert_eq!(
        r.packets,
        trace.len() as u64,
        "decode-side count is loss-free"
    );
    // The stalled shard must shed; a 4-deep ring may back the other
    // shard up too, so the per-shard counters only need to *sum* to the
    // result field.
    let d = &r.dispatch_telemetry;
    assert!(d.counter("pipeline.shed_packets.shard0") > 0);
    assert!(d.counter("pipeline.shed_batches.shard0") > 0);
    assert_eq!(
        d.counter("pipeline.shed_packets.shard0") + d.counter("pipeline.shed_packets.shard1"),
        r.shed_packets
    );
    // Control traffic is never shed, so the run still tears down cleanly
    // and the surviving flows' lines match the lossless run's bytes.
    let base =
        run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(2))
            .expect("lossless run");
    assert!(is_sublog(&r.http_log, &base.http_log));
}

#[test]
fn shed_without_pressure_is_lossless() {
    // A generous ring under `Shed` never triggers: the run is
    // byte-identical to `Block` (the counters stay unregistered, so even
    // the telemetry snapshot matches).
    let trace = chaos_http_trace(&ChaosConfig::new(99));
    let base =
        run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(4))
            .expect("Block run");
    let o = PipelineOptions {
        workers: 4,
        governance: gov(),
        overload: OverloadPolicy::Shed {
            max_queue_depth: 1 << 16,
        },
        ..Default::default()
    };
    let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("Shed run");
    assert_eq!(r.shed_packets, 0);
    assert_identical(&base, &r, "unpressured Shed vs Block");
}

#[test]
fn zero_delivery_deadline_quarantines_every_delivery() {
    // A 0 ms watchdog deadline trips on the first fuel charge of every
    // delivery: all parser work dies as ResourceExhausted, but the
    // pipeline itself completes the trace.
    let trace = http_trace(&SynthConfig::new(5, 6));
    let g = Governance {
        delivery_deadline_ms: Some(0),
        ..gov()
    };
    let r = run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &g)
        .expect("deadline-starved run must still complete");
    assert_eq!(r.packets, trace.len() as u64);
    assert!(!r.flow_errors.is_empty());
    for fe in &r.flow_errors {
        assert_eq!(fe.kind, "Hilti::ResourceExhausted", "{fe:?}");
        assert!(fe.detail.contains("deadline"), "{fe:?}");
    }
    assert!(r.http_log.is_empty(), "{:?}", r.http_log);
}

#[test]
fn generous_deadline_does_not_perturb_the_pipeline() {
    // With a deadline far beyond the run's wall time, governed output is
    // identical to the no-deadline run — sequentially and in parallel.
    let trace = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    let relaxed = Governance {
        delivery_deadline_ms: Some(600_000),
        ..gov()
    };
    let a = run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &gov())
        .expect("no-deadline run");
    let b = run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &relaxed)
        .expect("deadline run");
    assert_identical(&a, &b, "sequential deadline vs none");
    let pa = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(4))
        .expect("parallel no-deadline");
    let po = PipelineOptions {
        workers: 4,
        governance: relaxed,
        ..Default::default()
    };
    let pb = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &po)
        .expect("parallel deadline");
    assert_identical(&pa, &pb, "parallel deadline vs none");
}
