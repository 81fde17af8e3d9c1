//! End-to-end analysis pipelines: trace → parser stack → script engine →
//! logs.
//!
//! This is the experiment driver behind Tables 2/3 and Figures 9/10: it
//! replays a packet trace through either the *standard* handwritten parsers
//! or the *BinPAC++* generated ones, feeds the resulting events into either
//! script engine, and collects logs plus a per-component time breakdown
//! ([`Profiler`]): protocol parsing, script execution, HILTI-to-Bro glue,
//! and other (decode/flow bookkeeping).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use binpac::dns::BinpacDns;
use binpac::http::BinpacHttp;
use hilti::passes::OptLevel;
use hilti_rt::error::{RtError, RtResult};
use hilti_rt::limits::ResourceLimits;
use hilti_rt::profile::{Component, Profiler};
use hilti_rt::telemetry::{Counter, Histogram, Telemetry, TelemetrySnapshot};
use hilti_rt::time::{Interval, Time};
use hilti_rt::timer::TimerMgr;
use hilti_rt::trace::{monotonic_ns, FlightRecorder, Stage, TraceReport};

use hilti_rt::bytestring::FeedChunk;
use netpkt::decode::decode_frame;
use netpkt::events::{ConnId, DnsAnswer, Event};
use netpkt::flow::FlowTable;
use netpkt::http::HttpConnParser;
use netpkt::pcap::RawPacket;
use netpkt::{PayloadRef, TraceBuffer};

use crate::slab::Pool;

use crate::host::{Engine, ScriptHost};
use crate::scripts;

/// Which protocol parsers produce the events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParserStack {
    /// Handwritten parsers (Bro's standard analyzers).
    Standard,
    /// BinPAC++-generated parsers on the HILTI VM.
    Binpac,
}

/// Result of one analysis run.
pub struct AnalysisResult {
    pub http_log: Vec<String>,
    pub files_log: Vec<String>,
    pub dns_log: Vec<String>,
    pub profiler: Profiler,
    pub events: u64,
    pub packets: u64,
    pub output: Vec<String>,
    /// Flows torn down by the fault quarantine, with the error that
    /// killed each one (empty unless [`Governance::quarantine`] is set).
    pub flow_errors: Vec<FlowError>,
    /// Flows evicted by the idle-timeout policy.
    pub flows_expired: u64,
    /// High-water mark of budgeted per-flow parser state (BinPAC++
    /// stack with [`Governance::per_flow_heap`] set; 0 otherwise).
    pub peak_flow_bytes: u64,
    /// Datagrams that failed protocol parsing (DNS runs).
    pub parse_failures: u64,
    /// Frozen per-run metrics and structured events, populated when
    /// [`Governance::telemetry`] is set (empty otherwise). The metric and
    /// event names are a stable interface — see DESIGN.md
    /// ("Observability"). Contains no wall-time fields: equal traces
    /// yield byte-identical snapshots.
    pub telemetry: TelemetrySnapshot,
    /// Dispatch-plane metrics from the parallel pipeline (batch counts,
    /// batch-fill histogram, per-shard queue depths). Kept separate from
    /// [`telemetry`](Self::telemetry) because batch boundaries depend on
    /// the worker count: the merged snapshot stays byte-identical for any
    /// `N`, while this one is deterministic only for a fixed `(trace, N,
    /// batch)` configuration. Empty for sequential runs or when
    /// [`Governance::telemetry`] is off.
    pub dispatch_telemetry: TelemetrySnapshot,
    /// Shard workers that panicked or failed to join during a parallel
    /// run. The supervisor contains each fault to its shard: the shard's
    /// live flows are quarantined as `ShardPanic` in
    /// [`flow_errors`](Self::flow_errors) and the run completes. Always
    /// empty for sequential runs.
    pub shard_faults: Vec<ShardFault>,
    /// Delivery packets dropped at the dispatcher under
    /// `OverloadPolicy::Shed` (saturated shard ring). Always 0 under
    /// `Block` and for sequential runs.
    pub shed_packets: u64,
    /// Flight-recorder side-channel, populated when
    /// [`Governance::tracing`] is set: per-stage latency attribution,
    /// retained spans, and fault-triggered postmortem dumps. Carries
    /// wall-clock data, so — like
    /// [`dispatch_telemetry`](Self::dispatch_telemetry) — it lives next
    /// to the deterministic outputs, never inside them.
    pub trace: Option<TraceReport>,
}

/// Resource-governance policy for an analysis run. The default is the
/// legacy ungoverned behavior: no limits, no expiration, and any error
/// aborts the whole run.
#[derive(Clone, Copy, Default)]
pub struct Governance {
    /// Evict flows — and their parser state — idle for longer than this
    /// many milliseconds of trace time, driven by a [`TimerMgr`].
    pub idle_timeout_ms: Option<u64>,
    /// Byte budget for each connection's buffered parser state
    /// (BinPAC++ stream sessions). Exceeding it raises
    /// `Hilti::ResourceExhausted` on that flow.
    pub per_flow_heap: Option<u64>,
    /// Execution-fuel budget applied to the script engine before every
    /// event dispatch.
    pub script_fuel: Option<u64>,
    /// Per-flow fault isolation: a parser or script error tears down only
    /// the offending flow (recorded in [`AnalysisResult::flow_errors`])
    /// and the run continues. Without it, errors abort the run.
    pub quarantine: bool,
    /// Chaos hook: arm the BinPAC++ parser VM to fail after this many
    /// charged execution steps (deterministic for a fixed trace).
    pub inject_fault_after: Option<u64>,
    /// Collect per-flow and per-stage metrics plus structured events into
    /// [`AnalysisResult::telemetry`]. Off by default; the cost when on is
    /// a handful of relaxed atomic increments per packet.
    pub telemetry: bool,
    /// Profile-guided adaptive tiering for the compiled script engine
    /// (`None` keeps the default static specialization pass). Tier state
    /// is per-host, so each parallel shard tiers independently; outputs
    /// stay byte-identical in every mode.
    pub tiering: Option<hilti::tier::TieringMode>,
    /// Wall-clock watchdog per delivery: every parser feed and script
    /// event dispatch must finish within this many milliseconds or it
    /// trips `Hilti::ResourceExhausted` on that flow (quarantined like
    /// any other flow fault). Bounds *time* where fuel bounds *work* —
    /// a wedged parser trips the deadline instead of stalling its shard
    /// ring. `None` (default) adds no checks at all. Deadline trips
    /// depend on wall-clock speed, so runs armed with this are not
    /// bit-deterministic under adversarial timing — use fuel where
    /// reproducibility matters.
    pub delivery_deadline_ms: Option<u64>,
    /// Flight-recorder tracing: record per-stage spans (dispatch, queue
    /// wait, decode, parse, script, merge) into bounded per-shard rings
    /// and surface them as [`AnalysisResult::trace`]. Off by default; the
    /// off path is a single branch per would-be span, and the on path
    /// never touches deterministic outputs.
    pub tracing: bool,
    /// Degrade zero-copy deliveries to copies: every in-order payload is
    /// memcpy'd into the parser's buffer instead of borrowed from the
    /// trace arena. Outputs must be byte-identical either way — this
    /// exists so differential tests can compare the chunked-borrowed
    /// byte-string representation against the flat one. (Telemetry-wise,
    /// only `pipeline.bytes_copied`/`bytes_borrowed` may differ.)
    pub force_copy: bool,
}

/// One flow the quarantine tore down.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowError {
    pub uid: String,
    /// Exception type name, e.g. `Hilti::ResourceExhausted`.
    pub kind: String,
    pub detail: String,
    pub ts: Time,
}

impl FlowError {
    pub(crate) fn new(uid: &str, e: &RtError, ts: Time) -> Self {
        FlowError {
            uid: uid.to_owned(),
            kind: e.kind.name().to_owned(),
            detail: e.to_string(),
            ts,
        }
    }

    /// The error kind recorded for flows lost to a shard fault. Not a
    /// HILTI exception: the failure domain is the worker thread, not the
    /// flow's own execution.
    pub const SHARD_PANIC: &'static str = "ShardPanic";

    pub(crate) fn shard_panic(uid: &str, ts: Time) -> Self {
        FlowError {
            uid: uid.to_owned(),
            kind: FlowError::SHARD_PANIC.to_owned(),
            detail: "owning shard worker panicked".to_owned(),
            ts,
        }
    }

    /// The error kind recorded for flows that lost a delivery to the
    /// dispatcher's `Shed` overload policy.
    pub const SHED: &'static str = "Shed";

    pub(crate) fn shed(uid: &str, ts: Time) -> Self {
        FlowError {
            uid: uid.to_owned(),
            kind: FlowError::SHED.to_owned(),
            detail: "delivery shed under overload".to_owned(),
            ts,
        }
    }
}

/// One shard-worker failure a parallel run survived: a panic caught at
/// the supervision boundary, or a worker thread that could not be joined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFault {
    /// Index of the faulted shard (0-based).
    pub shard: usize,
    /// Panic payload or join-failure description.
    pub detail: String,
}

/// Pre-interned handles for the pipeline's metric schema, plus the
/// first-seen set backing `flow_open` detection. Everything the per-packet
/// path touches is a relaxed atomic; the only allocation is one
/// `HashSet` insert per *new* flow.
struct PipelineTelemetry {
    telemetry: Telemetry,
    packets: Counter,
    bytes_parsed: Counter,
    bytes_copied: Counter,
    bytes_borrowed: Counter,
    events_dispatched: Counter,
    flows_opened: Counter,
    flows_closed: Counter,
    flows_expired: Counter,
    flows_quarantined: Counter,
    parse_failures: Counter,
    payload_bytes: Histogram,
    seen: HashSet<Arc<str>>,
}

impl PipelineTelemetry {
    fn new() -> PipelineTelemetry {
        let telemetry = Telemetry::new();
        PipelineTelemetry {
            packets: telemetry.counter("pipeline.packets"),
            bytes_parsed: telemetry.counter("pipeline.bytes_parsed"),
            bytes_copied: telemetry.counter("pipeline.bytes_copied"),
            bytes_borrowed: telemetry.counter("pipeline.bytes_borrowed"),
            events_dispatched: telemetry.counter("pipeline.events_dispatched"),
            flows_opened: telemetry.counter("pipeline.flows_opened"),
            flows_closed: telemetry.counter("pipeline.flows_closed"),
            flows_expired: telemetry.counter("pipeline.flows_expired"),
            flows_quarantined: telemetry.counter("pipeline.flows_quarantined"),
            parse_failures: telemetry.counter("pipeline.parse_failures"),
            payload_bytes: telemetry.histogram("pipeline.payload_bytes"),
            seen: HashSet::new(),
            telemetry,
        }
    }

    /// One decoded delivery: first sighting of a uid opens the flow. The
    /// uid is the flow table's interned `Arc<str>`, so recording a new
    /// flow bumps a refcount instead of copying the string.
    fn delivery(&mut self, uid: &Arc<str>, ts: Time, finished: bool) {
        if !self.seen.contains(&**uid) {
            self.seen.insert(uid.clone());
            self.flows_opened.inc();
            self.telemetry.emit(
                "flow_open",
                vec![("uid", (&**uid).into()), ("ts_ns", ts.nanos().into())],
            );
        }
        if finished {
            self.flows_closed.inc();
            self.telemetry.emit(
                "flow_close",
                vec![("uid", (&**uid).into()), ("ts_ns", ts.nanos().into())],
            );
        }
    }

    /// Payload bytes handed to a parser stack.
    fn parsed(&self, bytes: usize) {
        self.bytes_parsed.add(bytes as u64);
        self.payload_bytes.observe(bytes as u64);
    }

    /// How the delivery payload reached the parser: borrowed from the
    /// trace arena (zero-copy) or materialized into parser-owned memory
    /// (out-of-order reassembly output, or [`Governance::force_copy`]).
    fn routed(&self, payload: &PayloadRef, forced_copy: bool) {
        match payload {
            PayloadRef::Shared { len, .. } if !forced_copy => {
                self.bytes_borrowed.add(*len as u64);
            }
            p => self.bytes_copied.add(p.len() as u64),
        }
    }

    fn parse_failure(&self, uid: &str, ts: Time) {
        self.parse_failures.inc();
        self.telemetry.emit(
            "parser_error",
            vec![("uid", uid.into()), ("ts_ns", ts.nanos().into())],
        );
    }

    fn expired(&self, uid: &str, ts: Time) {
        self.flows_expired.inc();
        self.telemetry.emit(
            "timer_expiry",
            vec![("uid", uid.into()), ("ts_ns", ts.nanos().into())],
        );
    }

    /// Records the quarantine ledger, exports per-kind error counters and
    /// the peak per-flow heap gauge, and freezes the snapshot.
    fn finish(
        self,
        n_events: u64,
        peak_flow_bytes: u64,
        flow_errors: &[FlowError],
    ) -> TelemetrySnapshot {
        self.events_dispatched.add(n_events);
        self.telemetry
            .gauge("pipeline.peak_flow_heap_bytes")
            .set_max(peak_flow_bytes);
        for fe in flow_errors {
            self.flows_quarantined.inc();
            self.telemetry
                .registry
                .counter(&format!("pipeline.flow_errors.{}", fe.kind))
                .inc();
            self.telemetry.emit(
                "quarantine",
                vec![
                    ("uid", fe.uid.as_str().into()),
                    ("kind", fe.kind.as_str().into()),
                    ("ts_ns", fe.ts.nanos().into()),
                ],
            );
        }
        self.telemetry.snapshot()
    }
}

/// Loud `EventSink` overflow: a truncated event stream must not read as a
/// quiet run. One line on stderr, emitted by every pipeline flavor and by
/// `hiltic run`.
pub(crate) fn warn_event_drops(snapshot: &TelemetrySnapshot, context: &str) {
    if snapshot.events_dropped > 0 {
        eprintln!(
            "{context}: warning: telemetry event sink overflowed, {} event(s) dropped \
             (buffered stream is truncated)",
            snapshot.events_dropped
        );
    }
}

/// Builds the sequential pipelines' trace report: one recorder, plus a
/// watchdog postmortem if a delivery deadline was armed and tripped.
fn finish_sequential_trace(
    rec: hilti_rt::trace::SharedRecorder,
    gov: &Governance,
    flow_errors: &[FlowError],
) -> TraceReport {
    let part =
        std::mem::replace(&mut *rec.borrow_mut(), FlightRecorder::with_capacity(0, 1)).finish();
    let mut postmortems = Vec::new();
    if gov.delivery_deadline_ms.is_some()
        && flow_errors
            .iter()
            .any(|fe| fe.kind.contains("ResourceExhausted"))
    {
        postmortems.push(part.postmortem("ResourceExhausted (delivery watchdog)"));
    }
    TraceReport::from_parts(vec![part], postmortems)
}

/// Placeholder ConnId for flushing connections whose close was never seen.
pub(crate) fn placeholder_id() -> ConnId {
    ConnId {
        orig_h: hilti_rt::addr::Addr::v4(0, 0, 0, 0),
        orig_p: hilti_rt::addr::Port::tcp(0),
        resp_h: hilti_rt::addr::Addr::v4(0, 0, 0, 0),
        resp_p: hilti_rt::addr::Port::tcp(0),
    }
}

/// Replays an HTTP trace through the chosen parser stack and script engine.
pub fn run_http_analysis(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
) -> RtResult<AnalysisResult> {
    run_http_analysis_governed(packets, stack, engine, &Governance::default())
}

/// [`run_http_analysis`] under an explicit [`Governance`] policy.
pub fn run_http_analysis_governed(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
) -> RtResult<AnalysisResult> {
    let profiler = Profiler::new();
    let mut host = ScriptHost::new_tiered(
        &[scripts::HTTP_BRO],
        engine,
        Some(profiler.clone()),
        gov.tiering,
    )?;
    let mut tel = gov.telemetry.then(PipelineTelemetry::new);
    if let Some(t) = &tel {
        host.set_telemetry(&t.telemetry);
    }
    let rec = gov.tracing.then(|| FlightRecorder::new(0).shared());

    let mut flows = FlowTable::new();
    let mut std_parsers: HashMap<Arc<str>, HttpConnParser> = HashMap::new();
    // First-seen uid order, so the end-of-trace flush below is
    // deterministic (HashMap iteration order is not).
    let mut std_order: Vec<Arc<str>> = Vec::new();
    let mut bp = match stack {
        ParserStack::Binpac => {
            let mut b = BinpacHttp::new(OptLevel::Full, Some(profiler.clone()))?;
            if let Some(n) = gov.per_flow_heap {
                b.set_session_budget(n);
            }
            if let Some(steps) = gov.inject_fault_after {
                b.inject_fault_after(steps, RtError::runtime("injected chaos fault"));
            }
            if let Some(t) = &tel {
                b.set_telemetry(&t.telemetry);
            }
            if let Some(r) = &rec {
                b.set_recorder(r.clone());
            }
            b.set_delivery_deadline_ms(gov.delivery_deadline_ms);
            Some(b)
        }
        ParserStack::Standard => None,
    };
    let mut timers: TimerMgr<Arc<str>> = TimerMgr::new();
    let mut quarantined: HashSet<Arc<str>> = HashSet::new();
    let mut flow_errors: Vec<FlowError> = Vec::new();
    let mut flows_expired = 0u64;
    let mut n_events = 0u64;
    let mut n_packets = 0u64;
    let mut last_ts = Time::ZERO;
    // One shared arena for the whole trace; deliveries borrow from it.
    let trace = TraceBuffer::from_packets(packets);
    let mut event_bufs: Pool<Vec<Event>> = Pool::new(4);

    for frame_idx in 0..trace.len() {
        n_packets += 1;
        let slot = n_packets - 1;
        let (frame_data, ts) = trace.frame(frame_idx);
        last_ts = ts;
        let mut events: Vec<Event> = event_bufs.take();
        let deliv_begin = rec.as_ref().map(|_| monotonic_ns());
        let mut span_uid: Option<Arc<str>> = None;
        {
            let _o = profiler.enter(Component::Other);
            if let Some(t) = &tel {
                t.packets.inc();
            }
            let Ok(d) = decode_frame(frame_data, ts) else {
                continue;
            };
            let delivery = flows.process_shared(&d, frame_data, trace.frame_offset(frame_idx));
            let uid = delivery.flow.uid.clone();
            let id = delivery.flow.id;
            let is_orig = delivery.is_orig;
            let finished = delivery.finished_now;
            let payload = delivery.payload;
            if let Some(r) = &rec {
                r.borrow_mut()
                    .record(Stage::Decode, slot, Some(&uid), deliv_begin.unwrap());
                span_uid = Some(uid.clone());
            }
            if let Some(t) = &mut tel {
                t.delivery(&uid, ts, finished);
            }

            if !quarantined.contains(&*uid) {
                if let Some(t) = &tel {
                    if !payload.is_empty() {
                        t.parsed(payload.len());
                        t.routed(&payload, gov.force_copy);
                    }
                }
                match stack {
                    ParserStack::Standard => {
                        let _pp = profiler.enter(Component::ProtocolParsing);
                        let parse_begin = rec.as_ref().map(|r| r.borrow().begin());
                        if !std_parsers.contains_key(&*uid) {
                            std_order.push(uid.clone());
                        }
                        let parser = std_parsers
                            .entry(uid.clone())
                            .or_insert_with(|| HttpConnParser::new(uid.to_string(), id));
                        if !payload.is_empty() {
                            parser.feed(is_orig, payload.resolve(&trace), ts, &mut events);
                        }
                        if finished {
                            parser.finish(ts, &mut events);
                        }
                        if let Some(begin) = parse_begin {
                            rec.as_ref().unwrap().borrow_mut().record(
                                Stage::Parse,
                                slot,
                                Some(&uid),
                                begin,
                            );
                        }
                    }
                    // A missing parser stack degrades the flow (quarantine)
                    // rather than panicking the process.
                    ParserStack::Binpac => match bp.as_mut() {
                        Some(bp) => {
                            if rec.is_some() {
                                bp.set_span_slot(slot);
                            }
                            let mut fail: Option<RtError> = None;
                            if !payload.is_empty() {
                                let chunk = if gov.force_copy {
                                    FeedChunk::Copy(payload.resolve(&trace))
                                } else {
                                    payload.feed_chunk(&trace)
                                };
                                if let Err(e) = bp.feed_chunk(&uid, id, is_orig, ts, chunk) {
                                    fail = Some(e);
                                }
                            }
                            if fail.is_none() && finished {
                                if let Err(e) = bp.finish_conn(&uid, id, ts) {
                                    fail = Some(e);
                                }
                            }
                            // Events emitted before the fault still count.
                            bp.drain_events_into(&mut events);
                            if let Some(e) = fail {
                                if !gov.quarantine {
                                    return Err(e);
                                }
                                bp.drop_conn(&uid);
                                std_parsers.remove(&uid);
                                quarantined.insert(uid.clone());
                                flow_errors.push(FlowError::new(&uid, &e, ts));
                            }
                        }
                        None => {
                            let e = RtError::runtime("binpac parser stack unavailable");
                            if !gov.quarantine {
                                return Err(e);
                            }
                            quarantined.insert(uid.clone());
                            flow_errors.push(FlowError::new(&uid, &e, ts));
                        }
                    },
                }
            }

            // Idle-flow expiration on trace time: each packet re-arms its
            // flow's deadline; fired timers trigger a (lazily re-checked)
            // sweep that evicts the flow record and its parser state.
            if let Some(ms) = gov.idle_timeout_ms {
                timers.schedule(ts + Interval::from_millis(ms as i64), uid.clone());
                if !timers.advance(ts).is_empty() {
                    let cutoff =
                        Time::from_nanos(ts.nanos().saturating_sub(ms.saturating_mul(1_000_000)));
                    for dead in flows.expire_idle_uids(cutoff) {
                        std_parsers.remove(&dead);
                        if let Some(bp) = bp.as_mut() {
                            bp.drop_conn(&dead);
                        }
                        quarantined.remove(&dead);
                        if let Some(t) = &tel {
                            t.expired(&dead, ts);
                        }
                        flows_expired += 1;
                    }
                }
            }
        }
        let script_begin = rec.as_ref().map(|r| r.borrow().begin());
        dispatch_events(&mut host, &events, gov, &mut n_events, &mut flow_errors)?;
        if let Some(r) = &rec {
            let mut rb = r.borrow_mut();
            if !events.is_empty() {
                rb.record(
                    Stage::Script,
                    slot,
                    span_uid.as_ref(),
                    script_begin.unwrap(),
                );
            }
            rb.observe_delivery(monotonic_ns().saturating_sub(deliv_begin.unwrap()));
        }
        event_bufs.put(events);
    }

    // End of trace: flush all still-open connections.
    let mut tail_events: Vec<Event> = Vec::new();
    match stack {
        ParserStack::Standard => {
            let _pp = profiler.enter(Component::ProtocolParsing);
            let parse_begin = rec.as_ref().map(|r| r.borrow().begin());
            // `remove` guards against a uid recorded twice (a flow expired
            // and re-opened re-enters the order list).
            for uid in &std_order {
                if let Some(mut parser) = std_parsers.remove(uid) {
                    parser.finish(last_ts, &mut tail_events);
                }
            }
            if let (Some(r), Some(begin)) = (&rec, parse_begin) {
                r.borrow_mut().record(Stage::Parse, n_packets, None, begin);
            }
        }
        ParserStack::Binpac => {
            if let Some(bp) = bp.as_mut() {
                if rec.is_some() {
                    bp.set_span_slot(n_packets);
                }
                if gov.quarantine {
                    for uid in bp.live_uids() {
                        if let Err(e) = bp.finish_conn(&uid, placeholder_id(), last_ts) {
                            bp.drop_conn(&uid);
                            flow_errors.push(FlowError::new(&uid, &e, last_ts));
                        }
                    }
                } else {
                    bp.finish_all(last_ts)?;
                }
                bp.drain_events_into(&mut tail_events);
            } else if !gov.quarantine {
                return Err(RtError::runtime("binpac parser stack unavailable"));
            }
        }
    }
    let script_begin = rec.as_ref().map(|r| r.borrow().begin());
    dispatch_events(
        &mut host,
        &tail_events,
        gov,
        &mut n_events,
        &mut flow_errors,
    )?;
    if let Some(r) = &rec {
        if !tail_events.is_empty() {
            r.borrow_mut()
                .record(Stage::Script, n_packets, None, script_begin.unwrap());
        }
    }
    arm_script_limits(&mut host, gov);
    if let Err(e) = host.done() {
        if !gov.quarantine {
            return Err(e);
        }
        flow_errors.push(FlowError::new("-", &e, last_ts));
    }

    let peak_flow_bytes = bp.as_ref().map(|b| b.peak_session_bytes()).unwrap_or(0);
    let telemetry = match tel {
        Some(t) => t.finish(n_events, peak_flow_bytes, &flow_errors),
        None => TelemetrySnapshot::default(),
    };
    warn_event_drops(&telemetry, "pipeline");
    let trace = rec.map(|r| finish_sequential_trace(r, gov, &flow_errors));
    Ok(AnalysisResult {
        http_log: host.log_lines("http.log"),
        files_log: host.log_lines("files.log"),
        dns_log: host.log_lines("dns.log"),
        output: host.take_output(),
        profiler,
        events: n_events,
        packets: n_packets,
        flow_errors,
        flows_expired,
        peak_flow_bytes,
        parse_failures: 0,
        telemetry,
        dispatch_telemetry: TelemetrySnapshot::default(),
        shard_faults: Vec::new(),
        shed_packets: 0,
        trace,
    })
}

/// Re-arms the script engine's per-event limits — the fuel budget and the
/// delivery deadline — when either is configured. A no-op otherwise, so
/// ungoverned runs pay nothing.
pub(crate) fn arm_script_limits(host: &mut ScriptHost, gov: &Governance) {
    if gov.script_fuel.is_some() || gov.delivery_deadline_ms.is_some() {
        host.set_limits(ResourceLimits {
            fuel: gov.script_fuel,
            deadline_ms: gov.delivery_deadline_ms,
            ..ResourceLimits::default()
        });
    }
}

/// Dispatches a batch of events under the governance policy: the script
/// fuel budget is re-armed per event, and failures either abort the run
/// or are charged to the event's flow.
fn dispatch_events(
    host: &mut ScriptHost,
    events: &[Event],
    gov: &Governance,
    n_events: &mut u64,
    flow_errors: &mut Vec<FlowError>,
) -> RtResult<()> {
    for ev in events {
        *n_events += 1;
        arm_script_limits(host, gov);
        if let Err(e) = host.dispatch_event(ev) {
            if !gov.quarantine {
                return Err(e);
            }
            flow_errors.push(FlowError::new(ev.uid(), &e, ev.ts()));
        }
    }
    Ok(())
}

/// Builds standard-parser DNS events for one datagram (the handwritten
/// counterpart of the BinPAC++ adapter).
pub fn standard_dns_events(
    uid: &str,
    id: ConnId,
    ts: Time,
    payload: &[u8],
    sink: &mut Vec<Event>,
) -> bool {
    let Ok(msg) = netpkt::dns::parse_message(payload) else {
        return false;
    };
    if msg.is_response {
        let answers: Vec<DnsAnswer> = msg.answers.clone();
        sink.push(Event::DnsReply {
            ts,
            uid: uid.to_owned(),
            id,
            trans_id: msg.id,
            rcode: msg.rcode,
            answers,
        });
    } else if let Some(q) = msg.questions.first() {
        sink.push(Event::DnsRequest {
            ts,
            uid: uid.to_owned(),
            id,
            trans_id: msg.id,
            query: q.name.clone(),
            qtype: q.qtype,
        });
    }
    true
}

/// Replays a DNS trace through the chosen parser stack and script engine.
pub fn run_dns_analysis(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
) -> RtResult<AnalysisResult> {
    run_dns_analysis_governed(packets, stack, engine, &Governance::default())
}

/// [`run_dns_analysis`] under an explicit [`Governance`] policy.
pub fn run_dns_analysis_governed(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
) -> RtResult<AnalysisResult> {
    let profiler = Profiler::new();
    let mut host = ScriptHost::new_tiered(
        &[scripts::DNS_BRO],
        engine,
        Some(profiler.clone()),
        gov.tiering,
    )?;
    let mut tel = gov.telemetry.then(PipelineTelemetry::new);
    if let Some(t) = &tel {
        host.set_telemetry(&t.telemetry);
    }

    let rec = gov.tracing.then(|| FlightRecorder::new(0).shared());
    let mut flows = FlowTable::new();
    let mut bp = match stack {
        ParserStack::Binpac => {
            let mut b = BinpacDns::new(OptLevel::Full, Some(profiler.clone()))?;
            if let Some(t) = &tel {
                b.set_telemetry(&t.telemetry);
            }
            if let Some(r) = &rec {
                b.set_recorder(r.clone());
            }
            b.set_delivery_deadline_ms(gov.delivery_deadline_ms);
            Some(b)
        }
        ParserStack::Standard => None,
    };
    let mut timers: TimerMgr<Arc<str>> = TimerMgr::new();
    let mut flow_errors: Vec<FlowError> = Vec::new();
    let mut flows_expired = 0u64;
    let mut parse_failures = 0u64;
    let mut n_events = 0u64;
    let mut n_packets = 0u64;
    let mut last_ts = Time::ZERO;
    let trace = TraceBuffer::from_packets(packets);
    let mut event_bufs: Pool<Vec<Event>> = Pool::new(4);

    for frame_idx in 0..trace.len() {
        n_packets += 1;
        let slot = n_packets - 1;
        let (frame_data, ts) = trace.frame(frame_idx);
        last_ts = ts;
        let mut events: Vec<Event> = event_bufs.take();
        let deliv_begin = rec.as_ref().map(|_| monotonic_ns());
        let mut span_uid: Option<Arc<str>> = None;
        {
            let _o = profiler.enter(Component::Other);
            if let Some(t) = &tel {
                t.packets.inc();
            }
            let Ok(d) = decode_frame(frame_data, ts) else {
                continue;
            };
            let delivery = flows.process_shared(&d, frame_data, trace.frame_offset(frame_idx));
            let uid = delivery.flow.uid.clone();
            let id = delivery.flow.id;
            let finished = delivery.finished_now;
            let payload = delivery.payload;
            if let Some(r) = &rec {
                r.borrow_mut()
                    .record(Stage::Decode, slot, Some(&uid), deliv_begin.unwrap());
                span_uid = Some(uid.clone());
            }
            if let Some(t) = &mut tel {
                t.delivery(&uid, ts, finished);
            }
            if !payload.is_empty() {
                if let Some(t) = &tel {
                    t.parsed(payload.len());
                    t.routed(&payload, gov.force_copy);
                }
                match stack {
                    ParserStack::Standard => {
                        let _pp = profiler.enter(Component::ProtocolParsing);
                        let parse_begin = rec.as_ref().map(|r| r.borrow().begin());
                        if !standard_dns_events(&uid, id, ts, payload.resolve(&trace), &mut events)
                        {
                            parse_failures += 1;
                            if let Some(t) = &tel {
                                t.parse_failure(&uid, ts);
                            }
                        }
                        if let (Some(r), Some(begin)) = (&rec, parse_begin) {
                            r.borrow_mut().record(Stage::Parse, slot, Some(&uid), begin);
                        }
                    }
                    ParserStack::Binpac => match bp.as_mut() {
                        Some(bp) => {
                            if rec.is_some() {
                                bp.set_span_slot(slot);
                            }
                            let chunk = if gov.force_copy {
                                FeedChunk::Copy(payload.resolve(&trace))
                            } else {
                                payload.feed_chunk(&trace)
                            };
                            match bp.datagram_chunk(&uid, id, ts, chunk) {
                                Ok(true) => {}
                                Ok(false) => {
                                    parse_failures += 1;
                                    if let Some(t) = &tel {
                                        t.parse_failure(&uid, ts);
                                    }
                                }
                                Err(e) => {
                                    if !gov.quarantine {
                                        return Err(e);
                                    }
                                    flow_errors.push(FlowError::new(&uid, &e, ts));
                                }
                            }
                            bp.drain_events_into(&mut events);
                        }
                        None => {
                            let e = RtError::runtime("binpac parser stack unavailable");
                            if !gov.quarantine {
                                return Err(e);
                            }
                            flow_errors.push(FlowError::new(&uid, &e, ts));
                        }
                    },
                }
            }
            if let Some(ms) = gov.idle_timeout_ms {
                timers.schedule(ts + Interval::from_millis(ms as i64), uid.clone());
                if !timers.advance(ts).is_empty() {
                    let cutoff =
                        Time::from_nanos(ts.nanos().saturating_sub(ms.saturating_mul(1_000_000)));
                    for dead in flows.expire_idle_uids(cutoff) {
                        if let Some(t) = &tel {
                            t.expired(&dead, ts);
                        }
                        flows_expired += 1;
                    }
                }
            }
        }
        let script_begin = rec.as_ref().map(|r| r.borrow().begin());
        dispatch_events(&mut host, &events, gov, &mut n_events, &mut flow_errors)?;
        if let Some(r) = &rec {
            let mut rb = r.borrow_mut();
            if !events.is_empty() {
                rb.record(
                    Stage::Script,
                    slot,
                    span_uid.as_ref(),
                    script_begin.unwrap(),
                );
            }
            rb.observe_delivery(monotonic_ns().saturating_sub(deliv_begin.unwrap()));
        }
        event_bufs.put(events);
    }
    arm_script_limits(&mut host, gov);
    if let Err(e) = host.done() {
        if !gov.quarantine {
            return Err(e);
        }
        flow_errors.push(FlowError::new("-", &e, last_ts));
    }

    let telemetry = match tel {
        Some(t) => t.finish(n_events, 0, &flow_errors),
        None => TelemetrySnapshot::default(),
    };
    warn_event_drops(&telemetry, "pipeline");
    let trace = rec.map(|r| finish_sequential_trace(r, gov, &flow_errors));
    Ok(AnalysisResult {
        http_log: host.log_lines("http.log"),
        files_log: host.log_lines("files.log"),
        dns_log: host.log_lines("dns.log"),
        output: host.take_output(),
        profiler,
        events: n_events,
        packets: n_packets,
        flow_errors,
        flows_expired,
        peak_flow_bytes: 0,
        parse_failures,
        telemetry,
        dispatch_telemetry: TelemetrySnapshot::default(),
        shard_faults: Vec::new(),
        shed_packets: 0,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::logs::agreement;
    use netpkt::synth::{dns_trace, http_trace, SynthConfig};

    #[test]
    fn http_standard_stack_produces_logs() {
        let trace = http_trace(&SynthConfig::new(42, 15));
        let r = run_http_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        assert!(r.http_log.len() >= 10, "http.log: {}", r.http_log.len());
        assert!(!r.files_log.is_empty());
        assert!(r.events > 50);
        // Every line has the full column count.
        for l in &r.http_log {
            assert_eq!(l.matches('\t').count(), 12, "{l}");
        }
    }

    #[test]
    fn http_engines_agree_table3_shape() {
        // Table 3, HTTP rows: same parser stack, interpreter vs compiled.
        let trace = http_trace(&SynthConfig::new(7, 12));
        let a = run_http_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        let b = run_http_analysis(&trace, ParserStack::Standard, Engine::Compiled).unwrap();
        let ag = agreement(&a.http_log, &b.http_log);
        assert_eq!(ag.percent(), 100.0, "http.log {ag:?}");
        let ag = agreement(&a.files_log, &b.files_log);
        assert_eq!(ag.percent(), 100.0, "files.log {ag:?}");
    }

    #[test]
    fn http_parser_stacks_agree_table2_shape() {
        // Table 2, HTTP rows: standard vs BinPAC++ parsers, same engine.
        let trace = http_trace(&SynthConfig::new(11, 12));
        let a = run_http_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        let b = run_http_analysis(&trace, ParserStack::Binpac, Engine::Interpreted).unwrap();
        let ag = agreement(&a.http_log, &b.http_log);
        assert!(ag.percent() > 90.0, "http.log agreement {ag:?}");
        assert!(a.http_log.len() > 5);
        assert!(b.http_log.len() > 5);
    }

    #[test]
    fn dns_engines_agree() {
        let trace = dns_trace(&SynthConfig::new(3, 80));
        let a = run_dns_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        let b = run_dns_analysis(&trace, ParserStack::Standard, Engine::Compiled).unwrap();
        assert!(a.dns_log.len() > 40);
        let ag = agreement(&a.dns_log, &b.dns_log);
        assert_eq!(ag.percent(), 100.0, "dns.log {ag:?}");
    }

    #[test]
    fn dns_parser_stacks_agree_except_txt() {
        let trace = dns_trace(&SynthConfig::new(13, 100));
        let a = run_dns_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        let b = run_dns_analysis(&trace, ParserStack::Binpac, Engine::Interpreted).unwrap();
        assert_eq!(a.dns_log.len(), b.dns_log.len());
        let ag = agreement(&a.dns_log, &b.dns_log);
        // High but not perfect: multi-string TXT answers differ by design.
        assert!(ag.percent() > 80.0, "{ag:?}");
    }

    #[test]
    fn profiler_attributes_components() {
        let trace = http_trace(&SynthConfig::new(21, 6));
        let r = run_http_analysis(&trace, ParserStack::Binpac, Engine::Compiled).unwrap();
        assert!(r.profiler.total(Component::ProtocolParsing) > 0);
        assert!(r.profiler.total(Component::ScriptExecution) > 0);
        assert!(r.profiler.total(Component::Glue) > 0);
        assert!(r.profiler.total(Component::Other) > 0);
    }
}
