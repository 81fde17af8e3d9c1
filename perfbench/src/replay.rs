//! The traced run: the sequential pipeline rebuilt from each layer's
//! public functions, with a span around every layer call.
//!
//! The loop mirrors `broscript::pipeline::run_{http,dns}_analysis_governed`
//! step for step — same constructors, same constructor arguments, the same
//! attached `Profiler`, the same governance branches — so its logs must
//! equal the untraced call's logs, and the benchmark checks that they do.
//! The one deliberate split is `ScriptHost::dispatch_event`, which is
//! driven as its three parts (`advance_time`, `event_args`, `dispatch`)
//! so each gets its own span. Nothing inside the program is instrumented:
//! every span is opened and closed here, around a public call.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use binpac::dns::BinpacDns;
use binpac::http::BinpacHttp;
use broscript::host::{event_args, Engine, ScriptHost};
use broscript::pipeline::{standard_dns_events, FlowError, Governance, ParserStack};
use broscript::scripts;
use broscript::slab::Pool;
use hilti::passes::OptLevel;
use hilti_rt::addr::{Addr, Port};
use hilti_rt::error::{RtError, RtResult};
use hilti_rt::limits::ResourceLimits;
use hilti_rt::profile::{Component, Profiler};
use hilti_rt::time::{Interval, Time};
use hilti_rt::timer::TimerMgr;
use hilti_rt::trace::monotonic_ns;
use netpkt::decode::decode_frame;
use netpkt::events::{ConnId, Event};
use netpkt::flow::FlowTable;
use netpkt::http::HttpConnParser;
use netpkt::pcap::RawPacket;
use netpkt::{PayloadRef, TraceBuffer};

use crate::alloc;
use crate::check::Logs;
use crate::workload::Proto;

/// A span's layer. `Packet` and `Flush` are roots (one per packet, one
/// for the end-of-trace flush); every other layer is a child of a root.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Packet,
    Flush,
    Decode,
    Flow,
    NetHttp,
    NetDns,
    BinpacHttp,
    BinpacDns,
    Time,
    Glue,
    Script,
    Timer,
}

impl Layer {
    /// The measured (child) layers, in report order.
    pub const MEASURED: [Layer; 10] = [
        Layer::Decode,
        Layer::Flow,
        Layer::NetHttp,
        Layer::NetDns,
        Layer::BinpacHttp,
        Layer::BinpacDns,
        Layer::Time,
        Layer::Glue,
        Layer::Script,
        Layer::Timer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Packet => "packet",
            Layer::Flush => "flush",
            Layer::Decode => "netpkt.decode",
            Layer::Flow => "netpkt.flow",
            Layer::NetHttp => "netpkt.http",
            Layer::NetDns => "netpkt.dns",
            Layer::BinpacHttp => "binpac.http",
            Layer::BinpacDns => "binpac.dns",
            Layer::Time => "broscript.time",
            Layer::Glue => "broscript.glue",
            Layer::Script => "broscript.script",
            Layer::Timer => "hilti_rt.timer",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub const COUNT: usize = 12;

    /// The parse layer of a protocol's parser stack.
    pub fn parser(proto: Proto, stack: ParserStack) -> Layer {
        match (proto, stack) {
            (Proto::Http, ParserStack::Standard) => Layer::NetHttp,
            (Proto::Http, ParserStack::Binpac) => Layer::BinpacHttp,
            (Proto::Dns, ParserStack::Standard) => Layer::NetDns,
            (Proto::Dns, ParserStack::Binpac) => Layer::BinpacDns,
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `allocs` is the number of heap allocations the
/// process made between its begin and end.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub packet: u64,
    pub parent: u32,
    pub begin_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
}

/// Where a span began: clock and allocation counter.
#[derive(Clone, Copy)]
pub struct Mark {
    ns: u64,
    allocs: u64,
}

fn mark() -> Mark {
    Mark {
        ns: monotonic_ns(),
        allocs: alloc::count(),
    }
}

/// The spans of one traced replay, kept in memory until the run ends.
pub struct Spans {
    pub spans: Vec<Span>,
    root: u32,
    /// Non-empty flow-table deliveries, and those that left the zero-copy
    /// path (an owned reassembly buffer instead of an arena slice).
    pub delivered: u64,
    pub copied: u64,
}

impl Spans {
    /// Reserves room up front, so recording never allocates inside a
    /// measured layer call.
    pub fn with_capacity(n: usize) -> Spans {
        Spans {
            spans: Vec::with_capacity(n),
            root: NO_PARENT,
            delivered: 0,
            copied: 0,
        }
    }

    fn open_root(&mut self, layer: Layer, packet: u64) -> Mark {
        self.root = self.spans.len() as u32;
        let m = mark();
        self.spans.push(Span {
            layer,
            packet,
            parent: NO_PARENT,
            begin_ns: m.ns,
            end_ns: m.ns,
            allocs: 0,
        });
        m
    }

    fn close_root(&mut self, m: Mark) {
        let now = mark();
        let root = &mut self.spans[self.root as usize];
        root.end_ns = now.ns;
        root.allocs = now.allocs - m.allocs;
    }

    /// Records a child span of the current root, begun at `m`.
    fn child(&mut self, layer: Layer, m: Mark) {
        let now = mark();
        let packet = self.spans[self.root as usize].packet;
        self.spans.push(Span {
            layer,
            packet,
            parent: self.root,
            begin_ns: m.ns,
            end_ns: now.ns,
            allocs: now.allocs - m.allocs,
        });
    }
}

/// What a replay produced.
pub struct Replay {
    pub logs: Logs,
    pub packets: u64,
}

/// Replays `packets` through the rebuilt pipeline for `proto`, recording
/// spans into `sp`.
pub fn replay(
    proto: Proto,
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
    sp: &mut Spans,
) -> RtResult<Replay> {
    match proto {
        Proto::Http => replay_http(packets, stack, engine, gov, sp),
        Proto::Dns => replay_dns(packets, stack, engine, gov, sp),
    }
}

fn flow_error(uid: &str, e: &RtError, ts: Time) -> FlowError {
    FlowError {
        uid: uid.to_owned(),
        kind: e.kind.name().to_owned(),
        detail: e.to_string(),
        ts,
    }
}

fn placeholder_id() -> ConnId {
    ConnId {
        orig_h: Addr::v4(0, 0, 0, 0),
        orig_p: Port::tcp(0),
        resp_h: Addr::v4(0, 0, 0, 0),
        resp_p: Port::tcp(0),
    }
}

/// The pipeline's per-event limit re-arm; a no-op unless the governance
/// sets a script fuel budget or a delivery deadline.
fn arm_script_limits(host: &mut ScriptHost, gov: &Governance) {
    if gov.script_fuel.is_some() || gov.delivery_deadline_ms.is_some() {
        host.set_limits(ResourceLimits {
            fuel: gov.script_fuel,
            deadline_ms: gov.delivery_deadline_ms,
            ..ResourceLimits::default()
        });
    }
}

/// `ScriptHost::dispatch_event` in its three parts, one span each:
/// network-time advance, host-event → script-value conversion (charged to
/// the profiler's glue component for the compiled engine, as the host
/// does), and handler execution.
struct Dispatcher<'a> {
    host: &'a mut ScriptHost,
    profiler: &'a Profiler,
    gov: &'a Governance,
}

impl Dispatcher<'_> {
    fn events(
        &mut self,
        events: &[Event],
        sp: &mut Spans,
        flow_errors: &mut Vec<FlowError>,
    ) -> RtResult<()> {
        for ev in events {
            arm_script_limits(self.host, self.gov);
            if let Err(e) = self.event(ev, sp) {
                if !self.gov.quarantine {
                    return Err(e);
                }
                flow_errors.push(flow_error(ev.uid(), &e, ev.ts()));
            }
        }
        Ok(())
    }

    fn event(&mut self, ev: &Event, sp: &mut Spans) -> RtResult<()> {
        let m = mark();
        let r = self.host.advance_time(ev.ts());
        sp.child(Layer::Time, m);
        r?;
        let m = mark();
        let (name, args) = {
            let _g = (self.host.engine() == Engine::Compiled)
                .then(|| self.profiler.enter(Component::Glue));
            event_args(ev)
        };
        sp.child(Layer::Glue, m);
        let m = mark();
        let r = self.host.dispatch(name, &args);
        sp.child(Layer::Script, m);
        r
    }

    fn done(&mut self, sp: &mut Spans) -> RtResult<()> {
        arm_script_limits(self.host, self.gov);
        let m = mark();
        let r = self.host.done();
        sp.child(Layer::Script, m);
        r
    }
}

fn logs_of(host: &ScriptHost, output: &[String], flow_errors: &[FlowError]) -> Logs {
    Logs::new(
        &host.log_lines("http.log"),
        &host.log_lines("files.log"),
        &host.log_lines("dns.log"),
        output,
        flow_errors,
    )
}

fn replay_http(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
    sp: &mut Spans,
) -> RtResult<Replay> {
    let profiler = Profiler::new();
    let mut host = ScriptHost::new_tiered(
        &[scripts::HTTP_BRO],
        engine,
        Some(profiler.clone()),
        gov.tiering,
    )?;
    let mut flows = FlowTable::new();
    let mut std_parsers: HashMap<Arc<str>, HttpConnParser> = HashMap::new();
    let mut std_order: Vec<Arc<str>> = Vec::new();
    let mut bp = match stack {
        ParserStack::Binpac => {
            let mut b = BinpacHttp::new(OptLevel::Full, Some(profiler.clone()))?;
            if let Some(n) = gov.per_flow_heap {
                b.set_session_budget(n);
            }
            b.set_delivery_deadline_ms(gov.delivery_deadline_ms);
            Some(b)
        }
        ParserStack::Standard => None,
    };
    let parse_layer = Layer::parser(Proto::Http, stack);
    let mut timers: TimerMgr<Arc<str>> = TimerMgr::new();
    let mut quarantined: HashSet<Arc<str>> = HashSet::new();
    let mut flow_errors: Vec<FlowError> = Vec::new();
    let mut n_packets = 0u64;
    let mut last_ts = Time::ZERO;
    let trace = TraceBuffer::from_packets(packets);
    let mut event_bufs: Pool<Vec<Event>> = Pool::new(4);
    let mut disp = Dispatcher {
        host: &mut host,
        profiler: &profiler,
        gov,
    };

    for frame_idx in 0..trace.len() {
        n_packets += 1;
        let (frame_data, ts) = trace.frame(frame_idx);
        last_ts = ts;
        let root = sp.open_root(Layer::Packet, n_packets - 1);
        let mut events: Vec<Event> = event_bufs.take();
        {
            let _o = profiler.enter(Component::Other);
            let m = mark();
            let decoded = decode_frame(frame_data, ts);
            sp.child(Layer::Decode, m);
            let Ok(d) = decoded else {
                sp.close_root(root);
                continue;
            };
            let m = mark();
            let delivery = flows.process_shared(&d, frame_data, trace.frame_offset(frame_idx));
            sp.child(Layer::Flow, m);
            let uid = delivery.flow.uid.clone();
            let id = delivery.flow.id;
            let is_orig = delivery.is_orig;
            let finished = delivery.finished_now;
            let payload = delivery.payload;
            if !payload.is_empty() {
                sp.delivered += 1;
                sp.copied += u64::from(matches!(payload, PayloadRef::Owned(_)));
            }

            if !quarantined.contains(&*uid) {
                let m = mark();
                match bp.as_mut() {
                    None => {
                        let _pp = profiler.enter(Component::ProtocolParsing);
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
                    }
                    Some(bp) => {
                        let mut fail: Option<RtError> = None;
                        if !payload.is_empty() {
                            let chunk = payload.feed_chunk(&trace);
                            if let Err(e) = bp.feed_chunk(&uid, id, is_orig, ts, chunk) {
                                fail = Some(e);
                            }
                        }
                        if fail.is_none() && finished {
                            if let Err(e) = bp.finish_conn(&uid, id, ts) {
                                fail = Some(e);
                            }
                        }
                        bp.drain_events_into(&mut events);
                        if let Some(e) = fail {
                            if !gov.quarantine {
                                return Err(e);
                            }
                            bp.drop_conn(&uid);
                            std_parsers.remove(&uid);
                            quarantined.insert(uid.clone());
                            flow_errors.push(flow_error(&uid, &e, ts));
                        }
                    }
                }
                sp.child(parse_layer, m);
            }

            if let Some(ms) = gov.idle_timeout_ms {
                let m = mark();
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
                    }
                }
                sp.child(Layer::Timer, m);
            }
        }
        disp.events(&events, sp, &mut flow_errors)?;
        event_bufs.put(events);
        sp.close_root(root);
    }

    // End of trace: flush all still-open connections, then `bro_done`.
    let root = sp.open_root(Layer::Flush, n_packets);
    let mut tail_events: Vec<Event> = Vec::new();
    let m = mark();
    match bp.as_mut() {
        None => {
            let _pp = profiler.enter(Component::ProtocolParsing);
            for uid in &std_order {
                if let Some(mut parser) = std_parsers.remove(uid) {
                    parser.finish(last_ts, &mut tail_events);
                }
            }
        }
        Some(bp) => {
            if gov.quarantine {
                for uid in bp.live_uids() {
                    if let Err(e) = bp.finish_conn(&uid, placeholder_id(), last_ts) {
                        bp.drop_conn(&uid);
                        flow_errors.push(flow_error(&uid, &e, last_ts));
                    }
                }
            } else {
                bp.finish_all(last_ts)?;
            }
            bp.drain_events_into(&mut tail_events);
        }
    }
    sp.child(parse_layer, m);
    disp.events(&tail_events, sp, &mut flow_errors)?;
    if let Err(e) = disp.done(sp) {
        if !gov.quarantine {
            return Err(e);
        }
        flow_errors.push(flow_error("-", &e, last_ts));
    }
    sp.close_root(root);

    let output = host.take_output();
    Ok(Replay {
        logs: logs_of(&host, &output, &flow_errors),
        packets: n_packets,
    })
}

fn replay_dns(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
    sp: &mut Spans,
) -> RtResult<Replay> {
    let profiler = Profiler::new();
    let mut host = ScriptHost::new_tiered(
        &[scripts::DNS_BRO],
        engine,
        Some(profiler.clone()),
        gov.tiering,
    )?;
    let mut flows = FlowTable::new();
    let mut bp = match stack {
        ParserStack::Binpac => {
            let mut b = BinpacDns::new(OptLevel::Full, Some(profiler.clone()))?;
            b.set_delivery_deadline_ms(gov.delivery_deadline_ms);
            Some(b)
        }
        ParserStack::Standard => None,
    };
    let parse_layer = Layer::parser(Proto::Dns, stack);
    let mut timers: TimerMgr<Arc<str>> = TimerMgr::new();
    let mut flow_errors: Vec<FlowError> = Vec::new();
    let mut n_packets = 0u64;
    let mut last_ts = Time::ZERO;
    let trace = TraceBuffer::from_packets(packets);
    let mut event_bufs: Pool<Vec<Event>> = Pool::new(4);
    let mut disp = Dispatcher {
        host: &mut host,
        profiler: &profiler,
        gov,
    };

    for frame_idx in 0..trace.len() {
        n_packets += 1;
        let (frame_data, ts) = trace.frame(frame_idx);
        last_ts = ts;
        let root = sp.open_root(Layer::Packet, n_packets - 1);
        let mut events: Vec<Event> = event_bufs.take();
        {
            let _o = profiler.enter(Component::Other);
            let m = mark();
            let decoded = decode_frame(frame_data, ts);
            sp.child(Layer::Decode, m);
            let Ok(d) = decoded else {
                sp.close_root(root);
                continue;
            };
            let m = mark();
            let delivery = flows.process_shared(&d, frame_data, trace.frame_offset(frame_idx));
            sp.child(Layer::Flow, m);
            let uid = delivery.flow.uid.clone();
            let id = delivery.flow.id;
            let payload = delivery.payload;
            if !payload.is_empty() {
                sp.delivered += 1;
                sp.copied += u64::from(matches!(payload, PayloadRef::Owned(_)));
                let m = mark();
                match bp.as_mut() {
                    None => {
                        let _pp = profiler.enter(Component::ProtocolParsing);
                        // An unparseable datagram only counts as a parse
                        // failure; it has no effect on the logs.
                        standard_dns_events(&uid, id, ts, payload.resolve(&trace), &mut events);
                    }
                    Some(bp) => {
                        let chunk = payload.feed_chunk(&trace);
                        match bp.datagram_chunk(&uid, id, ts, chunk) {
                            Ok(_) => {}
                            Err(e) => {
                                if !gov.quarantine {
                                    return Err(e);
                                }
                                flow_errors.push(flow_error(&uid, &e, ts));
                            }
                        }
                        bp.drain_events_into(&mut events);
                    }
                }
                sp.child(parse_layer, m);
            }
            if let Some(ms) = gov.idle_timeout_ms {
                let m = mark();
                timers.schedule(ts + Interval::from_millis(ms as i64), uid.clone());
                if !timers.advance(ts).is_empty() {
                    let cutoff =
                        Time::from_nanos(ts.nanos().saturating_sub(ms.saturating_mul(1_000_000)));
                    flows.expire_idle_uids(cutoff);
                }
                sp.child(Layer::Timer, m);
            }
        }
        disp.events(&events, sp, &mut flow_errors)?;
        event_bufs.put(events);
        sp.close_root(root);
    }

    let root = sp.open_root(Layer::Flush, n_packets);
    if let Err(e) = disp.done(sp) {
        if !gov.quarantine {
            return Err(e);
        }
        flow_errors.push(flow_error("-", &e, last_ts));
    }
    sp.close_root(root);

    let output = host.take_output();
    Ok(Replay {
        logs: logs_of(&host, &output, &flow_errors),
        packets: n_packets,
    })
}
