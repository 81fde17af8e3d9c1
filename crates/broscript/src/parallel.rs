//! Flow-sharded parallel analysis pipeline with a deterministic merge.
//!
//! The paper's concurrency model (§3.2) hashes each flow to a virtual
//! thread so all computation for one flow is implicitly serialized; "HILTI
//! code is always safe to execute in parallel" (§7). This module applies
//! that placement to the whole analysis pipeline: a dispatcher thread
//! decodes packets and runs the shared flow table, then hashes each
//! connection 5-tuple ([`netpkt::flow::shard_hash`], symmetric and
//! worker-count-independent) to one of N shards. Each shard — its own
//! `std::thread` fed by a bounded SPSC ring ([`hilti_rt::spsc`]) — owns a
//! private engine context, parser stack, script host, profiler, and
//! telemetry registry, so the per-packet hot path takes no locks.
//!
//! **Zero-copy dispatch.** The trace is loaded once into a shared
//! immutable [`TraceBuffer`] arena. Deliveries carry a [`PayloadRef`] —
//! an `(offset, len)` slice into the arena for in-order payload — and an
//! interned `Arc<str>` uid shared with the flow table, so the per-packet
//! item shipped across threads is a fixed-size struct with no heap copy
//! of payload or uid. Deliveries are staged per shard and pushed to the
//! ring in batches of [`PipelineOptions::batch`], amortizing the
//! cross-thread wakeup.
//!
//! **Determinism.** The result of an N-worker run is byte-identical to the
//! 1-worker (and to the sequential [`crate::pipeline`]) run for every N
//! and every batch size. Global decisions stay on the dispatcher: uid
//! assignment, TCP reassembly, and idle-flow expiry (the timer wheel
//! sweeps the shared flow table; shards receive `Evict` directives rather
//! than sweeping locally, since a shard-local sweep would fire at
//! different packet positions for different N). Shard-side effects — log
//! lines, printed lines, flow errors, telemetry events — are recorded in
//! flat per-shard vectors, and each processing step seals an
//! [`EffectBlock`]: the `(offset, len)` ranges it appended, keyed by the
//! position the sequential pipeline would have produced them in:
//!
//! * phase 0 — dispatcher `flow_open`/`flow_close` events,
//! * phase 1 — parse effects (parser events, `parser_error`, engine sink
//!   events raised while parsing),
//! * phase 2 — dispatcher `timer_expiry` events,
//! * phase 3 — dispatch effects (script logs/output, engine sink events
//!   raised while executing handlers).
//!
//! Because each shard processes its items in key order, its blocks form
//! (at most two) sorted streams, and every key has a unique producer
//! (only the end-of-run `bro_done` key ties across shards, broken by
//! shard index). The merge therefore orders the *block descriptors* by
//! `(key, shard)` and concatenates each category's ranges — no per-line
//! sort. Telemetry snapshots combine by [`TelemetrySnapshot::merge`] —
//! counters summed, gauges max-merged (they track peaks), histograms
//! bucket-wise — and the merged event stream replaces the concatenation,
//! with `quarantine` events re-emitted at the end in merged-ledger order
//! exactly as the sequential pipeline does. Dispatch-plane metrics (batch
//! counts, fill, queue depths) depend on N and batch, so they live in the
//! separate [`AnalysisResult::dispatch_telemetry`] snapshot. See
//! DESIGN.md ("Batched zero-copy dispatch").

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use binpac::dns::BinpacDns;
use binpac::http::BinpacHttp;
use binpac::parser::ParserIr;
use hilti::passes::OptLevel;
use hilti_rt::error::{RtError, RtResult};
use hilti_rt::profile::{Component, Profiler};
use hilti_rt::spsc::{self, Producer};
use hilti_rt::telemetry::{
    Counter, Event as TelemetryEvent, Gauge, Histogram, Telemetry, TelemetrySnapshot,
};
use hilti_rt::time::{Interval, Time};
use hilti_rt::timer::TimerMgr;
use hilti_rt::trace::{
    monotonic_ns, FlightRecorder, PostmortemDump, RecorderPart, SharedRecorder, Stage, TraceReport,
    DISPATCHER,
};

use hilti_rt::bytestring::FeedChunk;
use netpkt::decode::decode_frame;
use netpkt::events::{ConnId, Event};
use netpkt::flow::{shard_hash_frame, FlowTable};
use netpkt::http::HttpConnParser;
use netpkt::pcap::RawPacket;
use netpkt::{PayloadRef, TraceBuffer};

use crate::host::{Engine, HostBlueprint, ScriptHost};
use crate::pipeline::{
    arm_script_limits, placeholder_id, standard_dns_events, warn_event_drops, AnalysisResult,
    FlowError, Governance, ParserStack, ShardFault,
};
use crate::scripts;

/// Default shard count: one per core, capped at 8 (the paper's evaluation
/// machine exposes 8 hardware threads).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Deliveries staged per shard before a ring submission (amortizes the
/// cross-thread wakeup). See DESIGN.md for the tuning sweep behind the
/// default.
pub const DEFAULT_BATCH: usize = 128;

/// What the dispatcher does when a shard's ring stays saturated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverloadPolicy {
    /// Park until the shard drains (lossless backpressure — the default).
    /// Output stays byte-identical to sequential; a wedged shard stalls
    /// the dispatcher, which is what the per-delivery watchdog deadline
    /// ([`Governance::delivery_deadline_ms`]) exists to bound.
    #[default]
    Block,
    /// Bound the ring at `max_queue_depth` items and drop whole delivery
    /// batches that do not fit, counting them per shard as
    /// `pipeline.shed_packets.shard{w}` / `pipeline.shed_batches.shard{w}`
    /// in [`AnalysisResult::dispatch_telemetry`] and in total as
    /// [`AnalysisResult::shed_packets`]. Control items (evictions,
    /// end-of-trace flushes, done markers) are never shed — they block
    /// instead, so shutdown and state teardown stay reliable. A flow that
    /// loses a delivery is quarantined as a [`FlowError`] of kind
    /// [`FlowError::SHED`]: its shard drops the flow's parser state and
    /// none of its later deliveries is routed, so it logs nothing from
    /// gapped input. Shedding depends on wall-clock scheduling, so output
    /// under `Shed` is *not* deterministic; it is the live-overload
    /// degradation mode.
    Shed { max_queue_depth: usize },
}

/// Knobs for a parallel run.
#[derive(Clone, Copy)]
pub struct PipelineOptions {
    /// Number of shards (worker threads). The output is byte-identical
    /// for every value; only throughput changes.
    pub workers: usize,
    /// Deliveries staged per shard before the dispatcher pushes them to
    /// the shard's ring. The output is byte-identical for every value;
    /// only dispatch overhead changes.
    pub batch: usize,
    pub governance: Governance,
    /// Backpressure policy when a shard's ring is full.
    pub overload: OverloadPolicy,
    /// Chaos hook: worker `.0` panics at the start of its `.1`-th
    /// delivery (1-based, one-shot). See
    /// [`PipelineOptions::inject_shard_panic_after`].
    pub panic_inject: Option<(usize, u64)>,
    /// Chaos hook: worker `.0` sleeps `.1` milliseconds before first
    /// draining its ring. See [`PipelineOptions::inject_shard_stall`].
    pub stall_inject: Option<(usize, u64)>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            workers: default_workers(),
            batch: DEFAULT_BATCH,
            governance: Governance::default(),
            overload: OverloadPolicy::Block,
            panic_inject: None,
            stall_inject: None,
        }
    }
}

impl PipelineOptions {
    /// Chaos hook mirroring `Context::inject_fault_after`: shard `shard`
    /// panics at the start of the `n`-th delivery it receives (1-based,
    /// one-shot). Deterministic for a fixed `(trace, workers)` — the
    /// same flows always hash to the same shard, in the same order.
    pub fn inject_shard_panic_after(mut self, shard: usize, n: u64) -> Self {
        self.panic_inject = Some((shard, n));
        self
    }

    /// Chaos hook: shard `shard` sleeps `ms` milliseconds before first
    /// draining its ring, simulating a wedged or descheduled worker.
    /// Under [`OverloadPolicy::Block`] this only delays the run; under
    /// `Shed` it forces the dispatcher down the shedding path.
    pub fn inject_shard_stall(mut self, shard: usize, ms: u64) -> Self {
        self.stall_inject = Some((shard, ms));
        self
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    Http,
    Dns,
}

/// Within-packet phases, mirroring the sequential emission order.
const PH_FLOW: u8 = 0;
const PH_PARSE: u8 = 1;
const PH_TIMER: u8 = 2;
const PH_DISPATCH: u8 = 3;

/// Merge key: the position in the sequential output this effect belongs
/// to. `major` is the packet slot for in-trace effects; end-of-trace
/// flushes use majors past the packet count (one per candidate flow for
/// the parse sweep, then one per candidate for the dispatch sweep, then
/// one for `bro_done`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    major: u64,
    phase: u8,
}

const LOG_STREAMS: [&str; 3] = ["http.log", "files.log", "dns.log"];

/// Flat per-shard effect storage. Effects are appended in processing
/// order; [`EffectBlock`]s record which ranges belong to which merge key.
#[derive(Default)]
struct Effects {
    logs: [Vec<String>; 3],
    output: Vec<String>,
    flow_errors: Vec<FlowError>,
    /// Engine/pipeline telemetry events, rendered to JSONL at capture time.
    events: Vec<String>,
}

/// One sealed epoch of effects: `(start, end)` ranges into the owner's
/// [`Effects`] vectors, tagged with the merge key. Blocks are emitted in
/// key order per stream, so the merge never sorts individual effects.
#[derive(Clone, Copy)]
struct EffectBlock {
    key: Key,
    logs: [(u32, u32); 3],
    output: (u32, u32),
    flow_errors: (u32, u32),
    events: (u32, u32),
}

/// Effect-vector lengths at the start of a block (see [`ShardState::mark`]).
#[derive(Clone, Copy, Default)]
struct Mark {
    logs: [u32; 3],
    output: u32,
    flow_errors: u32,
    events: u32,
}

/// Work items shipped from the dispatcher to a shard, in trace order.
/// Fixed-size: the uid is an interned `Arc<str>` shared with the flow
/// table and the payload an `(offset, len)` slice of the shared trace
/// arena (owned bytes only when reassembly had to stitch segments).
enum ShardItem {
    /// One reassembled segment of a flow owned by this shard.
    Delivery {
        slot: u64,
        uid: Arc<str>,
        id: ConnId,
        is_orig: bool,
        ts: Time,
        payload: PayloadRef,
        finished: bool,
        /// Dispatcher enqueue timestamp ([`monotonic_ns`]) when tracing is
        /// on, 0 otherwise. The shard's queue-wait span and end-to-end
        /// delivery latency start here.
        enq_ns: u64,
    },
    /// The dispatcher's timer wheel expired this flow: drop parser state.
    Evict { uid: Arc<str> },
    /// End-of-trace flush of one still-open flow (HTTP only).
    FinishFlow {
        parse_major: u64,
        dispatch_major: u64,
        uid: Arc<str>,
        ts: Time,
    },
    /// End of run: re-arm fuel and fire `bro_done`.
    Done { major: u64, ts: Time },
}

/// Shard-local pre-interned metric handles (the shard's own registry).
struct ShardTelemetry {
    telemetry: Telemetry,
    bytes_parsed: Counter,
    bytes_copied: Counter,
    bytes_borrowed: Counter,
    parse_failures: Counter,
    payload_bytes: Histogram,
    /// How much of the shard sink has been attributed to a block.
    sink_cursor: usize,
}

impl ShardTelemetry {
    /// Mirrors `PipelineTelemetry::routed`: attributes a delivery payload
    /// to the zero-copy (arena-borrowed) or memcpy'd counter.
    fn routed(&self, payload: &PayloadRef, forced_copy: bool) {
        match payload {
            PayloadRef::Shared { len, .. } if !forced_copy => {
                self.bytes_borrowed.add(*len as u64);
            }
            p => self.bytes_copied.add(p.len() as u64),
        }
    }
}

/// Everything one shard owns. Built *on* the worker thread (`ScriptHost`
/// and the parser VMs are `!Send`).
struct ShardState {
    proto: Proto,
    stack: ParserStack,
    gov: Governance,
    trace: Arc<TraceBuffer>,
    /// Shared build artifacts, kept so the supervisor can rebuild the
    /// engine pieces after a caught panic.
    blueprint: Arc<ShardBlueprint>,
    host: ScriptHost,
    profiler: Profiler,
    tel: Option<ShardTelemetry>,
    std_http: HashMap<Arc<str>, HttpConnParser>,
    bp_http: Option<BinpacHttp>,
    bp_dns: Option<BinpacDns>,
    quarantined: HashSet<Arc<str>>,
    n_events: u64,
    parse_failures: u64,
    log_cursors: [usize; 3],
    effects: Effects,
    /// In-trace blocks plus end-of-trace parse blocks: keys strictly
    /// increase in processing order.
    blocks_main: Vec<EffectBlock>,
    /// End-of-trace dispatch blocks and `bro_done`: their majors run past
    /// the parse sweep's, so they form a second sorted stream.
    blocks_tail: Vec<EffectBlock>,
    /// First unrecoverable error (ungoverned mode): merge picks the
    /// globally-first one. Processing on this shard stops here.
    fatal: Option<(Key, RtError)>,
    /// Merge key of the item currently being processed — the position a
    /// panic's quarantine block is sealed under.
    cur_key: Key,
    /// Timestamp of the item currently being processed.
    cur_ts: Time,
    /// Flow of the item currently being processed (None for `Done`).
    cur_uid: Option<Arc<str>>,
    /// Effect-vector lengths at the last seal: the panic salvage point.
    /// Everything past it was appended by the interrupted item and is
    /// discarded (the sequential run would also not have emitted a
    /// partial item's effects for a flow that dies mid-processing).
    sealed_high: Mark,
    /// Panics the supervisor caught and recovered from on this shard.
    faults: Vec<String>,
    /// Tombstone mode: a post-panic rebuild failed, so the shard has no
    /// engine. Every delivery for a not-yet-quarantined flow records a
    /// `ShardPanic` loss; control items are no-ops.
    dead: bool,
    /// Chaos: panic at the start of the n-th delivery (1-based, one-shot).
    panic_countdown: Option<u64>,
    /// Flight recorder ([`Governance::tracing`]): owned by this shard's
    /// thread, shared (same-thread `Rc`) with the binpac parsers so parse
    /// spans are recorded inside the generated-parser stack.
    rec: Option<SharedRecorder>,
    /// Enqueue timestamp of the delivery currently being processed (0
    /// when tracing is off or the item is not a delivery).
    cur_enq_ns: u64,
    /// Fault-triggered flight-recorder dumps captured on this shard
    /// (bounded; see [`ShardState::on_panic`]).
    postmortems: Vec<PostmortemDump>,
    /// Recycled per-delivery event buffers: deliveries `take` a cleared
    /// `Vec<Event>` and `put` it back after dispatch, so the per-packet
    /// path stops round-tripping the global allocator.
    event_bufs: crate::slab::Pool<Vec<Event>>,
}

/// Cap on per-shard postmortem dumps: a panic storm should not turn the
/// trace side-channel into an unbounded allocation.
const MAX_POSTMORTEMS_PER_SHARD: usize = 8;

/// Front-end build artifacts shared by every shard: the script host
/// blueprint plus (for the binpac stack) the generated parser's optimized
/// IR. `Send`, built once on the dispatcher thread — each shard pays only
/// bytecode lowering instead of a full compile.
struct ShardBlueprint {
    host: HostBlueprint,
    parser: Option<ParserIr>,
}

impl ShardBlueprint {
    fn build(
        proto: Proto,
        stack: ParserStack,
        engine: Engine,
        gov: &Governance,
    ) -> RtResult<ShardBlueprint> {
        let script = match proto {
            Proto::Http => scripts::HTTP_BRO,
            Proto::Dns => scripts::DNS_BRO,
        };
        let host = ScriptHost::blueprint(&[script], engine, gov.tiering)?;
        let parser = match (proto, stack) {
            (Proto::Http, ParserStack::Binpac) => Some(BinpacHttp::front_end(OptLevel::Full)?),
            (Proto::Dns, ParserStack::Binpac) => Some(BinpacDns::front_end(OptLevel::Full)?),
            _ => None,
        };
        Ok(ShardBlueprint { host, parser })
    }
}

/// Builds (or, after a caught panic, rebuilds) a shard's engine pieces —
/// script host plus parser stack — from the shared blueprint, wiring them
/// to the shard's existing profiler and telemetry registry.
fn build_engine(
    proto: Proto,
    stack: ParserStack,
    gov: &Governance,
    bp: &ShardBlueprint,
    profiler: &Profiler,
    tel: Option<&ShardTelemetry>,
    rec: Option<&SharedRecorder>,
) -> RtResult<(ScriptHost, Option<BinpacHttp>, Option<BinpacDns>)> {
    let mut host = ScriptHost::from_blueprint(&bp.host, Some(profiler.clone()))?;
    if let Some(t) = tel {
        host.set_telemetry(&t.telemetry);
    }
    let mut bp_http = None;
    let mut bp_dns = None;
    match (proto, stack) {
        (Proto::Http, ParserStack::Binpac) => {
            let ir = bp.parser.as_ref().expect("binpac blueprint carries IR");
            let mut b = BinpacHttp::from_ir(ir, Some(profiler.clone()))?;
            if let Some(n) = gov.per_flow_heap {
                b.set_session_budget(n);
            }
            if let Some(steps) = gov.inject_fault_after {
                b.inject_fault_after(steps, RtError::runtime("injected chaos fault"));
            }
            if let Some(t) = tel {
                b.set_telemetry(&t.telemetry);
            }
            if let Some(r) = rec {
                b.set_recorder(r.clone());
            }
            b.set_delivery_deadline_ms(gov.delivery_deadline_ms);
            bp_http = Some(b);
        }
        (Proto::Dns, ParserStack::Binpac) => {
            let ir = bp.parser.as_ref().expect("binpac blueprint carries IR");
            let mut b = BinpacDns::from_ir(ir, Some(profiler.clone()))?;
            if let Some(t) = tel {
                b.set_telemetry(&t.telemetry);
            }
            if let Some(r) = rec {
                b.set_recorder(r.clone());
            }
            b.set_delivery_deadline_ms(gov.delivery_deadline_ms);
            bp_dns = Some(b);
        }
        _ => {}
    }
    Ok((host, bp_http, bp_dns))
}

impl ShardState {
    fn new(
        shard: usize,
        proto: Proto,
        stack: ParserStack,
        gov: Governance,
        trace: Arc<TraceBuffer>,
        blueprint: Arc<ShardBlueprint>,
        panic_countdown: Option<u64>,
    ) -> RtResult<ShardState> {
        let profiler = Profiler::new();
        let rec = gov
            .tracing
            .then(|| FlightRecorder::new(shard as u32).shared());
        let tel = gov.telemetry.then(|| {
            let telemetry = Telemetry::new();
            ShardTelemetry {
                bytes_parsed: telemetry.counter("pipeline.bytes_parsed"),
                bytes_copied: telemetry.counter("pipeline.bytes_copied"),
                bytes_borrowed: telemetry.counter("pipeline.bytes_borrowed"),
                parse_failures: telemetry.counter("pipeline.parse_failures"),
                payload_bytes: telemetry.histogram("pipeline.payload_bytes"),
                sink_cursor: 0,
                telemetry,
            }
        });
        let (host, bp_http, bp_dns) = build_engine(
            proto,
            stack,
            &gov,
            &blueprint,
            &profiler,
            tel.as_ref(),
            rec.as_ref(),
        )?;
        Ok(ShardState {
            proto,
            stack,
            gov,
            trace,
            blueprint,
            host,
            profiler,
            tel,
            std_http: HashMap::new(),
            bp_http,
            bp_dns,
            quarantined: HashSet::new(),
            n_events: 0,
            parse_failures: 0,
            log_cursors: [0; 3],
            effects: Effects::default(),
            blocks_main: Vec::new(),
            blocks_tail: Vec::new(),
            fatal: None,
            cur_key: Key {
                major: 0,
                phase: PH_PARSE,
            },
            cur_ts: Time::ZERO,
            cur_uid: None,
            sealed_high: Mark::default(),
            faults: Vec::new(),
            dead: false,
            panic_countdown,
            rec,
            cur_enq_ns: 0,
            postmortems: Vec::new(),
            event_bufs: crate::slab::Pool::new(4),
        })
    }

    /// Records where the next item runs — the position and flow a panic
    /// would be charged to — and fires the injected chaos panic when its
    /// countdown hits. Runs *inside* the supervision boundary.
    fn begin(&mut self, item: &ShardItem) {
        match item {
            ShardItem::Delivery {
                slot,
                uid,
                ts,
                enq_ns,
                ..
            } => {
                self.cur_key = Key {
                    major: *slot,
                    phase: PH_PARSE,
                };
                self.cur_ts = *ts;
                self.cur_uid = Some(uid.clone());
                self.cur_enq_ns = *enq_ns;
                // Queue-wait span first, so a chaos panic below still
                // leaves the faulting delivery visible in the postmortem.
                if let Some(r) = &self.rec {
                    r.borrow_mut().record_span(
                        Stage::QueueWait,
                        *slot,
                        Some(uid),
                        *enq_ns,
                        monotonic_ns(),
                    );
                }
                if let Some(n) = self.panic_countdown {
                    if n <= 1 {
                        // One-shot: disarm before firing so the respawned
                        // engine does not re-trip on its next delivery.
                        self.panic_countdown = None;
                        panic!("injected shard panic");
                    }
                    self.panic_countdown = Some(n - 1);
                }
            }
            // Evictions carry no slot; a panic there is charged to the
            // previous item's position.
            ShardItem::Evict { uid } => self.cur_uid = Some(uid.clone()),
            ShardItem::FinishFlow {
                parse_major,
                uid,
                ts,
                ..
            } => {
                self.cur_key = Key {
                    major: *parse_major,
                    phase: PH_PARSE,
                };
                self.cur_ts = *ts;
                self.cur_uid = Some(uid.clone());
            }
            ShardItem::Done { major, ts } => {
                self.cur_key = Key {
                    major: *major,
                    phase: PH_DISPATCH,
                };
                self.cur_ts = *ts;
                self.cur_uid = None;
            }
        }
    }

    /// Supervision boundary: contains a panic the current item raised.
    ///
    /// Governed (quarantine) mode: discards the interrupted item's
    /// unsealed effects, quarantines every flow whose parser state lived
    /// on this shard as [`FlowError::SHARD_PANIC`] (sealed as a block at
    /// the interrupted position, so the loss ledger merges
    /// deterministically), and rebuilds the engine from the blueprint so
    /// subsequent deliveries process normally. If the rebuild itself
    /// fails the shard turns into a tombstone: every later delivery is
    /// recorded as a `ShardPanic` loss.
    ///
    /// Ungoverned mode keeps the all-or-nothing contract: the panic
    /// becomes the run's fatal error at the interrupted position.
    fn on_panic(&mut self, detail: String) {
        // Flight-recorder postmortem: drain the last spans *before* any
        // salvage, so the dump shows what the shard was doing when it
        // died (the faulting flow's queue-wait span included).
        if let Some(r) = &self.rec {
            if self.postmortems.len() < MAX_POSTMORTEMS_PER_SHARD {
                self.postmortems
                    .push(r.borrow().postmortem(&format!("ShardPanic: {detail}")));
            }
        }
        if !self.gov.quarantine {
            if self.fatal.is_none() {
                self.fatal = Some((
                    self.cur_key,
                    RtError::runtime(format!("shard panicked: {detail}")),
                ));
            }
            self.faults.push(detail);
            return;
        }

        // Salvage: drop effects the interrupted item appended but never
        // sealed, and skip whatever it pushed onto the engine sink.
        self.effects.logs[0].truncate(self.sealed_high.logs[0] as usize);
        self.effects.logs[1].truncate(self.sealed_high.logs[1] as usize);
        self.effects.logs[2].truncate(self.sealed_high.logs[2] as usize);
        self.effects
            .output
            .truncate(self.sealed_high.output as usize);
        self.effects
            .flow_errors
            .truncate(self.sealed_high.flow_errors as usize);
        self.effects
            .events
            .truncate(self.sealed_high.events as usize);
        if let Some(t) = self.tel.as_mut() {
            t.sink_cursor += t.telemetry.sink.events_since(t.sink_cursor).len();
        }

        // Loss ledger: every flow whose parser state this shard held dies
        // with it. Sorted union so the ledger is deterministic; the
        // current flow is included even if it never built parser state.
        let mut lost: Vec<Arc<str>> = self.std_http.keys().cloned().collect();
        if let Some(bp) = &self.bp_http {
            lost.extend(bp.live_uids());
        }
        if let Some(uid) = &self.cur_uid {
            lost.push(uid.clone());
        }
        lost.sort();
        lost.dedup();
        let m = self.mark();
        for uid in lost {
            if self.quarantined.insert(uid.clone()) {
                self.effects
                    .flow_errors
                    .push(FlowError::shard_panic(&uid, self.cur_ts));
            }
        }
        let key = self.cur_key;
        self.seal(m, key, false);

        // Respawn: fresh engine pieces from the blueprint, same profiler
        // and telemetry registry. The new host starts with empty logs.
        self.std_http.clear();
        self.log_cursors = [0; 3];
        let blueprint = Arc::clone(&self.blueprint);
        match build_engine(
            self.proto,
            self.stack,
            &self.gov,
            &blueprint,
            &self.profiler,
            self.tel.as_ref(),
            self.rec.as_ref(),
        ) {
            Ok((host, bp_http, bp_dns)) => {
                self.host = host;
                self.bp_http = bp_http;
                self.bp_dns = bp_dns;
            }
            Err(_) => {
                self.dead = true;
                self.bp_http = None;
                self.bp_dns = None;
            }
        }
        self.faults.push(detail);
    }

    /// Tombstone mode: no engine. Deliveries for flows not yet in the
    /// loss ledger are recorded as `ShardPanic`; everything else no-ops.
    fn tombstone(&mut self, item: ShardItem) {
        if let ShardItem::Delivery { slot, uid, ts, .. } = item {
            if self.quarantined.insert(uid.clone()) {
                let m = self.mark();
                self.effects
                    .flow_errors
                    .push(FlowError::shard_panic(&uid, ts));
                self.seal(
                    m,
                    Key {
                        major: slot,
                        phase: PH_PARSE,
                    },
                    false,
                );
            }
        }
    }

    fn process(&mut self, item: ShardItem) {
        if self.fatal.is_some() {
            return;
        }
        if self.dead {
            self.tombstone(item);
            return;
        }
        match item {
            ShardItem::Delivery {
                slot,
                uid,
                id,
                is_orig,
                ts,
                payload,
                finished,
                enq_ns,
            } => {
                match self.proto {
                    Proto::Http => {
                        http_delivery(self, slot, uid, id, is_orig, ts, payload, finished)
                    }
                    Proto::Dns => dns_delivery(self, slot, uid, id, ts, payload),
                }
                // End-to-end delivery latency: dispatcher enqueue through
                // script dispatch, the tail-latency signal the report's
                // p99 and top-K slowest table summarize.
                if let Some(r) = &self.rec {
                    r.borrow_mut()
                        .observe_delivery(monotonic_ns().saturating_sub(enq_ns));
                }
            }
            ShardItem::Evict { uid } => {
                self.std_http.remove(&uid);
                if let Some(bp) = self.bp_http.as_mut() {
                    bp.drop_conn(&uid);
                }
                self.quarantined.remove(&uid);
            }
            ShardItem::FinishFlow {
                parse_major,
                dispatch_major,
                uid,
                ts,
            } => http_finish_flow(self, parse_major, dispatch_major, uid, ts),
            ShardItem::Done { major, ts } => done(self, major, ts),
        }
    }

    /// Current effect-vector lengths: the start of a new block.
    fn mark(&self) -> Mark {
        Mark {
            logs: [
                self.effects.logs[0].len() as u32,
                self.effects.logs[1].len() as u32,
                self.effects.logs[2].len() as u32,
            ],
            output: self.effects.output.len() as u32,
            flow_errors: self.effects.flow_errors.len() as u32,
            events: self.effects.events.len() as u32,
        }
    }

    /// Seals everything appended since `m` as one block under `key`.
    /// Empty blocks are dropped; `tail` selects the second sorted stream
    /// (end-of-trace dispatch majors, which interleave with later parse
    /// majors in key order).
    fn seal(&mut self, m: Mark, key: Key, tail: bool) {
        // Everything up to here survives a later panic (the salvage
        // point), whether or not this particular block is empty.
        self.sealed_high = self.mark();
        let b = EffectBlock {
            key,
            logs: [
                (m.logs[0], self.effects.logs[0].len() as u32),
                (m.logs[1], self.effects.logs[1].len() as u32),
                (m.logs[2], self.effects.logs[2].len() as u32),
            ],
            output: (m.output, self.effects.output.len() as u32),
            flow_errors: (m.flow_errors, self.effects.flow_errors.len() as u32),
            events: (m.events, self.effects.events.len() as u32),
        };
        let empty = b.logs.iter().all(|(s, e)| s == e)
            && b.output.0 == b.output.1
            && b.flow_errors.0 == b.flow_errors.1
            && b.events.0 == b.events.1;
        if empty {
            return;
        }
        if tail {
            self.blocks_tail.push(b);
        } else {
            self.blocks_main.push(b);
        }
    }

    /// Appends everything the shard sink collected since the last call
    /// (engine events raised while parsing or dispatching).
    fn collect_sink(&mut self) {
        let Some(t) = self.tel.as_mut() else { return };
        let new = t.telemetry.sink.events_since(t.sink_cursor);
        t.sink_cursor += new.len();
        for ev in &new {
            self.effects.events.push(ev.to_json());
        }
    }

    /// Appends new log lines and printed output.
    fn collect_host_effects(&mut self) {
        for (i, name) in LOG_STREAMS.iter().enumerate() {
            let lines = self.host.log_lines_from(name, self.log_cursors[i]);
            self.log_cursors[i] += lines.len();
            self.effects.logs[i].extend(lines);
        }
        self.effects.output.extend(self.host.take_output());
    }

    /// Dispatches a batch of events exactly as the sequential
    /// `dispatch_events` does (per-event fuel re-arm, quarantine vs
    /// abort), then seals all resulting effects as one block under `key`.
    fn dispatch(&mut self, events: &[Event], key: Key, tail: bool) {
        let m = self.mark();
        let span_begin = (!events.is_empty() && self.rec.is_some()).then(monotonic_ns);
        if self.fatal.is_none() {
            for ev in events {
                self.n_events += 1;
                arm_script_limits(&mut self.host, &self.gov);
                if let Err(e) = self.host.dispatch_event(ev) {
                    if !self.gov.quarantine {
                        self.fatal = Some((key, e));
                        break;
                    }
                    self.effects
                        .flow_errors
                        .push(FlowError::new(ev.uid(), &e, ev.ts()));
                }
            }
        }
        if let Some(b) = span_begin {
            let uid = self.cur_uid.clone();
            if let Some(r) = &self.rec {
                r.borrow_mut()
                    .record(Stage::Script, key.major, uid.as_ref(), b);
            }
        }
        self.collect_sink();
        self.collect_host_effects();
        self.seal(m, key, tail);
    }
}

#[allow(clippy::too_many_arguments)]
fn http_delivery(
    st: &mut ShardState,
    slot: u64,
    uid: Arc<str>,
    id: ConnId,
    is_orig: bool,
    ts: Time,
    payload: PayloadRef,
    finished: bool,
) {
    let parse_key = Key {
        major: slot,
        phase: PH_PARSE,
    };
    let trace = Arc::clone(&st.trace);
    let m = st.mark();
    let mut events: Vec<Event> = st.event_bufs.take();
    {
        let _o = st.profiler.enter(Component::Other);
        if !st.quarantined.contains(&*uid) {
            if !payload.is_empty() {
                if let Some(t) = &st.tel {
                    t.bytes_parsed.add(payload.len() as u64);
                    t.payload_bytes.observe(payload.len() as u64);
                    t.routed(&payload, st.gov.force_copy);
                }
            }
            match st.stack {
                ParserStack::Standard => {
                    let span_begin = st.rec.is_some().then(monotonic_ns);
                    {
                        let _pp = st.profiler.enter(Component::ProtocolParsing);
                        let parser = st
                            .std_http
                            .entry(uid.clone())
                            .or_insert_with(|| HttpConnParser::new(uid.to_string(), id));
                        if !payload.is_empty() {
                            parser.feed(is_orig, payload.resolve(&trace), ts, &mut events);
                        }
                        if finished {
                            parser.finish(ts, &mut events);
                        }
                    }
                    if let Some(b) = span_begin {
                        if let Some(r) = &st.rec {
                            r.borrow_mut().record(Stage::Parse, slot, Some(&uid), b);
                        }
                    }
                }
                // A missing parser stack degrades the flow, not the shard.
                // (The binpac stack records its own parse spans via the
                // shared recorder — see `build_engine` — so only the span
                // slot is refreshed here.)
                ParserStack::Binpac => match st.bp_http.as_mut() {
                    Some(bp) => {
                        if st.rec.is_some() {
                            bp.set_span_slot(slot);
                        }
                        let mut fail: Option<RtError> = None;
                        if !payload.is_empty() {
                            let chunk = if st.gov.force_copy {
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
                            if !st.gov.quarantine {
                                st.fatal = Some((parse_key, e));
                                return;
                            }
                            bp.drop_conn(&uid);
                            st.std_http.remove(&uid);
                            st.quarantined.insert(uid.clone());
                            st.effects.flow_errors.push(FlowError::new(&uid, &e, ts));
                        }
                    }
                    None => {
                        let e = RtError::runtime("binpac parser stack unavailable");
                        if !st.gov.quarantine {
                            st.fatal = Some((parse_key, e));
                            return;
                        }
                        st.quarantined.insert(uid.clone());
                        st.effects.flow_errors.push(FlowError::new(&uid, &e, ts));
                    }
                },
            }
        }
    }
    st.collect_sink();
    st.seal(m, parse_key, false);
    st.dispatch(
        &events,
        Key {
            major: slot,
            phase: PH_DISPATCH,
        },
        false,
    );
    st.event_bufs.put(events);
}

fn dns_delivery(
    st: &mut ShardState,
    slot: u64,
    uid: Arc<str>,
    id: ConnId,
    ts: Time,
    payload: PayloadRef,
) {
    let parse_key = Key {
        major: slot,
        phase: PH_PARSE,
    };
    let trace = Arc::clone(&st.trace);
    let m = st.mark();
    let mut events: Vec<Event> = st.event_bufs.take();
    if !payload.is_empty() {
        let _o = st.profiler.enter(Component::Other);
        if let Some(t) = &st.tel {
            t.bytes_parsed.add(payload.len() as u64);
            t.payload_bytes.observe(payload.len() as u64);
            t.routed(&payload, st.gov.force_copy);
        }
        match st.stack {
            ParserStack::Standard => {
                let span_begin = st.rec.is_some().then(monotonic_ns);
                {
                    let _pp = st.profiler.enter(Component::ProtocolParsing);
                    if !standard_dns_events(&uid, id, ts, payload.resolve(&trace), &mut events) {
                        st.parse_failures += 1;
                        if let Some(t) = &st.tel {
                            t.parse_failures.inc();
                            t.telemetry.emit(
                                "parser_error",
                                vec![("uid", (&*uid).into()), ("ts_ns", ts.nanos().into())],
                            );
                        }
                    }
                }
                if let Some(b) = span_begin {
                    if let Some(r) = &st.rec {
                        r.borrow_mut().record(Stage::Parse, slot, Some(&uid), b);
                    }
                }
            }
            ParserStack::Binpac => match st.bp_dns.as_mut() {
                Some(bp) => {
                    if st.rec.is_some() {
                        bp.set_span_slot(slot);
                    }
                    let chunk = if st.gov.force_copy {
                        FeedChunk::Copy(payload.resolve(&trace))
                    } else {
                        payload.feed_chunk(&trace)
                    };
                    match bp.datagram_chunk(&uid, id, ts, chunk) {
                        Ok(true) => {}
                        Ok(false) => {
                            st.parse_failures += 1;
                            if let Some(t) = &st.tel {
                                t.parse_failures.inc();
                                t.telemetry.emit(
                                    "parser_error",
                                    vec![("uid", (&*uid).into()), ("ts_ns", ts.nanos().into())],
                                );
                            }
                        }
                        Err(e) => {
                            if !st.gov.quarantine {
                                st.fatal = Some((parse_key, e));
                                return;
                            }
                            st.effects.flow_errors.push(FlowError::new(&uid, &e, ts));
                        }
                    }
                    bp.drain_events_into(&mut events);
                }
                None => {
                    let e = RtError::runtime("binpac parser stack unavailable");
                    if !st.gov.quarantine {
                        st.fatal = Some((parse_key, e));
                        return;
                    }
                    st.effects.flow_errors.push(FlowError::new(&uid, &e, ts));
                }
            },
        }
    }
    st.collect_sink();
    st.seal(m, parse_key, false);
    st.dispatch(
        &events,
        Key {
            major: slot,
            phase: PH_DISPATCH,
        },
        false,
    );
    st.event_bufs.put(events);
}

/// End-of-trace flush of one flow, in the global order the dispatcher
/// assigned (first-seen order for the standard stack, sorted-uid order for
/// BinPAC++ — each matching its sequential counterpart). Flows whose
/// parser state is already gone (closed, quarantined, never fed) are
/// no-ops, exactly as in the sequential flush.
fn http_finish_flow(
    st: &mut ShardState,
    parse_major: u64,
    dispatch_major: u64,
    uid: Arc<str>,
    ts: Time,
) {
    let parse_key = Key {
        major: parse_major,
        phase: PH_PARSE,
    };
    let m = st.mark();
    let mut events: Vec<Event> = Vec::new();
    match st.stack {
        ParserStack::Standard => {
            if let Some(mut parser) = st.std_http.remove(&uid) {
                let span_begin = st.rec.is_some().then(monotonic_ns);
                {
                    let _pp = st.profiler.enter(Component::ProtocolParsing);
                    parser.finish(ts, &mut events);
                }
                if let Some(b) = span_begin {
                    if let Some(r) = &st.rec {
                        r.borrow_mut()
                            .record(Stage::Parse, parse_major, Some(&uid), b);
                    }
                }
            }
        }
        // A vanished parser stack leaves nothing to flush: degrade to a
        // no-op, like a flow whose state is already gone.
        ParserStack::Binpac => {
            if let Some(bp) = st.bp_http.as_mut() {
                if bp.has_conn(&uid) {
                    if st.rec.is_some() {
                        bp.set_span_slot(parse_major);
                    }
                    if let Err(e) = bp.finish_conn(&uid, placeholder_id(), ts) {
                        if !st.gov.quarantine {
                            st.fatal = Some((parse_key, e));
                            return;
                        }
                        bp.drop_conn(&uid);
                        st.effects.flow_errors.push(FlowError::new(&uid, &e, ts));
                    }
                    bp.drain_events_into(&mut events);
                }
            }
        }
    }
    st.collect_sink();
    st.seal(m, parse_key, false);
    st.dispatch(
        &events,
        Key {
            major: dispatch_major,
            phase: PH_DISPATCH,
        },
        true,
    );
}

fn done(st: &mut ShardState, major: u64, ts: Time) {
    let key = Key {
        major,
        phase: PH_DISPATCH,
    };
    let m = st.mark();
    arm_script_limits(&mut st.host, &st.gov);
    if let Err(e) = st.host.done() {
        if !st.gov.quarantine {
            st.fatal = Some((key, e));
        } else {
            st.effects.flow_errors.push(FlowError::new("-", &e, ts));
        }
    }
    st.collect_sink();
    st.collect_host_effects();
    st.seal(m, key, true);
}

/// What a shard hands back when its ring drains. All fields are `Send`;
/// the `!Send` host/parser state is dropped on the shard thread.
struct ShardReport {
    effects: Effects,
    blocks_main: Vec<EffectBlock>,
    blocks_tail: Vec<EffectBlock>,
    snapshot: TelemetrySnapshot,
    profiler: Profiler,
    n_events: u64,
    parse_failures: u64,
    peak_flow_bytes: u64,
    fatal: Option<(Key, RtError)>,
    /// Panics the supervisor caught on this shard (panic payloads).
    faults: Vec<String>,
    /// Frozen flight recorder when [`Governance::tracing`] was on.
    trace: Option<RecorderPart>,
    /// Fault-triggered flight-recorder dumps captured on this shard.
    postmortems: Vec<PostmortemDump>,
}

fn harvest(st: &mut ShardState) -> ShardReport {
    let peak_flow_bytes = st
        .bp_http
        .as_ref()
        .map(|b| b.peak_session_bytes())
        .unwrap_or(0);
    let snapshot = match st.tel.as_ref() {
        Some(t) => {
            // Mirror the sequential `PipelineTelemetry::finish` bookkeeping
            // that sums correctly across shards: dispatched-event count,
            // peak gauge, quarantine counters. The quarantine *events* are
            // re-emitted by the merge (they trail the whole stream in
            // merged-ledger order), so the shard snapshot carries no events.
            t.telemetry
                .counter("pipeline.events_dispatched")
                .add(st.n_events);
            t.telemetry
                .gauge("pipeline.peak_flow_heap_bytes")
                .set_max(peak_flow_bytes);
            let quarantined = t.telemetry.counter("pipeline.flows_quarantined");
            for fe in &st.effects.flow_errors {
                quarantined.inc();
                t.telemetry
                    .registry
                    .counter(&format!("pipeline.flow_errors.{}", fe.kind))
                    .inc();
            }
            let mut snap = t.telemetry.snapshot();
            snap.events = Vec::new();
            snap
        }
        None => TelemetrySnapshot::default(),
    };
    // Freeze the flight recorder into its `Send` part. The binpac parsers
    // still hold `Rc` clones, so the recorder is swapped out rather than
    // unwrapped (their clones point at a dead 1-slot stub from here on).
    let trace_part = st.rec.take().map(|r| {
        std::mem::replace(&mut *r.borrow_mut(), FlightRecorder::with_capacity(0, 1)).finish()
    });
    let mut postmortems = std::mem::take(&mut st.postmortems);
    // Watchdog trips surface as `ResourceExhausted` flow errors while a
    // delivery deadline is armed: dump the recorder tail for them too.
    if let (Some(part), Some(_)) = (&trace_part, st.gov.delivery_deadline_ms) {
        if postmortems.len() < MAX_POSTMORTEMS_PER_SHARD
            && st
                .effects
                .flow_errors
                .iter()
                .any(|fe| fe.kind.contains("ResourceExhausted"))
        {
            postmortems.push(part.postmortem("ResourceExhausted (delivery watchdog)"));
        }
    }
    ShardReport {
        effects: std::mem::take(&mut st.effects),
        blocks_main: std::mem::take(&mut st.blocks_main),
        blocks_tail: std::mem::take(&mut st.blocks_tail),
        snapshot,
        profiler: st.profiler.clone(),
        n_events: st.n_events,
        parse_failures: st.parse_failures,
        peak_flow_bytes,
        fatal: st.fatal.clone(),
        faults: std::mem::take(&mut st.faults),
        trace: trace_part,
        postmortems,
    }
}

/// Renders a caught panic payload for the fault record.
fn panic_detail(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Dispatcher-side telemetry: the shared-decision counters plus
/// `flow_open` / `flow_close` / `timer_expiry` events, stored flat with
/// coalesced blocks (consecutive emits under one key share a block).
struct DispatcherTelemetry {
    telemetry: Telemetry,
    packets: Counter,
    flows_opened: Counter,
    flows_closed: Counter,
    flows_expired: Counter,
    events: Vec<String>,
    blocks: Vec<EffectBlock>,
}

impl DispatcherTelemetry {
    fn new() -> DispatcherTelemetry {
        let telemetry = Telemetry::new();
        DispatcherTelemetry {
            packets: telemetry.counter("pipeline.packets"),
            flows_opened: telemetry.counter("pipeline.flows_opened"),
            flows_closed: telemetry.counter("pipeline.flows_closed"),
            flows_expired: telemetry.counter("pipeline.flows_expired"),
            events: Vec::new(),
            blocks: Vec::new(),
            telemetry,
        }
    }

    fn emit(&mut self, key: Key, kind: &'static str, uid: &str, ts: Time) {
        let ev = TelemetryEvent {
            kind,
            fields: vec![("uid", uid.into()), ("ts_ns", ts.nanos().into())],
        };
        let i = self.events.len() as u32;
        self.events.push(ev.to_json());
        // The dispatcher emits in key order, so same-key emits coalesce
        // into the trailing block.
        if let Some(last) = self.blocks.last_mut() {
            if last.key == key {
                last.events.1 = i + 1;
                return;
            }
        }
        self.blocks.push(EffectBlock {
            key,
            logs: [(0, 0); 3],
            output: (0, 0),
            flow_errors: (0, 0),
            events: (i, i + 1),
        });
    }
}

/// Dispatch-plane metrics (dispatcher side): these describe the transport,
/// not the analysis, and depend on the worker count and batch size — so
/// they feed [`AnalysisResult::dispatch_telemetry`], never the merged
/// analysis snapshot.
struct DispatchMetrics {
    telemetry: Telemetry,
    /// `pipeline.dispatch_batches`: ring submissions across all shards.
    batches: Counter,
    /// `pipeline.batch_fill`: items per submission.
    fill: Histogram,
    /// `pipeline.shard_items.shard{w}`: total items sent to each shard.
    items: Vec<Counter>,
    /// `pipeline.queue_depth.shard{w}`: high-water of the staged batch at
    /// submission time (the dispatcher-side, deterministic view of queue
    /// pressure; true ring occupancy is a data race by construction).
    depth: Vec<Gauge>,
}

impl DispatchMetrics {
    fn new(workers: usize) -> DispatchMetrics {
        let telemetry = Telemetry::new();
        DispatchMetrics {
            batches: telemetry.counter("pipeline.dispatch_batches"),
            fill: telemetry.histogram("pipeline.batch_fill"),
            items: (0..workers)
                .map(|w| telemetry.counter(&format!("pipeline.shard_items.shard{w}")))
                .collect(),
            depth: (0..workers)
                .map(|w| telemetry.gauge(&format!("pipeline.queue_depth.shard{w}")))
                .collect(),
            telemetry,
        }
    }

    fn flushed(&self, w: usize, n: usize) {
        self.batches.inc();
        self.fill.observe(n as u64);
        self.items[w].add(n as u64);
        self.depth[w].set_max(n as u64);
    }
}

/// Replays an HTTP trace through `opts.workers` flow-sharded pipelines.
/// The result is byte-identical to [`crate::pipeline::run_http_analysis_governed`]
/// with the same governance, for every worker count and batch size.
pub fn run_http_analysis_parallel(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    opts: &PipelineOptions,
) -> RtResult<AnalysisResult> {
    run_parallel(packets, Proto::Http, stack, engine, opts)
}

/// Replays a DNS trace through `opts.workers` flow-sharded pipelines.
pub fn run_dns_analysis_parallel(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    opts: &PipelineOptions,
) -> RtResult<AnalysisResult> {
    run_parallel(packets, Proto::Dns, stack, engine, opts)
}

/// Per-shard shed accounting (kept outside the telemetry registry so the
/// `shed_packets` result field works with telemetry off).
#[derive(Clone, Copy, Default)]
struct ShedStat {
    packets: u64,
    batches: u64,
}

/// The dispatcher's record of what `Shed` dropped: packet counts per
/// shard, and the flows quarantined because they lost a delivery.
struct ShedLedger {
    stats: Vec<ShedStat>,
    /// Flows with a shed delivery; none of their later deliveries is
    /// routed.
    flows: HashSet<Arc<str>>,
    /// One `Shed` quarantine record per flow, in shedding order.
    errors: Vec<FlowError>,
}

impl ShedLedger {
    fn new(workers: usize) -> ShedLedger {
        ShedLedger {
            stats: vec![ShedStat::default(); workers],
            flows: HashSet::new(),
            errors: Vec::new(),
        }
    }
}

/// Pushes a staged batch onto the shard's ring.
///
/// Under [`OverloadPolicy::Block`] this parks while the ring is full —
/// that backpressure is what bounds dispatcher run-ahead. Under `Shed` a
/// saturated ring drops the batch's deliveries (counted in `shed`),
/// quarantines their flows, and blocking-pushes only the control items,
/// which must always arrive — led by an eviction per newly quarantined
/// flow, so its shard drops the parser state built from earlier input. A
/// shard whose consumer is gone is marked dead and swallows all further
/// traffic; the join path reports the fault and quarantines its flows.
#[allow(clippy::too_many_arguments)]
fn flush_shard(
    tx: &mut Producer<ShardItem>,
    buf: &mut Vec<ShardItem>,
    metrics: Option<&DispatchMetrics>,
    w: usize,
    overload: OverloadPolicy,
    shed: &mut ShedLedger,
    dead: &mut [bool],
    rec: Option<&mut FlightRecorder>,
    slot: u64,
) {
    if buf.is_empty() {
        return;
    }
    // Dispatch span: ring submission (including any backpressure park),
    // attributed to the packet slot that triggered the flush.
    match rec {
        None => flush_shard_inner(tx, buf, metrics, w, overload, shed, dead),
        Some(r) => {
            let b = monotonic_ns();
            flush_shard_inner(tx, buf, metrics, w, overload, shed, dead);
            r.record(Stage::Dispatch, slot, None, b);
        }
    }
}

fn flush_shard_inner(
    tx: &mut Producer<ShardItem>,
    buf: &mut Vec<ShardItem>,
    metrics: Option<&DispatchMetrics>,
    w: usize,
    overload: OverloadPolicy,
    shed: &mut ShedLedger,
    dead: &mut [bool],
) {
    if buf.is_empty() {
        return;
    }
    if dead[w] {
        buf.clear();
        return;
    }
    if matches!(overload, OverloadPolicy::Shed { .. }) {
        let n = buf.len();
        if tx.try_push_all(buf) {
            if let Some(m) = metrics {
                m.flushed(w, n);
            }
            return;
        }
        // Saturated (or dead — push_all below detects which): drop the
        // deliveries, keep evictions / flushes / done markers.
        let before = buf.len();
        let mut evictions: Vec<ShardItem> = Vec::new();
        buf.retain(|it| match it {
            ShardItem::Delivery { uid, ts, .. } => {
                if shed.flows.insert(uid.clone()) {
                    shed.errors.push(FlowError::shed(uid, *ts));
                    evictions.push(ShardItem::Evict { uid: uid.clone() });
                }
                false
            }
            _ => true,
        });
        let dropped = (before - buf.len()) as u64;
        if dropped > 0 {
            shed.stats[w].packets += dropped;
            shed.stats[w].batches += 1;
        }
        buf.splice(0..0, evictions);
        if buf.is_empty() {
            return;
        }
    }
    if let Some(m) = metrics {
        m.flushed(w, buf.len());
    }
    if !tx.push_all(buf) {
        dead[w] = true;
        buf.clear();
    }
}

/// Per-flow dispatcher bookkeeping: which shard owns the flow, and
/// whether the owning shard still holds parser state for it (the
/// end-of-trace flush only targets live flows).
struct FlowMeta {
    shard: usize,
    live: bool,
}

fn run_parallel(
    packets: &[RawPacket],
    proto: Proto,
    stack: ParserStack,
    engine: Engine,
    opts: &PipelineOptions,
) -> RtResult<AnalysisResult> {
    let workers = opts.workers.max(1);
    let gov = opts.governance;
    let overload = opts.overload;
    // Under `Shed` the ring itself is the overload bound; the staged
    // batch must fit it or no batch could ever be pushed.
    let ring_cap = match overload {
        OverloadPolicy::Block => opts.batch.max(1).saturating_mul(8).max(512),
        OverloadPolicy::Shed { max_queue_depth } => max_queue_depth.max(1),
    };
    let batch = opts.batch.max(1).min(ring_cap);
    let trace = TraceBuffer::from_packets(packets);
    // Run the expensive front end (script + grammar compilation down to
    // optimized IR) once; shards only lower bytecode from the shared
    // blueprint. Doing it here also surfaces construction errors as
    // `Err` before any thread spawns (a shard thread could only panic).
    let blueprint = Arc::new(ShardBlueprint::build(proto, stack, engine, &gov)?);
    drop(ShardState::new(
        0,
        proto,
        stack,
        gov,
        trace.clone(),
        Arc::clone(&blueprint),
        None,
    )?);

    // One SPSC ring per shard; each shard thread builds its own `!Send`
    // state, drains the ring in batches, and returns its report on join.
    // Every item runs under a `catch_unwind` supervision boundary: a
    // panic is contained to the shard (see `ShardState::on_panic`) and
    // the loop keeps draining, so the ring's producer side stays alive.
    let mut txs: Vec<Producer<ShardItem>> = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let (tx, mut rx) = spsc::ring::<ShardItem>(ring_cap);
        let trace = trace.clone();
        let blueprint = Arc::clone(&blueprint);
        let panic_countdown = opts.panic_inject.and_then(|(s, n)| (s == w).then_some(n));
        let stall_ms = opts.stall_inject.and_then(|(s, ms)| (s == w).then_some(ms));
        let handle = std::thread::spawn(move || {
            if let Some(ms) = stall_ms {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            let mut st = ShardState::new(w, proto, stack, gov, trace, blueprint, panic_countdown)
                .expect("shard construction passed pre-flight");
            let mut items = Vec::with_capacity(batch);
            while rx.pop_batch(&mut items, batch) > 0 {
                for item in items.drain(..) {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        st.begin(&item);
                        st.process(item);
                    }));
                    if let Err(p) = r {
                        st.on_panic(panic_detail(p));
                    }
                }
            }
            harvest(&mut st)
        });
        txs.push(tx);
        handles.push(handle);
    }

    let profiler = Profiler::new();
    let mut dtel = gov.telemetry.then(DispatcherTelemetry::new);
    let dmetrics = gov.telemetry.then(|| DispatchMetrics::new(workers));
    // Dispatcher-side flight recorder: decode, ring-submission, and merge
    // spans live here; shard recorders cover queue wait / parse / script.
    let mut drec = gov.tracing.then(|| FlightRecorder::new(DISPATCHER));
    let mut flows = FlowTable::new();
    let mut timers: TimerMgr<Arc<str>> = TimerMgr::new();
    let mut owner: HashMap<Arc<str>, FlowMeta> = HashMap::new();
    let mut first_seen: Vec<Arc<str>> = Vec::new();
    let mut buf: Vec<Vec<ShardItem>> = (0..workers).map(|_| Vec::new()).collect();
    let mut shed = ShedLedger::new(workers);
    let mut shard_dead: Vec<bool> = vec![false; workers];
    let mut flows_expired = 0u64;
    let mut n_packets = 0u64;
    let mut last_ts = Time::ZERO;

    for slot in 0..trace.len() {
        let slot_u64 = slot as u64;
        let (frame_data, ts) = trace.frame(slot);
        n_packets += 1;
        last_ts = ts;
        let _o = profiler.enter(Component::Other);
        if let Some(t) = &dtel {
            t.packets.inc();
        }
        let decode_begin = drec.as_ref().map(|_| monotonic_ns());
        let Ok(f) = decode_frame(frame_data, ts) else {
            continue;
        };
        let shard = (shard_hash_frame(&f) % workers as u64) as usize;
        let delivery = flows.process_shared(&f, frame_data, trace.frame_offset(slot));
        let uid = delivery.flow.uid.clone();
        if let Some(r) = &mut drec {
            r.record(
                Stage::Decode,
                slot_u64,
                Some(&uid),
                decode_begin.unwrap_or(0),
            );
        }
        let id = delivery.flow.id;
        let is_orig = delivery.is_orig;
        let finished = delivery.finished_now;
        let payload = delivery.payload;
        if !owner.contains_key(&*uid) {
            owner.insert(uid.clone(), FlowMeta { shard, live: false });
            first_seen.push(uid.clone());
            if let Some(t) = &mut dtel {
                t.flows_opened.inc();
                t.emit(
                    Key {
                        major: slot_u64,
                        phase: PH_FLOW,
                    },
                    "flow_open",
                    &uid,
                    ts,
                );
            }
        }
        // Track whether the owning shard will hold parser state after this
        // delivery, so the end-of-trace flush only targets live flows. The
        // standard HTTP parser is created on any delivery and kept until
        // eviction (its `finish` is idempotent); a BinPAC++ session exists
        // iff payload arrived since the last finish/teardown. Quarantined
        // flows stay "live" here — the owning shard's presence check makes
        // their flush a no-op, matching the sequential pipeline.
        if proto == Proto::Http {
            let m = owner.get_mut(&*uid).expect("flow just recorded");
            match stack {
                ParserStack::Standard => m.live = true,
                ParserStack::Binpac => {
                    if !payload.is_empty() {
                        m.live = true;
                    }
                    if finished {
                        m.live = false;
                    }
                }
            }
        }
        if finished {
            if let Some(t) = &mut dtel {
                t.flows_closed.inc();
                t.emit(
                    Key {
                        major: slot_u64,
                        phase: PH_FLOW,
                    },
                    "flow_close",
                    &uid,
                    ts,
                );
            }
        }
        // A flow quarantined for shedding gets none of its later input
        // (its shard has dropped the flow's parser state).
        if shed.flows.contains(&*uid) {
            if let Some(m) = owner.get_mut(&*uid) {
                m.live = false;
            }
        } else {
            buf[shard].push(ShardItem::Delivery {
                slot: slot_u64,
                uid: uid.clone(),
                id,
                is_orig,
                ts,
                payload,
                finished,
                enq_ns: if drec.is_some() { monotonic_ns() } else { 0 },
            });
        }
        if buf[shard].len() >= batch {
            flush_shard(
                &mut txs[shard],
                &mut buf[shard],
                dmetrics.as_ref(),
                shard,
                overload,
                &mut shed,
                &mut shard_dead,
                drec.as_mut(),
                slot_u64,
            );
        }

        // Idle-flow expiry is a *global* decision: the dispatcher's timer
        // wheel sweeps the shared flow table and tells the owning shard to
        // drop its state. Shard-local sweeps would fire at different
        // packet positions for different worker counts.
        if let Some(ms) = gov.idle_timeout_ms {
            timers.schedule(ts + Interval::from_millis(ms as i64), uid.clone());
            if !timers.advance(ts).is_empty() {
                let cutoff =
                    Time::from_nanos(ts.nanos().saturating_sub(ms.saturating_mul(1_000_000)));
                for dead in flows.expire_idle_uids(cutoff) {
                    if let Some(m) = owner.get_mut(&*dead) {
                        m.live = false;
                        let w = m.shard;
                        buf[w].push(ShardItem::Evict { uid: dead.clone() });
                        if buf[w].len() >= batch {
                            flush_shard(
                                &mut txs[w],
                                &mut buf[w],
                                dmetrics.as_ref(),
                                w,
                                overload,
                                &mut shed,
                                &mut shard_dead,
                                drec.as_mut(),
                                slot_u64,
                            );
                        }
                    }
                    if let Some(t) = &mut dtel {
                        t.flows_expired.inc();
                        t.emit(
                            Key {
                                major: slot_u64,
                                phase: PH_TIMER,
                            },
                            "timer_expiry",
                            &dead,
                            ts,
                        );
                    }
                    flows_expired += 1;
                }
            }
        }
    }

    // End of trace. For HTTP, flush still-open flows in the order the
    // sequential pipeline uses: first-seen for the standard stack,
    // sorted-uid for BinPAC++ (its `live_uids()` teardown order). Only
    // flows the owner map still marks live are candidates — closed and
    // expired ones dropped their parser state already, so sending them
    // would be wasted traffic (the shard presence check still guards the
    // remaining over-approximation from quarantined flows). Each
    // candidate gets a parse major and a dispatch major so all parses
    // precede all dispatches, as in the sequential batch flush.
    let base = trace.len() as u64;
    let mut n_cand = 0u64;
    if proto == Proto::Http {
        let mut cands: Vec<&Arc<str>> = first_seen
            .iter()
            .filter(|u| owner[&***u].live && !shed.flows.contains(&***u))
            .collect();
        if stack == ParserStack::Binpac {
            cands.sort();
        }
        n_cand = cands.len() as u64;
        for (r, uid) in cands.into_iter().enumerate() {
            let w = owner[&**uid].shard;
            buf[w].push(ShardItem::FinishFlow {
                parse_major: base + r as u64,
                dispatch_major: base + n_cand + r as u64,
                uid: uid.clone(),
                ts: last_ts,
            });
            if buf[w].len() >= batch {
                flush_shard(
                    &mut txs[w],
                    &mut buf[w],
                    dmetrics.as_ref(),
                    w,
                    overload,
                    &mut shed,
                    &mut shard_dead,
                    drec.as_mut(),
                    base + r as u64,
                );
            }
        }
    }
    let done_major = base + 2 * n_cand;
    for (w, b) in buf.iter_mut().enumerate() {
        b.push(ShardItem::Done {
            major: done_major,
            ts: last_ts,
        });
        flush_shard(
            &mut txs[w],
            b,
            dmetrics.as_ref(),
            w,
            overload,
            &mut shed,
            &mut shard_dead,
            drec.as_mut(),
            done_major,
        );
    }

    // Closing the rings is the shutdown signal: each shard drains what's
    // buffered, harvests, and returns its report through `join`. A join
    // failure (a panic that escaped the supervision boundary, e.g. in
    // harvest itself) is contained as a structured `ShardFault` instead
    // of unwrapping: the run completes, minus that shard's effects.
    drop(txs);
    let mut reports: Vec<Option<ShardReport>> = Vec::with_capacity(workers);
    let mut shard_faults: Vec<ShardFault> = Vec::new();
    for (w, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(r) => {
                for detail in &r.faults {
                    shard_faults.push(ShardFault {
                        shard: w,
                        detail: detail.clone(),
                    });
                }
                reports.push(Some(r));
            }
            Err(p) => {
                shard_faults.push(ShardFault {
                    shard: w,
                    detail: panic_detail(p),
                });
                reports.push(None);
            }
        }
    }

    // An ungoverned error aborts the run with the globally-first failure,
    // exactly as the sequential pipeline's early return would. (Caught
    // panics set `fatal` in this mode, so they abort through here too.)
    if let Some((_, _, e)) = reports
        .iter()
        .enumerate()
        .filter_map(|(w, r)| {
            r.as_ref()
                .and_then(|r| r.fatal.as_ref())
                .map(|(k, e)| (*k, w, e))
        })
        .min_by_key(|(k, w, _)| (*k, *w))
    {
        return Err(e.clone());
    }
    if !gov.quarantine {
        if let Some(f) = shard_faults.first() {
            return Err(RtError::runtime(format!(
                "pipeline shard {} terminated unexpectedly: {}",
                f.shard, f.detail
            )));
        }
    }

    // Deterministic epoch merge: each shard contributes two key-sorted
    // block streams (in-trace + end-of-trace-parse, and end-of-trace
    // dispatch + done) and the dispatcher one; ordering the block
    // *descriptors* by `(key, rank)` and concatenating each category's
    // ranges reproduces the sequential emission order without touching
    // individual lines. Only the `bro_done` key repeats across shards;
    // the shard-index rank breaks that tie (dispatcher ranks last, after
    // all shards, though its phases never collide with shard phases).
    #[derive(Clone, Copy)]
    struct Desc {
        key: Key,
        rank: usize,
        tail: bool,
        idx: usize,
    }
    let mut descs: Vec<Desc> = Vec::new();
    for (w, r) in reports.iter().enumerate() {
        let Some(r) = r else { continue };
        for (i, b) in r.blocks_main.iter().enumerate() {
            descs.push(Desc {
                key: b.key,
                rank: w,
                tail: false,
                idx: i,
            });
        }
        for (i, b) in r.blocks_tail.iter().enumerate() {
            descs.push(Desc {
                key: b.key,
                rank: w,
                tail: true,
                idx: i,
            });
        }
    }
    if let Some(t) = &dtel {
        for (i, b) in t.blocks.iter().enumerate() {
            descs.push(Desc {
                key: b.key,
                rank: workers,
                tail: false,
                idx: i,
            });
        }
    }
    let merge_begin = drec.as_ref().map(|_| monotonic_ns());
    descs.sort_by_key(|d| (d.key, d.rank));

    let mut logs_out: [Vec<String>; 3] = Default::default();
    let mut output: Vec<String> = Vec::new();
    let mut flow_errors: Vec<FlowError> = Vec::new();
    let mut merged_events: Vec<String> = Vec::new();
    let mut devents = dtel
        .as_mut()
        .map(|t| std::mem::take(&mut t.events))
        .unwrap_or_default();
    for d in &descs {
        if d.rank == workers {
            let b = dtel.as_ref().expect("dispatcher block").blocks[d.idx];
            for s in &mut devents[b.events.0 as usize..b.events.1 as usize] {
                merged_events.push(std::mem::take(s));
            }
            continue;
        }
        let r = reports[d.rank].as_mut().expect("desc from a live shard");
        let b = if d.tail {
            r.blocks_tail[d.idx]
        } else {
            r.blocks_main[d.idx]
        };
        for (c, out) in logs_out.iter_mut().enumerate() {
            let (s, e) = b.logs[c];
            for v in &mut r.effects.logs[c][s as usize..e as usize] {
                out.push(std::mem::take(v));
            }
        }
        for v in &mut r.effects.output[b.output.0 as usize..b.output.1 as usize] {
            output.push(std::mem::take(v));
        }
        flow_errors.extend(
            r.effects.flow_errors[b.flow_errors.0 as usize..b.flow_errors.1 as usize]
                .iter()
                .cloned(),
        );
        for v in &mut r.effects.events[b.events.0 as usize..b.events.1 as usize] {
            merged_events.push(std::mem::take(v));
        }
    }
    // Flows owned by a shard that never reported (join failure): no shard
    // ledger exists for them, so the dispatcher quarantines them post-hoc
    // from its owner map, in first-seen order, with the sequential
    // pipeline's per-quarantine counter bookkeeping.
    let lost_shards: Vec<usize> = reports
        .iter()
        .enumerate()
        .filter_map(|(w, r)| r.is_none().then_some(w))
        .collect();
    if !lost_shards.is_empty() {
        for uid in &first_seen {
            if lost_shards.contains(&owner[&**uid].shard) {
                flow_errors.push(FlowError::shard_panic(uid, last_ts));
                if let Some(t) = &dtel {
                    t.telemetry.counter("pipeline.flows_quarantined").inc();
                    t.telemetry
                        .registry
                        .counter(&format!("pipeline.flow_errors.{}", FlowError::SHARD_PANIC))
                        .inc();
                }
            }
        }
    }
    // Flows quarantined for shedding, in shedding order (which depends on
    // ring pressure, like everything else under `Shed`).
    for fe in shed.errors.drain(..) {
        if let Some(t) = &dtel {
            t.telemetry.counter("pipeline.flows_quarantined").inc();
            t.telemetry
                .registry
                .counter(&format!("pipeline.flow_errors.{}", FlowError::SHED))
                .inc();
        }
        flow_errors.push(fe);
    }
    // Quarantine events trail the merged stream in merged-ledger order —
    // the order `PipelineTelemetry::finish` uses.
    if gov.telemetry {
        for fe in &flow_errors {
            let ev = TelemetryEvent {
                kind: "quarantine",
                fields: vec![
                    ("uid", fe.uid.as_str().into()),
                    ("kind", fe.kind.as_str().into()),
                    ("ts_ns", fe.ts.nanos().into()),
                ],
            };
            merged_events.push(ev.to_json());
        }
    }
    if let Some(r) = &mut drec {
        r.record(Stage::Merge, n_packets, None, merge_begin.unwrap_or(0));
    }

    let telemetry = match &dtel {
        Some(t) => {
            // Registered only when a fault happened, so unfaulted parallel
            // snapshots stay byte-identical to sequential ones.
            if !shard_faults.is_empty() {
                t.telemetry
                    .counter("pipeline.shard_faults")
                    .add(shard_faults.len() as u64);
            }
            let mut parts = vec![t.telemetry.snapshot()];
            parts.extend(
                reports
                    .iter()
                    .filter_map(|r| r.as_ref())
                    .map(|r| r.snapshot.clone()),
            );
            let mut merged = TelemetrySnapshot::merge(&parts);
            merged.events = merged_events;
            merged
        }
        None => TelemetrySnapshot::default(),
    };
    // Shed accounting is dispatch-plane (it depends on wall-clock ring
    // pressure); counters appear only when shedding happened, so `Block`
    // runs keep their deterministic dispatch snapshot.
    if let Some(m) = &dmetrics {
        for (w, s) in shed.stats.iter().enumerate() {
            if s.packets > 0 {
                m.telemetry
                    .counter(&format!("pipeline.shed_packets.shard{w}"))
                    .add(s.packets);
                m.telemetry
                    .counter(&format!("pipeline.shed_batches.shard{w}"))
                    .add(s.batches);
            }
        }
    }
    let dispatch_telemetry = dmetrics
        .as_ref()
        .map(|m| m.telemetry.snapshot())
        .unwrap_or_default();
    warn_event_drops(&telemetry, "pipeline");
    // Trace side-channel: shard recorder parts plus the dispatcher's own,
    // with dispatcher-known fault dumps (stall injection, shedding) taken
    // from the harvested parts — those faults only become visible here.
    let trace_report = drec.map(|dr| {
        let mut parts: Vec<RecorderPart> = Vec::new();
        let mut posts: Vec<PostmortemDump> = Vec::new();
        for (w, rep) in reports.iter_mut().enumerate() {
            let Some(rep) = rep.as_mut() else { continue };
            posts.append(&mut rep.postmortems);
            if let Some(part) = rep.trace.take() {
                if let Some((s, _)) = opts.stall_inject {
                    if s == w {
                        posts.push(part.postmortem("injected stall"));
                    }
                }
                if shed.stats[w].packets > 0 {
                    posts.push(part.postmortem(&format!(
                        "shed: {} packet(s) dropped",
                        shed.stats[w].packets
                    )));
                }
                parts.push(part);
            }
        }
        parts.push(dr.finish());
        TraceReport::from_parts(parts, posts)
    });
    let live = || reports.iter().filter_map(|r| r.as_ref());
    for r in live() {
        profiler.absorb(&r.profiler);
    }

    let [http_log, files_log, dns_log] = logs_out;
    Ok(AnalysisResult {
        http_log,
        files_log,
        dns_log,
        output,
        profiler,
        events: live().map(|r| r.n_events).sum(),
        packets: n_packets,
        flow_errors,
        flows_expired,
        peak_flow_bytes: live().map(|r| r.peak_flow_bytes).max().unwrap_or(0),
        parse_failures: live().map(|r| r.parse_failures).sum(),
        telemetry,
        dispatch_telemetry,
        shard_faults,
        shed_packets: shed.stats.iter().map(|s| s.packets).sum(),
        trace: trace_report,
    })
}
