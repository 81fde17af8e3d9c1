//! The bytecode virtual machine — the "compiled" execution engine.
//!
//! The VM executes [`crate::bytecode::CompiledProgram`]s over an explicit,
//! heap-allocated frame stack. That explicit stack is what makes fibers
//! cheap (§3.2, §5 "Runtime Model"): suspending a computation detaches its
//! frame vector into a [`crate::fiber::Fiber`]; resuming re-attaches it and
//! re-executes the instruction that blocked. A `bytes` operation that hits
//! the frontier of un-frozen input raises `Hilti::WouldBlock`, which in
//! resumable mode suspends instead of unwinding — the mechanism behind
//! BinPAC++'s transparent incremental parsing.
//!
//! Exception handling follows §3.2: `exception.push_handler` installs a
//! (kind, handler-pc, binder) record in the current frame; a raised error
//! dispatches to the innermost matching handler, or unwinds frames until
//! one matches, or propagates out of the program.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use hilti_rt::bytestring::Bytes;
use hilti_rt::error::{ExceptionKind, RtError, RtResult};
use hilti_rt::file::LogFile;
use hilti_rt::limits::{AllocBudget, ResourceLimits};
use hilti_rt::overlay::{OverlayType, Unpacked};
use hilti_rt::telemetry::{EventSink, Telemetry};
use hilti_rt::time::Time;

use crate::bytecode::{
    CFunc, CInstr, COperand, CompiledProgram, IcEntry, IcSite, IntBit, IntSrc, StructLayout,
};
use crate::ir::Opcode;
use crate::ops::{self, ExecCtx, ExpiringHandle};
use crate::threaded::{TOp, TSrc, ThreadedFunc};
use crate::tier::{TierCode, TierConfig, TierEngine, TierPoll, TierReport, TieringMode};
use crate::value::{CallableVal, Value};

/// A host-registered function (the inverse direction of the C stubs:
/// HILTI code calling into the application, §3.4).
pub type HostFn = Rc<RefCell<dyn FnMut(&[Value]) -> RtResult<Value>>>;

/// Per-virtual-thread execution context: thread-local globals, output,
/// registered state containers, files, host functions, profiler (§5
/// "Runtime Model": "with each virtual thread HILTI's runtime associates a
/// context object that stores all its relevant state").
pub struct Context {
    /// The thread-local global array, laid out by the linker.
    pub globals: Vec<Value>,
    /// Program output (`Hilti::print`).
    pub out: Vec<String>,
    global_time: Time,
    expiring: Vec<ExpiringHandle>,
    files: HashMap<String, LogFile>,
    host_fns: HashMap<String, HostFn>,
    iosrc_factories: HashMap<String, Box<dyn FnMut() -> RtResult<Value>>>,
    /// name → (accumulated ns, open span start).
    profiler: HashMap<String, (u64, Option<Instant>)>,
    /// Named `profiler.count` counters, registry-backed so repeated counts
    /// of the same name never allocate.
    counters: hilti_rt::telemetry::Registry,
    /// The virtual thread this context belongs to.
    pub thread_id: u64,
    /// thread.schedule requests, drained by the thread runtime.
    pub scheduled: Vec<(u64, CallableVal)>,
    /// Struct/overlay tables shared with the program (`Rc`: spawning a
    /// virtual-thread context must not deep-copy whole type tables).
    pub struct_layouts: Rc<HashMap<String, StructLayout>>,
    pub overlays: Rc<HashMap<String, Rc<OverlayType>>>,
    /// When set, every executed instruction is appended to `trace_log`
    /// (`hiltic run --trace`; the paper's §3.1 debugging support).
    pub trace: bool,
    /// Captured execution trace, one rendered instruction per line.
    /// Capped at [`TRACE_CAP`] lines to bound memory on runaway programs.
    pub trace_log: Vec<String>,
    /// When set, the VM counts executed instructions per mnemonic
    /// (`hiltic run --stats`) — the data that drives which instructions
    /// deserve specialized variants.
    pub stats: bool,
    instr_mix: HashMap<&'static str, u64>,
    /// When set, both engines attribute every retired instruction (and its
    /// fuel) to the executing function and its opcode class
    /// (`hiltic run --profile`). Counting-based and deterministic, so
    /// interpreter and VM profiles are directly comparable. Disables the
    /// specialized fast tier so every instruction is observed.
    pub profile: bool,
    exec_profile: ExecProfile,
    /// Total fuel units successfully charged over this context's lifetime.
    /// With the uniform cost model (one unit per retired abstract
    /// instruction) this *is* the retired-instruction count; entry points
    /// read it as before/after deltas.
    fuel_spent: u64,
    /// Attached telemetry: run counters flushed at engine entry points
    /// plus the event sink for resource-limit and fiber events.
    telemetry: Option<RunTelemetry>,
    /// Resource-governance configuration (fuel, heap, call depth). The
    /// enforcement state lives in the fields below so the dispatch loop
    /// never re-derives it per instruction.
    limits: ResourceLimits,
    /// Remaining execution fuel; `u64::MAX` means "unlimited" (the
    /// decrement still happens but can never reach zero in practice).
    pub(crate) fuel_left: u64,
    /// Shared heap budget handed to runtime values created by this
    /// context (bytes, sets, maps). `None` when no limit is configured.
    heap: Option<AllocBudget>,
    /// Deterministic fault injection: when the countdown hits zero the
    /// next fuel charge raises `fault_error` instead. `u64::MAX` = disarmed.
    fault_countdown: u64,
    fault_error: Option<RtError>,
    /// Delivery-watchdog deadline (wall clock); `None` = disarmed. Unlike
    /// fuel this bounds *time*, so a wedged state that burns cheap
    /// instructions forever still trips `Hilti::ResourceExhausted`.
    watchdog_at: Option<std::time::Instant>,
    /// Fuel units charged since the last watchdog clock read: the clock is
    /// consulted only every [`WATCHDOG_CHECK_UNITS`] units, keeping the
    /// disarmed hot path to one predictable branch.
    watchdog_acc: u64,
    /// Profile-guided adaptive tiering (see [`crate::tier`]). `None` means
    /// the feature is not armed at all (the static-specialization default);
    /// per-context state keeps the parallel pipeline's shards lock-free.
    tier: Option<TierEngine>,
    /// Retired-instruction (fuel-unit) attribution per execution tier:
    /// generic dispatch, the specialized fast loop, and the direct-threaded
    /// executor. Always-on — counts are added in whole batches at the fast
    /// tiers' exit points — and surfaced by `hiltic run --stats`; kept out
    /// of telemetry snapshots so merged-snapshot byte-identity across
    /// worker counts is unaffected.
    tier_retired: TierMix,
    /// The dispatch loop's working buffers, lent to each outermost run and
    /// given back on exit (see [`RunBufs`]).
    run_bufs: RunBufs,
}

/// The buffers one dispatch loop works in: a spare frame stack, the
/// operand buffer, and a free list of slot vectors. [`Context`] owns one
/// set; `run` takes it out on entry and puts it back on every exit, so a
/// steady stream of entries (hook bodies per event, parser calls per PDU)
/// allocates no frames, slots or argument storage. A nested run — a hook
/// body or fired timer started from inside the loop — finds the set lent
/// out and starts from empty buffers, and a suspended fiber keeps its own
/// frame stack: two runs never share a buffer.
#[derive(Default)]
struct RunBufs {
    frames: Vec<Frame>,
    args: Vec<Value>,
    slots: Vec<Vec<Value>>,
}

/// Upper bound on pooled slot vectors.
const SLOT_POOL_CAP: usize = 64;

impl RunBufs {
    /// Takes back a run's frame stack: frames an error left behind give up
    /// their slots, and the emptied stack becomes the spare. No value
    /// outlives its run in these buffers — a slot or operand may hold the
    /// last reference to a container or string — so every parked slot
    /// vector and the operand buffer are emptied here.
    fn reclaim(&mut self, mut frames: Vec<Frame>) {
        for f in frames.drain(..) {
            if self.slots.len() < SLOT_POOL_CAP {
                self.slots.push(f.slots);
            }
        }
        for slots in &mut self.slots {
            slots.clear();
        }
        self.args.clear();
        if frames.capacity() > self.frames.capacity() {
            self.frames = frames;
        }
    }
}

/// Per-tier retired-instruction counts; see [`Context::tier_mix`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierMix {
    /// Retired on the generic decode-dispatch path (including all
    /// observational modes, which pin it).
    pub generic: u64,
    /// Retired in the specialized fast loop.
    pub specialized: u64,
    /// Retired by the direct-threaded executor.
    pub threaded: u64,
}

impl TierMix {
    pub fn total(&self) -> u64 {
        self.generic + self.specialized + self.threaded
    }
}

/// Upper bound on captured trace lines; tracing silently stops there.
pub const TRACE_CAP: usize = 1_000_000;

/// Fuel units between wall-clock reads when a watchdog deadline is armed.
/// Also caps the specialized fast tier's local fuel while armed, so the
/// inner loop always returns to a generic charge point (and its clock
/// check) within this many units — bounding detection latency to a few
/// thousand instructions even for programs the fast tier could otherwise
/// spin in forever.
pub(crate) const WATCHDOG_CHECK_UNITS: u64 = 4096;

impl Context {
    /// Creates a context for `prog`, with globals initialized.
    pub fn for_program(prog: &CompiledProgram) -> Context {
        let globals = prog
            .global_inits
            .iter()
            .map(|init| init.clone().unwrap_or(Value::Null))
            .collect();
        Context {
            globals,
            out: Vec::new(),
            global_time: Time::ZERO,
            expiring: Vec::new(),
            files: HashMap::new(),
            host_fns: HashMap::new(),
            iosrc_factories: HashMap::new(),
            profiler: HashMap::new(),
            counters: hilti_rt::telemetry::Registry::new(),
            thread_id: 0,
            scheduled: Vec::new(),
            struct_layouts: Rc::clone(&prog.struct_layouts),
            overlays: Rc::clone(&prog.overlays),
            trace: false,
            trace_log: Vec::new(),
            stats: false,
            instr_mix: HashMap::new(),
            profile: false,
            exec_profile: ExecProfile::default(),
            fuel_spent: 0,
            telemetry: None,
            limits: ResourceLimits::default(),
            fuel_left: u64::MAX,
            heap: None,
            fault_countdown: u64::MAX,
            fault_error: None,
            watchdog_at: None,
            watchdog_acc: 0,
            tier: None,
            tier_retired: TierMix::default(),
            run_bufs: RunBufs::default(),
        }
    }

    /// How many instructions each execution tier has retired over this
    /// context's lifetime (`hiltic run --stats` reports this mix).
    pub fn tier_mix(&self) -> TierMix {
        self.tier_retired
    }

    /// Arms profile-guided adaptive tiering with default thresholds.
    /// `TieringMode::Off` still installs the engine (so the mode is
    /// reportable) but never tiers anything up — that is the measurement
    /// baseline of the generic dispatch path.
    pub fn set_tiering(&mut self, mode: TieringMode) {
        self.set_tiering_config(mode, TierConfig::default());
    }

    /// Arms adaptive tiering with explicit thresholds (tests use tiny ones
    /// so tier-up happens within small kernels).
    pub fn set_tiering_config(&mut self, mode: TieringMode, config: TierConfig) {
        self.tier = Some(TierEngine::new(mode, config));
    }

    /// The armed tiering mode, if any.
    pub fn tiering(&self) -> Option<TieringMode> {
        self.tier.as_ref().map(|e| e.mode())
    }

    /// Tier-up decisions and inline-cache states for introspection; empty
    /// when tiering is not armed.
    pub fn tier_report(&self) -> TierReport {
        self.tier.as_ref().map(|e| e.report()).unwrap_or_default()
    }

    /// Polls the tier engine for the function on top of the frame stack:
    /// counts one generic dispatch iteration against its hotness budget and
    /// returns the tiered body to execute, if there is one. Emits the
    /// `tier_up` telemetry event at the moment of tier-up.
    #[inline]
    pub(crate) fn tier_poll(&mut self, prog: &CompiledProgram, func: u32) -> Option<TierCode> {
        let eng = self.tier.as_mut()?;
        match eng.poll(prog, func) {
            TierPoll::Generic => None,
            TierPoll::Code(code) => Some(code),
            TierPoll::TieredNow { code, name } => {
                if let Some(t) = &self.telemetry {
                    t.tierups.inc();
                    t.sink.emit("tier_up", vec![("function", name.into())]);
                }
                Some(code)
            }
        }
    }

    /// The direct-threaded body of `func` if it is already tiered up in
    /// threaded mode — a plain lookup with no hotness side effects, used
    /// by the threaded executor to chain hot-to-hot calls in-loop.
    #[inline]
    fn tier_threaded(&self, func: u32) -> Option<Rc<ThreadedFunc>> {
        self.tier.as_ref().and_then(|e| e.threaded_code(func))
    }

    /// Feeds an invocation edge (with its argument values) to the tier
    /// engine's per-function counters and observed-type lattice.
    #[inline]
    pub(crate) fn tier_note_call(&mut self, nfuncs: usize, func: u32, args: &[Value]) {
        if let Some(eng) = self.tier.as_mut() {
            eng.note_call(nfuncs, func, args);
        }
    }

    #[inline]
    fn ic_hit(&self) {
        if let Some(t) = &self.telemetry {
            t.ic_hits.inc();
        }
    }

    #[inline]
    fn ic_miss(&self) {
        if let Some(t) = &self.telemetry {
            t.ic_misses.inc();
        }
    }

    /// Installs resource limits, resetting the fuel meter and creating a
    /// fresh heap budget. Call before `run`; limits apply from then on.
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.fuel_left = limits.fuel.unwrap_or(u64::MAX);
        self.heap = limits.max_heap_bytes.map(AllocBudget::with_limit);
        self.arm_deadline_after_ms(limits.deadline_ms);
        self.limits = limits;
    }

    /// Arms (or clears) the wall-clock watchdog without touching the fuel
    /// meter or heap budget: execution must reach its next exit within
    /// `ms` milliseconds from now or trip `Hilti::ResourceExhausted` at a
    /// fuel-charge point. Host applications re-arm this per delivery so a
    /// wedged parse bounds only its own delivery, never the pipeline.
    pub fn arm_deadline_after_ms(&mut self, ms: Option<u64>) {
        self.watchdog_at =
            ms.map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        // Pre-load the accumulator so the first charge after arming reads
        // the clock: a zero deadline trips deterministically at the first
        // charge point, which the chaos tests rely on.
        self.watchdog_acc = WATCHDOG_CHECK_UNITS;
    }

    /// Whether a delivery deadline is armed (caps the specialized
    /// fast-dispatch tier's run length so charge points stay frequent).
    #[inline]
    pub(crate) fn deadline_armed(&self) -> bool {
        self.watchdog_at.is_some()
    }

    /// The configured resource limits.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// Remaining fuel, or `None` when execution is unmetered.
    pub fn fuel_remaining(&self) -> Option<u64> {
        self.limits.fuel.map(|_| self.fuel_left)
    }

    /// The heap budget values created by this context charge against.
    pub fn heap_budget(&self) -> Option<&AllocBudget> {
        self.heap.as_ref()
    }

    /// Arms deterministic fault injection: after `n` further fuel charges
    /// the engine raises `err` at the next charge point. Used by the chaos
    /// harness to exercise mid-execution failure paths reproducibly.
    pub fn inject_fault_after(&mut self, n: u64, err: RtError) {
        self.fault_countdown = n;
        self.fault_error = Some(err);
    }

    /// Whether a fault injection is armed (disables the specialized
    /// fast-dispatch tier so the trigger point is deterministic).
    #[inline]
    pub(crate) fn fault_armed(&self) -> bool {
        self.fault_countdown != u64::MAX
    }

    /// Charges `cost` units of fuel, raising `Hilti::ResourceExhausted`
    /// when the meter runs dry (the meter pins to zero, so a handler that
    /// catches the exception cannot outrun the limit) and honouring any
    /// armed fault injection.
    #[inline]
    pub(crate) fn charge_fuel(&mut self, cost: u64) -> RtResult<()> {
        if self.fault_countdown != u64::MAX {
            if self.fault_countdown == 0 {
                self.fault_countdown = u64::MAX;
                let err = self
                    .fault_error
                    .take()
                    .unwrap_or_else(|| RtError::runtime("injected fault"));
                return Err(err);
            }
            self.fault_countdown -= 1;
        }
        if self.fuel_left < cost {
            self.fuel_left = 0;
            if let Some(t) = &self.telemetry {
                t.sink
                    .emit("resource_limit", vec![("resource", "fuel".into())]);
            }
            return Err(RtError::resource_exhausted("execution fuel exhausted"));
        }
        self.fuel_left -= cost;
        self.fuel_spent = self.fuel_spent.wrapping_add(cost);
        if let Some(at) = self.watchdog_at {
            self.watchdog_acc = self.watchdog_acc.saturating_add(cost);
            if self.watchdog_acc >= WATCHDOG_CHECK_UNITS {
                self.watchdog_acc = 0;
                if std::time::Instant::now() >= at {
                    // Stays armed: a handler that catches the exception
                    // gets at most one more check window, not a reprieve.
                    if let Some(t) = &self.telemetry {
                        t.sink
                            .emit("resource_limit", vec![("resource", "deadline".into())]);
                    }
                    return Err(RtError::resource_exhausted("delivery deadline exceeded"));
                }
            }
        }
        Ok(())
    }

    /// Total fuel units charged so far — the retired-instruction count.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel_spent
    }

    /// Attaches a telemetry bundle: the engines intern their run counters
    /// once here and flush retired-instruction deltas at every entry-point
    /// exit; resource-limit trips and fiber suspend/resume go to the sink.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = Some(RunTelemetry {
            instructions: telemetry.counter("engine.instructions_retired"),
            runs: telemetry.counter("engine.runs"),
            tierups: telemetry.counter("engine.tierup"),
            ic_hits: telemetry.counter("ic.hit"),
            ic_misses: telemetry.counter("ic.miss"),
            sink: telemetry.sink.clone(),
        });
    }

    /// Detaches telemetry; the engines stop reporting.
    pub fn clear_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Credits the instructions retired since `spent_before` to the
    /// attached telemetry, if any. Called once per engine entry point.
    pub(crate) fn telemetry_flush_run(&mut self, spent_before: u64) {
        if let Some(t) = &self.telemetry {
            t.instructions
                .add(self.fuel_spent.wrapping_sub(spent_before));
            t.runs.inc();
        }
    }

    /// The attached event sink, if telemetry is on.
    pub(crate) fn telemetry_sink(&self) -> Option<&EventSink> {
        self.telemetry.as_ref().map(|t| &t.sink)
    }

    /// The execution profile collected while [`Context::profile`] was set.
    pub fn exec_profile(&self) -> &ExecProfile {
        &self.exec_profile
    }

    /// Takes and resets the execution profile.
    pub fn take_exec_profile(&mut self) -> ExecProfile {
        std::mem::take(&mut self.exec_profile)
    }

    #[inline]
    pub(crate) fn profile_record(&mut self, func: &str, class: &'static str, units: u64) {
        self.exec_profile.record(func, class, units);
    }

    /// Takes the accumulated execution trace (see [`Context::trace`]).
    pub fn take_trace(&mut self) -> Vec<String> {
        std::mem::take(&mut self.trace_log)
    }

    /// The instruction-mix histogram collected while [`Context::stats`] was
    /// set, sorted by descending count (ties by name).
    pub fn instr_mix(&self) -> Vec<(&'static str, u64)> {
        let mut mix: Vec<(&'static str, u64)> =
            self.instr_mix.iter().map(|(n, c)| (*n, *c)).collect();
        mix.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        mix
    }

    /// Takes and resets the instruction-mix histogram.
    pub fn take_instr_mix(&mut self) -> Vec<(&'static str, u64)> {
        let mix = self.instr_mix();
        self.instr_mix.clear();
        mix
    }

    #[inline]
    pub(crate) fn count_instr(&mut self, name: &'static str) {
        *self.instr_mix.entry(name).or_default() += 1;
    }

    /// Registers a host function callable from HILTI code.
    pub fn register_host_fn(
        &mut self,
        name: &str,
        f: impl FnMut(&[Value]) -> RtResult<Value> + 'static,
    ) {
        self.host_fns
            .insert(name.to_owned(), Rc::new(RefCell::new(f)));
    }

    /// Registers a named input source factory for `iosrc.open`.
    pub fn register_iosrc(
        &mut self,
        name: &str,
        factory: impl FnMut() -> RtResult<Value> + 'static,
    ) {
        self.iosrc_factories
            .insert(name.to_owned(), Box::new(factory));
    }

    /// Pre-registers a named output file (e.g. disk-backed); otherwise
    /// `file.open` creates in-memory logs.
    pub fn register_file(&mut self, file: LogFile) {
        self.files.insert(file.name().to_owned(), file);
    }

    /// Access to a named log file's captured lines.
    pub fn file(&self, name: &str) -> Option<&LogFile> {
        self.files.get(name)
    }

    /// Takes the accumulated program output.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.out)
    }

    /// Accumulated nanoseconds for a named profiler span.
    pub fn profile_ns(&self, name: &str) -> u64 {
        self.profiler.get(name).map(|(t, _)| *t).unwrap_or(0)
    }

    /// Named profiler counter value.
    pub fn profile_counter(&self, name: &str) -> u64 {
        self.counters.counter_value(name)
    }

    pub fn global_time(&self) -> Time {
        self.global_time
    }

    /// Looks up a registered host function (used by both engines).
    pub fn host_fn(&self, name: &str) -> Option<HostFn> {
        self.host_fns.get(name).cloned()
    }
}

/// Interned engine-level telemetry handles (see [`Context::set_telemetry`]).
struct RunTelemetry {
    instructions: hilti_rt::telemetry::Counter,
    runs: hilti_rt::telemetry::Counter,
    tierups: hilti_rt::telemetry::Counter,
    ic_hits: hilti_rt::telemetry::Counter,
    ic_misses: hilti_rt::telemetry::Counter,
    sink: EventSink,
}

/// The deterministic execution profile: retired instructions attributed to
/// the executing function and to opcode classes. Both engines feed this at
/// their (single) fuel-charge points, so with the uniform cost model the
/// instruction and fuel views coincide and interpreter/VM profiles of the
/// same program agree exactly.
///
/// Attribution is exclusive: an instruction is charged to the function
/// whose body retires it, so `call` instructions land on the caller and
/// the callee's body on the callee.
#[derive(Clone, Debug, Default)]
pub struct ExecProfile {
    per_fn: HashMap<String, u64>,
    per_class: HashMap<&'static str, u64>,
}

impl ExecProfile {
    #[inline]
    pub(crate) fn record(&mut self, func: &str, class: &'static str, units: u64) {
        if let Some(n) = self.per_fn.get_mut(func) {
            *n += units;
        } else {
            self.per_fn.insert(func.to_owned(), units);
        }
        *self.per_class.entry(class).or_default() += units;
    }

    /// Per-function retired instructions, sorted by name.
    pub fn functions(&self) -> Vec<(String, u64)> {
        let mut v: Vec<_> = self.per_fn.iter().map(|(n, c)| (n.clone(), *c)).collect();
        v.sort();
        v
    }

    /// Per-opcode-class retired instructions, sorted by class name.
    pub fn classes(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.per_class.iter().map(|(n, c)| (*n, *c)).collect();
        v.sort();
        v
    }

    /// Total retired instructions (== total fuel units).
    pub fn total(&self) -> u64 {
        self.per_fn.values().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.per_fn.is_empty()
    }
}

/// Maps an opcode mnemonic to its profile class: the prefix before the
/// first `.` (`int.add` → `int`, `bytes.length` → `bytes`, plain `jump` →
/// `jump`). IR terminators and VM control transfers are recorded as
/// `control` so the class breakdown matches across engines.
pub(crate) fn opcode_class(mnemonic: &'static str) -> &'static str {
    match mnemonic.find('.') {
        Some(i) => &mnemonic[..i],
        None => mnemonic,
    }
}

/// Profile class of a bytecode instruction. Specialized variants report
/// the class of the IR instruction they replace, so `--no-specialize` and
/// specialized runs profile identically; `BrIfInt` is handled at the call
/// site (it retires one `int` and one `control` unit).
fn cinstr_class(instr: &CInstr) -> &'static str {
    match instr {
        CInstr::Op { opcode, .. } => opcode_class(opcode.mnemonic()),
        CInstr::Call { .. } | CInstr::CallHost { .. } => "call",
        CInstr::CallCallable { .. } => "callable",
        CInstr::RunHook { .. } => "hook",
        CInstr::New { .. } => "new",
        CInstr::Jump(_) | CInstr::Branch { .. } | CInstr::BrBool { .. } | CInstr::Return(_) => {
            "control"
        }
        CInstr::PushHandler { .. } | CInstr::PopHandler => "exception",
        CInstr::Yield => "yield",
        CInstr::GlobalStore { inner, .. } => cinstr_class(inner),
        CInstr::AddInt { .. }
        | CInstr::SubInt { .. }
        | CInstr::MulInt { .. }
        | CInstr::BitInt { .. }
        | CInstr::CmpInt { .. }
        | CInstr::BrIfInt { .. } => "int",
        CInstr::MoveSlot { .. } | CInstr::LoadImm { .. } => "assign",
        CInstr::IterIncrBytes { .. } | CInstr::IterDerefBytes { .. } => "iterator",
        CInstr::StructGetSlot { .. } | CInstr::StructSetSlot { .. } => "struct",
        CInstr::TupleGetSlot { .. } => "tuple",
        CInstr::BoolSlot { .. } => "bool",
        CInstr::EqualSlot { negate, .. } => {
            if *negate {
                "unequal"
            } else {
                "equal"
            }
        }
        // Profiled executions only ever run the fused read's first
        // constituent, the `assign` it replaced.
        CInstr::ReadUInt { .. } => "assign",
        // Observational modes pin execution to the generic tier, so these
        // never appear in a profile; classes mirror the generic ops anyway.
        CInstr::StructGetIC { .. } | CInstr::StructSetIC { .. } => "struct",
        CInstr::OverlayGetIC { .. } => "overlay",
        CInstr::CallCallableIC { .. } => "callable",
    }
}

impl ExecCtx for Context {
    fn output(&mut self, line: String) {
        self.out.push(line);
    }

    fn global_time(&self) -> Time {
        self.global_time
    }

    fn set_global_time(&mut self, t: Time) {
        if t > self.global_time {
            self.global_time = t;
        }
    }

    fn register_expiring(&mut self, handle: ExpiringHandle) {
        self.expiring.push(handle);
    }

    fn advance_expiring(&mut self, t: Time) {
        self.expiring.retain(|h| match h {
            ExpiringHandle::Set(s) => Rc::strong_count(s) > 1,
            ExpiringHandle::Map(m) => Rc::strong_count(m) > 1,
        });
        for h in &self.expiring {
            match h {
                ExpiringHandle::Set(s) => {
                    s.borrow_mut().advance(t);
                }
                ExpiringHandle::Map(m) => {
                    m.borrow_mut().advance(t);
                }
            }
        }
    }

    fn struct_layout(&self, type_name: &str) -> Option<&StructLayout> {
        self.struct_layouts.get(type_name)
    }

    fn overlay(&self, type_name: &str) -> Option<Rc<OverlayType>> {
        self.overlays.get(type_name).cloned()
    }

    fn open_file(&mut self, name: &str) -> LogFile {
        self.files
            .entry(name.to_owned())
            .or_insert_with(|| LogFile::in_memory(name))
            .clone()
    }

    fn open_iosrc(&mut self, name: &str) -> RtResult<Value> {
        match self.iosrc_factories.get_mut(name) {
            Some(f) => f(),
            None => Err(RtError::io(format!("no registered input source {name:?}"))),
        }
    }

    fn schedule_thread(&mut self, tid: u64, callable: CallableVal) -> RtResult<()> {
        self.scheduled.push((tid, callable));
        Ok(())
    }

    fn thread_id(&self) -> u64 {
        self.thread_id
    }

    fn profiler_start(&mut self, name: &str) {
        let e = self.profiler.entry(name.to_owned()).or_insert((0, None));
        if e.1.is_none() {
            e.1 = Some(Instant::now());
        }
    }

    fn profiler_stop(&mut self, name: &str) {
        if let Some(e) = self.profiler.get_mut(name) {
            if let Some(start) = e.1.take() {
                e.0 += start.elapsed().as_nanos() as u64;
            }
        }
    }

    fn profiler_count(&mut self, name: &str, n: u64) {
        self.counters.counter(name).add(n);
    }

    fn profiler_time(&self, name: &str) -> u64 {
        self.profile_ns(name)
    }

    fn alloc_budget(&self) -> Option<AllocBudget> {
        self.heap.clone()
    }
}

/// An installed exception handler.
#[derive(Clone, Debug)]
pub struct Handler {
    pub pc: u32,
    pub kind: Rc<str>,
    pub binder: Option<u16>,
}

/// One activation record.
#[derive(Clone, Debug)]
pub struct Frame {
    pub func: u32,
    pub pc: u32,
    pub slots: Vec<Value>,
    pub handlers: Vec<Handler>,
    /// Where the caller wants this frame's return value.
    pub ret_slot: Option<u16>,
    pub ret_global: Option<u32>,
}

impl Frame {
    /// Builds an activation record whose parameters are cloned straight
    /// from `args` into a slot vector from `pool` (entry frames).
    fn new_entry(
        prog: &CompiledProgram,
        func: u32,
        args: &[Value],
        pool: &mut Vec<Vec<Value>>,
    ) -> Frame {
        let cf = &prog.funcs[func as usize];
        let mut slots = Frame::pooled_slots(cf.n_slots as usize, pool);
        for (slot, a) in slots.iter_mut().zip(args.iter().take(cf.n_params as usize)) {
            *slot = a.clone();
        }
        Frame::from_slots(func, slots)
    }

    /// The activation record of `func` over a slot vector whose parameter
    /// slots are already filled.
    fn from_slots(func: u32, slots: Vec<Value>) -> Frame {
        Frame {
            func,
            pc: 0,
            slots,
            handlers: Vec::new(),
            ret_slot: None,
            ret_global: None,
        }
    }

    /// `n` null slots, reusing a vector from `pool` when one is available
    /// (calls are the hottest allocation site in compiled code; recycling
    /// frames is the analog of the paper's custom free-list for fiber
    /// stacks, §5).
    fn pooled_slots(n: usize, pool: &mut Vec<Vec<Value>>) -> Vec<Value> {
        match pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(n, Value::Null);
                v
            }
            None => vec![Value::Null; n],
        }
    }

    /// Builds an activation record, draining the arguments out of a
    /// caller-owned buffer so the dispatch loop's argument vector is reused
    /// across calls instead of being reallocated per call.
    fn new_from_buf(
        prog: &CompiledProgram,
        func: u32,
        args: &mut Vec<Value>,
        pool: &mut Vec<Vec<Value>>,
    ) -> Frame {
        let cf = &prog.funcs[func as usize];
        let mut slots = Frame::pooled_slots(cf.n_slots as usize, pool);
        for (i, a) in args.drain(..).enumerate().take(cf.n_params as usize) {
            slots[i] = a;
        }
        Frame::from_slots(func, slots)
    }
}

/// How an execution ended.
pub enum Outcome {
    /// The outermost function returned.
    Done(Value),
    /// Execution suspended (yield, or WouldBlock in resumable mode); the
    /// frames can be resumed later.
    Suspended(Vec<Frame>),
}

/// Executes `func` with `args` to completion (non-resumable).
pub fn call(
    prog: &CompiledProgram,
    ctx: &mut Context,
    func: &str,
    args: &[Value],
) -> RtResult<Value> {
    call_index(prog, ctx, resolve(prog, func)?, args)
}

/// [`call`] with the function already resolved to its index (see
/// [`CompiledProgram::func_index`]): hosts that enter the same function
/// for every PDU resolve it once and skip the name lookup.
pub fn call_index(
    prog: &CompiledProgram,
    ctx: &mut Context,
    fi: u32,
    args: &[Value],
) -> RtResult<Value> {
    match enter(prog, ctx, fi, args, false)? {
        Outcome::Done(v) => Ok(v),
        Outcome::Suspended(_) => Err(RtError::runtime(format!(
            "{} suspended outside a fiber",
            prog.funcs[fi as usize].name
        ))),
    }
}

/// Starts `func` resumably; see [`crate::fiber::Fiber`] for the wrapper.
pub fn start_resumable(
    prog: &CompiledProgram,
    ctx: &mut Context,
    func: &str,
    args: &[Value],
) -> RtResult<Outcome> {
    enter(prog, ctx, resolve(prog, func)?, args, true)
}

/// Resolves a function name, with the error every entry point reports.
fn resolve(prog: &CompiledProgram, func: &str) -> RtResult<u32> {
    prog.func_index
        .get(func)
        .copied()
        .ok_or_else(|| RtError::value(format!("unknown function {func}")))
}

/// Runs function `fi` from a fresh entry frame — an engine entry point,
/// flushed to telemetry as one run.
fn enter(
    prog: &CompiledProgram,
    ctx: &mut Context,
    fi: u32,
    args: &[Value],
    resumable: bool,
) -> RtResult<Outcome> {
    let spent_before = ctx.fuel_spent;
    let result = run_entry(prog, ctx, fi, args, resumable);
    ctx.telemetry_flush_run(spent_before);
    result
}

/// Runs function `fi` on the context's spare frame stack from an entry
/// frame built in a pooled slot vector.
fn run_entry(
    prog: &CompiledProgram,
    ctx: &mut Context,
    fi: u32,
    args: &[Value],
    resumable: bool,
) -> RtResult<Outcome> {
    ctx.tier_note_call(prog.funcs.len(), fi, args);
    let mut frames = std::mem::take(&mut ctx.run_bufs.frames);
    frames.push(Frame::new_entry(prog, fi, args, &mut ctx.run_bufs.slots));
    run(prog, ctx, frames, resumable)
}

/// Runs every body of hook `hook` synchronously, in priority order, each
/// from its own entry frame (hooks do not suspend). This is the host-driven
/// entry point ([`crate::host::Program::run_hook_index`]): like [`call`],
/// every body is flushed to telemetry as one run.
pub fn run_hook(
    prog: &CompiledProgram,
    ctx: &mut Context,
    hook: u32,
    args: &[Value],
) -> RtResult<()> {
    run_hook_bodies(prog, ctx, hook, args, true)
}

/// The one hook runner, shared with the `hook.run` instruction. Bodies run
/// from a nested `hook.run` are not flushed: the enclosing entry point's
/// run already accounts for the instructions they retire.
fn run_hook_bodies(
    prog: &CompiledProgram,
    ctx: &mut Context,
    hook: u32,
    args: &[Value],
    flush: bool,
) -> RtResult<()> {
    for &body in &prog.hooks[hook as usize] {
        let spent_before = ctx.fuel_spent;
        let outcome = run_entry(prog, ctx, body, args, false);
        if flush {
            ctx.telemetry_flush_run(spent_before);
        }
        if let Outcome::Suspended(_) = outcome? {
            return Err(RtError::runtime("hook body suspended"));
        }
    }
    Ok(())
}

/// Resumes suspended frames.
pub fn resume(prog: &CompiledProgram, ctx: &mut Context, frames: Vec<Frame>) -> RtResult<Outcome> {
    let spent_before = ctx.fuel_spent;
    let result = run(prog, ctx, frames, true);
    ctx.telemetry_flush_run(spent_before);
    result
}

fn operand_value(ctx: &Context, frame: &Frame, op: &COperand) -> Value {
    match op {
        COperand::Slot(s) => frame.slots[*s as usize].clone(),
        COperand::Global(g) => ctx.globals[*g as usize].clone(),
        COperand::Value(v) => v.clone(),
    }
}

/// Reads a specialized integer operand without cloning. The slot is
/// statically typed int, but the value is still checked (locals start as
/// Null) so a mistyped read raises the same catchable TypeError as the
/// generic path.
#[inline(always)]
fn int_src(frame: &Frame, s: IntSrc) -> RtResult<i64> {
    match s {
        IntSrc::Imm(i) => Ok(i),
        IntSrc::Slot(s) => frame.slots[s as usize].as_int(),
    }
}

/// Lean operand reader for the threaded executor: the `Option` return
/// stays in registers, where the generic `RtResult` moves a formatted
/// error through memory on every call. `None` (wrong type, bad slot)
/// exits to the generic loop, which re-executes the op and owns the
/// error message.
#[inline(always)]
fn int_operand(frame: &Frame, s: IntSrc) -> Option<i64> {
    match s {
        IntSrc::Imm(i) => Some(i),
        IntSrc::Slot(s) => match frame.slots.get(s as usize) {
            Some(Value::Int(i)) => Some(*i),
            _ => None,
        },
    }
}

/// The field `idx` of a struct instance built from the layout whose
/// interned name is `ty` (pointer identity), if that field is set. `None`
/// is a guard miss: the caller resolves the access generically.
#[inline(always)]
fn bound_struct_get(v: &Value, ty: &Rc<str>, idx: u32) -> Option<Value> {
    let Value::Struct(s) = v else { return None };
    let s = s.borrow();
    if !Rc::ptr_eq(&s.type_name, ty) {
        return None;
    }
    match s.fields.get(idx as usize)? {
        Value::Null => None,
        v => Some(v.clone()),
    }
}

/// Stores `value` into field `idx` of the struct in slot `obj` when the
/// instance guard holds; `false` (nothing written) on a miss.
#[inline(always)]
fn bound_struct_set(frame: &Frame, obj: u16, value: &COperand, ty: &Rc<str>, idx: u32) -> bool {
    let Value::Struct(s) = &frame.slots[obj as usize] else {
        return false;
    };
    let mut s = s.borrow_mut();
    if !Rc::ptr_eq(&s.type_name, ty) {
        return false;
    }
    match s.fields.get_mut(idx as usize) {
        Some(f) => {
            *f = local_operand(frame, value).clone();
            true
        }
        None => false,
    }
}

/// A slot or constant operand, borrowed (specialized instructions never
/// carry globals).
#[inline(always)]
fn local_operand<'a>(frame: &'a Frame, op: &'a COperand) -> &'a Value {
    match op {
        COperand::Slot(s) => &frame.slots[*s as usize],
        COperand::Value(v) => v,
        COperand::Global(_) => unreachable!("specialized operands are never globals"),
    }
}

/// Element `idx` of a tuple value; `None` for a non-tuple or a short one.
#[inline(always)]
fn bound_tuple_get(v: &Value, idx: u32) -> Option<Value> {
    match v {
        Value::Tuple(t) => t.get(idx as usize).cloned(),
        _ => None,
    }
}

/// Final `acc` and shifted-byte values of a fused fixed-width read over
/// `bytes`, computed with the `int.shl`/`int.or` semantics of the
/// instructions it covers.
fn read_uint_fold(bytes: &[u8], little: bool) -> (i64, i64) {
    let (mut acc, mut sh) = (0i64, 0i64);
    for (k, &b) in bytes.iter().enumerate() {
        let b = i64::from(b);
        if little {
            sh = IntBit::Shl.apply(b, 8 * k as i64);
            acc |= sh;
        } else {
            acc = IntBit::Shl.apply(acc, 8) | b;
        }
    }
    (acc, sh)
}

/// Runs `frames` to completion or suspension with the context's working
/// buffers, which go back to the context on every exit.
fn run(
    prog: &CompiledProgram,
    ctx: &mut Context,
    mut frames: Vec<Frame>,
    resumable: bool,
) -> RtResult<Outcome> {
    let mut bufs = std::mem::take(&mut ctx.run_bufs);
    let result = run_loop(prog, ctx, &mut frames, resumable, &mut bufs);
    bufs.reclaim(frames);
    ctx.run_bufs = bufs;
    result
}

/// The main dispatch loop.
fn run_loop(
    prog: &CompiledProgram,
    ctx: &mut Context,
    frames: &mut Vec<Frame>,
    resumable: bool,
    bufs: &mut RunBufs,
) -> RtResult<Outcome> {
    // The operand buffer avoids per-instruction allocation; the slot pool
    // recycles frame slot vectors across calls.
    let RunBufs {
        args: argbuf,
        slots: frame_pool,
        ..
    } = bufs;
    // One-shot escape hatch from the threaded executor: when it exits
    // `Stuck`, exactly one instruction runs on the generic path below
    // (charging, raising, or IC-resolving it) before re-entering.
    let mut skip_threaded = false;
    'dispatch: loop {
        let func = match frames.last() {
            Some(f) => f.func,
            None => return Ok(Outcome::Done(Value::Null)),
        };
        // Observational modes (trace/stats/profile, armed fault injection)
        // pin execution to the generic tier: the adaptive tier is skipped
        // entirely so every instruction is observed one by one and the
        // outputs stay comparable across builds.
        let observing = ctx.trace || ctx.stats || ctx.profile || ctx.fault_armed();
        // Adaptive tiering: one poll per dispatch iteration counts against
        // the current function's hotness budget; once it tiers up, the
        // re-lowered body (same pcs, same fuel costs — see `crate::tier`)
        // replaces the generic one from this iteration on.
        let tiered: Option<TierCode> = if observing {
            None
        } else {
            ctx.tier_poll(prog, func)
        };

        // Threaded tier: a function promoted under `--tiering=threaded`
        // runs its pre-bound ops in `run_threaded` until something needs
        // the generic loop (deopt site, IC miss, error, fuel window), then
        // resumes here at the exact same pc — the tiered bytecode below is
        // its deopt target, one op per pc.
        if !std::mem::take(&mut skip_threaded) {
            if let Some(tf) = tiered.as_ref().and_then(|tc| tc.threaded.clone()) {
                match run_threaded(prog, ctx, frames, tf, argbuf, frame_pool) {
                    TExit::Frame => {}
                    TExit::Stuck => skip_threaded = true,
                }
                continue 'dispatch;
            }
        }

        let frame = frames.last_mut().expect("frame exists");
        let cf: &CFunc = match &tiered {
            Some(code) => &code.cfunc,
            None => &prog.funcs[frame.func as usize],
        };
        // When a threaded body exists, the specialized inner loop stays
        // off: the one generic instruction between executor sessions is
        // what guarantees a charge point (and watchdog clock read) every
        // `WATCHDOG_CHECK_UNITS`, and what resolves the op the executor
        // deopted on.
        let has_threaded = tiered.as_ref().is_some_and(|tc| tc.threaded.is_some());

        // Fast tier: consecutive specialized instructions execute in a
        // tight inner loop that keeps the frame borrow, skipping the
        // per-instruction re-dispatch overhead of the generic path
        // (trace/stats/profile builds skip this so every instruction is
        // still observed one by one; so do armed fault injections, which
        // must trigger at a deterministic charge point on the generic
        // path).
        // On a type error the loop breaks *without* advancing pc or
        // charging fuel; the generic body re-executes the pure instruction
        // and raises — or charges — through the one exception path. Fuel
        // lives in a local for the duration of the loop: each arm checks
        // *before* executing and decrements only on success, so the meter
        // can never be outrun and never double-charges.
        if !observing && !has_threaded {
            let fuel_start = ctx.fuel_left;
            // An armed watchdog needs periodic charge points: cap the
            // local countdown so the inner loop falls back to the generic
            // path (and its amortized clock check) within a bounded number
            // of instructions, even for loops the fast tier handles fully.
            let clamp = if ctx.deadline_armed() {
                fuel_start.min(WATCHDOG_CHECK_UNITS)
            } else {
                fuel_start
            };
            let mut fuel = clamp;
            while let Some(instr) = cf.code.get(frame.pc as usize) {
                match instr {
                    CInstr::AddInt { dst, a, b } => {
                        if fuel < 1 {
                            break;
                        }
                        match (int_src(frame, *a), int_src(frame, *b)) {
                            (Ok(x), Ok(y)) => {
                                frame.slots[*dst as usize] = Value::Int(x.wrapping_add(y));
                                frame.pc += 1;
                                fuel -= 1;
                            }
                            _ => break,
                        }
                    }
                    CInstr::SubInt { dst, a, b } => {
                        if fuel < 1 {
                            break;
                        }
                        match (int_src(frame, *a), int_src(frame, *b)) {
                            (Ok(x), Ok(y)) => {
                                frame.slots[*dst as usize] = Value::Int(x.wrapping_sub(y));
                                frame.pc += 1;
                                fuel -= 1;
                            }
                            _ => break,
                        }
                    }
                    CInstr::MulInt { dst, a, b } => {
                        if fuel < 1 {
                            break;
                        }
                        match (int_src(frame, *a), int_src(frame, *b)) {
                            (Ok(x), Ok(y)) => {
                                frame.slots[*dst as usize] = Value::Int(x.wrapping_mul(y));
                                frame.pc += 1;
                                fuel -= 1;
                            }
                            _ => break,
                        }
                    }
                    CInstr::BitInt { op, dst, a, b } => {
                        if fuel < 1 {
                            break;
                        }
                        match (int_src(frame, *a), int_src(frame, *b)) {
                            (Ok(x), Ok(y)) => {
                                frame.slots[*dst as usize] = Value::Int(op.apply(x, y));
                                frame.pc += 1;
                                fuel -= 1;
                            }
                            _ => break,
                        }
                    }
                    CInstr::CmpInt { cmp, dst, a, b } => {
                        if fuel < 1 {
                            break;
                        }
                        match (int_src(frame, *a), int_src(frame, *b)) {
                            (Ok(x), Ok(y)) => {
                                frame.slots[*dst as usize] = Value::Bool(cmp.apply(x, y));
                                frame.pc += 1;
                                fuel -= 1;
                            }
                            _ => break,
                        }
                    }
                    CInstr::BrIfInt {
                        cmp,
                        a,
                        b,
                        dst,
                        then_pc,
                        else_pc,
                    } => {
                        // Fused compare + branch: costs its two
                        // constituent instructions.
                        if fuel < 2 {
                            break;
                        }
                        match (int_src(frame, *a), int_src(frame, *b)) {
                            (Ok(x), Ok(y)) => {
                                let taken = cmp.apply(x, y);
                                frame.slots[*dst as usize] = Value::Bool(taken);
                                frame.pc = if taken { *then_pc } else { *else_pc };
                                fuel -= 2;
                            }
                            _ => break,
                        }
                    }
                    CInstr::MoveSlot { dst, src } => {
                        if fuel < 1 {
                            break;
                        }
                        frame.slots[*dst as usize] = frame.slots[*src as usize].clone();
                        frame.pc += 1;
                        fuel -= 1;
                    }
                    CInstr::LoadImm { dst, v } => {
                        if fuel < 1 {
                            break;
                        }
                        frame.slots[*dst as usize] = v.clone();
                        frame.pc += 1;
                        fuel -= 1;
                    }
                    CInstr::BrBool {
                        cond,
                        then_pc,
                        else_pc,
                    } => {
                        if fuel < 1 {
                            break;
                        }
                        match frame.slots[*cond as usize].as_bool() {
                            Ok(true) => {
                                frame.pc = *then_pc;
                                fuel -= 1;
                            }
                            Ok(false) => {
                                frame.pc = *else_pc;
                                fuel -= 1;
                            }
                            Err(_) => break,
                        }
                    }
                    CInstr::Jump(pc) => {
                        if fuel < 1 {
                            break;
                        }
                        frame.pc = *pc;
                        fuel -= 1;
                    }
                    // Wherever the generic arm would raise (WouldBlock,
                    // IndexError, TypeError) the loop breaks uncharged and
                    // that arm re-executes the op and owns the error.
                    CInstr::IterIncrBytes { dst, it, n } => {
                        if fuel < 1 {
                            break;
                        }
                        let (Some(Value::BytesIter(i)), Some(n)) =
                            (frame.slots.get(*it as usize), int_operand(frame, *n))
                        else {
                            break;
                        };
                        frame.slots[*dst as usize] = Value::BytesIter(i.advance(n.max(0) as u64));
                        frame.pc += 1;
                        fuel -= 1;
                    }
                    CInstr::IterDerefBytes { dst, it } => {
                        if fuel < 1 {
                            break;
                        }
                        let Some(b) = (match frame.slots.get(*it as usize) {
                            Some(Value::BytesIter(i)) => i.peek(),
                            _ => None,
                        }) else {
                            break;
                        };
                        frame.slots[*dst as usize] = Value::Int(i64::from(b));
                        frame.pc += 1;
                        fuel -= 1;
                    }
                    // Slot-bound accesses: a guard miss (other struct type,
                    // unset field, non-tuple, short tuple) breaks uncharged
                    // and the generic arm resolves the op by name.
                    CInstr::StructGetSlot {
                        dst, obj, idx, ty, ..
                    } => {
                        if fuel < 1 {
                            break;
                        }
                        let Some(v) = bound_struct_get(&frame.slots[*obj as usize], ty, *idx)
                        else {
                            break;
                        };
                        frame.slots[*dst as usize] = v;
                        frame.pc += 1;
                        fuel -= 1;
                    }
                    CInstr::StructSetSlot {
                        target,
                        obj,
                        value,
                        idx,
                        ty,
                        ..
                    } => {
                        if fuel < 1 {
                            break;
                        }
                        if !bound_struct_set(frame, *obj, value, ty, *idx) {
                            break;
                        }
                        if let Some(t) = target {
                            frame.slots[*t as usize] = Value::Null;
                        }
                        frame.pc += 1;
                        fuel -= 1;
                    }
                    CInstr::TupleGetSlot { dst, tup, idx } => {
                        if fuel < 1 {
                            break;
                        }
                        let Some(v) = bound_tuple_get(&frame.slots[*tup as usize], *idx) else {
                            break;
                        };
                        frame.slots[*dst as usize] = v;
                        frame.pc += 1;
                        fuel -= 1;
                    }
                    CInstr::BoolSlot { op, dst, a, b } => {
                        if fuel < 1 {
                            break;
                        }
                        let r = match frame.slots[*a as usize] {
                            Value::Bool(x) if x == op.short_circuit() => x,
                            Value::Bool(_) => match frame.slots[*b as usize] {
                                Value::Bool(y) => y,
                                _ => break,
                            },
                            _ => break,
                        };
                        frame.slots[*dst as usize] = Value::Bool(r);
                        frame.pc += 1;
                        fuel -= 1;
                    }
                    CInstr::EqualSlot { negate, dst, a, b } => {
                        if fuel < 1 {
                            break;
                        }
                        let eq = local_operand(frame, a).equals(local_operand(frame, b));
                        frame.slots[*dst as usize] = Value::Bool(eq != *negate);
                        frame.pc += 1;
                        fuel -= 1;
                    }
                    CInstr::ReadUInt {
                        acc,
                        b,
                        sh,
                        it,
                        width,
                        end_pc,
                    } => {
                        if fuel < 1 {
                            break;
                        }
                        let w = usize::from(*width);
                        let cost = 1 + 4 * w as u64;
                        let mut buf = [0u8; 8];
                        let next = match &frame.slots[*it as usize] {
                            Value::BytesIter(i) if fuel >= cost && i.peek_into(&mut buf[..w]) => {
                                Some(i.advance(w as u64))
                            }
                            _ => None,
                        };
                        match next {
                            Some(next) => {
                                let (value, shifted) = read_uint_fold(&buf[..w], sh.is_some());
                                frame.slots[*acc as usize] = Value::Int(value);
                                frame.slots[*b as usize] = Value::Int(i64::from(buf[w - 1]));
                                if let Some(sh) = sh {
                                    frame.slots[*sh as usize] = Value::Int(shifted);
                                }
                                frame.slots[*it as usize] = Value::BytesIter(next);
                                frame.pc = *end_pc;
                                fuel -= cost;
                            }
                            // First-constituent fallback: `acc = assign 0`,
                            // then the run continues one op at a time.
                            None => {
                                frame.slots[*acc as usize] = Value::Int(0);
                                frame.pc += 1;
                                fuel -= 1;
                            }
                        }
                    }
                    _ => break,
                }
            }
            // The loop only ever decrements, so the delta is exact.
            let used = clamp - fuel;
            ctx.fuel_spent = ctx.fuel_spent.wrapping_add(used);
            ctx.fuel_left = fuel_start - used;
            if ctx.watchdog_at.is_some() {
                // Count the fast tier's work toward the next clock read;
                // the check itself happens at the next generic charge.
                ctx.watchdog_acc = ctx.watchdog_acc.saturating_add(used);
            }
            ctx.tier_retired.specialized += used;
        }

        let Some(instr) = cf.code.get(frame.pc as usize) else {
            return Err(RtError::runtime(format!(
                "{}: pc {} out of range",
                cf.name, frame.pc
            )));
        };

        if ctx.trace && ctx.trace_log.len() < TRACE_CAP {
            // Mnemonic-based rendering keeps traces diffable against an
            // unspecialized build. A fused compare-and-branch is traced as
            // its two constituent instructions for the same reason.
            if let CInstr::BrIfInt {
                cmp,
                a,
                b,
                dst,
                then_pc,
                else_pc,
            } = instr
            {
                ctx.trace_log.push(format!(
                    "{}@{}: s{dst} = {} {} {}",
                    cf.name,
                    frame.pc,
                    cmp.mnemonic(),
                    a.render(),
                    b.render()
                ));
                if ctx.trace_log.len() < TRACE_CAP {
                    ctx.trace_log.push(format!(
                        "{}@{}: if s{dst} goto @{then_pc} else @{else_pc}",
                        cf.name,
                        frame.pc + 1
                    ));
                }
            } else {
                ctx.trace_log
                    .push(format!("{}@{}: {}", cf.name, frame.pc, instr.render()));
            }
        }
        if ctx.stats {
            ctx.count_instr(instr.stat_name());
        }

        // Unwrap GlobalStore: execute the inner instruction; the global is
        // written either immediately (data ops) or on callee return.
        let (instr, store_global) = match instr {
            CInstr::GlobalStore { global, inner } => (&**inner, Some(*global)),
            other => (other, None),
        };

        macro_rules! raise {
            ($err:expr) => {{
                let err: RtError = $err;
                if resumable && err.kind == ExceptionKind::WouldBlock {
                    // Suspend *at* this instruction; resume retries it.
                    return Ok(Outcome::Suspended(std::mem::take(frames)));
                }
                match dispatch_exception(frames, err)? {
                    () => continue 'dispatch,
                }
            }};
        }

        // Fuel parity with the tree-walking interpreter: one unit per IR
        // body instruction plus one per block terminator. Lowering emits
        // exactly one CInstr for each of those, so every instruction here
        // costs 1 — except the fused compare-and-branch, which covers a
        // body instruction *and* a terminator. Instructions that bailed
        // out of the fast tier above were not charged there, so this is
        // the single charge point.
        let fuel_cost = match instr {
            CInstr::BrIfInt { .. } => 2,
            _ => 1,
        };
        if let Err(e) = ctx.charge_fuel(fuel_cost) {
            raise!(e);
        }
        ctx.tier_retired.generic += fuel_cost;
        if ctx.profile {
            // Charged to the function retiring the instruction; the fused
            // compare-and-branch splits into its two constituent units so
            // specialized and interpreted class breakdowns agree.
            if matches!(instr, CInstr::BrIfInt { .. }) {
                ctx.profile_record(&cf.name, "int", 1);
                ctx.profile_record(&cf.name, "control", 1);
            } else {
                ctx.profile_record(&cf.name, cinstr_class(instr), 1);
            }
        }

        match instr {
            CInstr::Op {
                opcode,
                target,
                args,
                idents,
            } => {
                argbuf.clear();
                for a in args.iter() {
                    argbuf.push(operand_value(ctx, frame, a));
                }
                match ops::eval(*opcode, argbuf, idents, ctx) {
                    Ok(evaluated) => {
                        let frame = frames.last_mut().expect("frame exists");
                        if let Some(t) = target {
                            frame.slots[*t as usize] = evaluated.value.clone();
                        }
                        if let Some(g) = store_global {
                            ctx.globals[g as usize] = evaluated.value;
                        }
                        frame.pc += 1;
                        // Fire timer callables synchronously (nested runs).
                        for fired in evaluated.fired {
                            run_callable(prog, ctx, &fired, &[])?;
                        }
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::New { target, ty, args } => {
                argbuf.clear();
                for a in args.iter() {
                    argbuf.push(operand_value(ctx, frame, a));
                }
                match ops::instantiate(ty, argbuf, ctx) {
                    Ok(v) => {
                        let frame = frames.last_mut().expect("frame exists");
                        frame.slots[*target as usize] = v.clone();
                        if let Some(g) = store_global {
                            ctx.globals[g as usize] = v;
                        }
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::Call { target, func, args } => {
                if let Some(max) = ctx.limits.max_call_depth {
                    if frames.len() >= max as usize {
                        raise!(RtError::resource_exhausted("call depth limit exceeded"));
                    }
                }
                let frame = frames.last_mut().expect("frame exists");
                argbuf.clear();
                for a in args.iter() {
                    argbuf.push(operand_value(ctx, frame, a));
                }
                frame.pc += 1;
                ctx.tier_note_call(prog.funcs.len(), *func, argbuf);
                let mut callee = Frame::new_from_buf(prog, *func, argbuf, frame_pool);
                callee.ret_slot = *target;
                callee.ret_global = store_global;
                frames.push(callee);
            }
            CInstr::CallHost { target, name, args } => {
                argbuf.clear();
                for a in args.iter() {
                    argbuf.push(operand_value(ctx, frame, a));
                }
                match call_host(prog, ctx, name, argbuf) {
                    Ok(v) => {
                        let frame = frames.last_mut().expect("frame exists");
                        if let Some(t) = target {
                            frame.slots[*t as usize] = v.clone();
                        }
                        if let Some(g) = store_global {
                            ctx.globals[g as usize] = v;
                        }
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::RunHook { hook, args } => {
                argbuf.clear();
                for a in args.iter() {
                    argbuf.push(operand_value(ctx, frame, a));
                }
                frame.pc += 1;
                // Nested execution: the bodies run on their own buffers.
                run_hook_bodies(prog, ctx, *hook, argbuf, false)?;
            }
            CInstr::CallCallable {
                target,
                callable,
                args,
            } => {
                if let Some(max) = ctx.limits.max_call_depth {
                    if frames.len() >= max as usize {
                        raise!(RtError::resource_exhausted("call depth limit exceeded"));
                    }
                }
                let frame = frames.last_mut().expect("frame exists");
                let cval = operand_value(ctx, frame, callable);
                let Value::Callable(c) = cval else {
                    raise!(RtError::type_error(format!(
                        "callable.call on {}",
                        cval.type_name()
                    )));
                };
                argbuf.clear();
                for a in args.iter() {
                    argbuf.push(operand_value(ctx, frame, a));
                }
                let Some(fi) = prog.func_index.get(&*c.func).copied() else {
                    // Host-function callable.
                    match call_host(prog, ctx, &c.func, &{
                        let mut full = c.bound.clone();
                        full.extend(argbuf.iter().cloned());
                        full
                    }) {
                        Ok(v) => {
                            let frame = frames.last_mut().expect("frame exists");
                            if let Some(t) = target {
                                frame.slots[*t as usize] = v.clone();
                            }
                            if let Some(g) = store_global {
                                ctx.globals[g as usize] = v;
                            }
                            frame.pc += 1;
                            continue 'dispatch;
                        }
                        Err(e) => raise!(e),
                    }
                };
                frame.pc += 1;
                let mut full_args = c.bound.clone();
                full_args.append(argbuf);
                ctx.tier_note_call(prog.funcs.len(), fi, &full_args);
                let mut callee = Frame::new_from_buf(prog, fi, &mut full_args, frame_pool);
                callee.ret_slot = *target;
                callee.ret_global = store_global;
                frames.push(callee);
            }
            // --- inline-cache tier: guard, generic fallback on miss -----
            // Semantics (including error kinds, messages, and evaluation
            // order) replicate the generic `ops::eval` arms exactly; only
            // the *resolution* — type-name → field index, overlay name →
            // descriptor, callee name → function index — is cached.
            CInstr::StructGetIC {
                target,
                obj,
                field,
                ic,
            } => {
                let v = operand_value(ctx, frame, obj);
                match struct_get_ic(ctx, &v, field, ic) {
                    Ok(val) => {
                        let frame = frames.last_mut().expect("frame exists");
                        if let Some(t) = target {
                            frame.slots[*t as usize] = val.clone();
                        }
                        if let Some(g) = store_global {
                            ctx.globals[g as usize] = val;
                        }
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::StructSetIC {
                target,
                obj,
                value,
                field,
                ic,
            } => {
                let v = operand_value(ctx, frame, obj);
                let val = operand_value(ctx, frame, value);
                match struct_set_ic(ctx, &v, val, field, ic) {
                    Ok(()) => {
                        let frame = frames.last_mut().expect("frame exists");
                        // Generic struct.set evaluates to Null.
                        if let Some(t) = target {
                            frame.slots[*t as usize] = Value::Null;
                        }
                        if let Some(g) = store_global {
                            ctx.globals[g as usize] = Value::Null;
                        }
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::OverlayGetIC {
                target,
                args,
                oname,
                field,
                ic,
            } => {
                argbuf.clear();
                for a in args.iter() {
                    argbuf.push(operand_value(ctx, frame, a));
                }
                match overlay_get_ic(ctx, argbuf, oname, field, ic) {
                    Ok(val) => {
                        let frame = frames.last_mut().expect("frame exists");
                        if let Some(t) = target {
                            frame.slots[*t as usize] = val.clone();
                        }
                        if let Some(g) = store_global {
                            ctx.globals[g as usize] = val;
                        }
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::CallCallableIC {
                target,
                callable,
                args,
                ic,
            } => {
                if let Some(max) = ctx.limits.max_call_depth {
                    if frames.len() >= max as usize {
                        raise!(RtError::resource_exhausted("call depth limit exceeded"));
                    }
                }
                let frame = frames.last_mut().expect("frame exists");
                let cval = operand_value(ctx, frame, callable);
                let Value::Callable(c) = cval else {
                    raise!(RtError::type_error(format!(
                        "callable.call on {}",
                        cval.type_name()
                    )));
                };
                argbuf.clear();
                for a in args.iter() {
                    argbuf.push(operand_value(ctx, frame, a));
                }
                let Some(fi) = callable_ic_resolve(ctx, prog, &c.func, ic) else {
                    // Host-function callable (or unknown name, which
                    // `call_host` reports exactly like the generic arm).
                    match call_host(prog, ctx, &c.func, &{
                        let mut full = c.bound.clone();
                        full.extend(argbuf.iter().cloned());
                        full
                    }) {
                        Ok(v) => {
                            let frame = frames.last_mut().expect("frame exists");
                            if let Some(t) = target {
                                frame.slots[*t as usize] = v.clone();
                            }
                            if let Some(g) = store_global {
                                ctx.globals[g as usize] = v;
                            }
                            frame.pc += 1;
                            continue 'dispatch;
                        }
                        Err(e) => raise!(e),
                    }
                };
                frame.pc += 1;
                let mut full_args = c.bound.clone();
                full_args.append(argbuf);
                ctx.tier_note_call(prog.funcs.len(), fi, &full_args);
                let mut callee = Frame::new_from_buf(prog, fi, &mut full_args, frame_pool);
                callee.ret_slot = *target;
                callee.ret_global = store_global;
                frames.push(callee);
            }
            // --- specialized tier: clone-free, inline on frame.slots ----
            CInstr::AddInt { dst, a, b } => match (int_src(frame, *a), int_src(frame, *b)) {
                (Ok(x), Ok(y)) => {
                    frame.slots[*dst as usize] = Value::Int(x.wrapping_add(y));
                    frame.pc += 1;
                }
                (Err(e), _) | (_, Err(e)) => raise!(e),
            },
            CInstr::SubInt { dst, a, b } => match (int_src(frame, *a), int_src(frame, *b)) {
                (Ok(x), Ok(y)) => {
                    frame.slots[*dst as usize] = Value::Int(x.wrapping_sub(y));
                    frame.pc += 1;
                }
                (Err(e), _) | (_, Err(e)) => raise!(e),
            },
            CInstr::MulInt { dst, a, b } => match (int_src(frame, *a), int_src(frame, *b)) {
                (Ok(x), Ok(y)) => {
                    frame.slots[*dst as usize] = Value::Int(x.wrapping_mul(y));
                    frame.pc += 1;
                }
                (Err(e), _) | (_, Err(e)) => raise!(e),
            },
            CInstr::BitInt { op, dst, a, b } => match (int_src(frame, *a), int_src(frame, *b)) {
                (Ok(x), Ok(y)) => {
                    frame.slots[*dst as usize] = Value::Int(op.apply(x, y));
                    frame.pc += 1;
                }
                (Err(e), _) | (_, Err(e)) => raise!(e),
            },
            CInstr::CmpInt { cmp, dst, a, b } => match (int_src(frame, *a), int_src(frame, *b)) {
                (Ok(x), Ok(y)) => {
                    frame.slots[*dst as usize] = Value::Bool(cmp.apply(x, y));
                    frame.pc += 1;
                }
                (Err(e), _) | (_, Err(e)) => raise!(e),
            },
            CInstr::BrIfInt {
                cmp,
                a,
                b,
                dst,
                then_pc,
                else_pc,
            } => {
                match (int_src(frame, *a), int_src(frame, *b)) {
                    (Ok(x), Ok(y)) => {
                        let taken = cmp.apply(x, y);
                        // The flag slot is still written: later reads of
                        // the comparison result stay valid.
                        frame.slots[*dst as usize] = Value::Bool(taken);
                        frame.pc = if taken { *then_pc } else { *else_pc };
                    }
                    (Err(e), _) | (_, Err(e)) => raise!(e),
                }
            }
            CInstr::MoveSlot { dst, src } => {
                frame.slots[*dst as usize] = frame.slots[*src as usize].clone();
                frame.pc += 1;
            }
            CInstr::LoadImm { dst, v } => {
                frame.slots[*dst as usize] = v.clone();
                frame.pc += 1;
            }
            CInstr::BrBool {
                cond,
                then_pc,
                else_pc,
            } => match frame.slots[*cond as usize].as_bool() {
                Ok(true) => frame.pc = *then_pc,
                Ok(false) => frame.pc = *else_pc,
                Err(e) => raise!(e),
            },
            CInstr::Jump(pc) => {
                frame.pc = *pc;
            }
            // The generic op's checks in its order: the iterator, then the
            // amount; the byte read raises exactly like `Bytes::at`.
            CInstr::IterIncrBytes { dst, it, n } => {
                let stepped = frame.slots[*it as usize]
                    .as_bytes_iter()
                    .and_then(|i| Ok(i.advance(int_src(frame, *n)?.max(0) as u64)));
                match stepped {
                    Ok(i) => {
                        frame.slots[*dst as usize] = Value::BytesIter(i);
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::IterDerefBytes { dst, it } => {
                match frame.slots[*it as usize]
                    .as_bytes_iter()
                    .and_then(|i| i.deref())
                {
                    Ok(b) => {
                        frame.slots[*dst as usize] = Value::Int(i64::from(b));
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            // Slot-bound accesses reach this arm on a guard miss (or
            // observed, threaded, short of fuel): the generic resolution
            // by name succeeds or raises exactly as the generic op does.
            CInstr::StructGetSlot {
                dst, obj, idents, ..
            } => {
                argbuf.clear();
                argbuf.push(frame.slots[*obj as usize].clone());
                match ops::eval(Opcode::StructGet, argbuf, idents, ctx) {
                    Ok(evaluated) => {
                        let frame = frames.last_mut().expect("frame exists");
                        frame.slots[*dst as usize] = evaluated.value;
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::StructSetSlot {
                target,
                obj,
                value,
                idents,
                ..
            } => {
                argbuf.clear();
                argbuf.push(frame.slots[*obj as usize].clone());
                argbuf.push(operand_value(ctx, frame, value));
                match ops::eval(Opcode::StructSet, argbuf, idents, ctx) {
                    Ok(evaluated) => {
                        let frame = frames.last_mut().expect("frame exists");
                        if let Some(t) = target {
                            frame.slots[*t as usize] = evaluated.value;
                        }
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::TupleGetSlot { dst, tup, idx } => {
                argbuf.clear();
                argbuf.push(frame.slots[*tup as usize].clone());
                argbuf.push(Value::Int(i64::from(*idx)));
                match ops::eval(Opcode::TupleGet, argbuf, &[], ctx) {
                    Ok(evaluated) => {
                        let frame = frames.last_mut().expect("frame exists");
                        frame.slots[*dst as usize] = evaluated.value;
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::BoolSlot { op, dst, a, b } => {
                // `ops::eval`'s `a && b` / `a || b` over `as_bool`, with
                // its short circuit and its errors.
                let r = frame.slots[*a as usize].as_bool().and_then(|x| {
                    if x == op.short_circuit() {
                        Ok(x)
                    } else {
                        frame.slots[*b as usize].as_bool()
                    }
                });
                match r {
                    Ok(r) => {
                        frame.slots[*dst as usize] = Value::Bool(r);
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }
            CInstr::EqualSlot { negate, dst, a, b } => {
                let eq = local_operand(frame, a).equals(local_operand(frame, b));
                frame.slots[*dst as usize] = Value::Bool(eq != *negate);
                frame.pc += 1;
            }
            // Observed, threaded or short of fuel/input: the fused read
            // runs as its first constituent only.
            CInstr::ReadUInt { acc, .. } => {
                frame.slots[*acc as usize] = Value::Int(0);
                frame.pc += 1;
            }
            CInstr::Branch {
                cond,
                then_pc,
                else_pc,
            } => {
                let v = operand_value(ctx, frame, cond);
                match v.as_bool() {
                    Ok(true) => frame.pc = *then_pc,
                    Ok(false) => frame.pc = *else_pc,
                    Err(e) => raise!(e),
                }
            }
            CInstr::Return(v) => {
                let value = match v {
                    Some(op) => operand_value(ctx, frame, op),
                    None => Value::Null,
                };
                let mut finished = frames.pop().expect("frame exists");
                // Recycle the finished frame's slot storage (bounded).
                if frame_pool.len() < SLOT_POOL_CAP {
                    let mut slots = std::mem::take(&mut finished.slots);
                    slots.clear();
                    frame_pool.push(slots);
                }
                match frames.last_mut() {
                    None => return Ok(Outcome::Done(value)),
                    Some(caller) => {
                        if let Some(t) = finished.ret_slot {
                            caller.slots[t as usize] = value.clone();
                        }
                        if let Some(g) = finished.ret_global {
                            ctx.globals[g as usize] = value;
                        }
                    }
                }
            }
            CInstr::PushHandler { pc, kind, binder } => {
                frame.handlers.push(Handler {
                    pc: *pc,
                    kind: kind.clone(),
                    binder: *binder,
                });
                frame.pc += 1;
            }
            CInstr::PopHandler => {
                frame.handlers.pop();
                frame.pc += 1;
            }
            CInstr::Yield => {
                frame.pc += 1;
                if resumable {
                    return Ok(Outcome::Suspended(std::mem::take(frames)));
                }
                // Outside a fiber, yield is a no-op scheduling point.
            }
            CInstr::GlobalStore { .. } => unreachable!("unwrapped above"),
        }
    }
}

/// Why the threaded executor handed control back to the generic loop.
enum TExit {
    /// The top frame changed to one without a threaded body — a call into
    /// cold code, or a return past this session's entry frame. Re-poll and
    /// continue wherever the new top frame is.
    Frame,
    /// The op at the current pc needs the generic path: a deopt site, a
    /// type error, an IC miss, an over-limit call, or the local fuel
    /// window running dry. Nothing was charged for that op; the generic
    /// loop executes exactly one instruction (charging, raising, tracing
    /// and counting it through the usual single path) before re-entering.
    Stuck,
}

/// The direct-threaded executor (see `crate::threaded`): runs pre-bound
/// ops for the top frame — and chains into hot callees without leaving the
/// loop — until something needs the generic dispatch path.
///
/// Fuel mirrors the specialized fast loop exactly: a local countdown,
/// checked before each op and decremented on success, clamped to one
/// watchdog window while a delivery deadline is armed, and booked back in
/// a single batch on exit. Ops that would raise exit `Stuck` *without*
/// advancing pc or charging, so the generic re-execution charges once and
/// raises through the one exception path — byte-identical governance.
fn run_threaded(
    prog: &CompiledProgram,
    ctx: &mut Context,
    frames: &mut Vec<Frame>,
    entry: Rc<ThreadedFunc>,
    argbuf: &mut Vec<Value>,
    frame_pool: &mut Vec<Vec<Value>>,
) -> TExit {
    let fuel_start = ctx.fuel_left;
    let clamp = if ctx.deadline_armed() {
        fuel_start.min(WATCHDOG_CHECK_UNITS)
    } else {
        fuel_start
    };
    let mut fuel = clamp;
    let mut code = entry;
    // Threaded bodies of callers suspended by in-loop calls this session;
    // popping one resumes the caller without re-polling.
    let mut callers: Vec<Rc<ThreadedFunc>> = Vec::new();
    // The executor *owns* the top frame for the session: calls push the
    // suspended caller onto `frames` and swap the callee in, returns swap
    // the caller back — so the hot loop never re-borrows the frame stack.
    // Every exit path re-pushes `cur`, restoring the `run` invariant that
    // the executing frame is `frames.last()`.
    let mut cur = match frames.pop() {
        Some(f) => f,
        None => return TExit::Stuck,
    };

    /// Reads a pre-bound operand into an owned value.
    macro_rules! tsrc {
        ($a:expr) => {
            match $a {
                TSrc::Slot(s) => cur.slots[*s as usize].clone(),
                TSrc::Global(g) => ctx.globals[*g as usize].clone(),
                TSrc::Value(v) => v.clone(),
            }
        };
    }

    let exit = loop {
        let Some(op) = code.ops.get(cur.pc as usize) else {
            // Out-of-range pc: the generic loop owns the error.
            break TExit::Stuck;
        };
        match op {
            TOp::AddInt { dst, a, b } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                match (int_operand(&cur, *a), int_operand(&cur, *b)) {
                    (Some(x), Some(y)) => {
                        cur.slots[*dst as usize] = Value::Int(x.wrapping_add(y));
                        cur.pc += 1;
                        fuel -= 1;
                    }
                    _ => break TExit::Stuck,
                }
            }
            TOp::SubInt { dst, a, b } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                match (int_operand(&cur, *a), int_operand(&cur, *b)) {
                    (Some(x), Some(y)) => {
                        cur.slots[*dst as usize] = Value::Int(x.wrapping_sub(y));
                        cur.pc += 1;
                        fuel -= 1;
                    }
                    _ => break TExit::Stuck,
                }
            }
            TOp::MulInt { dst, a, b } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                match (int_operand(&cur, *a), int_operand(&cur, *b)) {
                    (Some(x), Some(y)) => {
                        cur.slots[*dst as usize] = Value::Int(x.wrapping_mul(y));
                        cur.pc += 1;
                        fuel -= 1;
                    }
                    _ => break TExit::Stuck,
                }
            }
            TOp::BitInt { op, dst, a, b } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                match (int_operand(&cur, *a), int_operand(&cur, *b)) {
                    (Some(x), Some(y)) => {
                        cur.slots[*dst as usize] = Value::Int(op.apply(x, y));
                        cur.pc += 1;
                        fuel -= 1;
                    }
                    _ => break TExit::Stuck,
                }
            }
            TOp::CmpInt { cmp, dst, a, b } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                match (int_operand(&cur, *a), int_operand(&cur, *b)) {
                    (Some(x), Some(y)) => {
                        cur.slots[*dst as usize] = Value::Bool(cmp.apply(x, y));
                        cur.pc += 1;
                        fuel -= 1;
                    }
                    _ => break TExit::Stuck,
                }
            }
            TOp::BrIfInt {
                cmp,
                a,
                b,
                dst,
                then_pc,
                else_pc,
            } => {
                // Fused compare + branch: costs its two constituents.
                if fuel < 2 {
                    break TExit::Stuck;
                }
                match (int_operand(&cur, *a), int_operand(&cur, *b)) {
                    (Some(x), Some(y)) => {
                        let taken = cmp.apply(x, y);
                        cur.slots[*dst as usize] = Value::Bool(taken);
                        cur.pc = if taken { *then_pc } else { *else_pc };
                        fuel -= 2;
                    }
                    _ => break TExit::Stuck,
                }
            }
            TOp::MoveSlot { dst, src } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                cur.slots[*dst as usize] = cur.slots[*src as usize].clone();
                cur.pc += 1;
                fuel -= 1;
            }
            TOp::LoadImm { dst, v } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                cur.slots[*dst as usize] = v.clone();
                cur.pc += 1;
                fuel -= 1;
            }
            TOp::BrBool {
                cond,
                then_pc,
                else_pc,
            } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                match cur.slots.get(*cond as usize) {
                    Some(Value::Bool(b)) => {
                        cur.pc = if *b { *then_pc } else { *else_pc };
                        fuel -= 1;
                    }
                    _ => break TExit::Stuck,
                }
            }
            TOp::Jump(pc) => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                cur.pc = *pc;
                fuel -= 1;
            }
            TOp::Branch {
                cond,
                then_pc,
                else_pc,
            } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                let condv = match cond {
                    TSrc::Slot(s) => cur.slots.get(*s as usize),
                    TSrc::Global(g) => ctx.globals.get(*g as usize),
                    TSrc::Value(v) => Some(v),
                };
                match condv {
                    Some(Value::Bool(b)) => {
                        cur.pc = if *b { *then_pc } else { *else_pc };
                        fuel -= 1;
                    }
                    _ => break TExit::Stuck,
                }
            }
            TOp::PushHandler { pc, kind, binder } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                cur.handlers.push(Handler {
                    pc: *pc,
                    kind: Rc::clone(kind),
                    binder: *binder,
                });
                cur.pc += 1;
                fuel -= 1;
            }
            TOp::PopHandler => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                cur.handlers.pop();
                cur.pc += 1;
                fuel -= 1;
            }
            TOp::StructGetIC { target, obj, ic } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                // Hit path only. Any miss, type error, or unset field
                // deopts *before* touching the counters; the generic IC
                // arm then re-executes the op, owning resolution, refill,
                // hit/miss accounting and error semantics — so counters
                // never double-book.
                let objv = match obj {
                    TSrc::Slot(s) => &cur.slots[*s as usize],
                    TSrc::Global(g) => &ctx.globals[*g as usize],
                    TSrc::Value(v) => v,
                };
                let Value::Struct(s) = objv else {
                    break TExit::Stuck;
                };
                let s = Rc::clone(s);
                let val = {
                    let sb = s.borrow();
                    let tn: &str = &sb.type_name;
                    let site = ic.borrow();
                    let idx = if site.deopt {
                        None
                    } else {
                        site.entries.iter().find_map(|e| match e {
                            IcEntry::Struct {
                                type_name,
                                field_idx,
                            } if &**type_name == tn => Some(*field_idx as usize),
                            _ => None,
                        })
                    };
                    let Some(idx) = idx else {
                        break TExit::Stuck;
                    };
                    sb.fields[idx].clone()
                };
                if matches!(val, Value::Null) {
                    break TExit::Stuck;
                }
                ic.borrow_mut().hits += 1;
                ctx.ic_hit();
                if let Some(t) = target {
                    cur.slots[*t as usize] = val;
                }
                cur.pc += 1;
                fuel -= 1;
            }
            TOp::StructSetIC {
                target,
                obj,
                value,
                ic,
            } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                let objv = match obj {
                    TSrc::Slot(s) => &cur.slots[*s as usize],
                    TSrc::Global(g) => &ctx.globals[*g as usize],
                    TSrc::Value(v) => v,
                };
                let Value::Struct(s) = objv else {
                    break TExit::Stuck;
                };
                let s = Rc::clone(s);
                let idx = {
                    let sb = s.borrow();
                    let tn: &str = &sb.type_name;
                    let site = ic.borrow();
                    if site.deopt {
                        None
                    } else {
                        site.entries.iter().find_map(|e| match e {
                            IcEntry::Struct {
                                type_name,
                                field_idx,
                            } if &**type_name == tn => Some(*field_idx as usize),
                            _ => None,
                        })
                    }
                };
                let Some(idx) = idx else {
                    break TExit::Stuck;
                };
                let val = tsrc!(value);
                s.borrow_mut().fields[idx] = val;
                ic.borrow_mut().hits += 1;
                ctx.ic_hit();
                if let Some(t) = target {
                    // Generic struct.set evaluates to Null.
                    cur.slots[*t as usize] = Value::Null;
                }
                cur.pc += 1;
                fuel -= 1;
            }
            TOp::Return(src) => {
                // The outermost return must produce `Outcome::Done` on the
                // generic path: never unwind past the stack's last frame.
                if fuel < 1 || frames.is_empty() {
                    break TExit::Stuck;
                }
                let value = match src {
                    None => Value::Null,
                    Some(s) => tsrc!(s),
                };
                fuel -= 1;
                let mut finished =
                    std::mem::replace(&mut cur, frames.pop().expect("non-empty checked"));
                // Recycle the finished frame's slot storage (bounded).
                if frame_pool.len() < SLOT_POOL_CAP {
                    // Parked uncleared: stale values are dropped in one
                    // pass when the storage is reused (generic consumers
                    // `clear` + `resize`, which handles this too).
                    frame_pool.push(std::mem::take(&mut finished.slots));
                }
                match (finished.ret_slot, finished.ret_global) {
                    (Some(t), None) => cur.slots[t as usize] = value,
                    (None, Some(g)) => ctx.globals[g as usize] = value,
                    (Some(t), Some(g)) => {
                        cur.slots[t as usize] = value.clone();
                        ctx.globals[g as usize] = value;
                    }
                    (None, None) => {}
                }
                match callers.pop() {
                    Some(c) => code = c,
                    // Returned past the session's entry frame: the caller
                    // may be anything — re-poll from the dispatch loop.
                    None => break TExit::Frame,
                }
            }
            TOp::Call {
                func,
                args,
                ret_slot,
                ret_global,
            } => {
                if fuel < 1 {
                    break TExit::Stuck;
                }
                if let Some(max) = ctx.limits.max_call_depth {
                    // Over the limit the generic arm charges and then
                    // raises; deopt pre-charge so it does exactly that.
                    if frames.len() + 1 >= max as usize {
                        break TExit::Stuck;
                    }
                }
                // Self-recursion (the dominant hot-call shape) reuses the
                // current body without consulting the tier engine; tiered
                // code is installed once and never replaced, so this is
                // exactly what the lookup would return.
                let hot = if *func == cur.func {
                    Some(Rc::clone(&code))
                } else {
                    ctx.tier_threaded(*func)
                };
                match hot {
                    Some(tf) => {
                        // Hot-to-hot: build the callee frame directly from
                        // the caller's slots — no argument buffer round
                        // trip. (`note_call` is skipped: for a function
                        // with installed code it is a no-op by
                        // construction.)
                        let callee_cf = &prog.funcs[*func as usize];
                        let n = callee_cf.n_slots as usize;
                        // Recycled frames keep their stale values (the
                        // return path skips `clear`); one fused pass here
                        // drops them and null-initializes — much cheaper
                        // than `clear` + `resize`, whose separate drop and
                        // extend loops dominate the call cost for 48-byte
                        // values.
                        let mut slots = match frame_pool.pop() {
                            Some(mut v) => {
                                if v.len() == n {
                                    for s in v.iter_mut() {
                                        *s = Value::Null;
                                    }
                                } else {
                                    v.clear();
                                    v.resize(n, Value::Null);
                                }
                                v
                            }
                            None => vec![Value::Null; n],
                        };
                        for (i, a) in args.iter().enumerate().take(callee_cf.n_params as usize) {
                            slots[i] = tsrc!(a);
                        }
                        cur.pc += 1;
                        fuel -= 1;
                        let callee = Frame {
                            func: *func,
                            pc: 0,
                            slots,
                            handlers: Vec::new(),
                            ret_slot: *ret_slot,
                            ret_global: *ret_global,
                        };
                        frames.push(std::mem::replace(&mut cur, callee));
                        callers.push(std::mem::replace(&mut code, tf));
                    }
                    None => {
                        // Cold callee: replicate the generic Call arm
                        // exactly — argument buffer, invocation edge to
                        // the tier engine, pooled frame — then hand the
                        // new top frame back to the dispatch loop.
                        argbuf.clear();
                        for a in args.iter() {
                            argbuf.push(tsrc!(a));
                        }
                        cur.pc += 1;
                        fuel -= 1;
                        ctx.tier_note_call(prog.funcs.len(), *func, argbuf);
                        let mut callee = Frame::new_from_buf(prog, *func, argbuf, frame_pool);
                        callee.ret_slot = *ret_slot;
                        callee.ret_global = *ret_global;
                        frames.push(std::mem::replace(&mut cur, callee));
                        break TExit::Frame;
                    }
                }
            }
            TOp::Deopt => break TExit::Stuck,
        }
    };
    // Restore the `run` invariant: the executing frame tops the stack.
    frames.push(cur);
    // The loop only ever decrements, so the delta is exact; book it back
    // in one batch, exactly like the specialized fast loop.
    let used = clamp - fuel;
    ctx.fuel_spent = ctx.fuel_spent.wrapping_add(used);
    ctx.fuel_left = fuel_start - used;
    if ctx.watchdog_at.is_some() {
        ctx.watchdog_acc = ctx.watchdog_acc.saturating_add(used);
    }
    ctx.tier_retired.threaded += used;
    exit
}

/// Runs a callable value synchronously (used for fired timers).
pub fn run_callable(
    prog: &CompiledProgram,
    ctx: &mut Context,
    c: &CallableVal,
    extra: &[Value],
) -> RtResult<Value> {
    let mut args = c.bound.clone();
    args.extend(extra.iter().cloned());
    if let Some(fi) = prog.func_index.get(&*c.func).copied() {
        match run_entry(prog, ctx, fi, &args, false)? {
            Outcome::Done(v) => Ok(v),
            Outcome::Suspended(_) => unreachable!("non-resumable"),
        }
    } else {
        call_host(prog, ctx, &c.func, &args)
    }
}

// --- inline-cache resolution -----------------------------------------------
// Shared by the IC dispatch arms. Each helper replicates the generic
// `ops::eval` semantics byte for byte (error kinds, messages, evaluation
// order); the cache only short-circuits the *resolution* step. A miss falls
// back to the generic lookup and refills the site — until `IcSite::cap`
// distinct entries have been seen, at which point the site de-optimizes and
// resolves generically forever.

/// Resolves a struct field index through the site cache, keyed on the
/// struct's type name.
fn struct_ic_index(
    ctx: &Context,
    ic: &RefCell<IcSite>,
    type_name: &str,
    field: &str,
) -> RtResult<usize> {
    let mut site = ic.borrow_mut();
    if !site.deopt {
        let cached = site.entries.iter().find_map(|e| match e {
            IcEntry::Struct {
                type_name: t,
                field_idx,
            } if &**t == type_name => Some(*field_idx as usize),
            _ => None,
        });
        if let Some(idx) = cached {
            site.hits += 1;
            ctx.ic_hit();
            return Ok(idx);
        }
    }
    site.misses += 1;
    ctx.ic_miss();
    // Generic resolution against the borrowed layout — the same lookup and
    // errors as `ops::struct_field_index`; the refilled entry shares the
    // layout's interned name, so a miss allocates nothing either.
    let layout = ctx
        .struct_layouts
        .get(type_name)
        .ok_or_else(|| RtError::type_error(format!("unknown struct type {type_name}")))?;
    let idx = layout.field_index(field)?;
    site.refill(IcEntry::Struct {
        type_name: Rc::clone(&layout.name),
        field_idx: idx as u32,
    });
    Ok(idx)
}

/// `struct.get` through the site cache.
fn struct_get_ic(ctx: &Context, v: &Value, field: &str, ic: &RefCell<IcSite>) -> RtResult<Value> {
    let Value::Struct(s) = v else {
        return Err(RtError::type_error(format!(
            "expected struct, got {}",
            v.type_name()
        )));
    };
    let sb = s.borrow();
    let idx = struct_ic_index(ctx, ic, &sb.type_name, field)?;
    let val = sb.fields[idx].clone();
    if matches!(val, Value::Null) {
        return Err(RtError::new(
            ExceptionKind::IndexError,
            format!("field {field} is unset"),
        ));
    }
    Ok(val)
}

/// `struct.set` through the site cache.
fn struct_set_ic(
    ctx: &Context,
    v: &Value,
    val: Value,
    field: &str,
    ic: &RefCell<IcSite>,
) -> RtResult<()> {
    let Value::Struct(s) = v else {
        return Err(RtError::type_error(format!(
            "expected struct, got {}",
            v.type_name()
        )));
    };
    let idx = {
        let sb = s.borrow();
        struct_ic_index(ctx, ic, &sb.type_name, field)?
    };
    s.borrow_mut().fields[idx] = val;
    Ok(())
}

/// `overlay.get` with the resolved overlay descriptor cached. The site is
/// keyed by the (site-static) overlay name, so it is trivially monomorphic;
/// the win is skipping the name → descriptor map lookup and `Rc` clone.
fn overlay_get_ic(
    ctx: &Context,
    args: &[Value],
    oname: &str,
    field: &str,
    ic: &RefCell<IcSite>,
) -> RtResult<Value> {
    let overlay = {
        let mut site = ic.borrow_mut();
        let cached = if site.deopt {
            None
        } else {
            site.entries.iter().find_map(|e| match e {
                IcEntry::Overlay { overlay } => Some(Rc::clone(overlay)),
                _ => None,
            })
        };
        match cached {
            Some(o) => {
                site.hits += 1;
                ctx.ic_hit();
                o
            }
            None => {
                site.misses += 1;
                ctx.ic_miss();
                let o = ctx
                    .overlays
                    .get(oname)
                    .cloned()
                    .ok_or_else(|| RtError::type_error(format!("unknown overlay {oname}")))?;
                site.refill(IcEntry::Overlay {
                    overlay: Rc::clone(&o),
                });
                o
            }
        }
    };
    // Same evaluation order as the generic arm: overlay resolution first,
    // then the base offset, then the bytes access.
    let base = match args.get(1) {
        Some(v) => v.as_int()?.max(0) as u64,
        None => args[0].as_bytes()?.begin_offset(),
    };
    let unpacked = overlay.get(args[0].as_bytes()?, base, field)?;
    Ok(match unpacked {
        Unpacked::UInt(u) => Value::Int(u as i64),
        Unpacked::Addr(a) => Value::Addr(a),
        Unpacked::Bytes(b) => Value::Bytes(Bytes::frozen_from_slice(&b)),
    })
}

/// Resolves a callable's target through the site cache: `Some(idx)` for a
/// HILTI function, `None` for the host-function path (including unknown
/// names, which `call_host` reports exactly like the generic arm). The
/// fast path compares the interned callee name by pointer first.
fn callable_ic_resolve(
    ctx: &Context,
    prog: &CompiledProgram,
    name: &Rc<str>,
    ic: &RefCell<IcSite>,
) -> Option<u32> {
    let mut site = ic.borrow_mut();
    if !site.deopt {
        let cached = site.entries.iter().find_map(|e| match e {
            IcEntry::Callee { name: n, func } if Rc::ptr_eq(n, name) || **n == **name => {
                Some(*func)
            }
            _ => None,
        });
        if let Some(func) = cached {
            site.hits += 1;
            ctx.ic_hit();
            return func;
        }
    }
    site.misses += 1;
    ctx.ic_miss();
    let func = prog.func_index.get(&**name).copied();
    site.refill(IcEntry::Callee {
        name: Rc::clone(name),
        func,
    });
    func
}

/// Calls a host-registered or builtin function.
fn call_host(
    _prog: &CompiledProgram,
    ctx: &mut Context,
    name: &str,
    args: &[Value],
) -> RtResult<Value> {
    // Builtins.
    if name == "Hilti::print" {
        let line = args
            .iter()
            .map(Value::render)
            .collect::<Vec<_>>()
            .join(", ");
        ctx.output(line);
        return Ok(Value::Null);
    }
    let Some(f) = ctx.host_fns.get(name).cloned() else {
        return Err(RtError::value(format!("unknown function {name}")));
    };
    let mut f = f.borrow_mut();
    f(args)
}

/// Finds and dispatches to the innermost matching handler, unwinding
/// frames as needed; errors if nothing catches.
fn dispatch_exception(frames: &mut Vec<Frame>, err: RtError) -> RtResult<()> {
    loop {
        let Some(frame) = frames.last_mut() else {
            return Err(err);
        };
        // Innermost handler first.
        while let Some(h) = frame.handlers.pop() {
            let matches = &*h.kind == "*" || ops::exception_kind_from_name(&h.kind) == err.kind;
            if matches {
                if let Some(b) = h.binder {
                    frame.slots[b as usize] = ops::exception_value(&err);
                }
                frame.pc = h.pc;
                return Ok(());
            }
        }
        frames.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Program;

    fn program(src: &str) -> Program {
        Program::from_source(src).expect("test program compiles")
    }

    #[test]
    fn global_store_wraps_data_ops() {
        let mut p = program(
            r#"
module M
global int<64> g = 10
void bump() {
    g = int.add g 5
}
int<64> get() {
    return g
}
"#,
        );
        p.run_void("M::bump", &[]).unwrap();
        p.run_void("M::bump", &[]).unwrap();
        assert!(p.run("M::get", &[]).unwrap().equals(&Value::Int(20)));
    }

    #[test]
    fn global_store_wraps_call_returns() {
        // `g = call f(...)`: the callee's return value must land in the
        // global through the GlobalStore/ret_global path.
        let mut p = program(
            r#"
module M
global int<64> g = 0
int<64> produce(int<64> x) {
    local int<64> y
    y = int.mul x 3
    return y
}
void set_it() {
    g = call produce (14)
}
int<64> get() {
    return g
}
"#,
        );
        p.run_void("M::set_it", &[]).unwrap();
        assert!(p.run("M::get", &[]).unwrap().equals(&Value::Int(42)));
    }

    #[test]
    fn exceptions_unwind_across_frames() {
        // The thrower has no handler; the caller's caller catches.
        let mut p = program(
            r#"
module M
void boom() {
    exception.throw Hilti::IndexError "deep"
}
void middle() {
    call boom ()
}
string top() {
    try {
        call middle ()
    } catch ( ref<Hilti::IndexError> e ) {
        local string m
        m = exception.message e
        return m
    }
    return "no exception"
}
"#,
        );
        let v = p.run("M::top", &[]).unwrap();
        assert_eq!(v.render(), "deep");
    }

    #[test]
    fn handler_kinds_filter_during_unwind() {
        let mut p = program(
            r#"
module M
void boom() {
    exception.throw Hilti::ValueError "v"
}
string top() {
    try {
        try {
            call boom ()
        } catch ( ref<Hilti::IndexError> e ) {
            return "wrong handler"
        }
    } catch ( ref<Hilti::ValueError> e2 ) {
        return "right handler"
    }
    return "none"
}
"#,
        );
        assert_eq!(p.run("M::top", &[]).unwrap().render(), "right handler");
    }

    #[test]
    fn int_fast_path_type_errors_are_catchable() {
        // An `any`-typed operand stays on the generic path (the
        // specializer must not touch it), and a non-int value raises a
        // TypeError that handlers can catch.
        let mut p = program(
            r#"
module M
int<64> f(any x) {
    local int<64> y
    try {
        y = int.add x 1
    } catch ( exception e ) {
        return -1
    }
    return y
}
"#,
        );
        assert!(p
            .run("M::f", &[Value::Int(41)])
            .unwrap()
            .equals(&Value::Int(42)));
        assert!(p
            .run("M::f", &[Value::str("nope")])
            .unwrap()
            .equals(&Value::Int(-1)));
    }

    #[test]
    fn yield_outside_fiber_is_noop() {
        let mut p = program(
            r#"
module M
int<64> f() {
    yield
    yield
    return 7
}
"#,
        );
        assert!(p.run("M::f", &[]).unwrap().equals(&Value::Int(7)));
    }

    #[test]
    fn deep_call_stack_via_explicit_frames() {
        // The VM's heap frames allow recursion far past Rust's stack
        // limits for an equivalent native recursion in debug builds.
        let mut p = program(
            r#"
module M
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
"#,
        );
        let v = p.run("M::down", &[Value::Int(50_000)]).unwrap();
        assert!(v.equals(&Value::Int(50_000)));
    }

    #[test]
    fn uncaught_exception_reports_kind() {
        let mut p =
            program("module M\nvoid f() {\n    exception.throw Hilti::PatternError \"bad\"\n}\n");
        let e = p.run_void("M::f", &[]).unwrap_err();
        assert_eq!(e.kind, hilti_rt::error::ExceptionKind::PatternError);
        assert_eq!(e.message, "bad");
    }

    #[test]
    fn context_profiler_spans() {
        let prog = crate::bytecode::compile(
            &crate::linker::link_with_priorities(vec![crate::parser::parse_module(
                "module M\nvoid f() {\n    profiler.start p1\n    profiler.stop p1\n    profiler.count c1 3\n}\n",
            )
            .unwrap()])
            .unwrap(),
        )
        .unwrap();
        let mut ctx = Context::for_program(&prog);
        call(&prog, &mut ctx, "M::f", &[]).unwrap();
        assert_eq!(ctx.profile_counter("c1"), 3);
    }

    #[test]
    fn channels_between_contexts() {
        // A channel value created in one program context and read through
        // HILTI instructions.
        let mut p = program(
            r#"
module M
int<64> roundtrip(int<64> x) {
    local ref<channel<int<64>>> ch
    local int<64> got
    ch = new channel<int<64>>
    channel.write ch x
    channel.write ch 99
    got = channel.read ch
    return got
}
"#,
        );
        assert!(p
            .run("M::roundtrip", &[Value::Int(5)])
            .unwrap()
            .equals(&Value::Int(5)));
    }

    #[test]
    fn iosrc_reads_host_supplied_packets() {
        let mut p = program(
            r#"
module M
int<64> drain(ref<iosrc> src) {
    local any pkt
    local bool ok
    local int<64> n
    n = assign 0
loop:
    pkt = iosrc.read src
    ok = tuple.get pkt 0
    if.else ok count done
count:
    n = int.add n 1
    jump loop
done:
    return n
}
"#,
        );
        // Install a source yielding three packets.
        p.context_mut().register_iosrc("trace", || {
            let mut k = 0;
            let src = crate::value::IoSource {
                name: "trace".into(),
                producer: Box::new(move || {
                    k += 1;
                    if k <= 3 {
                        Some((hilti_rt::time::Time::from_secs(k), vec![0u8; 10]))
                    } else {
                        None
                    }
                }),
            };
            // producer closure state resets per open; fine for this test
            Ok(Value::IOSrc(std::rc::Rc::new(RefCell::new(src))))
        });
        let opened = {
            let prog = p.compiled().clone();
            let mut ctx_src = crate::ops::ExecCtx::open_iosrc(p.context_mut(), "trace").unwrap();
            let _ = &prog;
            std::mem::replace(&mut ctx_src, Value::Null)
        };
        let v = p.run("M::drain", &[opened]).unwrap();
        assert!(v.equals(&Value::Int(3)));
    }
}
