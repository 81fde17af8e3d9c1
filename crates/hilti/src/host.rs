//! The host-application API (§3.4).
//!
//! This is the analog of the paper's generated C stubs plus the C++ AST
//! interface: a host application either parses textual HILTI source or
//! builds [`crate::ir::Module`]s programmatically, then obtains a
//! [`Program`] — parsed, linked, checked, optimized, and lowered to
//! bytecode ("all the way from user-level specification to native code on
//! the fly"). The program exposes function calls in both directions,
//! fibers for incremental processing, and access to output, logs, and
//! profiling.

use hilti_rt::error::RtResult;

use crate::bytecode::{compile, CompiledProgram};
use crate::check;
use crate::fiber::Fiber;
use crate::ir::Module;
use crate::linker::{link_with_priorities, Linked};
use crate::ops::ExecCtx;
use crate::passes::{optimize_linked, OptLevel, PassStats};
use crate::specialize::SpecStats;
use crate::value::Value;
use crate::vm::{self, Context};

/// Build-time options beyond the optimization level.
#[derive(Clone, Debug)]
pub struct BuildOptions {
    /// Insert per-function profiling spans (§3.3).
    pub instrument: bool,
    /// When set, prune functions unreachable from these roots (and from
    /// hooks) — §7's link-time elimination of code "statically determined
    /// as unreachable with the host application's parameterization".
    pub prune_roots: Option<Vec<String>>,
    /// Run the bytecode specialization pass (`crate::specialize`): typed
    /// fast-path instructions and fused compare-and-branch. On by default;
    /// switch off to ablate the tier (see `bench/benches/dispatch.rs`).
    pub specialize: bool,
    /// Profile-guided adaptive tiering (see `crate::tier`). `None` (the
    /// default) keeps the static behaviour: specialize everything at build
    /// time per `specialize`. `Some(mode)` switches to runtime feedback:
    /// the static pass is skipped, every function starts generic, and the
    /// context's tier engine re-lowers hot functions with observed types
    /// and inline caches (`off` never tiers — the measurement baseline;
    /// `threaded` additionally compiles promoted functions into
    /// direct-threaded ops, the top rung of the tier ladder).
    pub tiering: Option<crate::tier::TieringMode>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            instrument: false,
            prune_roots: None,
            specialize: true,
            tiering: None,
        }
    }
}

/// The `Send` front-end half of a build: linked, checked, optimized IR
/// waiting for per-thread bytecode lowering. Produced by
/// [`Program::front_end`], consumed by [`Program::from_ir`].
#[derive(Clone)]
pub struct ProgramIr {
    linked: Linked,
    pass_stats: PassStats,
    warnings: Vec<check::Diagnostic>,
    options: BuildOptions,
}

/// A ready-to-run HILTI program: linked IR plus compiled bytecode plus the
/// execution context (thread-local state of virtual thread 0).
pub struct Program {
    linked: Linked,
    compiled: CompiledProgram,
    ctx: Context,
    pass_stats: PassStats,
    spec_stats: SpecStats,
    warnings: Vec<check::Diagnostic>,
}

impl Program {
    /// Builds a program from one textual source unit with full optimization.
    pub fn from_source(src: &str) -> RtResult<Program> {
        Self::from_sources(&[src], OptLevel::Full)
    }

    /// Builds a program from several textual units.
    pub fn from_sources(srcs: &[&str], opt: OptLevel) -> RtResult<Program> {
        let modules = srcs
            .iter()
            .map(|s| crate::parser::parse_module(s))
            .collect::<RtResult<Vec<_>>>()?;
        Self::from_modules(modules, opt)
    }

    /// Builds a program from textual units with explicit build options
    /// (e.g. `specialize: false` for the dispatch-tier ablation).
    pub fn from_sources_opts(
        srcs: &[&str],
        opt: OptLevel,
        options: BuildOptions,
    ) -> RtResult<Program> {
        let modules = srcs
            .iter()
            .map(|s| crate::parser::parse_module(s))
            .collect::<RtResult<Vec<_>>>()?;
        Self::build(modules, opt, options)
    }

    /// Builds with per-function profiling instrumentation (§3.3): every
    /// function's execution time accumulates under `fn:<name>` spans in
    /// the context's profiler.
    pub fn from_sources_instrumented(srcs: &[&str], opt: OptLevel) -> RtResult<Program> {
        let modules = srcs
            .iter()
            .map(|s| crate::parser::parse_module(s))
            .collect::<RtResult<Vec<_>>>()?;
        Self::from_modules_opts(modules, opt, true)
    }

    /// Builds a program from in-memory modules (the AST-API path host
    /// compilers use).
    pub fn from_modules(modules: Vec<Module>, opt: OptLevel) -> RtResult<Program> {
        Self::from_modules_opts(modules, opt, false)
    }

    /// Like [`Program::from_modules`], optionally inserting
    /// function-granularity profiling instrumentation (§3.3).
    pub fn from_modules_opts(
        modules: Vec<Module>,
        opt: OptLevel,
        instrument: bool,
    ) -> RtResult<Program> {
        Self::build(
            modules,
            opt,
            BuildOptions {
                instrument,
                ..Default::default()
            },
        )
    }

    /// The full build pipeline with all options.
    pub fn build(modules: Vec<Module>, opt: OptLevel, options: BuildOptions) -> RtResult<Program> {
        Self::from_ir(Self::front_end_modules(modules, opt, options)?)
    }

    /// The front half of [`Program::build`]: parse → link → check →
    /// prune → optimize → instrument, stopping before bytecode. The
    /// result is `Clone + Send`, so a dispatcher can run the expensive
    /// front end **once** and every worker thread materializes its own
    /// [`Program`] from a clone with [`Program::from_ir`] — bytecode and
    /// execution context stay thread-private (inline-cache sites are
    /// `Rc`-based and must never be shared across threads).
    pub fn front_end(srcs: &[&str], opt: OptLevel, options: BuildOptions) -> RtResult<ProgramIr> {
        let modules = srcs
            .iter()
            .map(|s| crate::parser::parse_module(s))
            .collect::<RtResult<Vec<_>>>()?;
        Self::front_end_modules(modules, opt, options)
    }

    /// Like [`Program::front_end`], from in-memory modules.
    pub fn front_end_modules(
        modules: Vec<Module>,
        opt: OptLevel,
        options: BuildOptions,
    ) -> RtResult<ProgramIr> {
        let mut linked = link_with_priorities(modules)?;
        let warnings = check::check(&linked)?;
        if let Some(roots) = &options.prune_roots {
            let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
            crate::linker::prune_unreachable(&mut linked, &refs);
        }
        let pass_stats = optimize_linked(&mut linked, opt);
        if options.instrument {
            crate::passes::instrument_functions(&mut linked);
        }
        Ok(ProgramIr {
            linked,
            pass_stats,
            warnings,
            options,
        })
    }

    /// The back half of [`Program::build`]: lower the optimized IR to
    /// bytecode, run static specialization, and wire a fresh execution
    /// context. Cheap relative to the front end — this is the per-thread
    /// share of a build.
    pub fn from_ir(ir: ProgramIr) -> RtResult<Program> {
        let ProgramIr {
            linked,
            pass_stats,
            warnings,
            options,
        } = ir;
        let mut compiled = compile(&linked)?;
        // Adaptive tiering replaces the static pass entirely: all functions
        // start generic and hot ones re-specialize with runtime feedback.
        let spec_stats = if options.specialize && options.tiering.is_none() {
            crate::specialize::specialize_program(&mut compiled)
        } else {
            SpecStats::default()
        };
        let mut ctx = Context::for_program(&compiled);
        if let Some(mode) = options.tiering {
            ctx.set_tiering(mode);
        }
        Ok(Program {
            linked,
            compiled,
            ctx,
            pass_stats,
            spec_stats,
            warnings,
        })
    }

    /// Static-checker warnings collected at build time.
    pub fn warnings(&self) -> &[check::Diagnostic] {
        &self.warnings
    }

    /// Optimization statistics from the build.
    pub fn pass_stats(&self) -> PassStats {
        self.pass_stats
    }

    /// Bytecode-specialization statistics (zero when built with
    /// `specialize: false`).
    pub fn spec_stats(&self) -> SpecStats {
        self.spec_stats
    }

    /// The linked IR (for inspection or the interpreter baseline).
    pub fn linked(&self) -> &Linked {
        &self.linked
    }

    /// The compiled bytecode.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The execution context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Installs resource limits (fuel, heap budget, call depth) on the
    /// execution context; both engines enforce them from the next run.
    pub fn set_limits(&mut self, limits: hilti_rt::limits::ResourceLimits) {
        self.ctx.set_limits(limits);
    }

    /// Calls a HILTI function on the compiled engine and returns its value.
    pub fn run(&mut self, func: &str, args: &[Value]) -> RtResult<Value> {
        vm::call(&self.compiled, &mut self.ctx, func, args)
    }

    /// [`Program::run`] for a function already resolved to its index in
    /// [`CompiledProgram::func_index`].
    pub fn run_index(&mut self, func: u32, args: &[Value]) -> RtResult<Value> {
        vm::call_index(&self.compiled, &mut self.ctx, func, args)
    }

    /// Calls a void HILTI function on the compiled engine.
    pub fn run_void(&mut self, func: &str, args: &[Value]) -> RtResult<()> {
        self.run(func, args).map(|_| ())
    }

    /// Calls a HILTI function on the interpreter baseline.
    pub fn run_interpreted(&mut self, func: &str, args: &[Value]) -> RtResult<Value> {
        crate::interp::call(&self.linked, &mut self.ctx, func, args)
    }

    /// Runs all bodies of a hook (host-driven callbacks, §3.2).
    pub fn run_hook(&mut self, hook: &str, args: &[Value]) -> RtResult<()> {
        match self.compiled.hook_index.get(hook) {
            Some(&hi) => self.run_hook_index(hi, args),
            None => Ok(()), // a hook with no bodies does nothing
        }
    }

    /// [`Program::run_hook`] for a hook already resolved to its index in
    /// [`CompiledProgram::hook_index`]: hosts that raise the same events
    /// over and over resolve each hook once, at load time.
    pub fn run_hook_index(&mut self, hook: u32, args: &[Value]) -> RtResult<()> {
        vm::run_hook(&self.compiled, &mut self.ctx, hook, args)
    }

    /// Advances the context's global time to `t` (never backwards) and
    /// expires state in every registered container — what
    /// `timer_mgr.advance_global` does, as a direct context call: no VM
    /// entry and no fuel.
    pub fn advance_global_time(&mut self, t: hilti_rt::time::Time) {
        self.ctx.set_global_time(t);
        self.ctx.advance_expiring(t);
    }

    /// Creates a fiber for an incremental computation.
    pub fn fiber(&self, func: &str, args: Vec<Value>) -> Fiber {
        Fiber::new(func, args)
    }

    /// Resumes a fiber against this program.
    pub fn resume(&mut self, fiber: &mut Fiber) -> RtResult<crate::fiber::Step> {
        fiber.resume(&self.compiled, &mut self.ctx)
    }

    /// Registers a host function callable from HILTI code (`call.c`).
    pub fn register_host_fn(
        &mut self,
        name: &str,
        f: impl FnMut(&[Value]) -> RtResult<Value> + 'static,
    ) {
        self.ctx.register_host_fn(name, f);
    }

    /// Takes accumulated `Hilti::print` output.
    pub fn take_output(&mut self) -> Vec<String> {
        self.ctx.take_output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_hello_world() {
        // Figure 3 of the paper, minus the shell.
        let mut p = Program::from_source(
            r#"
module Main
import Hilti

void run() {
    call Hilti::print "Hello, World!"
}
"#,
        )
        .unwrap();
        p.run_void("Main::run", &[]).unwrap();
        assert_eq!(p.take_output(), vec!["Hello, World!"]);
    }

    #[test]
    fn vm_and_interpreter_agree() {
        let src = r#"
module M
int<64> fib(int<64> n) {
    local bool base
    local int<64> a
    local int<64> b
    base = int.lt n 2
    if.else base ret rec
ret:
    return n
rec:
    a = int.sub n 1
    a = call fib (a)
    b = int.sub n 2
    b = call fib (b)
    a = int.add a b
    return a
}
"#;
        let mut p = Program::from_source(src).unwrap();
        let compiled = p.run("M::fib", &[Value::Int(18)]).unwrap();
        let interpreted = p.run_interpreted("M::fib", &[Value::Int(18)]).unwrap();
        assert!(compiled.equals(&interpreted));
        assert!(compiled.equals(&Value::Int(2584)));
    }

    /// The deterministic execution profiler must agree across engines: the
    /// fuel-parity cost model means the VM and the interpreter retire the
    /// same instructions, attributed to the same functions and classes.
    #[test]
    fn execution_profile_matches_across_engines() {
        let src = r#"
module M
int<64> fib(int<64> n) {
    local bool base
    local int<64> a
    local int<64> b
    base = int.lt n 2
    if.else base ret rec
ret:
    return n
rec:
    a = int.sub n 1
    a = call fib (a)
    b = int.sub n 2
    b = call fib (b)
    a = int.add a b
    return a
}
"#;
        let mut p = Program::from_source(src).unwrap();
        p.context_mut().profile = true;
        p.run("M::fib", &[Value::Int(12)]).unwrap();
        let vm_profile = p.context_mut().take_exec_profile();
        p.run_interpreted("M::fib", &[Value::Int(12)]).unwrap();
        let interp_profile = p.context_mut().take_exec_profile();

        assert!(!vm_profile.is_empty());
        assert_eq!(vm_profile.total(), interp_profile.total());
        assert_eq!(vm_profile.functions(), interp_profile.functions());
        assert_eq!(vm_profile.classes(), interp_profile.classes());
        // And the profile is itself the fuel ledger: per-function units sum
        // to the fuel the run charged.
        let retired: u64 = vm_profile.functions().iter().map(|(_, n)| n).sum();
        assert_eq!(retired, vm_profile.total());
    }

    /// Profiling must not change what executes — results and retired
    /// totals agree with a non-profiled run's fuel accounting.
    #[test]
    fn execution_profile_is_deterministic() {
        let src = "module M\nint<64> f(int<64> n) {\n  local int<64> r\n  r = int.mul n 3\n  return r\n}\n";
        let run_once = || {
            let mut p = Program::from_source(src).unwrap();
            p.context_mut().profile = true;
            p.run("M::f", &[Value::Int(5)]).unwrap();
            let prof = p.context_mut().take_exec_profile();
            (prof.functions(), prof.classes(), prof.total())
        };
        assert_eq!(run_once(), run_once());
    }

    /// Engine-level telemetry: retired instructions flushed per run, and
    /// fuel exhaustion leaves a resource_limit event in the sink.
    #[test]
    fn telemetry_counts_runs_and_resource_trips() {
        use hilti_rt::telemetry::Telemetry;

        let src = "module M\nint<64> f(int<64> n) {\n  local int<64> r\n  r = int.add n 1\n  return r\n}\n";
        let mut p = Program::from_source(src).unwrap();
        let tel = Telemetry::new();
        p.context_mut().set_telemetry(&tel);
        p.run("M::f", &[Value::Int(1)]).unwrap();
        p.run_interpreted("M::f", &[Value::Int(1)]).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("engine.runs"), 2);
        // Both engines charge the same fuel, so the flushed total is even.
        let retired = snap.counter("engine.instructions_retired");
        assert!(
            retired > 0 && retired.is_multiple_of(2),
            "retired={retired}"
        );

        // Now starve a run and expect a resource_limit event.
        p.set_limits(hilti_rt::ResourceLimits {
            fuel: Some(1),
            ..Default::default()
        });
        assert!(p.run("M::f", &[Value::Int(1)]).is_err());
        let trips = tel.snapshot();
        assert_eq!(trips.events_of_kind("resource_limit"), 1);
    }

    #[test]
    fn host_function_roundtrip() {
        let mut p = Program::from_source(
            r#"
module M
int<64> f(int<64> x) {
    local int<64> y
    y = call host_double (x)
    y = int.add y 1
    return y
}
"#,
        )
        .unwrap();
        p.register_host_fn("host_double", |args| Ok(Value::Int(args[0].as_int()? * 2)));
        let v = p.run("M::f", &[Value::Int(21)]).unwrap();
        assert!(v.equals(&Value::Int(43)));
    }

    #[test]
    fn unknown_host_function_errors() {
        let mut p =
            Program::from_source("module M\nvoid f() {\n  call no_such_fn ()\n}\n").unwrap();
        assert!(p.run_void("M::f", &[]).is_err());
        // And the checker warned about it at build time.
        assert!(p
            .warnings()
            .iter()
            .any(|w| w.message.contains("no_such_fn")));
    }

    #[test]
    fn host_driven_hooks() {
        let mut p = Program::from_source(
            r#"
module M
hook void on_banner(string sw) {
    call Hilti::print sw
}
"#,
        )
        .unwrap();
        p.run_hook("M::on_banner", &[Value::str("OpenSSH_3.9p1")])
            .unwrap();
        p.run_hook("M::nonexistent", &[]).unwrap(); // no bodies: no-op
        assert_eq!(p.take_output(), vec!["OpenSSH_3.9p1"]);
    }

    /// Host-driven hook dispatch counts as engine work: each body is one
    /// run, and its instructions are retired exactly once, also when a
    /// body runs another hook through `hook.run`.
    #[test]
    fn telemetry_counts_hook_bodies_as_runs() {
        use hilti_rt::telemetry::Telemetry;

        let mut p = Program::from_source(
            r#"
module M
hook void inner(int<64> n) {
    local int<64> m
    m = int.add n 1
}
hook void on_event(int<64> n) {
    local int<64> m
    m = int.add n 1
    hook.run M::inner (m)
}
hook void on_event(int<64> n) &priority = 5 {
    local int<64> m
    m = int.mul n 2
}
"#,
        )
        .unwrap();
        let tel = Telemetry::new();
        p.context_mut().set_telemetry(&tel);
        let before = p.context().fuel_spent();
        p.run_hook("M::on_event", &[Value::Int(3)]).unwrap();
        let spent = p.context().fuel_spent() - before;
        let snap = tel.snapshot();
        // Two `on_event` bodies; the nested `inner` body is part of the
        // first one's run.
        assert_eq!(snap.counter("engine.runs"), 2);
        assert!(spent > 0);
        assert_eq!(snap.counter("engine.instructions_retired"), spent);
    }

    #[test]
    fn optimization_reported() {
        let p = Program::from_sources(
            &["module M\nint<64> f() {\n  local int<64> x\n  x = int.add 40 2\n  return x\n}\n"],
            OptLevel::Full,
        )
        .unwrap();
        assert!(p.pass_stats().constants_folded >= 1);
        let p0 = Program::from_sources(
            &["module M\nint<64> f() {\n  local int<64> x\n  x = int.add 40 2\n  return x\n}\n"],
            OptLevel::None,
        )
        .unwrap();
        assert_eq!(p0.pass_stats().total(), 0);
    }

    #[test]
    fn multi_unit_program() {
        let mut p = Program::from_sources(
            &[
                r#"
module Lib
int<64> triple(int<64> x) {
    local int<64> y
    y = int.mul x 3
    return y
}
"#,
                r#"
module App
int<64> main(int<64> x) {
    local int<64> y
    y = call Lib::triple (x)
    return y
}
"#,
            ],
            OptLevel::Full,
        )
        .unwrap();
        let v = p.run("App::main", &[Value::Int(14)]).unwrap();
        assert!(v.equals(&Value::Int(42)));
    }

    #[test]
    fn link_time_pruning_with_roots() {
        // §7: the linker removes code unreachable from the host's
        // parameterization — unused functions vanish from the binary.
        let src = r#"
module M
void used_helper() {
}
void entry() {
    call used_helper ()
}
void never_called() {
    call also_dead ()
}
void also_dead() {
}
"#;
        let modules = vec![crate::parser::parse_module(src).unwrap()];
        let mut p = Program::build(
            modules,
            OptLevel::Full,
            BuildOptions {
                prune_roots: Some(vec!["M::entry".to_owned()]),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(p.linked().function("M::entry").is_some());
        assert!(p.linked().function("M::used_helper").is_some());
        assert!(p.linked().function("M::never_called").is_none());
        assert!(p.linked().function("M::also_dead").is_none());
        // The kept entry still runs.
        p.run_void("M::entry", &[]).unwrap();
        // The pruned function is gone from the compiled image too.
        assert!(p.run_void("M::never_called", &[]).is_err());
    }

    #[test]
    fn function_granularity_profiling() {
        // §3.3: instrumentation inserted by the compiler reports per-
        // function time through the context profiler.
        let src = r#"
module M
int<64> busy(int<64> n) {
    local int<64> i
    local int<64> acc
    local bool more
    i = assign 0
    acc = assign 0
loop:
    acc = int.add acc i
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return acc
}
int<64> outer(int<64> n) {
    local int<64> r
    r = call busy (n)
    return r
}
"#;
        let mut p = Program::from_sources_instrumented(&[src], OptLevel::Full).unwrap();
        p.run("M::outer", &[Value::Int(50_000)]).unwrap();
        let busy_ns = p.context().profile_ns("fn:M::busy");
        let outer_ns = p.context().profile_ns("fn:M::outer");
        assert!(busy_ns > 0, "busy must be charged");
        // Spans are inclusive (outer includes its callees), the standard
        // function-profiling convention; outer must cover busy.
        assert!(
            outer_ns >= busy_ns,
            "outer ({outer_ns}ns) must include busy ({busy_ns}ns)"
        );
    }

    #[test]
    fn timers_fire_through_callables() {
        let mut p = Program::from_source(
            r#"
module M
global int<64> fired = 0

void on_timer(int<64> k) {
    fired = int.add fired k
}

void schedule_and_advance() {
    local ref<timer_mgr> mgr
    local callable c
    local int<64> id
    mgr = new timer_mgr
    c = callable.bind on_timer (7)
    id = timer_mgr.schedule mgr time(10.0) c
    timer_mgr.advance mgr time(5.0)
    timer_mgr.advance mgr time(10.0)
}

int<64> get() {
    return fired
}
"#,
        )
        .unwrap();
        p.run_void("M::schedule_and_advance", &[]).unwrap();
        let v = p.run("M::get", &[]).unwrap();
        assert!(v.equals(&Value::Int(7)), "{v:?}");
    }

    const SUM_LOOP: &str = r#"
module M
int<64> sum(int<64> n) {
    local int<64> i
    local int<64> acc
    local bool more
    i = assign 0
    acc = assign 0
loop:
    acc = int.add acc i
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return acc
}
"#;

    /// A byte-parsing loop shaped like the DNS grammar's `parse_name`:
    /// length-prefixed labels stepped with `iterator.deref`/`incr`, sliced
    /// with `bytes.sub` and joined with `string.concat`.
    const NAME_LOOP: &str = r#"
module M
string parse_name(ref<bytes> data, iterator<bytes> it) {
    local string name
    local int<64> len
    local iterator<bytes> cur
    local iterator<bytes> start
    local iterator<bytes> endp
    local any lblb
    local string lbls
    local bool is_end
    local bool isfirst
    name = assign ""
    cur = assign it
name_loop:
    len = iterator.deref cur
    is_end = int.eq len 0
    if.else is_end name_done name_label
name_label:
    start = iterator.incr cur 1
    endp = iterator.incr start len
    lblb = bytes.sub start endp
    lbls = bytes.to_string lblb
    isfirst = equal name ""
    if.else isfirst name_app1 name_app2
name_app1:
    name = assign lbls
    jump name_next
name_app2:
    name = string.concat name "."
    name = string.concat name lbls
name_next:
    cur = assign endp
    jump name_loop
name_done:
    return name
}

string parse(ref<bytes> data) {
    local iterator<bytes> it
    local string n
    it = bytes.begin data
    n = call parse_name (data, it)
    return n
}

string past_end(ref<bytes> data) {
    local iterator<bytes> it
    local int<64> b
    it = bytes.end data
    try {
        b = iterator.deref it
    } catch ( ref<Hilti::IndexError> e ) {
        local string m
        m = exception.message e
        return m
    }
    return "no exception"
}
"#;

    /// What one scenario of [`NAME_LOOP`] observably did.
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: Result<String, (hilti_rt::error::ExceptionKind, String)>,
        fuel: u64,
        trace: Vec<String>,
    }

    fn observe(
        p: &mut Program,
        trace: bool,
        f: impl FnOnce(&mut Program) -> RtResult<Value>,
    ) -> Observed {
        p.context_mut().trace = trace;
        let before = p.context().fuel_spent();
        let result = f(p).map(|v| v.render()).map_err(|e| (e.kind, e.message));
        Observed {
            result,
            fuel: p.context().fuel_spent() - before,
            trace: p.context_mut().take_trace(),
        }
    }

    fn name_scenarios(p: &mut Program, trace: bool) -> Vec<Observed> {
        let wire = b"\x03www\x07example\x03com\x00";
        let frozen = |b: &[u8]| Value::Bytes(hilti_rt::bytestring::Bytes::frozen_from_slice(b));
        let mut out = vec![
            observe(p, trace, |p| p.run("M::parse", &[frozen(wire)])),
            // A label running past the frozen end, and a missing length
            // byte there: uncaught IndexErrors from `bytes.sub` and from
            // `iterator.deref`.
            observe(p, trace, |p| {
                p.run("M::parse", &[frozen(b"\x03www\x09exa")])
            }),
            observe(p, trace, |p| p.run("M::parse", &[frozen(b"\x03www")])),
            // A read at the frozen end, caught by the program.
            observe(p, trace, |p| p.run("M::past_end", &[frozen(wire)])),
        ];
        // Incremental input: the fiber suspends on WouldBlock mid-name and
        // resumes once the rest arrives.
        let data = hilti_rt::bytestring::Bytes::new();
        data.append(&wire[..6]).unwrap();
        let mut fiber = p.fiber("M::parse", vec![Value::Bytes(data.clone())]);
        out.push(observe(p, trace, |p| match p.resume(&mut fiber)? {
            crate::fiber::Step::Suspended => Ok(Value::str("suspended")),
            crate::fiber::Step::Finished(v) => Ok(v),
        }));
        data.append(&wire[6..]).unwrap();
        data.freeze();
        out.push(observe(p, trace, |p| match p.resume(&mut fiber)? {
            crate::fiber::Step::Suspended => Ok(Value::str("suspended")),
            crate::fiber::Step::Finished(v) => Ok(v),
        }));
        out
    }

    /// Slot-bound struct/tuple/bool access on typed locals, including the
    /// guard misses the specializer cannot see at build time: an instance
    /// of another struct type (resolved by name), an unset field, a short
    /// tuple, non-aggregate values, and the generic short circuit.
    const BOUND_ACCESS: &str = r#"
module M
type A = struct { int<64> x, int<64> y }
type B = struct { int<64> y, int<64> x }

ref<A> mk_a(int<64> n) {
    local ref<A> a
    a = new A
    struct.set a x n
    return a
}

ref<A> mk_a_unset() {
    local ref<A> a
    a = new A
    return a
}

ref<B> mk_b(int<64> n) {
    local ref<B> b
    b = new B
    struct.set b x n
    return b
}

int<64> read(any obj) {
    local ref<A> a
    local int<64> v
    a = assign obj
    v = struct.get a x
    return v
}

int<64> write_read(any obj, int<64> n) {
    local ref<A> a
    local int<64> v
    a = assign obj
    struct.set a x n
    v = struct.get a x
    return v
}

any pick(any t) {
    local tuple<any, any> p
    local any v
    p = assign t
    v = tuple.get p 1
    return v
}

bool both(any x, any y) {
    local bool a
    local bool b
    local bool r
    a = assign x
    b = assign y
    r = bool.and a b
    return r
}

bool either(any x, any y) {
    local bool a
    local bool b
    local bool r
    a = assign x
    b = assign y
    r = bool.or a b
    return r
}
"#;

    fn bound_scenarios(p: &mut Program, trace: bool) -> Vec<Observed> {
        let a7 = p.run("M::mk_a", &[Value::Int(7)]).unwrap();
        let b9 = p.run("M::mk_b", &[Value::Int(9)]).unwrap();
        let unset = p.run("M::mk_a_unset", &[]).unwrap();
        let pair = Value::Tuple(std::rc::Rc::new(vec![Value::Int(1), Value::Int(2)]));
        let single = Value::Tuple(std::rc::Rc::new(vec![Value::Int(1)]));
        let (t, f) = (Value::Bool(true), Value::Bool(false));
        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("M::read", vec![a7.clone()]),
            ("M::read", vec![b9.clone()]),
            ("M::read", vec![unset]),
            ("M::read", vec![Value::Int(3)]),
            ("M::write_read", vec![a7, Value::Int(5)]),
            ("M::write_read", vec![b9, Value::Int(6)]),
            ("M::write_read", vec![Value::str("s"), Value::Int(6)]),
            ("M::pick", vec![pair]),
            ("M::pick", vec![single]),
            ("M::pick", vec![Value::Int(1)]),
            ("M::both", vec![t.clone(), t.clone()]),
            ("M::both", vec![f.clone(), Value::Int(1)]),
            ("M::both", vec![t.clone(), Value::Int(1)]),
            ("M::either", vec![t, Value::Int(1)]),
            ("M::either", vec![f, Value::str("s")]),
        ];
        cases
            .into_iter()
            .map(|(func, args)| observe(p, trace, |p| p.run(func, &args)))
            .collect()
    }

    #[test]
    fn slot_bound_access_guard_misses_match_generic() {
        let build = |specialize: bool| {
            Program::from_sources_opts(
                &[BOUND_ACCESS],
                OptLevel::None,
                BuildOptions {
                    specialize,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let (mut on, mut off) = (build(true), build(false));
        let spec = on.spec_stats();
        assert!(
            spec.structs >= 5 && spec.tuples == 1 && spec.bools == 2,
            "{spec:?}"
        );
        for trace in [false, true] {
            let seen = bound_scenarios(&mut on, trace);
            assert_eq!(seen, bound_scenarios(&mut off, trace), "trace={trace}");
            use hilti_rt::error::ExceptionKind::{IndexError, TypeError};
            let results: Vec<_> = seen.iter().map(|o| o.result.clone()).collect();
            let kinds: Vec<_> = results
                .iter()
                .map(|r| r.as_ref().map_err(|(k, _)| *k).cloned())
                .collect();
            assert_eq!(
                kinds,
                vec![
                    Ok("7".to_owned()),
                    Ok("9".to_owned()),
                    Err(IndexError),
                    Err(TypeError),
                    Ok("5".to_owned()),
                    Ok("6".to_owned()),
                    Err(TypeError),
                    Ok("2".to_owned()),
                    Err(IndexError),
                    Err(TypeError),
                    Ok("True".to_owned()),
                    Ok("False".to_owned()),
                    Err(TypeError),
                    Ok("True".to_owned()),
                    Err(TypeError),
                ],
                "{results:?}"
            );
        }
        assert!(on.context().tier_mix().specialized > 0);
    }

    /// Codegen-shaped fixed-width fields: a big-endian `UInt(4)` and a
    /// little-endian `UIntLE(2)`, each an `assign 0` plus four ops per byte.
    const FIXED_READS: &str = r#"
module M
tuple<any, any> fields(ref<bytes> data) {
    local iterator<bytes> it
    local int<64> acc
    local int<64> b
    local int<64> acc2
    local int<64> b2
    local int<64> sh2
    local tuple<any, any> r
    it = bytes.begin data
    acc = assign 0
    b = iterator.deref it
    it = iterator.incr it 1
    acc = int.shl acc 8
    acc = int.or acc b
    b = iterator.deref it
    it = iterator.incr it 1
    acc = int.shl acc 8
    acc = int.or acc b
    b = iterator.deref it
    it = iterator.incr it 1
    acc = int.shl acc 8
    acc = int.or acc b
    b = iterator.deref it
    it = iterator.incr it 1
    acc = int.shl acc 8
    acc = int.or acc b
    acc2 = assign 0
    b2 = iterator.deref it
    it = iterator.incr it 1
    sh2 = int.shl b2 0
    acc2 = int.or acc2 sh2
    b2 = iterator.deref it
    it = iterator.incr it 1
    sh2 = int.shl b2 8
    acc2 = int.or acc2 sh2
    acc2 = int.add acc2 b
    acc2 = int.add acc2 sh2
    r = tuple.pack acc acc2
    return r
}
"#;

    fn read_scenarios(p: &mut Program, trace: bool) -> Vec<Observed> {
        let wire: &[u8] = b"\x12\x34\x56\x78\x9a\xbc";
        let frozen = |b: &[u8]| Value::Bytes(hilti_rt::bytestring::Bytes::frozen_from_slice(b));
        let mut out = vec![
            observe(p, trace, |p| p.run("M::fields", &[frozen(wire)])),
            // Short, frozen: the IndexError of the first missing byte.
            observe(p, trace, |p| p.run("M::fields", &[frozen(&wire[..5])])),
        ];
        // Incremental input: suspend inside the 4-byte field, then inside
        // the 2-byte one, and finish once everything arrived.
        let data = hilti_rt::bytestring::Bytes::new();
        data.append(&wire[..2]).unwrap();
        let mut fiber = p.fiber("M::fields", vec![Value::Bytes(data.clone())]);
        let mut step = |p: &mut Program| {
            observe(p, trace, |p| match p.resume(&mut fiber)? {
                crate::fiber::Step::Suspended => Ok(Value::str("suspended")),
                crate::fiber::Step::Finished(v) => Ok(v),
            })
        };
        out.push(step(p));
        data.append(&wire[2..5]).unwrap();
        out.push(step(p));
        data.append(&wire[5..]).unwrap();
        data.freeze();
        out.push(step(p));
        out
    }

    #[test]
    fn fused_fixed_width_reads_match_unfused() {
        for opt in [OptLevel::None, OptLevel::Full] {
            let build = |specialize: bool| {
                Program::from_sources_opts(
                    &[FIXED_READS],
                    opt,
                    BuildOptions {
                        specialize,
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let (mut on, mut off) = (build(true), build(false));
            assert_eq!(on.spec_stats().reads, 2, "{opt:?}: {:?}", on.spec_stats());
            for trace in [false, true] {
                let seen = read_scenarios(&mut on, trace);
                assert_eq!(
                    seen,
                    read_scenarios(&mut off, trace),
                    "{opt:?} trace={trace}"
                );
                // 0x12345678, and 0xbc9a + b (0x78) + sh (0xbc00) = 96530.
                let results: Vec<_> = seen.iter().map(|o| o.result.clone()).collect();
                assert_eq!(results[0], Ok("(305419896, 96530)".to_owned()));
                assert!(matches!(
                    &results[1],
                    Err((hilti_rt::error::ExceptionKind::IndexError, _))
                ));
                assert_eq!(results[2], Ok("suspended".to_owned()));
                assert_eq!(results[3], Ok("suspended".to_owned()));
                assert_eq!(results[4], results[0]);
            }
            // Every fuel budget trips at the same point with and without
            // fusion: too little fuel for a whole run executes only its
            // first constituent.
            let wire = Value::Bytes(hilti_rt::bytestring::Bytes::frozen_from_slice(
                b"\x12\x34\x56\x78\x9a\xbc",
            ));
            for fuel in 0..48 {
                let limited = |p: &mut Program| {
                    p.set_limits(hilti_rt::limits::ResourceLimits {
                        fuel: Some(fuel),
                        ..Default::default()
                    });
                    let r = p
                        .run("M::fields", std::slice::from_ref(&wire))
                        .map(|v| v.render());
                    (r.map_err(|e| e.kind), p.context().fuel_remaining())
                };
                assert_eq!(limited(&mut on), limited(&mut off), "{opt:?} fuel={fuel}");
            }
            assert!(on.context().tier_mix().specialized > 0);
        }
    }

    #[test]
    fn specializer_preserves_behaviour_and_traces() {
        let mut on = Program::from_sources(&[SUM_LOOP], OptLevel::None).unwrap();
        let mut off = Program::from_sources_opts(
            &[SUM_LOOP],
            OptLevel::None,
            BuildOptions {
                specialize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(on.spec_stats().total() > 0, "{:?}", on.spec_stats());
        assert_eq!(off.spec_stats().total(), 0);

        // Byte parsing: the typed iterator ops leave values, exceptions,
        // fuel and (traced) instruction streams exactly as they were.
        let mut name_on = Program::from_sources(&[NAME_LOOP], OptLevel::None).unwrap();
        let mut name_off = Program::from_sources_opts(
            &[NAME_LOOP],
            OptLevel::None,
            BuildOptions {
                specialize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            name_on.spec_stats().iters >= 4,
            "{:?}",
            name_on.spec_stats()
        );
        for trace in [false, true] {
            let seen = name_scenarios(&mut name_on, trace);
            assert_eq!(seen, name_scenarios(&mut name_off, trace), "trace={trace}");
            let results: Vec<_> = seen.iter().map(|o| o.result.clone()).collect();
            use hilti_rt::error::ExceptionKind::IndexError;
            assert_eq!(
                results,
                vec![
                    Ok("www.example.com".to_owned()),
                    Err((IndexError, "range extends past frozen end".to_owned())),
                    Err((IndexError, "offset 4 past frozen end 4".to_owned())),
                    Ok("offset 17 past frozen end 17".to_owned()),
                    Ok("suspended".to_owned()),
                    Ok("www.example.com".to_owned()),
                ]
            );
            assert_eq!(seen.iter().all(|o| !o.trace.is_empty()), trace);
        }
        // Untraced, the typed ops ran in the fast loop.
        assert!(name_on.context().tier_mix().specialized > 0);

        on.context_mut().trace = true;
        off.context_mut().trace = true;
        let v_on = on.run("M::sum", &[Value::Int(10)]).unwrap();
        let v_off = off.run("M::sum", &[Value::Int(10)]).unwrap();
        assert!(v_on.equals(&v_off));
        assert!(v_on.equals(&Value::Int(45)));
        // Tracing parity: the specialized VM's trace is line-for-line
        // identical to the unspecialized one (fused instructions emit
        // their two constituent lines).
        assert_eq!(
            on.context_mut().take_trace(),
            off.context_mut().take_trace()
        );
    }

    #[test]
    fn instruction_mix_histogram() {
        let mut p = Program::from_source(SUM_LOOP).unwrap();
        // Off by default.
        p.run("M::sum", &[Value::Int(50)]).unwrap();
        assert!(p.context_mut().take_instr_mix().is_empty());

        p.context_mut().stats = true;
        p.run("M::sum", &[Value::Int(50)]).unwrap();
        let mix = p.context_mut().take_instr_mix();
        let total: u64 = mix.iter().map(|(_, c)| *c).sum();
        assert!(total > 100, "{mix:?}");
        // The hot loop runs on the specialized tier.
        assert!(
            mix.iter().any(|(n, c)| n.starts_with("spec.") && *c >= 50),
            "{mix:?}"
        );
        // Sorted by descending count, and drained by take.
        assert!(mix.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(p.context_mut().take_instr_mix().is_empty());
    }

    #[test]
    fn specialized_type_error_is_catchable() {
        // A statically int slot read before initialization holds Null; the
        // specialized instruction must raise the same catchable TypeError
        // as the generic path.
        let src = r#"
module M
int<64> f() {
    local int<64> u
    local int<64> y
    try {
        y = int.add u 1
    } catch ( exception e ) {
        return -1
    }
    return y
}
"#;
        for specialize in [true, false] {
            let mut p = Program::from_sources_opts(
                &[src],
                OptLevel::None,
                BuildOptions {
                    specialize,
                    ..Default::default()
                },
            )
            .unwrap();
            let v = p.run("M::f", &[]).unwrap();
            assert!(v.equals(&Value::Int(-1)), "specialize={specialize}: {v:?}");
        }
    }

    #[test]
    fn execution_trace_capture() {
        let mut p = Program::from_source(
            "module M\nint<64> twice(int<64> x) {\n    x = int.add x x\n    return x\n}\n",
        )
        .unwrap();

        // Off by default: nothing is recorded.
        p.run("M::twice", &[Value::Int(3)]).unwrap();
        assert!(p.context_mut().take_trace().is_empty());

        // On: one line per executed instruction, engine-tagged by function.
        p.context_mut().trace = true;
        p.run("M::twice", &[Value::Int(3)]).unwrap();
        let vm_trace = p.context_mut().take_trace();
        assert!(!vm_trace.is_empty());
        assert!(
            vm_trace.iter().all(|l| l.starts_with("M::twice@")),
            "{vm_trace:?}"
        );
        // take_trace drains.
        assert!(p.context_mut().take_trace().is_empty());

        // The interpreter records through the same channel.
        p.run_interpreted("M::twice", &[Value::Int(3)]).unwrap();
        let interp_trace = p.context_mut().take_trace();
        assert!(!interp_trace.is_empty());
        assert!(
            interp_trace.iter().all(|l| l.starts_with("M::twice::")),
            "{interp_trace:?}"
        );
    }
}
