//! Heap allocations of the op path generated parsers run — struct field
//! access, `new <struct>`, and byte-iterator stepping — counted by a
//! per-thread counting allocator on both engines.
//!
//! Every figure is a difference between two runs of the same loop that
//! differ only in iteration count, so per-call costs (entry frame, result
//! value) cancel and what remains is the cost of one loop iteration. The
//! compiled engine must spend nothing per iteration. The interpreter pays
//! its own per-instruction costs (operand vectors, identifier copies,
//! label and local-name strings), so there an op's share is isolated
//! against a control: a 1-field struct for struct access (equal counts
//! mean field resolution copies no layout), and shape-equal int/assign
//! instructions for the iterator ops.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hilti::host::{BuildOptions, Program};
use hilti::passes::OptLevel;
use hilti::value::Value;
use std::sync::Arc;

use hilti_rt::bytestring::{ArenaSlice, Bytes};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const SRC: &str = r#"
module M
type S1 = struct { any f0 }
type S10 = struct { any f0, any f1, any f2, any f3, any f4, any f5, any f6, any f7, any f8, any f9 }

int<64> get1(int<64> n) {
    local any s
    local any v
    local int<64> i
    local bool more
    s = new S1
    struct.set s f0 7
    i = assign 0
loop:
    v = struct.get s f0
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> get10(int<64> n) {
    local any s
    local any v
    local int<64> i
    local bool more
    s = new S10
    struct.set s f9 7
    i = assign 0
loop:
    v = struct.get s f9
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> set1(int<64> n) {
    local any s
    local int<64> i
    local bool more
    s = new S1
    i = assign 0
loop:
    struct.set s f0 i
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> set10(int<64> n) {
    local any s
    local int<64> i
    local bool more
    s = new S10
    i = assign 0
loop:
    struct.set s f9 i
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> new1(int<64> n) {
    local any s
    local int<64> i
    local bool more
    i = assign 0
loop:
    s = new S1
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> new10(int<64> n) {
    local any s
    local int<64> i
    local bool more
    i = assign 0
loop:
    s = new S10
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> walk(ref<bytes> data, int<64> n) {
    local iterator<bytes> it
    local int<64> b
    local int<64> i
    local bool more
    it = bytes.begin data
    i = assign 0
loop:
    b = iterator.deref it
    it = iterator.incr it 1
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> concat(int<64> n) {
    local string s
    local int<64> i
    local bool more
    i = assign 0
loop:
    s = string.concat "www" ".example"
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> sub(ref<bytes> data, int<64> n) {
    local iterator<bytes> a
    local iterator<bytes> b
    local any v
    local int<64> i
    local bool more
    a = bytes.begin data
    b = iterator.incr a 5
    i = assign 0
loop:
    v = bytes.sub a b
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> sub_str(ref<bytes> data, int<64> n) {
    local iterator<bytes> a
    local iterator<bytes> b
    local any v
    local string s
    local int<64> i
    local bool more
    a = bytes.begin data
    b = iterator.incr a 5
    i = assign 0
loop:
    v = bytes.sub a b
    s = bytes.to_string v
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}

int<64> walk_control(ref<bytes> data, int<64> n) {
    local iterator<bytes> it
    local int<64> b
    local int<64> k
    local int<64> i
    local bool more
    it = bytes.begin data
    i = assign 0
loop:
    b = assign i
    k = int.add i 1
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return i
}
"#;

const SHORT: i64 = 10;
const LONG: i64 = 1010;

#[derive(Clone, Copy, Debug)]
enum Engine {
    Compiled,
    Interpreted,
}

fn build(specialize: bool) -> Program {
    Program::from_sources_opts(
        &[SRC],
        OptLevel::None,
        BuildOptions {
            specialize,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Allocations of one call of `func`, whose last argument is the loop
/// count `n`.
fn call_allocs(p: &mut Program, engine: Engine, func: &str, lead: &[Value], n: i64) -> u64 {
    let mut args = lead.to_vec();
    args.push(Value::Int(n));
    let func = format!("M::{func}");
    let before = allocs();
    let v = match engine {
        Engine::Compiled => p.run(&func, &args),
        Engine::Interpreted => p.run_interpreted(&func, &args),
    }
    .unwrap();
    let spent = allocs() - before;
    assert!(v.equals(&Value::Int(n)), "{func}: {v:?}");
    spent
}

/// Allocations per loop iteration of `func`, with per-call costs removed.
fn per_iter(p: &mut Program, engine: Engine, func: &str, lead: &[Value]) -> f64 {
    // Warm-up: first-call effects (pools, lazily built state) stay out.
    call_allocs(p, engine, func, lead, SHORT);
    let short = call_allocs(p, engine, func, lead, SHORT);
    let long = call_allocs(p, engine, func, lead, LONG);
    (long as f64 - short as f64) / (LONG - SHORT) as f64
}

fn input() -> Value {
    Value::Bytes(Bytes::frozen_from_slice(&[7u8; 2 * LONG as usize]))
}

#[test]
fn struct_access_allocates_nothing_per_op() {
    for specialize in [true, false] {
        let mut p = build(specialize);
        for func in ["get1", "get10", "set1", "set10"] {
            let n = per_iter(&mut p, Engine::Compiled, func, &[]);
            assert_eq!(n, 0.0, "compiled {func} (specialize={specialize})");
        }
    }
    let mut p = build(true);
    for (small, big) in [("get1", "get10"), ("set1", "set10")] {
        let a = per_iter(&mut p, Engine::Interpreted, small, &[]);
        let b = per_iter(&mut p, Engine::Interpreted, big, &[]);
        assert_eq!(a, b, "interpreted {small} vs {big}");
    }
}

#[test]
fn new_costs_the_same_for_any_field_count() {
    for engine in [Engine::Compiled, Engine::Interpreted] {
        let mut p = build(true);
        let one = per_iter(&mut p, engine, "new1", &[]);
        let ten = per_iter(&mut p, engine, "new10", &[]);
        assert_eq!(one, ten, "{engine:?}");
        assert!(one > 0.0, "{engine:?}: `new` must allocate the instance");
    }
    // The instance and its field vector: no type-name copy, no layout copy.
    let mut p = build(true);
    assert_eq!(per_iter(&mut p, Engine::Compiled, "new10", &[]), 2.0);
}

#[test]
fn byte_iterator_ops_allocate_nothing() {
    for specialize in [true, false] {
        let mut p = build(specialize);
        let iters = p.spec_stats().iters;
        assert_eq!(iters > 0, specialize, "{:?}", p.spec_stats());
        let n = per_iter(&mut p, Engine::Compiled, "walk", &[input()]);
        assert_eq!(n, 0.0, "compiled walk (specialize={specialize})");
    }
    let mut p = build(true);
    let walk = per_iter(&mut p, Engine::Interpreted, "walk", &[input()]);
    let control = per_iter(&mut p, Engine::Interpreted, "walk_control", &[input()]);
    assert_eq!(walk, control, "interpreted walk vs shape-equal control");
}

#[test]
fn byte_views_and_strings_allocate_only_their_result() {
    let mut p = build(true);
    // The joined text at its exact size, then the shared string.
    assert_eq!(per_iter(&mut p, Engine::Compiled, "concat", &[]), 2.0);
    // A `bytes.sub` view of an arena-backed input: the string handle and
    // its one-chunk list, no copy of the bytes.
    let arena = Value::Bytes(Bytes::frozen_from_arena(ArenaSlice::new(
        Arc::new(vec![b'x'; 64]),
        0,
        64,
    )));
    let view = per_iter(
        &mut p,
        Engine::Compiled,
        "sub",
        std::slice::from_ref(&arena),
    );
    assert_eq!(view, 2.0);
    // An owned input costs one exact copy on top.
    assert_eq!(per_iter(&mut p, Engine::Compiled, "sub", &[input()]), 3.0);
    // `bytes.to_string` decodes in place: only the string.
    let with_str = per_iter(&mut p, Engine::Compiled, "sub_str", &[arena]);
    assert_eq!(with_str - view, 1.0);
}
