//! Heap allocations of the compiled engine's event path — network-time
//! advance, hook dispatch, table lookups on string keys, and the `cat` /
//! `log_write` builtins — counted by a per-thread counting allocator.
//!
//! Every figure is taken after warm-up calls, so one-time costs (log
//! streams opened, buffers grown, hash tables sized) are paid before the
//! count starts. What remains is the steady-state cost of one more call:
//! nothing, apart from the values the script itself creates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use broscript::host::{Engine, ScriptHost};
use hilti::value::Value;
use hilti_rt::time::Time;

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

/// Allocations made by `f`.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocs();
    let r = f();
    (r, allocs() - before)
}

const SCRIPT: &str = r#"
global seen: table[string] of count;
# Expiring containers: every advance_time walks them.
global names: table[string] of string &create_expire=60.0;
global peers: set[addr] &read_expire=60.0;
global last: string = "";

event remember(uid: string) {
    seen[uid] = 0;
    names[uid] = uid;
}

event touch(uid: string) {
    if ( uid in seen )
        seen[uid] = seen[uid] + 1;
}

event write(line: string) {
    log_write("probe.log", line);
}

event label(uid: string, n: count, h: addr) {
    last = cat(uid, "-", n, "\t", h);
}
"#;

fn host() -> ScriptHost {
    let mut h = ScriptHost::new(&[SCRIPT], Engine::Compiled, None).unwrap();
    h.advance_time(Time::from_secs(1)).unwrap();
    h.dispatch("remember", &[Value::str("C1")]).unwrap();
    h
}

#[test]
fn advancing_network_time_allocates_nothing() {
    let mut h = host();
    // Warm-up: the first advance past a new time.
    h.advance_time(Time::from_secs(2)).unwrap();
    for s in 3..10 {
        let (r, n) = count(|| h.advance_time(Time::from_secs(s)));
        r.unwrap();
        assert_eq!(n, 0, "advance_time to {s}s allocated {n} times");
    }
}

#[test]
fn string_key_table_access_allocates_nothing() {
    let mut h = host();
    let args = [Value::str("C1")];
    h.dispatch("touch", &args).unwrap();
    for _ in 0..5 {
        let (r, n) = count(|| h.dispatch("touch", &args));
        r.unwrap();
        assert_eq!(
            n, 0,
            "`uid in t`, `t[uid]`, `t[uid] = v` allocated {n} times"
        );
    }
    // An event nobody handles costs nothing either.
    let (r, n) = count(|| h.dispatch("no_such_event", &args));
    r.unwrap();
    assert_eq!(n, 0);
}

#[test]
fn log_write_allocates_only_the_stored_line() {
    let mut h = host();
    let args = [Value::str("C1\tGET\t/index.html")];
    // Warm-up opens the stream; the line vector then has room for more.
    h.dispatch("write", &args).unwrap();
    let (r, n) = count(|| h.dispatch("write", &args));
    r.unwrap();
    assert_eq!(n, 1, "log_write allocated {n} times");
    assert_eq!(h.log_lines("probe.log").len(), 2);
}

#[test]
fn cat_renders_into_one_buffer() {
    let mut h = host();
    let args = [
        Value::str("C1"),
        Value::Int(42),
        Value::Addr("10.0.0.1".parse().unwrap()),
    ];
    h.dispatch("label", &args).unwrap();
    let (r, n) = count(|| h.dispatch("label", &args));
    r.unwrap();
    assert!(n <= 2, "cat of 5 arguments allocated {n} times");
}
