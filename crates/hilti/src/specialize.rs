//! Bytecode specialization: the typed fast tier of the compiled engine.
//!
//! This pass rewrites generic [`CInstr::Op`] instructions into direct,
//! typed variants when operand types are statically known from the checked
//! IR (carried through lowering as [`CFunc::slot_types`]). The specialized
//! variants execute inline in the VM dispatch loop on `frame.slots` — no
//! operand clone into the scratch buffer, no `Evaluated` wrapper, no trip
//! through the `ops::eval` megamatch — which is where the bulk of the
//! per-instruction cost of hot integer/branch code goes (cf. Deegen-style
//! typed interpreter opcodes; §6.5's compiled-vs-interpreted gap is the
//! same story one level down).
//!
//! The pass runs in three phases over each function:
//!
//! 1. **Per-instruction rewrites.** `int.add/sub/mul`, the bitwise/shift
//!    group, and integer comparisons whose operands are all provably
//!    `int<n>` slots or integer immediates become `AddInt`-style variants;
//!    `assign` into a local becomes `MoveSlot`/`LoadImm`; a branch on a
//!    statically bool slot becomes `BrBool`, `bool.and`/`bool.or` on
//!    bool slots become `BoolSlot`, and `equal`/`unequal` (total over all
//!    values) on slots or constants become `EqualSlot`; `iterator.incr`
//!    and `iterator.deref` on an `iterator<bytes>` slot — the
//!    byte-stepping core of every generated parser — become
//!    `IterIncrBytes` and `IterDerefBytes`.
//!    Field and element accesses are bound here too: `struct.get` and
//!    `struct.set` on a slot statically typed struct `S` become
//!    `StructGetSlot`/`StructSetSlot` with the field index resolved
//!    against the program's layouts, and `tuple.get` with a constant
//!    index on a tuple-typed slot becomes `TupleGetSlot`.
//! 2. **Compare-and-branch fusion.** A `CmpInt` immediately followed by a
//!    branch on its result fuses into `BrIfInt` — the dominant
//!    `cmp`+`br_if` pair of loop headers collapses to one dispatch. The
//!    fused instruction still writes the bool flag slot and the original
//!    branch stays at its pc (it remains reachable through explicit jump
//!    labels), so no liveness or CFG analysis is needed.
//! 3. **Fixed-width read fusion.** The run a generated parser emits for a
//!    `UInt(w)`/`UIntLE(w)` field — `acc = assign 0`, then per byte a
//!    deref, an increment and a shift/or pair — becomes one `ReadUInt`
//!    at the `assign`'s pc, charging all `1 + 4w` units. The constituents
//!    stay at their pcs, and the **first-constituent fallback** keeps the
//!    rewrite unobservable: on short input, too little fuel, or in an
//!    observational mode, `ReadUInt` executes only the `assign` it
//!    replaced and the run continues one instruction at a time, so
//!    WouldBlock, fuel, traces and profiles are those of the unfused run.
//!
//! This pass is also the feeder for the tier above it: under
//! `--tiering=threaded`, the adaptive tier re-runs it with observed types
//! and then hands the specialized body to [`crate::threaded::compile`],
//! which flattens it into pre-bound direct-threaded ops — so every int,
//! move and branch rewrite here (including the fused `BrIfInt` and its
//! two-unit fuel charge) has a 1:1 pc-preserving counterpart on the top
//! rung. The byte-iterator, slot-bound access, bool and fused-read
//! rewrites have none: they lower to a deopt and run on the generic loop.
//!
//! Type guards are deliberately conservative: anything touching a global,
//! an `any`-typed slot, or a `GlobalStore` wrapper keeps the generic path,
//! so exception, fiber and global-visibility semantics stay in one place.
//! Specialized instructions still *check* operand values at run time
//! (locals start as `Null`), raising the same catchable `TypeError` the
//! generic path would; a slot-bound access whose instance guard misses
//! falls back to the generic resolution.
//!
//! The pass is switched by `BuildOptions::specialize` (default on) so the
//! A1 ablation can quantify it; see `bench/benches/dispatch.rs`.

use std::collections::HashMap;
use std::rc::Rc;

use crate::bytecode::{
    BoolOp, CFunc, CInstr, COperand, CompiledProgram, IntBit, IntCmp, IntSrc, StructLayout,
};
use crate::ir::Opcode;
use crate::types::Type;
use crate::value::Value;

/// What the pass did, for build reporting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Generic int arithmetic/bitwise ops replaced by typed variants.
    pub arith: usize,
    /// Integer comparisons replaced by `CmpInt`.
    pub cmps: usize,
    /// `assign` instructions replaced by `MoveSlot`/`LoadImm`.
    pub moves: usize,
    /// Branches on statically bool slots replaced by `BrBool`.
    pub branches: usize,
    /// Compare-and-branch pairs fused into `BrIfInt`.
    pub fused: usize,
    /// `iterator.incr`/`iterator.deref` on `iterator<bytes>` slots replaced
    /// by `IterIncrBytes`/`IterDerefBytes`.
    pub iters: usize,
    /// `struct.get`/`struct.set` on struct-typed slots bound to a field
    /// index (`StructGetSlot`/`StructSetSlot`).
    pub structs: usize,
    /// Constant-index `tuple.get` on tuple-typed slots (`TupleGetSlot`).
    pub tuples: usize,
    /// `bool.and`/`bool.or` on bool slots (`BoolSlot`) and `equal`/
    /// `unequal` on slot or constant operands (`EqualSlot`).
    pub bools: usize,
    /// Fixed-width integer field reads fused into `ReadUInt`.
    pub reads: usize,
}

impl SpecStats {
    pub fn total(&self) -> usize {
        self.arith
            + self.cmps
            + self.moves
            + self.branches
            + self.fused
            + self.iters
            + self.structs
            + self.tuples
            + self.bools
            + self.reads
    }
}

/// Rewrites every function of `prog` in place.
pub fn specialize_program(prog: &mut CompiledProgram) -> SpecStats {
    let mut stats = SpecStats::default();
    let layouts = &prog.struct_layouts;
    for f in &mut prog.funcs {
        let types = std::mem::take(&mut f.slot_types);
        specialize_func_with_types(f, &types, layouts, &mut stats);
        f.slot_types = types;
    }
    stats
}

/// Same rewrite, but against an externally supplied slot-type vector. The
/// adaptive tier (see [`crate::tier`]) calls this with the *declared* types
/// refined by runtime observation — e.g. an `any` parameter that has only
/// ever carried `int<64>` — which is safe because specialized instructions
/// still check operand values at run time and raise the identical catchable
/// `TypeError` the generic path would. Both callers pass the program's
/// `struct_layouts`, so field binding follows one rule at build time and
/// at tier-up.
pub(crate) fn specialize_func_with_types(
    cf: &mut CFunc,
    slot_types: &[Type],
    struct_layouts: &HashMap<String, StructLayout>,
    stats: &mut SpecStats,
) {
    let is_int: Vec<bool> = slot_types
        .iter()
        .map(|t| matches!(t, Type::Int(_)))
        .collect();
    let is_bool: Vec<bool> = slot_types.iter().map(|t| matches!(t, Type::Bool)).collect();
    let is_iter = |op: &COperand| -> Option<u16> {
        match op {
            COperand::Slot(s) if matches!(slot_types.get(*s as usize), Some(Type::BytesIter)) => {
                Some(*s)
            }
            _ => None,
        }
    };

    // An operand usable by a typed int instruction: a slot statically
    // declared int, or an integer constant. Globals (shared, any write
    // path) and untyped slots stay generic.
    let int_src = |op: &COperand| -> Option<IntSrc> {
        match op {
            COperand::Slot(s) if is_int.get(*s as usize).copied().unwrap_or(false) => {
                Some(IntSrc::Slot(*s))
            }
            COperand::Value(Value::Int(i)) => Some(IntSrc::Imm(*i)),
            _ => None,
        }
    };

    // The layout a struct-typed slot's instances are built from.
    let struct_slot = |op: &COperand| -> Option<(u16, &StructLayout)> {
        match op {
            COperand::Slot(s) => match slot_types.get(*s as usize)?.strip_ref() {
                Type::Struct(name) => Some((*s, struct_layouts.get(&**name)?)),
                _ => None,
            },
            _ => None,
        }
    };
    // A bound field: the slot, the index of the (single) field ident, and
    // the interned type name that guards it. Unknown fields stay generic,
    // which raises the IndexError.
    let bound_field = |obj: &COperand, idents: &[String]| -> Option<(u16, u32, Rc<str>)> {
        let (s, layout) = struct_slot(obj)?;
        let [field] = idents else { return None };
        let idx = layout.fields.iter().position(|f| f == field)?;
        Some((s, idx as u32, Rc::clone(&layout.name)))
    };
    let is_bool_slot = |op: &COperand| -> Option<u16> {
        match op {
            COperand::Slot(s) if is_bool.get(*s as usize).copied().unwrap_or(false) => Some(*s),
            _ => None,
        }
    };

    // Phase 1: per-instruction rewrites.
    for instr in &mut cf.code {
        let replacement = match instr {
            CInstr::Op {
                opcode: Opcode::StructSet,
                target,
                args,
                idents,
            } if args.len() == 2 && !matches!(args[1], COperand::Global(_)) => {
                bound_field(&args[0], idents).map(|(obj, idx, ty)| {
                    stats.structs += 1;
                    CInstr::StructSetSlot {
                        target: *target,
                        obj,
                        value: args[1].clone(),
                        idx,
                        ty,
                        idents: Rc::clone(idents),
                    }
                })
            }
            CInstr::Op {
                opcode,
                target: Some(dst),
                args,
                idents,
            } => {
                let dst = *dst;
                match (*opcode, args.len()) {
                    (Opcode::StructGet, 1) => {
                        bound_field(&args[0], idents).map(|(obj, idx, ty)| {
                            stats.structs += 1;
                            CInstr::StructGetSlot {
                                dst,
                                obj,
                                idx,
                                ty,
                                idents: Rc::clone(idents),
                            }
                        })
                    }
                    (Opcode::TupleGet, 2) => match (&args[0], &args[1]) {
                        (COperand::Slot(tup), COperand::Value(Value::Int(i)))
                            if *i >= 0
                                && *i <= i64::from(u32::MAX)
                                && matches!(
                                    slot_types.get(*tup as usize).map(Type::strip_ref),
                                    Some(Type::Tuple(_))
                                ) =>
                        {
                            stats.tuples += 1;
                            Some(CInstr::TupleGetSlot {
                                dst,
                                tup: *tup,
                                idx: *i as u32,
                            })
                        }
                        _ => None,
                    },
                    // `equal`/`unequal` are total over all values, so any
                    // non-global operands qualify.
                    (Opcode::Equal | Opcode::Unequal, 2)
                        if !args.iter().any(|a| matches!(a, COperand::Global(_))) =>
                    {
                        stats.bools += 1;
                        Some(CInstr::EqualSlot {
                            negate: *opcode == Opcode::Unequal,
                            dst,
                            a: args[0].clone(),
                            b: args[1].clone(),
                        })
                    }
                    (Opcode::BoolAnd | Opcode::BoolOr, 2) => {
                        match (is_bool_slot(&args[0]), is_bool_slot(&args[1])) {
                            (Some(a), Some(b)) => {
                                stats.bools += 1;
                                let op = if *opcode == Opcode::BoolAnd {
                                    BoolOp::And
                                } else {
                                    BoolOp::Or
                                };
                                Some(CInstr::BoolSlot { op, dst, a, b })
                            }
                            _ => None,
                        }
                    }
                    (Opcode::IntAdd | Opcode::IntSub | Opcode::IntMul, 2) => {
                        match (int_src(&args[0]), int_src(&args[1])) {
                            (Some(a), Some(b)) => {
                                stats.arith += 1;
                                Some(match *opcode {
                                    Opcode::IntAdd => CInstr::AddInt { dst, a, b },
                                    Opcode::IntSub => CInstr::SubInt { dst, a, b },
                                    _ => CInstr::MulInt { dst, a, b },
                                })
                            }
                            _ => None,
                        }
                    }
                    (
                        Opcode::IntAnd
                        | Opcode::IntOr
                        | Opcode::IntXor
                        | Opcode::IntShl
                        | Opcode::IntShr,
                        2,
                    ) => match (int_src(&args[0]), int_src(&args[1])) {
                        (Some(a), Some(b)) => {
                            let op = IntBit::from_opcode(*opcode).expect("bit opcode");
                            stats.arith += 1;
                            Some(CInstr::BitInt { op, dst, a, b })
                        }
                        _ => None,
                    },
                    (
                        Opcode::IntEq
                        | Opcode::IntLt
                        | Opcode::IntGt
                        | Opcode::IntLeq
                        | Opcode::IntGeq,
                        2,
                    ) => match (int_src(&args[0]), int_src(&args[1])) {
                        (Some(a), Some(b)) => {
                            let cmp = IntCmp::from_opcode(*opcode).expect("cmp opcode");
                            stats.cmps += 1;
                            Some(CInstr::CmpInt { cmp, dst, a, b })
                        }
                        _ => None,
                    },
                    // `assign` needs no type guard: it copies any value,
                    // exactly like the generic path.
                    (Opcode::Assign, 1) => match &args[0] {
                        COperand::Slot(src) => {
                            stats.moves += 1;
                            Some(CInstr::MoveSlot { dst, src: *src })
                        }
                        COperand::Value(v) => {
                            stats.moves += 1;
                            Some(CInstr::LoadImm { dst, v: v.clone() })
                        }
                        COperand::Global(_) => None,
                    },
                    // Byte-iterator stepping: the iterator operand must be
                    // a statically `iterator<bytes>` slot, the amount an
                    // int slot or immediate.
                    (Opcode::IterIncr, 2) => match (is_iter(&args[0]), int_src(&args[1])) {
                        (Some(it), Some(n)) => {
                            stats.iters += 1;
                            Some(CInstr::IterIncrBytes { dst, it, n })
                        }
                        _ => None,
                    },
                    (Opcode::IterDeref, 1) => is_iter(&args[0]).map(|it| {
                        stats.iters += 1;
                        CInstr::IterDerefBytes { dst, it }
                    }),
                    _ => None,
                }
            }
            CInstr::Branch {
                cond: COperand::Slot(s),
                then_pc,
                else_pc,
            } if is_bool.get(*s as usize).copied().unwrap_or(false) => {
                stats.branches += 1;
                Some(CInstr::BrBool {
                    cond: *s,
                    then_pc: *then_pc,
                    else_pc: *else_pc,
                })
            }
            _ => None,
        };
        if let Some(r) = replacement {
            *instr = r;
        }
    }

    // Phase 2: fuse compare-and-branch superinstructions. The branch that
    // consumes the freshly computed flag directly follows the comparison
    // (lowering emits blocks linearly); only the comparison is replaced,
    // the branch itself stays put for explicit jump targets.
    for i in 0..cf.code.len().saturating_sub(1) {
        let CInstr::CmpInt { cmp, dst, a, b } = cf.code[i] else {
            continue;
        };
        let (then_pc, else_pc) = match cf.code[i + 1] {
            CInstr::BrBool {
                cond,
                then_pc,
                else_pc,
            } if cond == dst => (then_pc, else_pc),
            CInstr::Branch {
                cond: COperand::Slot(s),
                then_pc,
                else_pc,
            } if s == dst => (then_pc, else_pc),
            _ => continue,
        };
        cf.code[i] = CInstr::BrIfInt {
            cmp,
            a,
            b,
            dst,
            then_pc,
            else_pc,
        };
        stats.fused += 1;
    }

    // Phase 3: fuse fixed-width integer reads. Only the run's leading
    // `assign` is replaced; a jump into the middle of a run still finds
    // the original instructions.
    for p in 0..cf.code.len() {
        if let Some(fused) = read_uint_run(&cf.code, p) {
            cf.code[p] = fused;
            stats.reads += 1;
        }
    }
}

/// Matches the run codegen emits for a `UInt(w)`/`UIntLE(w)` field at
/// `p`, in its specialized form, and returns the `ReadUInt` covering it
/// (up to 8 bytes; longer fields fuse their first 8). Accepted per byte
/// `k`, with `acc`, `b`, `it` (and `sh`) fixed, distinct slots:
///
/// ```text
/// b = iterator.deref it ; it = iterator.incr it 1
/// big endian:    acc = int.shl acc 8   ; acc = int.or acc b
/// little endian: sh = int.shl b (8*k)  ; acc = int.or acc sh
/// ```
///
/// For `k == 0` the accumulator is still the constant 0, which the
/// optimizer propagates: `acc = assign 0` may stand for the shift and `0`
/// for `acc` as the `or`'s first operand.
fn read_uint_run(code: &[CInstr], p: usize) -> Option<CInstr> {
    let CInstr::LoadImm {
        dst: acc,
        v: Value::Int(0),
    } = code[p]
    else {
        return None;
    };
    // (b, it, sh) fixed by the first byte.
    let mut slots: Option<(u16, u16, Option<u16>)> = None;
    let mut width = 0u8;
    while width < 8 {
        let q = p + 1 + 4 * usize::from(width);
        let Some(
            [CInstr::IterDerefBytes { dst: b, it }, CInstr::IterIncrBytes {
                dst: it_dst,
                it: it_src,
                n: IntSrc::Imm(1),
            }, shift, or],
        ) = code.get(q..q + 4)
        else {
            break;
        };
        let (b, it) = (*b, *it);
        if *it_dst != it || *it_src != it {
            break;
        }
        let first = width == 0;
        let acc_operand = |s: &IntSrc| *s == IntSrc::Slot(acc) || (first && *s == IntSrc::Imm(0));
        let sh = match (shift, or) {
            (
                CInstr::BitInt {
                    op: IntBit::Shl,
                    dst,
                    a,
                    b: IntSrc::Imm(8),
                },
                CInstr::BitInt {
                    op: IntBit::Or,
                    dst: or_dst,
                    a: or_a,
                    b: IntSrc::Slot(or_b),
                },
            ) if *dst == acc
                && acc_operand(a)
                && *or_dst == acc
                && acc_operand(or_a)
                && *or_b == b =>
            {
                None
            }
            (
                CInstr::LoadImm {
                    dst,
                    v: Value::Int(0),
                },
                CInstr::BitInt {
                    op: IntBit::Or,
                    dst: or_dst,
                    a: or_a,
                    b: IntSrc::Slot(or_b),
                },
            ) if first && *dst == acc && *or_dst == acc && acc_operand(or_a) && *or_b == b => None,
            (
                CInstr::BitInt {
                    op: IntBit::Shl,
                    dst: sh,
                    a: IntSrc::Slot(sh_src),
                    b: IntSrc::Imm(amount),
                },
                CInstr::BitInt {
                    op: IntBit::Or,
                    dst: or_dst,
                    a: or_a,
                    b: IntSrc::Slot(or_b),
                },
            ) if *sh_src == b
                && *amount == 8 * i64::from(width)
                && *or_dst == acc
                && acc_operand(or_a)
                && *or_b == *sh =>
            {
                Some(*sh)
            }
            _ => break,
        };
        match slots {
            None => slots = Some((b, it, sh)),
            Some(fixed) if fixed == (b, it, sh) => {}
            Some(_) => break,
        }
        width += 1;
    }
    let (b, it, sh) = slots?;
    // Distinct slots: the fused write order is then unobservable.
    let distinct =
        acc != b && acc != it && b != it && sh.is_none_or(|s| s != acc && s != b && s != it);
    if !distinct {
        return None;
    }
    Some(CInstr::ReadUInt {
        acc,
        b,
        sh,
        it,
        width,
        end_pc: (p + 1 + 4 * usize::from(width)) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::link_with_priorities;
    use crate::parser::parse_module;

    fn specialized(src: &str) -> (CompiledProgram, SpecStats) {
        let m = parse_module(src).unwrap();
        let linked = link_with_priorities(vec![m]).unwrap();
        let mut prog = crate::bytecode::compile(&linked).unwrap();
        let stats = specialize_program(&mut prog);
        (prog, stats)
    }

    const LOOP: &str = r#"
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

    #[test]
    fn int_loop_specializes_and_fuses() {
        let (prog, stats) = specialized(LOOP);
        let f = prog.func("M::sum").unwrap();
        assert!(
            f.code.iter().any(|i| matches!(i, CInstr::AddInt { .. })),
            "{:#?}",
            f.code
        );
        assert!(
            f.code.iter().any(|i| matches!(i, CInstr::BrIfInt { .. })),
            "cmp+branch must fuse: {:#?}",
            f.code
        );
        assert!(
            f.code.iter().any(|i| matches!(i, CInstr::LoadImm { .. })),
            "{:#?}",
            f.code
        );
        assert!(stats.arith >= 2 && stats.fused >= 1, "{stats:?}");
    }

    #[test]
    fn fused_branch_keeps_original_at_next_pc() {
        // The pc after a BrIfInt still holds the branch, so explicit jumps
        // to it keep working.
        let (prog, _) = specialized(LOOP);
        let f = prog.func("M::sum").unwrap();
        let i = f
            .code
            .iter()
            .position(|i| matches!(i, CInstr::BrIfInt { .. }))
            .unwrap();
        assert!(
            matches!(f.code[i + 1], CInstr::Branch { .. } | CInstr::BrBool { .. }),
            "{:?}",
            f.code[i + 1]
        );
    }

    #[test]
    fn untyped_slots_stay_generic() {
        let (prog, stats) = specialized(
            r#"
module M
int<64> f(any x) {
    local int<64> y
    y = int.add x 1
    return y
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        assert!(
            f.code.iter().any(|i| matches!(
                i,
                CInstr::Op {
                    opcode: Opcode::IntAdd,
                    ..
                }
            )),
            "any-typed operand must not specialize: {:#?}",
            f.code
        );
        assert_eq!(stats.arith, 0);
    }

    #[test]
    fn global_operands_and_targets_stay_generic() {
        let (prog, _) = specialized(
            r#"
module M
global int<64> g = 0
void f() {
    g = int.add g 1
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        // Global target: still the GlobalStore-wrapped generic op.
        assert!(
            f.code.iter().any(|i| matches!(
                i,
                CInstr::GlobalStore { inner, .. }
                    if matches!(&**inner, CInstr::Op { opcode: Opcode::IntAdd, .. })
            )),
            "{:#?}",
            f.code
        );
    }

    #[test]
    fn immediates_become_imm_operands() {
        let (prog, _) = specialized(
            r#"
module M
int<64> f(int<64> a) {
    local int<64> x
    x = int.add a 7
    return x
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        assert!(
            f.code.iter().any(|i| matches!(
                i,
                CInstr::AddInt {
                    b: IntSrc::Imm(7),
                    ..
                }
            )),
            "{:#?}",
            f.code
        );
    }

    const ITER: &str = r#"
module M
int<64> f(ref<bytes> d, any a, int<64> n) {
    local iterator<bytes> it
    local any loose
    local int<64> b
    local int<64> c
    it = bytes.begin d
    b = iterator.deref it
    it = iterator.incr it n
    it = iterator.incr it 2
    loose = bytes.begin d
    c = iterator.deref loose
    loose = iterator.incr it a
    return b
}
"#;

    #[test]
    fn byte_iterator_ops_specialize_on_typed_slots_only() {
        let (prog, stats) = specialized(ITER);
        let f = prog.func("M::f").unwrap();
        let incr = f
            .code
            .iter()
            .filter(|i| matches!(i, CInstr::IterIncrBytes { .. }))
            .count();
        let deref = f
            .code
            .iter()
            .filter(|i| matches!(i, CInstr::IterDerefBytes { .. }))
            .count();
        // The `any`-typed iterator and the `any`-typed amount stay generic.
        assert_eq!((incr, deref), (2, 1), "{:#?}", f.code);
        assert_eq!(stats.iters, 3, "{stats:?}");
        assert_eq!(stats.moves, 0, "{stats:?}");
    }

    const ACCESS: &str = r#"
module M
type T = struct { int<64> a, int<64> b }
int<64> f(ref<T> t, any loose, tuple<any, any> p, bool x, bool y) {
    local int<64> v
    local any w
    local bool z
    v = struct.get t b
    struct.set t a v
    v = struct.get loose b
    struct.set loose a v
    v = struct.get t nope
    w = tuple.get p 1
    w = tuple.get loose 1
    z = bool.and x y
    z = bool.or x y
    z = bool.or x w
    z = equal w 3
    z = unequal v w
    return v
}
"#;

    #[test]
    fn typed_slot_accesses_bind_and_untyped_stay_generic() {
        let (prog, stats) = specialized(ACCESS);
        let f = prog.func("M::f").unwrap();
        let count = |pred: &dyn Fn(&CInstr) -> bool| f.code.iter().filter(|i| pred(i)).count();
        // `t` is `ref<T>`: its get/set bind `b` and `a` to indices 1 and 0.
        assert!(f.code.iter().any(|i| matches!(
            i,
            CInstr::StructGetSlot { idx: 1, ty, .. } if &**ty == "T"
        )));
        assert!(f
            .code
            .iter()
            .any(|i| matches!(i, CInstr::StructSetSlot { idx: 0, .. })));
        // The `any` object and the unknown field stay generic.
        let generic =
            |op: Opcode| count(&|i| matches!(i, CInstr::Op { opcode, .. } if *opcode == op));
        assert_eq!(generic(Opcode::StructGet), 2, "{:#?}", f.code);
        assert_eq!(generic(Opcode::StructSet), 1, "{:#?}", f.code);
        assert_eq!(generic(Opcode::TupleGet), 1, "{:#?}", f.code);
        assert_eq!(
            count(&|i| matches!(i, CInstr::TupleGetSlot { idx: 1, .. })),
            1
        );
        // bool ops need both operands bool slots; `equal` takes anything.
        assert_eq!(count(&|i| matches!(i, CInstr::BoolSlot { .. })), 2);
        assert_eq!(generic(Opcode::BoolOr), 1, "{:#?}", f.code);
        assert_eq!(count(&|i| matches!(i, CInstr::EqualSlot { .. })), 2);
        assert_eq!(
            (stats.structs, stats.tuples, stats.bools),
            (2, 1, 4),
            "{stats:?}"
        );
    }

    /// A generated `UInt(2)` field followed by a `UIntLE(2)` one, in the
    /// unoptimized shape (the optimized one is covered by the VM tests).
    const READS: &str = r#"
module M
int<64> f(ref<bytes> d) {
    local iterator<bytes> it
    local int<64> acc
    local int<64> b
    local int<64> acc2
    local int<64> b2
    local int<64> sh2
    it = bytes.begin d
    acc = assign 0
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
    acc = assign 0
    b = iterator.deref it
    it = iterator.incr it 2
    return acc
}
"#;

    #[test]
    fn fixed_width_runs_fuse_and_keep_their_constituents() {
        let (prog, stats) = specialized(READS);
        let f = prog.func("M::f").unwrap();
        let reads: Vec<(usize, &CInstr)> = f
            .code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, CInstr::ReadUInt { .. }))
            .collect();
        assert_eq!(stats.reads, 2, "{:#?}", f.code);
        let (
            pc,
            CInstr::ReadUInt {
                sh: None,
                width: 2,
                end_pc,
                ..
            },
        ) = reads[0]
        else {
            panic!("{:?}", reads[0]);
        };
        assert_eq!(*end_pc as usize, pc + 9);
        // The constituents stay at their pcs for jumps and fallbacks.
        assert!(matches!(f.code[pc + 1], CInstr::IterDerefBytes { .. }));
        let (
            pc2,
            CInstr::ReadUInt {
                sh: Some(_),
                width: 2,
                end_pc,
                ..
            },
        ) = reads[1]
        else {
            panic!("{:?}", reads[1]);
        };
        assert_eq!((pc2, *end_pc as usize), (pc + 9, pc + 18));
        // The trailing `assign 0` is not followed by a one-byte step.
        assert!(matches!(f.code[pc + 18], CInstr::LoadImm { .. }));
    }

    #[test]
    fn specialized_render_matches_generic() {
        // Trace parity: the specialized instruction renders exactly like
        // the generic one it replaced.
        for (src, func) in [
            (LOOP, "M::sum"),
            (ITER, "M::f"),
            (ACCESS, "M::f"),
            (READS, "M::f"),
        ] {
            let m = parse_module(src).unwrap();
            let linked = link_with_priorities(vec![m]).unwrap();
            let plain = crate::bytecode::compile(&linked).unwrap();
            let mut spec = plain.clone();
            specialize_program(&mut spec);
            assert_renders_match(plain.func(func).unwrap(), spec.func(func).unwrap());
        }
    }

    fn assert_renders_match(pf: &CFunc, sf: &CFunc) {
        for (p, s) in pf.code.iter().zip(sf.code.iter()) {
            if matches!(s, CInstr::BrIfInt { .. }) {
                // Fused: renders as "cmp ; branch"; the VM traces it as
                // the two original lines.
                let both = s.render();
                let (cmp_part, br_part) = both.split_once(" ; ").unwrap();
                assert_eq!(p.render(), cmp_part);
                assert!(br_part.starts_with("if s"), "{br_part}");
            } else {
                assert_eq!(p.render(), s.render());
            }
        }
    }
}
