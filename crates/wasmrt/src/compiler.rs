//! MiniScript AST → typed stack bytecode, by fixpoint type inference.
//!
//! The produced code is **monomorphic**: every operator is an `i64.*` or
//! `f64.*` instruction picked at compile time, the way a WebAssembly
//! producer lowers a typed source language. MiniScript has no type
//! annotations, so the compiler *infers* a static type assignment:
//!
//! * every local slot, global slot, function parameter, function return,
//!   and table element gets a *type cell*;
//! * one compilation pass walks the whole program in a fixed order,
//!   emitting code under the current cell assignment while joining every
//!   observed value class into the cells it flows into;
//! * if any cell changed, the emitted code is discarded and the pass
//!   re-runs; the first pass that changes nothing yields the final module.
//!
//! The value-class lattice is `Unknown < {Bool, Int, Str, Tab} `, with
//! `Int < F64` (mixed integer/float arithmetic widens, and an `I2F` is
//! inserted at the use site) and `Nil` joining transparently into every
//! class (nil-able values share their class's representation; `nil` is the
//! reserved sentinel [`crate::layout::NIL`]). Table handles (`Tab`) are
//! addresses in linear memory and are *integer-compatible*: `Int ∨ Tab =
//! Tab`, so the Lua idiom of using `0` as a null child pointer (see the
//! binary-trees workload) type-checks and compiles to raw i64 compares.
//! A value of such a class may be either at run time, so rendering it
//! (`print`, `write`, `tostring`) is a compile error; `..` renders it as
//! an integer. `..` of a table class that never met an integer is a
//! compile error, as concatenating a table is a run-time error in the
//! reference; since a class can gain its `Int` in a later pass, that error
//! is raised only by the pass that converges.
//! Joining `Bool`/`Str` with a numeric class is a compile error.
//!
//! Table identities unify (union–find) when tables flow together through
//! calls, stores, or joins; each table is either integer-keyed (`Arr`,
//! dense array with inline fast paths) or string-keyed (`Map`, host hash
//! part) — using both key kinds on one table is a compile error, as is a
//! float key.
//!
//! Slot allocation never reuses indices (unlike `jsrt`, which recycles
//! sibling-scope slots): a frame slot is a *typed identity* and must stay
//! stable across passes. Convergence is monotone (cells only move up the
//! lattice), and a 100-pass guard backstops pathological programs.
//!
//! The finished module is checked by [`crate::bytecode::validate`] before
//! it is returned.

use crate::bytecode::{validate, Bc, Builtin, Const, Module, Op, Proto, TyCode};
use miniscript::{BinOp, Block, Chunk, Expr, Stat, Target, UnOp};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Compile-time error (including static type conflicts).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Description.
    pub message: String,
}

impl CompileError {
    fn new(message: impl Into<String>) -> CompileError {
        CompileError { message: message.into() }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl Error for CompileError {}

/// Upper bound on type-inference passes.
const MAX_PASSES: usize = 100;

/// Compiles a parsed chunk into a typed, validated [`Module`].
///
/// # Errors
///
/// Returns [`CompileError`] for unknown functions, arity mismatches,
/// resource overflows, and static type conflicts (e.g. a table indexed by
/// both integer and string keys, or arithmetic on a string).
///
/// # Examples
///
/// ```
/// let chunk = miniscript::parse("print(1 + 2)")?;
/// let module = wasmrt::compile(&chunk)?;
/// assert_eq!(module.protos.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(chunk: &Chunk) -> Result<Module, CompileError> {
    let mut func_ids = HashMap::new();
    for (i, f) in chunk.functions.iter().enumerate() {
        if func_ids.insert(f.name.clone(), i).is_some() {
            return Err(CompileError::new(format!("function `{}` defined twice", f.name)));
        }
        if Builtin::by_name(&f.name).is_some() {
            return Err(CompileError::new(format!("function `{}` shadows a builtin", f.name)));
        }
        if f.params.len() > 7 {
            return Err(CompileError::new(format!(
                "function `{}` has too many parameters (max 7)",
                f.name
            )));
        }
    }

    let mut env = TypeEnv::new(chunk.functions.len() + 1);
    for (i, f) in chunk.functions.iter().enumerate() {
        env.slots[i] = vec![ValType::Unknown; f.params.len()];
    }

    for _ in 0..MAX_PASSES {
        env.begin_pass();
        let mut protos = Vec::new();
        for (i, f) in chunk.functions.iter().enumerate() {
            let mut c = FnCompiler::new(&f.name, i, &func_ids, chunk, &mut env);
            for p in &f.params {
                c.declare_local(p)?;
            }
            c.block(&f.body)?;
            c.emit(Bc::new(Op::Ret, 0), 0);
            protos.push(c.finish(f.params.len() as u8));
        }
        let main_idx = chunk.functions.len();
        let mut c = FnCompiler::new("main", main_idx, &func_ids, chunk, &mut env);
        c.block(&chunk.main)?;
        c.emit(Bc::new(Op::Ret, 0), 0);
        protos.push(c.finish(0));

        if !env.changed {
            if let Some(e) = env.deferred.take() {
                return Err(e);
            }
            let module = Module {
                protos,
                main: main_idx,
                globals: env.globals.iter().map(|(n, _)| n.clone()).collect(),
            };
            validate(&module)
                .map_err(|e| CompileError::new(format!("internal validation failure: {e}")))?;
            return Ok(module);
        }
    }
    Err(CompileError::new("type inference did not converge"))
}

/// A static value class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValType {
    /// No value observed yet.
    Unknown,
    /// Only `nil` observed.
    Nil,
    /// Boolean 0/1 (nil-able).
    Bool,
    /// Raw i64.
    Int,
    /// Raw f64 bits.
    F64,
    /// Interned string id.
    Str,
    /// Table handle; the id indexes the union–find table graph.
    Tab(u32),
}

use ValType::{Bool, F64, Int, Nil, Str, Tab, Unknown};

fn is_float(t: ValType) -> bool {
    t == F64
}

/// Classes that are represented as (and may be operated on as) raw i64.
fn is_intish(t: ValType) -> bool {
    matches!(t, Int | Tab(_) | Unknown)
}

fn type_name(t: ValType) -> &'static str {
    match t {
        Unknown => "unknown",
        Nil => "nil",
        Bool => "boolean",
        Int => "integer",
        F64 => "float",
        Str => "string",
        Tab(_) => "table",
    }
}

/// What a table is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TabKind {
    /// No key observed yet.
    Open,
    /// Integer keys; dense array with the given element class.
    Arr(ValType),
    /// String keys; host hash part with the given element class.
    Map(ValType),
}

struct TabNode {
    parent: u32,
    kind: TabKind,
    /// An `Int` was joined into this class (`Int ∨ Tab = Tab`), so a
    /// value of it may be an integer at run time.
    int_joined: bool,
}

/// The persistent type state: cells for slots/globals/returns, the table
/// union–find, stable table-literal site ids, and per-site coercion memos.
struct TypeEnv {
    /// Per-function local-slot cells (`main` is the last function).
    slots: Vec<Vec<ValType>>,
    /// Per-function return cells.
    rets: Vec<ValType>,
    /// Global slots, in allocation (= first-access walk) order.
    globals: Vec<(String, ValType)>,
    global_ids: HashMap<String, usize>,
    tabs: Vec<TabNode>,
    /// Table-literal site → table id (stable across passes).
    site_tids: Vec<u32>,
    /// Per-site operand-coercion decisions from the previous pass.
    memos: Vec<u8>,
    site_counter: usize,
    memo_counter: usize,
    changed: bool,
    /// An error that stands only if this pass converges.
    deferred: Option<CompileError>,
}

impl TypeEnv {
    fn new(nfuncs: usize) -> TypeEnv {
        TypeEnv {
            slots: vec![Vec::new(); nfuncs],
            rets: vec![Unknown; nfuncs],
            globals: Vec::new(),
            global_ids: HashMap::new(),
            tabs: Vec::new(),
            site_tids: Vec::new(),
            memos: Vec::new(),
            site_counter: 0,
            memo_counter: 0,
            changed: false,
            deferred: None,
        }
    }

    fn begin_pass(&mut self) {
        self.site_counter = 0;
        self.memo_counter = 0;
        self.changed = false;
        self.deferred = None;
    }

    fn find(&mut self, t: u32) -> u32 {
        let mut root = t;
        while self.tabs[root as usize].parent != root {
            root = self.tabs[root as usize].parent;
        }
        let mut cur = t;
        while cur != root {
            let next = self.tabs[cur as usize].parent;
            self.tabs[cur as usize].parent = root;
            cur = next;
        }
        root
    }

    fn norm(&mut self, t: ValType) -> ValType {
        match t {
            Tab(id) => Tab(self.find(id)),
            other => other,
        }
    }

    fn new_tab(&mut self) -> u32 {
        let id = self.tabs.len() as u32;
        self.tabs.push(TabNode { parent: id, kind: TabKind::Open, int_joined: false });
        id
    }

    /// Stable table id for the next table-literal site in walk order.
    fn next_site_tab(&mut self) -> u32 {
        let idx = self.site_counter;
        self.site_counter += 1;
        if idx >= self.site_tids.len() {
            let id = self.new_tab();
            self.site_tids.push(id);
        }
        self.find(self.site_tids[idx])
    }

    /// The previous pass's coercion decision for the next memo site.
    fn next_memo(&mut self) -> (usize, u8) {
        let idx = self.memo_counter;
        self.memo_counter += 1;
        if idx >= self.memos.len() {
            self.memos.push(0);
        }
        (idx, self.memos[idx])
    }

    /// Records this pass's coercion decision; a change forces another pass.
    fn resolve_memo(&mut self, idx: usize, want: u8) {
        if self.memos[idx] != want {
            self.memos[idx] = want;
            self.changed = true;
        }
    }

    /// Joins two value classes (the lattice in the module docs).
    fn join(&mut self, a: ValType, b: ValType) -> Result<ValType, CompileError> {
        let a = self.norm(a);
        let b = self.norm(b);
        Ok(match (a, b) {
            (Unknown, x) | (x, Unknown) => x,
            (Nil, x) | (x, Nil) => x,
            (x, y) if x == y => x,
            (Int, F64) | (F64, Int) => F64,
            (Int, Tab(t)) | (Tab(t), Int) => {
                let node = &mut self.tabs[t as usize];
                if !node.int_joined {
                    node.int_joined = true;
                    self.changed = true;
                }
                Tab(t)
            }
            (Tab(x), Tab(y)) => Tab(self.unify(x, y)?),
            (x, y) => {
                return Err(CompileError::new(format!(
                    "type conflict: {} vs {}",
                    type_name(x),
                    type_name(y)
                )));
            }
        })
    }

    fn unify(&mut self, a: u32, b: u32) -> Result<u32, CompileError> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(ra);
        }
        // Deterministic: the smaller id becomes the root.
        let (root, child) = if ra < rb { (ra, rb) } else { (rb, ra) };
        let ck = self.tabs[child as usize].kind;
        let rk = self.tabs[root as usize].kind;
        let merged = match (rk, ck) {
            (TabKind::Open, k) | (k, TabKind::Open) => k,
            (TabKind::Arr(x), TabKind::Arr(y)) => TabKind::Arr(self.join(x, y)?),
            (TabKind::Map(x), TabKind::Map(y)) => TabKind::Map(self.join(x, y)?),
            _ => {
                return Err(CompileError::new(
                    "table used with both integer and string keys",
                ));
            }
        };
        self.tabs[child as usize].parent = root;
        self.tabs[root as usize].kind = merged;
        self.tabs[root as usize].int_joined |= self.tabs[child as usize].int_joined;
        self.changed = true;
        Ok(root)
    }

    /// Whether a value of class `t` may be either an integer or a table.
    fn int_or_tab(&mut self, t: ValType) -> bool {
        match t {
            Tab(id) => {
                let r = self.find(id);
                self.tabs[r as usize].int_joined
            }
            _ => false,
        }
    }

    /// Records an integer-keyed use; returns the element class.
    fn arr_elem(&mut self, t: u32) -> Result<ValType, CompileError> {
        let r = self.find(t);
        match self.tabs[r as usize].kind {
            TabKind::Arr(e) => Ok(e),
            TabKind::Open => {
                self.tabs[r as usize].kind = TabKind::Arr(Unknown);
                self.changed = true;
                Ok(Unknown)
            }
            TabKind::Map(_) => Err(CompileError::new(
                "table used with both integer and string keys",
            )),
        }
    }

    /// Records a string-keyed use; returns the element class.
    fn map_elem(&mut self, t: u32) -> Result<ValType, CompileError> {
        let r = self.find(t);
        match self.tabs[r as usize].kind {
            TabKind::Map(e) => Ok(e),
            TabKind::Open => {
                self.tabs[r as usize].kind = TabKind::Map(Unknown);
                self.changed = true;
                Ok(Unknown)
            }
            TabKind::Arr(_) => Err(CompileError::new(
                "table used with both integer and string keys",
            )),
        }
    }

    /// Joins `v` into an array element cell.
    fn join_arr_elem(&mut self, t: u32, v: ValType) -> Result<(), CompileError> {
        let old = self.arr_elem(t)?;
        let new = self.join(old, v)?;
        let r = self.find(t);
        if !self.same(old, new) {
            self.tabs[r as usize].kind = TabKind::Arr(new);
            self.changed = true;
        }
        Ok(())
    }

    /// Joins `v` into a map element cell.
    fn join_map_elem(&mut self, t: u32, v: ValType) -> Result<(), CompileError> {
        let old = self.map_elem(t)?;
        let new = self.join(old, v)?;
        let r = self.find(t);
        if !self.same(old, new) {
            self.tabs[r as usize].kind = TabKind::Map(new);
            self.changed = true;
        }
        Ok(())
    }

    fn same(&mut self, a: ValType, b: ValType) -> bool {
        self.norm(a) == self.norm(b)
    }

    fn global_slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.global_ids.get(name) {
            return i;
        }
        let i = self.globals.len();
        self.globals.push((name.to_string(), Unknown));
        self.global_ids.insert(name.to_string(), i);
        self.changed = true;
        i
    }
}

struct LoopCtx {
    break_jumps: Vec<usize>,
}

struct FnCompiler<'a> {
    name: String,
    fidx: usize,
    func_ids: &'a HashMap<String, usize>,
    chunk: &'a Chunk,
    env: &'a mut TypeEnv,
    code: Vec<Bc>,
    consts: Vec<Const>,
    locals: Vec<(String, u16)>,
    scope_marks: Vec<usize>,
    next_slot: u16,
    depth: i32,
    max_depth: i32,
    loops: Vec<LoopCtx>,
}

impl<'a> FnCompiler<'a> {
    fn new(
        name: &str,
        fidx: usize,
        func_ids: &'a HashMap<String, usize>,
        chunk: &'a Chunk,
        env: &'a mut TypeEnv,
    ) -> FnCompiler<'a> {
        FnCompiler {
            name: name.to_string(),
            fidx,
            func_ids,
            chunk,
            env,
            code: Vec::new(),
            consts: Vec::new(),
            locals: Vec::new(),
            scope_marks: Vec::new(),
            next_slot: 0,
            depth: 0,
            max_depth: 0,
            loops: Vec::new(),
        }
    }

    fn finish(self, nparams: u8) -> Proto {
        Proto {
            name: self.name,
            nparams,
            nlocals: self.next_slot.max(nparams as u16),
            max_stack: self.max_depth.max(1) as u16,
            code: self.code,
            consts: self.consts,
        }
    }

    fn emit(&mut self, bc: Bc, stack_delta: i32) -> usize {
        self.code.push(bc);
        self.depth += stack_delta;
        debug_assert!(self.depth >= 0, "operand stack underflow in `{}`", self.name);
        self.max_depth = self.max_depth.max(self.depth);
        self.code.len() - 1
    }

    fn emit_jump(&mut self, op: Op, stack_delta: i32) -> usize {
        self.emit(Bc::new(op, 0), stack_delta)
    }

    fn patch_here(&mut self, at: usize) {
        let off = self.code.len() as i32 - at as i32 - 1;
        self.code[at] = Bc::new(self.code[at].op, off);
    }

    fn jump_back(&mut self, op: Op, target: usize, stack_delta: i32) {
        let off = target as i32 - self.code.len() as i32 - 1;
        self.emit(Bc::new(op, off), stack_delta);
    }

    /// Allocates a fresh frame slot. Slots are never reused (a slot is a
    /// typed identity), so the index doubles as the cell index in the env.
    fn alloc_slot(&mut self) -> Result<u16, CompileError> {
        let s = self.next_slot;
        if s >= 4000 {
            return Err(CompileError::new(format!(
                "function `{}` needs too many locals",
                self.name
            )));
        }
        self.next_slot += 1;
        if self.env.slots[self.fidx].len() <= s as usize {
            self.env.slots[self.fidx].push(Unknown);
        }
        Ok(s)
    }

    fn declare_local(&mut self, name: &str) -> Result<u16, CompileError> {
        let s = self.alloc_slot()?;
        self.locals.push((name.to_string(), s));
        Ok(s)
    }

    fn resolve_local(&self, name: &str) -> Option<u16> {
        self.locals.iter().rev().find(|(n, _)| n == name).map(|(_, s)| *s)
    }

    fn enter_scope(&mut self) {
        self.scope_marks.push(self.locals.len());
    }

    fn leave_scope(&mut self) {
        // Names go out of scope; the slots stay allocated (typed identity).
        let mark = self.scope_marks.pop().expect("scope underflow");
        self.locals.truncate(mark);
    }

    fn add_const(&mut self, c: Const) -> Result<i32, CompileError> {
        let found = self.consts.iter().position(|k| match (k, &c) {
            (Const::Int(a), Const::Int(b)) => a == b,
            (Const::Float(a), Const::Float(b)) => a.to_bits() == b.to_bits(),
            (Const::Str(a), Const::Str(b)) => a == b,
            _ => false,
        });
        let idx = match found {
            Some(i) => i,
            None => {
                self.consts.push(c);
                self.consts.len() - 1
            }
        };
        if idx >= (1 << 23) {
            return Err(CompileError::new("too many constants"));
        }
        Ok(idx as i32)
    }

    fn slot_ty(&mut self, slot: u16) -> ValType {
        let t = self.env.slots[self.fidx][slot as usize];
        self.env.norm(t)
    }

    /// Coerces the TOS value of class `t` into a cell currently of class
    /// `cell` (an `I2F` when an integer flows into a float cell).
    fn coerce_to(&mut self, cell: ValType, t: ValType) -> ValType {
        if is_float(cell) && t == Int {
            self.emit(Bc::new(Op::I2F, 0), 0);
            F64
        } else {
            t
        }
    }

    /// Stores TOS into a local: coerce to the cell, join, `local.set`.
    fn store_local(&mut self, slot: u16, t: ValType) -> Result<(), CompileError> {
        let cell = self.slot_ty(slot);
        let t = self.coerce_to(cell, t);
        let new = self.env.join(cell, t).map_err(|e| self.err_ctx(e))?;
        if !self.env.same(cell, new) {
            self.env.slots[self.fidx][slot as usize] = new;
            self.env.changed = true;
        }
        self.emit(Bc::new(Op::LocalSet, slot as i32), -1);
        Ok(())
    }

    fn err_ctx(&self, e: CompileError) -> CompileError {
        CompileError::new(format!("in `{}`: {}", self.name, e.message))
    }

    /// Emits a pair of numeric operands with cross-operand widening: the
    /// first operand's promotion is decided by the previous pass's memo
    /// (an `I2F` cannot be inserted retroactively under the second
    /// operand), the second is widened in place.
    fn numeric_pair(
        &mut self,
        first: &Expr,
        second: &Expr,
        force_float: bool,
    ) -> Result<(ValType, ValType, bool), CompileError> {
        let (midx, memo) = self.env.next_memo();
        let ta = self.expr(first)?;
        let mut ta_eff = ta;
        if memo & 1 != 0 && is_intish(ta) && ta != Unknown {
            self.emit(Bc::new(Op::I2F, 0), 0);
            ta_eff = F64;
        }
        let tb = self.expr(second)?;
        let want = (is_intish(ta) && ta != Unknown && (force_float || is_float(tb))) as u8;
        self.env.resolve_memo(midx, want);
        let float = force_float || is_float(ta) || is_float(tb);
        let mut tb_eff = tb;
        if float && is_intish(tb) && tb != Unknown {
            self.emit(Bc::new(Op::I2F, 0), 0);
            tb_eff = F64;
        }
        if want != 0 {
            ta_eff = F64;
        }
        Ok((ta_eff, tb_eff, float))
    }

    fn expr(&mut self, e: &Expr) -> Result<ValType, CompileError> {
        Ok(match e {
            Expr::Nil => {
                self.emit(Bc::new(Op::ConstNil, 0), 1);
                Nil
            }
            Expr::Bool(b) => {
                self.emit(Bc::new(Op::ConstI, *b as i32), 1);
                Bool
            }
            Expr::Int(v) => {
                if (-(1 << 23)..(1 << 23)).contains(v) {
                    self.emit(Bc::new(Op::ConstI, *v as i32), 1);
                } else {
                    let k = self.add_const(Const::Int(*v))?;
                    self.emit(Bc::new(Op::ConstK, k), 1);
                }
                Int
            }
            Expr::Float(v) => {
                let k = self.add_const(Const::Float(*v))?;
                self.emit(Bc::new(Op::ConstK, k), 1);
                F64
            }
            Expr::Str(s) => {
                let k = self.add_const(Const::Str(s.clone()))?;
                self.emit(Bc::new(Op::ConstK, k), 1);
                Str
            }
            Expr::Var(name) => {
                if let Some(slot) = self.resolve_local(name) {
                    self.emit(Bc::new(Op::LocalGet, slot as i32), 1);
                    self.slot_ty(slot)
                } else {
                    let g = self.env.global_slot(name);
                    self.emit(Bc::new(Op::GlobalGet, g as i32), 1);
                    let t = self.env.globals[g].1;
                    self.env.norm(t)
                }
            }
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs)?,
            Expr::Unary { op, expr } => {
                match op {
                    UnOp::Neg => {
                        let t = self.expr(expr)?;
                        if is_float(t) {
                            self.emit(Bc::new(Op::FNeg, 0), 0);
                            F64
                        } else if is_intish(t) {
                            self.emit(Bc::new(Op::INeg, 0), 0);
                            Int
                        } else {
                            return Err(self.err_ctx(CompileError::new(format!(
                                "cannot negate a {}",
                                type_name(t)
                            ))));
                        }
                    }
                    UnOp::Not => {
                        let t = self.expr(expr)?;
                        if t != Bool {
                            self.emit(Bc::new(Op::TestNil, 0), 0);
                        }
                        self.emit(Bc::new(Op::BNot, 0), 0);
                        Bool
                    }
                    UnOp::Len => {
                        let t = self.expr(expr)?;
                        match t {
                            Str => {
                                self.emit(Bc::new(Op::SLen, 0), 0);
                            }
                            Tab(_) | Unknown | Int => {
                                self.emit(Bc::new(Op::ALen, 0), 0);
                            }
                            other => {
                                return Err(self.err_ctx(CompileError::new(format!(
                                    "cannot take the length of a {}",
                                    type_name(other)
                                ))));
                            }
                        }
                        Int
                    }
                }
            }
            Expr::And(l, r) => {
                // tmp = l; if tmp then tmp = r end; push tmp
                let tmp = self.alloc_slot()?;
                let tl = self.expr(l)?;
                self.store_local(tmp, tl)?;
                self.emit(Bc::new(Op::LocalGet, tmp as i32), 1);
                if self.slot_ty(tmp) != Bool {
                    self.emit(Bc::new(Op::TestNil, 0), 0);
                }
                let skip = self.emit_jump(Op::BrIfNot, -1);
                let tr = self.expr(r)?;
                self.store_local(tmp, tr)?;
                self.patch_here(skip);
                self.emit(Bc::new(Op::LocalGet, tmp as i32), 1);
                self.slot_ty(tmp)
            }
            Expr::Or(l, r) => {
                let tmp = self.alloc_slot()?;
                let tl = self.expr(l)?;
                self.store_local(tmp, tl)?;
                self.emit(Bc::new(Op::LocalGet, tmp as i32), 1);
                if self.slot_ty(tmp) != Bool {
                    self.emit(Bc::new(Op::TestNil, 0), 0);
                }
                let skip = self.emit_jump(Op::BrIf, -1);
                let tr = self.expr(r)?;
                self.store_local(tmp, tr)?;
                self.patch_here(skip);
                self.emit(Bc::new(Op::LocalGet, tmp as i32), 1);
                self.slot_ty(tmp)
            }
            Expr::Index { table, key } => {
                let tt = self.expr(table)?;
                let tk = self.expr(key)?;
                self.index_get(tt, tk)?
            }
            Expr::Call { func, args } => self.call(func, args)?,
            Expr::Table(items) => {
                let tid = self.env.next_site_tab();
                let tmp = self.alloc_slot()?;
                self.emit(Bc::new(Op::NewArr, items.len() as i32), 1);
                self.store_local(tmp, Tab(tid))?;
                for (i, item) in items.iter().enumerate() {
                    self.emit(Bc::new(Op::LocalGet, tmp as i32), 1);
                    self.emit(Bc::new(Op::ConstI, i as i32 + 1), 1);
                    let tv = self.expr(item)?;
                    let elem = self.env.arr_elem(tid).map_err(|e| self.err_ctx(e))?;
                    let tv = self.coerce_to(elem, tv);
                    self.env.join_arr_elem(tid, tv).map_err(|e| self.err_ctx(e))?;
                    self.emit(Bc::new(Op::ArrSet, 0), -3);
                }
                self.emit(Bc::new(Op::LocalGet, tmp as i32), 1);
                self.slot_ty(tmp)
            }
        })
    }

    /// `[tab, key]` on the stack → emits the right read op, returns the
    /// element class.
    fn index_get(&mut self, tt: ValType, tk: ValType) -> Result<ValType, CompileError> {
        match tk {
            Str => {
                self.emit(Bc::new(Op::MapGet, 0), -1);
                match tt {
                    Tab(t) => self.env.map_elem(t).map_err(|e| self.err_ctx(e)),
                    Unknown => Ok(Unknown),
                    other => Err(self.err_ctx(CompileError::new(format!(
                        "cannot index a {}",
                        type_name(other)
                    )))),
                }
            }
            Int | Unknown => {
                self.emit(Bc::new(Op::ArrGet, 0), -1);
                match tt {
                    Tab(t) => self.env.arr_elem(t).map_err(|e| self.err_ctx(e)),
                    Unknown => Ok(Unknown),
                    other => Err(self.err_ctx(CompileError::new(format!(
                        "cannot index a {}",
                        type_name(other)
                    )))),
                }
            }
            other => Err(self.err_ctx(CompileError::new(format!(
                "unsupported table key type: {}",
                type_name(other)
            )))),
        }
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<ValType, CompileError> {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let (ta, tb, float) = self.numeric_pair(lhs, rhs, false)?;
                if float {
                    self.require_float_operands(ta, tb)?;
                    let fop = match op {
                        BinOp::Add => Op::FAdd,
                        BinOp::Sub => Op::FSub,
                        _ => Op::FMul,
                    };
                    self.emit(Bc::new(fop, 0), -1);
                    Ok(F64)
                } else {
                    self.require_int_operands(ta, tb)?;
                    let iop = match op {
                        BinOp::Add => Op::IAdd,
                        BinOp::Sub => Op::ISub,
                        _ => Op::IMul,
                    };
                    self.emit(Bc::new(iop, 0), -1);
                    self.env.join(ta, tb).map_err(|e| self.err_ctx(e))
                }
            }
            BinOp::Div => {
                // `/` is always float division.
                let (ta, tb, _) = self.numeric_pair(lhs, rhs, true)?;
                self.require_float_operands(ta, tb)?;
                self.emit(Bc::new(Op::FDiv, 0), -1);
                Ok(F64)
            }
            BinOp::IDiv | BinOp::Mod => {
                let ta = self.expr(lhs)?;
                let tb = self.expr(rhs)?;
                if is_float(ta) || is_float(tb) {
                    return Err(self.err_ctx(CompileError::new(
                        "float floor division/modulo is not supported",
                    )));
                }
                self.require_int_operands(ta, tb)?;
                let iop = if op == BinOp::IDiv { Op::IDiv } else { Op::IRem };
                self.emit(Bc::new(iop, 0), -1);
                Ok(Int)
            }
            BinOp::Concat => {
                let ta = self.expr(lhs)?;
                let tb = self.expr(rhs)?;
                let ca = self.concat_code(ta);
                let cb = self.concat_code(tb);
                self.emit(Bc::concat(ca, cb), -1);
                Ok(Str)
            }
            BinOp::Eq | BinOp::Ne => self.equality(op, lhs, rhs),
            BinOp::Lt => self.comparison(Op::ILt, Op::FLt, lhs, rhs, false),
            BinOp::Le => self.comparison(Op::ILe, Op::FLe, lhs, rhs, false),
            BinOp::Gt => self.comparison(Op::ILt, Op::FLt, lhs, rhs, true),
            BinOp::Ge => self.comparison(Op::ILe, Op::FLe, lhs, rhs, true),
        }
    }

    fn require_float_operands(&self, ta: ValType, tb: ValType) -> Result<(), CompileError> {
        for t in [ta, tb] {
            if !matches!(t, F64 | Unknown) {
                return Err(self.err_ctx(CompileError::new(format!(
                    "arithmetic on a {}",
                    type_name(t)
                ))));
            }
        }
        Ok(())
    }

    fn require_int_operands(&self, ta: ValType, tb: ValType) -> Result<(), CompileError> {
        for t in [ta, tb] {
            if !is_intish(t) {
                return Err(self.err_ctx(CompileError::new(format!(
                    "arithmetic on a {}",
                    type_name(t)
                ))));
            }
        }
        Ok(())
    }

    /// The type code `..` renders a value of class `t` with. An
    /// int-or-table class renders as an integer; a table class with no
    /// `Int` joined is an error, unless a later pass joins one.
    fn concat_code(&mut self, t: ValType) -> TyCode {
        match t {
            Tab(_) if !self.env.int_or_tab(t) => {
                let e = self.err_ctx(CompileError::new("concatenation of a table value"));
                self.env.deferred.get_or_insert(e);
                TyCode::Int
            }
            Int | Tab(_) | Unknown | Nil => TyCode::Int,
            F64 => TyCode::F64,
            Str => TyCode::Str,
            Bool => TyCode::Bool,
        }
    }

    fn ty_code(&self, t: ValType) -> TyCode {
        match t {
            F64 => TyCode::F64,
            Str => TyCode::Str,
            Bool => TyCode::Bool,
            Tab(_) => TyCode::Ref,
            _ => TyCode::Int,
        }
    }

    fn equality(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<ValType, CompileError> {
        // `x == nil` / `x ~= nil` lower to the nil test directly.
        match (lhs, rhs) {
            (Expr::Nil, Expr::Nil) => {
                self.emit(Bc::new(Op::ConstI, (op == BinOp::Eq) as i32), 1);
                return Ok(Bool);
            }
            (e, Expr::Nil) | (Expr::Nil, e) => {
                self.expr(e)?;
                self.emit(Bc::new(Op::TestNil, 0), 0);
                if op == BinOp::Eq {
                    self.emit(Bc::new(Op::BNot, 0), 0);
                }
                return Ok(Bool);
            }
            _ => {}
        }
        let (ta, tb, float) = self.numeric_pair(lhs, rhs, false)?;
        if float {
            self.require_float_operands(ta, tb)?;
            let fop = if op == BinOp::Eq { Op::FEq } else { Op::FNe };
            self.emit(Bc::new(fop, 0), -1);
        } else {
            // Raw word equality: integers, interned strings, booleans,
            // table handles. The classes must be joinable.
            self.env.join(ta, tb).map_err(|e| self.err_ctx(e))?;
            let iop = if op == BinOp::Eq { Op::IEq } else { Op::INe };
            self.emit(Bc::new(iop, 0), -1);
        }
        Ok(Bool)
    }

    fn comparison(
        &mut self,
        iop: Op,
        fop: Op,
        lhs: &Expr,
        rhs: &Expr,
        swap: bool,
    ) -> Result<ValType, CompileError> {
        let (first, second): (&Expr, &Expr) = if swap { (rhs, lhs) } else { (lhs, rhs) };
        let (ta, tb, float) = self.numeric_pair(first, second, false)?;
        if float {
            self.require_float_operands(ta, tb)?;
            self.emit(Bc::new(fop, 0), -1);
        } else {
            self.require_int_operands(ta, tb)?;
            self.emit(Bc::new(iop, 0), -1);
        }
        Ok(Bool)
    }

    fn call(&mut self, func: &str, args: &[Expr]) -> Result<ValType, CompileError> {
        if let Some(&id) = self.func_ids.get(func) {
            let f = &self.chunk.functions[id];
            if f.params.len() != args.len() {
                return Err(CompileError::new(format!(
                    "function `{func}` expects {} arguments, got {}",
                    f.params.len(),
                    args.len()
                )));
            }
            for (i, a) in args.iter().enumerate() {
                let ta = self.expr(a)?;
                let cell = self.env.norm(self.env.slots[id][i]);
                let ta = self.coerce_to(cell, ta);
                let new = self.env.join(cell, ta).map_err(|e| self.err_ctx(e))?;
                if !self.env.same(cell, new) {
                    self.env.slots[id][i] = new;
                    self.env.changed = true;
                }
            }
            let delta = 1 - args.len() as i32;
            self.emit(Bc::call(id as u16, args.len() as u8), delta);
            let r = self.env.rets[id];
            Ok(self.env.norm(r))
        } else if let Some(b) = Builtin::by_name(func) {
            self.builtin_call(b, args)
        } else {
            Err(CompileError::new(format!("unknown function `{func}`")))
        }
    }

    fn builtin_call(&mut self, b: Builtin, args: &[Expr]) -> Result<ValType, CompileError> {
        if args.len() > 4 {
            return Err(self.err_ctx(CompileError::new(format!(
                "builtin `{b:?}` called with more than 4 arguments"
            ))));
        }
        // min/max compare as floats: when argument classes mix, widen every
        // integer argument (decided per-argument by the previous pass).
        let minmax = matches!(b, Builtin::Min | Builtin::Max);
        let (midx, memo) = if minmax { self.env.next_memo() } else { (0, 0) };
        let mut raw = Vec::with_capacity(args.len());
        let mut types = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let t = self.expr(a)?;
            raw.push(t);
            let mut t_eff = t;
            if minmax && memo & (1 << i) != 0 && t == Int {
                self.emit(Bc::new(Op::I2F, 0), 0);
                t_eff = F64;
            }
            types.push(t_eff);
        }
        if minmax {
            // Decide the widening mask from the *pre-widening* classes so
            // the memo is a fixpoint, not an oscillation.
            let mixed = raw.iter().any(|t| is_float(*t)) && raw.contains(&Int);
            let mut want = 0u8;
            if mixed {
                for (i, t) in raw.iter().enumerate() {
                    if *t == Int {
                        want |= 1 << i;
                    }
                }
            }
            self.env.resolve_memo(midx, want);
        }
        // Rendering picks its format from the static type code, and an
        // `Int ∨ Tab` value has none: it is a table handle or an integer.
        if matches!(b, Builtin::Print | Builtin::Write | Builtin::Tostring)
            && types.iter().any(|t| self.env.int_or_tab(*t))
        {
            return Err(self.err_ctx(CompileError::new(format!(
                "builtin `{b:?}` given a value that may be an integer or a table \
                 (int/table ambiguity); convert it with `..` first"
            ))));
        }
        let codes: Vec<TyCode> = types.iter().map(|t| self.ty_code(*t)).collect();
        let delta = 1 - args.len() as i32;
        // `insert(t, v)` appends: record the element class.
        if b == Builtin::Insert {
            if let (Some(Tab(t)), Some(tv)) = (types.first().copied(), types.get(1).copied()) {
                self.env.join_arr_elem(t, tv).map_err(|e| self.err_ctx(e))?;
            }
        }
        self.emit(Bc::callb(b as u16, args.len() as u8, &codes), delta);
        let arg0 = types.first().copied().unwrap_or(Nil);
        Ok(match b {
            Builtin::Print | Builtin::Write | Builtin::Insert => Nil,
            Builtin::Clock | Builtin::Sqrt => F64,
            Builtin::Floor | Builtin::Len | Builtin::Byte => Int,
            Builtin::Abs => {
                if is_float(arg0) {
                    F64
                } else {
                    Int
                }
            }
            Builtin::Min | Builtin::Max => {
                let a = types.first().copied().unwrap_or(Int);
                let c = types.get(1).copied().unwrap_or(Int);
                self.env.join(a, c).map_err(|e| self.err_ctx(e))?
            }
            Builtin::Sub | Builtin::Char | Builtin::Tostring => Str,
        })
    }

    fn block(&mut self, block: &Block) -> Result<(), CompileError> {
        self.enter_scope();
        for stat in block {
            self.stat(stat)?;
        }
        self.leave_scope();
        Ok(())
    }

    /// Emits a condition and leaves a 0/1 truth word on the stack.
    fn condition(&mut self, cond: &Expr) -> Result<(), CompileError> {
        let t = self.expr(cond)?;
        if t != Bool {
            self.emit(Bc::new(Op::TestNil, 0), 0);
        }
        Ok(())
    }

    fn stat(&mut self, stat: &Stat) -> Result<(), CompileError> {
        match stat {
            Stat::Local { name, init } => {
                // Evaluate before declaring so `local x = x` sees the outer x.
                let t = match init {
                    Some(e) => self.expr(e)?,
                    None => {
                        self.emit(Bc::new(Op::ConstNil, 0), 1);
                        Nil
                    }
                };
                let slot = self.declare_local(name)?;
                self.store_local(slot, t)?;
            }
            Stat::Assign { target, value } => match target {
                Target::Name(name) => {
                    let t = self.expr(value)?;
                    if let Some(slot) = self.resolve_local(name) {
                        self.store_local(slot, t)?;
                    } else {
                        let g = self.env.global_slot(name);
                        let cell = self.env.norm(self.env.globals[g].1);
                        let t = self.coerce_to(cell, t);
                        let new = self.env.join(cell, t).map_err(|e| self.err_ctx(e))?;
                        if !self.env.same(cell, new) {
                            self.env.globals[g].1 = new;
                            self.env.changed = true;
                        }
                        self.emit(Bc::new(Op::GlobalSet, g as i32), -1);
                    }
                }
                Target::Index { table, key } => {
                    let tt = self.expr(table)?;
                    let tk = self.expr(key)?;
                    let tv = self.expr(value)?;
                    self.index_set(tt, tk, tv)?;
                }
            },
            Stat::If { arms, else_body } => {
                let mut end_jumps = Vec::new();
                for (i, (cond, body)) in arms.iter().enumerate() {
                    self.condition(cond)?;
                    let skip = self.emit_jump(Op::BrIfNot, -1);
                    self.block(body)?;
                    let last = i == arms.len() - 1 && else_body.is_none();
                    if !last {
                        end_jumps.push(self.emit_jump(Op::Br, 0));
                    }
                    self.patch_here(skip);
                }
                if let Some(body) = else_body {
                    self.block(body)?;
                }
                for j in end_jumps {
                    self.patch_here(j);
                }
            }
            Stat::While { cond, body } => {
                let top = self.code.len();
                self.condition(cond)?;
                let exit = self.emit_jump(Op::BrIfNot, -1);
                self.loops.push(LoopCtx { break_jumps: Vec::new() });
                self.block(body)?;
                self.jump_back(Op::Br, top, 0);
                self.patch_here(exit);
                let ctx = self.loops.pop().expect("loop stack");
                for j in ctx.break_jumps {
                    self.patch_here(j);
                }
            }
            Stat::NumericFor { var, start, stop, step, body } => {
                self.numeric_for(var, start, stop, step.as_ref(), body)?;
            }
            Stat::Return(value) => match value {
                Some(e) => {
                    let t = self.expr(e)?;
                    let cell = self.env.norm(self.env.rets[self.fidx]);
                    let t = self.coerce_to(cell, t);
                    let new = self.env.join(cell, t).map_err(|e| self.err_ctx(e))?;
                    if !self.env.same(cell, new) {
                        self.env.rets[self.fidx] = new;
                        self.env.changed = true;
                    }
                    self.emit(Bc::new(Op::RetV, 0), -1);
                }
                None => {
                    self.emit(Bc::new(Op::Ret, 0), 0);
                }
            },
            Stat::Break => {
                let j = self.emit_jump(Op::Br, 0);
                match self.loops.last_mut() {
                    Some(ctx) => ctx.break_jumps.push(j),
                    None => return Err(CompileError::new("break outside a loop")),
                }
            }
            Stat::ExprStat(e) => {
                self.expr(e)?;
                self.emit(Bc::new(Op::Pop, 0), -1);
            }
            Stat::Do(body) => self.block(body)?,
        }
        Ok(())
    }

    /// `[tab, key, value]` on the stack → emits the right write op.
    fn index_set(&mut self, tt: ValType, tk: ValType, tv: ValType) -> Result<(), CompileError> {
        match tk {
            Str => {
                if let Tab(t) = tt {
                    let elem = self.env.map_elem(t).map_err(|e| self.err_ctx(e))?;
                    let tv = self.coerce_to(elem, tv);
                    self.env.join_map_elem(t, tv).map_err(|e| self.err_ctx(e))?;
                } else if tt != Unknown {
                    return Err(self.err_ctx(CompileError::new(format!(
                        "cannot index a {}",
                        type_name(tt)
                    ))));
                }
                self.emit(Bc::new(Op::MapSet, 0), -3);
            }
            Int | Unknown => {
                if let Tab(t) = tt {
                    let elem = self.env.arr_elem(t).map_err(|e| self.err_ctx(e))?;
                    let tv = self.coerce_to(elem, tv);
                    self.env.join_arr_elem(t, tv).map_err(|e| self.err_ctx(e))?;
                } else if tt != Unknown {
                    return Err(self.err_ctx(CompileError::new(format!(
                        "cannot index a {}",
                        type_name(tt)
                    ))));
                }
                self.emit(Bc::new(Op::ArrSet, 0), -3);
            }
            other => {
                return Err(self.err_ctx(CompileError::new(format!(
                    "unsupported table key type: {}",
                    type_name(other)
                ))));
            }
        }
        Ok(())
    }

    fn numeric_for(
        &mut self,
        var: &str,
        start: &Expr,
        stop: &Expr,
        step: Option<&Expr>,
        body: &Block,
    ) -> Result<(), CompileError> {
        self.enter_scope();
        let idx = self.declare_local("(for index)")?;
        let limit = self.declare_local("(for limit)")?;
        let steps = self.declare_local("(for step)")?;
        let vars = self.declare_local(var)?;

        let ts = self.expr(start)?;
        self.store_local(idx, ts)?;
        let tl = self.expr(stop)?;
        self.store_local(limit, tl)?;
        let step_sign = match step {
            None => Some(true),
            Some(Expr::Int(v)) => Some(*v >= 0),
            Some(Expr::Float(v)) => Some(*v >= 0.0),
            Some(_) => None,
        };
        let tp = match step {
            Some(e) => self.expr(e)?,
            None => {
                self.emit(Bc::new(Op::ConstI, 1), 1);
                Int
            }
        };
        self.store_local(steps, tp)?;

        // The three control slots (and the user variable) share one class.
        let lc = {
            let a = self.slot_ty(idx);
            let b = self.slot_ty(limit);
            let c = self.slot_ty(steps);
            let ab = self.env.join(a, b).map_err(|e| self.err_ctx(e))?;
            self.env.join(ab, c).map_err(|e| self.err_ctx(e))?
        };
        if !matches!(lc, Int | F64 | Unknown) {
            return Err(self.err_ctx(CompileError::new(format!(
                "numeric for over a {}",
                type_name(lc)
            ))));
        }
        for s in [idx, limit, steps, vars] {
            let cell = self.slot_ty(s);
            let new = self.env.join(cell, lc).map_err(|e| self.err_ctx(e))?;
            if !self.env.same(cell, new) {
                self.env.slots[self.fidx][s as usize] = new;
                self.env.changed = true;
            }
        }
        let fl = is_float(lc);
        let (le, lt) = if fl { (Op::FLe, Op::FLt) } else { (Op::ILe, Op::ILt) };

        let top = self.code.len();
        match step_sign {
            Some(true) => {
                self.emit(Bc::new(Op::LocalGet, idx as i32), 1);
                self.emit(Bc::new(Op::LocalGet, limit as i32), 1);
                self.emit(Bc::new(le, 0), -1);
            }
            Some(false) => {
                self.emit(Bc::new(Op::LocalGet, limit as i32), 1);
                self.emit(Bc::new(Op::LocalGet, idx as i32), 1);
                self.emit(Bc::new(le, 0), -1);
            }
            None => {
                // Runtime step-sign dispatch.
                self.emit(Bc::new(Op::LocalGet, steps as i32), 1);
                if fl {
                    let k = self.add_const(Const::Float(0.0))?;
                    self.emit(Bc::new(Op::ConstK, k), 1);
                } else {
                    self.emit(Bc::new(Op::ConstI, 0), 1);
                }
                self.emit(Bc::new(lt, 0), -1);
                let neg = self.emit_jump(Op::BrIf, -1);
                self.emit(Bc::new(Op::LocalGet, idx as i32), 1);
                self.emit(Bc::new(Op::LocalGet, limit as i32), 1);
                self.emit(Bc::new(le, 0), -1);
                let join = self.emit_jump(Op::Br, 0);
                self.patch_here(neg);
                self.emit(Bc::new(Op::LocalGet, limit as i32), 1);
                self.emit(Bc::new(Op::LocalGet, idx as i32), 1);
                self.emit(Bc::new(le, 0), -1);
                self.patch_here(join);
                // Both arms leave one truth word; reconcile the static
                // depth (the two paths are exclusive).
                self.depth -= 1;
                self.max_depth = self.max_depth.max(self.depth + 1);
                self.depth += 1;
            }
        }
        let exit = self.emit_jump(Op::BrIfNot, -1);
        self.emit(Bc::new(Op::LocalGet, idx as i32), 1);
        self.store_local(vars, lc)?;
        self.loops.push(LoopCtx { break_jumps: Vec::new() });
        self.block(body)?;
        self.emit(Bc::new(Op::LocalGet, idx as i32), 1);
        self.emit(Bc::new(Op::LocalGet, steps as i32), 1);
        self.emit(Bc::new(if fl { Op::FAdd } else { Op::IAdd }, 0), -1);
        self.emit(Bc::new(Op::LocalSet, idx as i32), -1);
        self.jump_back(Op::Br, top, 0);
        self.patch_here(exit);
        let ctx = self.loops.pop().expect("loop stack");
        for j in ctx.break_jumps {
            self.patch_here(j);
        }
        self.leave_scope();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Op;
    use miniscript::parse;
    use tarch_core::{CoreConfig, IsaLevel};

    fn ops(src: &str) -> Vec<Vec<Op>> {
        let chunk = parse(src).unwrap();
        let module = compile(&chunk).unwrap();
        module.protos.iter().map(|p| p.code.iter().map(|bc| bc.op).collect()).collect()
    }

    #[test]
    fn integer_program_uses_only_integer_ops() {
        let all = ops("function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end print(fib(10))");
        for proto in &all {
            for op in proto {
                assert!(
                    !matches!(op, Op::FAdd | Op::FSub | Op::FMul | Op::FDiv | Op::I2F),
                    "unexpected float op {op:?} in an all-integer program"
                );
            }
        }
    }

    #[test]
    fn mixed_arithmetic_widens_statically() {
        let all = ops("local x = 1 local y = 2.5 print(x + y)");
        // The int operand is widened by an explicit I2F, then FAdd.
        let main = &all[0];
        assert!(main.contains(&Op::I2F));
        assert!(main.contains(&Op::FAdd));
        assert!(!main.contains(&Op::IAdd));
    }

    #[test]
    fn int_flowing_into_float_slot_widens_the_slot() {
        // x starts as float, later gets an int: the slot class is f64 and
        // the int store is coerced.
        let all = ops("local x = 1.5 x = 2 print(x * 2.0)");
        let main = &all[0];
        assert!(main.contains(&Op::I2F));
        assert!(main.contains(&Op::FMul));
    }

    #[test]
    fn nil_compare_uses_test_nil() {
        let all = ops("local t = {} local c = t[1] if c == nil then print(1) end");
        let main = &all[0];
        assert!(main.contains(&Op::TestNil));
        assert!(main.contains(&Op::BNot));
    }

    #[test]
    fn string_keys_pick_map_ops() {
        let all = ops("local t = {} t.x = 1.0 print(t.x)");
        let main = &all[0];
        assert!(main.contains(&Op::MapSet));
        assert!(main.contains(&Op::MapGet));
        assert!(!main.contains(&Op::ArrGet));
    }

    #[test]
    fn mixed_key_kinds_are_rejected() {
        let chunk = parse("local t = {} t[1] = 1 t.x = 2").unwrap();
        let err = compile(&chunk).unwrap_err();
        assert!(err.message.contains("integer and string keys"), "{err}");
    }

    #[test]
    fn arithmetic_on_strings_is_rejected() {
        let chunk = parse("local s = \"a\" print(s + 1)").unwrap();
        assert!(compile(&chunk).is_err());
    }

    #[test]
    fn null_handle_idiom_typechecks() {
        // binary-trees: 0 as null child of a table-valued element.
        let src = "
            function mk(d)
                local n = {1, 0, 0}
                if d > 0 then n[2] = mk(d - 1) end
                return n
            end
            function chk(n)
                local l = n[2]
                if l == 0 then return n[1] end
                return n[1] + chk(l)
            end
            print(\"\" .. chk(mk(3)))
        ";
        let chunk = parse(src).unwrap();
        let module = compile(&chunk).unwrap();
        assert_eq!(module.protos.len(), 3);
        let mut reference = miniscript::Interp::new();
        reference.run(&chunk).unwrap();
        let mut vm = crate::WasmVm::new(&module, IsaLevel::Typed, CoreConfig::paper()).unwrap();
        assert_eq!(vm.run(1_000_000).unwrap().output, reference.output());
    }

    #[test]
    fn call_boundary_coercion() {
        // Int argument at one site, float at another: the parameter cell
        // widens to f64 and the int call site coerces.
        let all = ops("function f(x) return x * 0.5 end print(f(1) + f(2.0))");
        let main = all.last().unwrap();
        assert!(main.contains(&Op::I2F));
    }

    #[test]
    fn globals_get_static_slots() {
        let chunk = parse("g = 1 h = 2.0 print(g) print(h)").unwrap();
        let module = compile(&chunk).unwrap();
        assert_eq!(module.globals.len(), 2);
        let main = &module.protos[module.main];
        assert!(main.code.iter().any(|bc| bc.op == Op::GlobalSet));
        assert!(main.code.iter().any(|bc| bc.op == Op::GlobalGet));
    }

    #[test]
    fn modules_validate() {
        for src in [
            "print(1)",
            "local s = 0 for i = 1, 10 do s = s + i end print(s)",
            "local s = 0.0 for i = 1.0, 4.0, 0.5 do s = s + i end print(s)",
            "function f(a, b) return a .. b end print(f(\"x\", \"y\"))",
        ] {
            let chunk = parse(src).unwrap();
            let module = compile(&chunk).unwrap();
            validate(&module).unwrap();
        }
    }
}
