//! Native-helper ids for the `wasmrt` engine (id in `a7`, args `a0`–`a4`;
//! addresses point at 8-byte *untagged* slots on the operand stack).
//!
//! The list is deliberately short: with types resolved at compile time there
//! is no slow arithmetic, no slow comparison, and no boxing — the host is
//! only involved where it owns state the guest cannot reach inline (the
//! table hash parts, the string interner, the allocator, and I/O).

/// Element read slow path (`a1`=addr of `[tab, key]`, `a2`=key kind —
/// [`keykind`]; the result replaces the table slot at `a1`). Values are
/// untagged, so the key kind is compiled into the call site instead of
/// being read off the value. Integer keys reach this only when they miss
/// the dense part.
pub const ELEM_GET: u64 = 1;
/// Element write slow path (`a1`=addr of `[tab, key, value]`, `a2`=key
/// kind — [`keykind`]).
pub const ELEM_SET: u64 = 2;
/// Table allocation (`a1`=destination stack slot for the handle,
/// `a2`=capacity hint).
pub const NEWARR: u64 = 3;
/// String concatenation (`a1`=addr of `[lhs, rhs]`, `a2`=packed
/// [`crate::bytecode::TyCode`]s; the result id replaces the lhs slot).
pub const CONCAT: u64 = 4;
/// Builtin call (`a1`=args base addr, `a2`=builtin id, `a3`=nargs,
/// `a4`=packed per-arg type codes); result written to the args base.
pub const BUILTIN: u64 = 5;
/// String length (`a1`=addr of the string id; the length replaces it).
pub const STRLEN: u64 = 6;
/// Fatal error (`a0`=code).
pub const ERROR: u64 = 7;

/// Key kinds for [`ELEM_GET`] / [`ELEM_SET`] (statically known per site).
pub mod keykind {
    /// Raw i64 key (dense array / integer hash part).
    pub const INT: u64 = 0;
    /// Interned string-id key (string hash part).
    pub const STR: u64 = 1;
}

/// Error codes for [`ERROR`].
pub use luart::native::errcode;
