//! Native-helper ids for the `jsrt` engine (id in `a7`, args `a0`–`a3`,
//! result — when any — in `a0`; addresses point at 8-byte NaN-boxed slots
//! on the operand stack).

/// Slow arithmetic (`a0`=op, `a1`=dst, `a2`=lhs addr, `a3`=rhs addr).
pub const ARITH_SLOW: u64 = 1;
/// Slow comparison (`a0`=op, `a1`=lhs addr, `a2`=rhs addr) → bool in `a0`.
pub const COMPARE_SLOW: u64 = 2;
/// Element read slow path (`a1`=dst, `a2`=obj addr, `a3`=key addr).
pub const GETELEM_SLOW: u64 = 3;
/// Element write slow path (`a1`=obj addr, `a2`=key addr, `a3`=value addr).
pub const SETELEM_SLOW: u64 = 4;
/// Array allocation (`a1`=dst, `a2`=capacity hint).
pub const NEWARR: u64 = 5;
/// Global read (`a1`=dst, `a2`=name-constant addr).
pub const GETGLOBAL: u64 = 6;
/// Global write (`a1`=value addr, `a2`=name-constant addr).
pub const SETGLOBAL: u64 = 7;
/// Builtin call (`a1`=args base addr, `a2`=builtin id, `a3`=nargs); result
/// written to the args base.
pub const BUILTIN: u64 = 8;
/// `#` slow path (`a1`=dst, `a2`=operand addr).
pub const LEN_SLOW: u64 = 9;
/// Unary negation slow path (`a1`=dst, `a2`=operand addr).
pub const NEG_SLOW: u64 = 10;
/// Fatal error (`a0`=code).
pub const ERROR: u64 = 11;

/// Error codes for [`ERROR`].
pub use luart::native::errcode;
