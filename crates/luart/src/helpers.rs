//! Native-helper ids and error codes shared between the code generator and
//! the runtime host.
//!
//! Calling convention: helper id in `a7`, arguments in `a0`–`a3` (TValue
//! *addresses* for operands — RK resolution happens in the handler), result
//! (when any) written back to `a0`. Helpers preserve every other register.

/// Slow-path arithmetic (`a0`=op, `a1`=ra, `a2`=rb, `a3`=rc): mixed-type
/// coercions, string→number conversion, concatenation, float `//`/`%`.
pub const ARITH_SLOW: u64 = 1;
/// Slow-path comparison (`a0`=op, `a1`=rb, `a2`=rc) → boolean in `a0`.
pub const COMPARE_SLOW: u64 = 2;
/// Table read slow path (`a1`=ra, `a2`=rb table, `a3`=rc key): string keys,
/// sparse integer keys, reads past the border.
pub const GETTABLE_SLOW: u64 = 3;
/// Table write slow path (`a1`=ra table, `a2`=rb key, `a3`=rc value):
/// string keys, array growth, sparse writes.
pub const SETTABLE_SLOW: u64 = 4;
/// Table allocation (`a1`=ra, `a2`=capacity hint).
pub const NEWTABLE: u64 = 5;
/// Global read (`a1`=ra, `a2`=name-constant address).
pub const GETGLOBAL: u64 = 6;
/// Global write (`a1`=value address, `a2`=name-constant address).
pub const SETGLOBAL: u64 = 7;
/// Builtin call (`a1`=args/result base address, `a2`=builtin id,
/// `a3`=nargs).
pub const BUILTIN: u64 = 8;
/// Numeric-for preparation slow path (`a1`=control-block address):
/// normalizes the control values to floats and applies the step
/// subtraction.
pub const FORPREP_SLOW: u64 = 9;
/// `#` slow path (`a1`=ra, `a2`=rb): string lengths, type errors.
pub const LEN_SLOW: u64 = 10;
/// Fatal runtime error (`a0`=error code below).
pub const ERROR: u64 = 11;

/// Error codes passed to [`ERROR`].
pub use crate::native::errcode;
