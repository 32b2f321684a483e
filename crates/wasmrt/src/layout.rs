//! Untagged value layout and memory map of the `wasmrt` engine.
//!
//! Where `luart` tags every register and `jsrt` NaN-boxes every stack slot,
//! `wasmrt` values are **raw 8-byte machine words**: the static type
//! assignment computed by the compiler (see [`crate::compile`]) fixes each
//! slot's interpretation, so nothing is encoded in the value itself —
//!
//! * integers and booleans are plain i64 (booleans are `0`/`1`);
//! * floats are raw IEEE-754 f64 bits;
//! * strings are interned ids (small integers);
//! * tables are addresses of headers in linear memory.
//!
//! The single dynamic wrinkle MiniScript forces on us is `nil` (absent table
//! entries, optional values). It is represented by the reserved sentinel
//! [`NIL`] = `i64::MIN`, which is never a valid table address, string id, or
//! boolean, and whose low bit is clear so the boolean truthiness test
//! (`bit 0`) treats it as falsy for free.
//!
//! ## Caveat: `NIL` vs `-0.0`
//!
//! `NIL`'s bit pattern equals `(-0.0f64).to_bits()`. A float-class value is
//! never nil-tested (the compiler rejects it), so this only matters if a
//! program stored `-0.0` into a table *hash part* — the host would interpret
//! the write as entry removal. No workload writes floats to hash parts;
//! dense float arrays are unaffected (raw stores, no sentinel checks).
//!
//! The memory map, object header, function-info, and call-info records are
//! identical to `jsrt`'s — deliberately, so the host-side accelerations
//! (predecode, superblocks, tiered codegen, PGO) apply to every engine
//! without change. Table *elements* here are untagged dwords rather than
//! NaN-boxed values.

/// The `nil` sentinel: `i64::MIN`. Never a valid handle, id, or boolean;
/// low bit clear (falsy under the bit-0 truthiness test).
pub const NIL: u64 = i64::MIN as u64;

/// Table header offsets: the one 32-byte table header of the shared runtime;
/// elements are 8-byte *untagged* dwords.
pub use luart::native::table as object;

/// Function-info record offsets (32-byte records).
pub mod funcinfo {
    /// Code address.
    pub const CODE: i32 = 0;
    /// Constants address.
    pub const CONSTS: i32 = 8;
    /// Local slot count.
    pub const NLOCALS: i32 = 16;
    /// Frame size (locals + max operand stack), in slots.
    pub const FRAME: i32 = 24;
    /// Record stride.
    pub const STRIDE: u64 = 32;
}

/// Call-info record offsets.
pub mod callinfo {
    /// Saved VM pc.
    pub const RET_PC: i32 = 0;
    /// Saved locals base.
    pub const RET_LOCALS: i32 = 8;
    /// Saved constants base.
    pub const RET_CONSTS: i32 = 16;
    /// Frame stride.
    pub const STRIDE: u64 = 32;
}

/// Memory map (same skeleton as `jsrt`, 8-byte value slots). The globals
/// area lives at the start of DATA-resident VM data, after the interpreter's
/// own tables; its base is carried in a reserved register at run time.
pub mod map {
    /// Interpreter text.
    pub const TEXT_BASE: u64 = 0x0001_0000;
    /// Static data (dispatch table, function table, code, consts, globals).
    pub const DATA_BASE: u64 = 0x0040_0000;
    /// Combined locals + operand stack.
    pub const STACK_BASE: u64 = 0x0100_0000;
    /// Stack limit.
    pub const STACK_LIMIT: u64 = 0x017f_0000;
    /// CallInfo stack.
    pub const CI_BASE: u64 = 0x0180_0000;
    /// CallInfo limit.
    pub const CI_LIMIT: u64 = 0x01a0_0000;
    /// Bump-allocated heap (GC is off, as in the paper's runs), shared by
    /// every engine's host.
    pub use tarch_sim::{HEAP_BASE, HEAP_LIMIT};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_is_falsy_and_unreachable() {
        // Bit 0 clear: the boolean truthiness test sees nil as false.
        assert_eq!(NIL & 1, 0);
        // Outside every valid address range and never a small id.
        const { assert!(NIL > map::HEAP_LIMIT) };
        assert_eq!(NIL, (-0.0f64).to_bits());
        assert_eq!(NIL as i64, i64::MIN);
    }
}
