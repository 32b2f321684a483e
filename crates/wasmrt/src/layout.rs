//! Untagged value layout of the `wasmrt` engine.
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
//! ## Caveat: `NIL` vs the integer `i64::MIN`
//!
//! An integer equal to `i64::MIN` has `NIL`'s bits, so it reads as nil:
//! `local x = 4611686018427387904 print(x * 2)` prints `nil`, and `local
//! x = 9223372036854775807 x = x + 1 print(x == nil, x < 0)` prints `true
//! true`, where the reference interpreter and `luart` print
//! `-9223372036854775808` and `false true`. No workload reaches
//! `i64::MIN`. Moving the sentinel rewrites every `wasmrt` image (the
//! globals area and every nil test embed it).
//!
//! The memory map, table header, function-info and call-info records are
//! the shared skeleton's ([`luart::image`]), as in `jsrt` — deliberately,
//! so the host-side accelerations (basic blocks, superblocks, tiered
//! codegen, PGO) apply to every engine without change. Table *elements* here are
//! untagged dwords rather than NaN-boxed values.

/// The `nil` sentinel: `i64::MIN`. Never a valid handle, id, or boolean;
/// low bit clear (falsy under the bit-0 truthiness test).
pub const NIL: u64 = i64::MIN as u64;

/// Table header offsets: the one 32-byte table header of the shared runtime;
/// elements are 8-byte *untagged* dwords.
pub use luart::native::table as object;

/// The memory map and the frame records, shared by every engine
/// (`luart`'s skeleton, with 8-byte value slots here). The globals area
/// follows the interpreter's own tables in DATA; its base is carried in a
/// reserved register at run time.
pub use luart::image::{callinfo, funcinfo, map};

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
