//! Simulated-memory layout and value representation of the `luart` engine.
//!
//! The value layout is Lua 5.3's, exactly as the paper describes in
//! Section 4.1: a 16-byte tag-value struct with an 8-byte value followed by
//! a 1-byte tag (the remaining 7 bytes pad for alignment). The type tag of
//! a float carries the F/I̅ bit in its MSB (the paper extends the original
//! tag by one bit), so `FLOAT = 0x80 | 3` and `INT = 0x13`
//! (`LUA_TNUMBER | 1 << 4`, Lua's actual `LUA_TNUMINT` encoding).

use tarch_core::SprState;
use tarch_isa::{TrtClass, TrtRule};

/// Lua type tags (memory byte values).
pub mod tag {
    /// `nil`.
    pub const NIL: u8 = 0;
    /// Boolean (value 0 or 1).
    pub const BOOL: u8 = 1;
    /// Float subtype of Number, with the F/I̅ MSB set.
    pub const FLOAT: u8 = 0x83;
    /// Interned string (value = string id).
    pub const STR: u8 = 4;
    /// Table (value = header address in the simulated heap).
    pub const TABLE: u8 = 5;
    /// Integer subtype of Number (`LUA_TNUMBER | 1 << 4`).
    pub const INT: u8 = 0x13;
}

/// Size of a tag-value pair in memory.
pub const TVALUE_SIZE: u64 = 16;
/// Offset of the tag byte within a tag-value pair.
pub const TAG_OFFSET: i32 = 8;

/// Table header field offsets: the one 32-byte header of the shared
/// runtime; the array part holds TValues.
pub use crate::native::table;

/// Function-info record offsets (32-byte records in the data section).
pub mod funcinfo {
    /// Address of the function's bytecode.
    pub const CODE: i32 = 0;
    /// Address of the function's constant table.
    pub const CONSTS: i32 = 8;
    /// Frame size in VM registers.
    pub const NREGS: i32 = 16;
    /// Record stride (power of two for cheap indexing).
    pub const STRIDE: u64 = 32;
}

/// Call-info record offsets (32-byte frames on the CallInfo stack).
pub mod callinfo {
    /// Saved VM pc.
    pub const RET_PC: i32 = 0;
    /// Saved frame base.
    pub const RET_BASE: i32 = 8;
    /// Saved constants base.
    pub const RET_CONSTS: i32 = 16;
    /// Frame stride.
    pub const STRIDE: u64 = 32;
}

/// Memory map of the engine inside the simulated machine.
pub mod map {
    /// Interpreter text.
    pub const TEXT_BASE: u64 = 0x0001_0000;
    /// Static data: dispatch table, function table, bytecode, constants.
    pub const DATA_BASE: u64 = 0x0040_0000;
    /// VM value stack (TValue frames).
    pub const STACK_BASE: u64 = 0x0100_0000;
    /// Value-stack overflow limit.
    pub const STACK_LIMIT: u64 = 0x017f_0000;
    /// CallInfo stack.
    pub const CI_BASE: u64 = 0x0180_0000;
    /// CallInfo overflow limit.
    pub const CI_LIMIT: u64 = 0x01a0_0000;
    /// Bump-allocated heap (GC is off, as in the paper's runs), shared by
    /// every engine's host.
    pub use tarch_sim::{HEAP_BASE, HEAP_LIMIT};
}

/// The special-purpose register settings for this layout (paper Table 4,
/// Lua column): tag in the next double-word, zero shift, full-byte mask.
pub fn spr_settings() -> SprState {
    SprState::lua()
}

/// The Type Rule Table contents for this engine (paper Table 5): integer
/// and float rules for the three polymorphic instructions, plus the
/// Table-Int pair (both operand orders) for `tchk`.
pub fn trt_rules() -> Vec<TrtRule> {
    let mut rules = Vec::new();
    for class in [TrtClass::Xadd, TrtClass::Xsub, TrtClass::Xmul] {
        rules.push(TrtRule::new(class, tag::INT, tag::INT, tag::INT));
        rules.push(TrtRule::new(class, tag::FLOAT, tag::FLOAT, tag::FLOAT));
    }
    rules.push(TrtRule::new(TrtClass::Tchk, tag::TABLE, tag::INT, tag::TABLE));
    rules.push(TrtRule::new(TrtClass::Tchk, tag::INT, tag::TABLE, tag::TABLE));
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_tag_carries_f_bit() {
        assert_eq!(tag::FLOAT & 0x80, 0x80);
        assert_eq!(tag::INT & 0x80, 0);
        assert_eq!(tag::FLOAT & 0x7f, 3); // LUA_TNUMFLT
        assert_eq!(tag::INT, 0x13); // LUA_TNUMINT
    }

    #[test]
    fn trt_fits_the_papers_8_entry_table() {
        assert_eq!(trt_rules().len(), 8);
    }

    #[test]
    fn spr_matches_table4() {
        let s = spr_settings();
        assert_eq!(s.offset, 0b001);
        assert_eq!(s.shift, 0);
        assert_eq!(s.mask, 0xff);
        assert!(!s.nan_detect());
    }

    #[test]
    fn memory_regions_do_not_overlap() {
        use map::*;
        let regions =
            [(TEXT_BASE, DATA_BASE), (DATA_BASE, STACK_BASE), (STACK_BASE, STACK_LIMIT),
             (CI_BASE, CI_LIMIT), (HEAP_BASE, HEAP_LIMIT)];
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "{w:?}");
        }
    }
}
