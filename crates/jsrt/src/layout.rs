//! NaN-boxing value layout of the `jsrt` engine (paper Section 4.2).
//!
//! SpiderMonkey's scheme: a value is a 64-bit double-word. Doubles are
//! stored raw; every non-double sets the 13 most-significant bits to one
//! (an impossible pattern for canonicalized doubles), carries a 4-bit type
//! tag at bits `[50:47]`, and a 47-bit payload below. Integer payloads are
//! 32-bit values sign-extended to 47 bits.
//!
//! Tag values are chosen so that `tag >> 1` is unique — this makes byte 6
//! of a boxed value (`0xf8 | tag >> 1`) tag-discriminating, which is what
//! the Checked Load port keys its `chklb` on.

use tarch_core::SprState;
use tarch_isa::{TrtClass, TrtRule};

/// 4-bit NaN-box type tags.
pub mod tag {
    /// 32-bit integer.
    pub const INT: u8 = 1;
    /// `undefined` (MiniScript `nil`).
    pub const UNDEF: u8 = 2;
    /// Boolean (payload 0/1).
    pub const BOOL: u8 = 4;
    /// Object / array (payload = header address).
    pub const OBJECT: u8 = 6;
    /// Interned string (payload = string id).
    pub const STR: u8 = 8;
}

/// Register-level tag of an unboxed double after `tld` extraction
/// (hardware NaN-detection assigns the canonical FP tag).
pub const DOUBLE_TAG: u8 = tarch_core::NANBOX_FP_TAG;

/// The 13-ones box prefix (bits 63..51).
pub const BOX_PREFIX: u64 = 0x1fff << 51;
/// Payload mask (47 bits).
pub const PAYLOAD_MASK: u64 = (1 << 47) - 1;
/// Bit position of the type tag.
pub const TAG_SHIFT: u32 = 47;

/// Boxes a tag + 47-bit payload.
pub fn boxed(tag: u8, payload: u64) -> u64 {
    BOX_PREFIX | (((tag & 0xf) as u64) << TAG_SHIFT) | (payload & PAYLOAD_MASK)
}

/// Boxes a 32-bit integer (sign-extended payload).
pub fn box_int(v: i32) -> u64 {
    boxed(tag::INT, (v as i64) as u64)
}

/// Whether a double-word is NaN-boxed.
pub fn is_boxed(value: u64) -> bool {
    value >> 51 == 0x1fff
}

/// The 4-bit tag of a boxed value.
pub fn tag_of(value: u64) -> u8 {
    ((value >> TAG_SHIFT) & 0xf) as u8
}

/// The sign-extended payload of a boxed value.
pub fn payload_of(value: u64) -> i64 {
    ((value << 17) as i64) >> 17
}

/// Byte 6 of a boxed value: `0xf8 | tag >> 1`. The Checked Load port
/// compares this byte with `chklb` (plus a box-prefix backstop; see the
/// codegen docs for why a single byte cannot fully discriminate NaN-boxed
/// layouts — the limitation the paper ascribes to Checked Load).
pub fn chk_byte(tag: u8) -> u8 {
    0xf8 | (tag >> 1)
}

/// The `undefined` value.
pub const UNDEFINED: u64 = BOX_PREFIX | ((tag::UNDEF as u64) << TAG_SHIFT);

/// Array object header offsets: the one 32-byte table header of the shared
/// runtime; elements are 8-byte NaN-boxed values.
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

/// Memory map (same skeleton as `luart`, 8-byte value slots).
pub mod map {
    /// Interpreter text.
    pub const TEXT_BASE: u64 = 0x0001_0000;
    /// Static data.
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

/// SPR settings per paper Table 4 (SpiderMonkey column): NaN detection on,
/// shift 47, mask 0x0f — plus overflow detection (Section 7.1: a
/// co-located tag requires it).
pub fn spr_settings() -> SprState {
    SprState::spidermonkey()
}

/// TRT contents (Table 5): Int/Double rules for the polymorphic ops plus
/// Object-Int (both orders) for `tchk`. Exactly 8 rules.
pub fn trt_rules() -> Vec<TrtRule> {
    let mut rules = Vec::new();
    for class in [TrtClass::Xadd, TrtClass::Xsub, TrtClass::Xmul] {
        rules.push(TrtRule::new(class, tag::INT, tag::INT, tag::INT));
        rules.push(TrtRule::new(class, DOUBLE_TAG, DOUBLE_TAG, DOUBLE_TAG));
    }
    rules.push(TrtRule::new(TrtClass::Tchk, tag::OBJECT, tag::INT, tag::OBJECT));
    rules.push(TrtRule::new(TrtClass::Tchk, tag::INT, tag::OBJECT, tag::OBJECT));
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarch_testkit::Rng;

    #[test]
    fn int_boxing_roundtrip() {
        for v in [0, 1, -1, i32::MAX, i32::MIN, 123456] {
            let b = box_int(v);
            assert!(is_boxed(b));
            assert_eq!(tag_of(b), tag::INT);
            assert_eq!(payload_of(b), v as i64, "{v}");
        }
    }

    #[test]
    fn doubles_are_never_boxed() {
        for v in [0.0f64, -1.5, 1e300, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!is_boxed(v.to_bits()), "{v}");
        }
        // Canonical (RISC-V) NaN is positive: not boxed.
        assert!(!is_boxed(0x7ff8_0000_0000_0000));
    }

    #[test]
    fn chk_bytes_are_unique() {
        let tags = [tag::INT, tag::UNDEF, tag::BOOL, tag::OBJECT, tag::STR];
        let mut bytes: Vec<u8> = tags.iter().map(|t| chk_byte(*t)).collect();
        bytes.sort_unstable();
        bytes.dedup();
        assert_eq!(bytes.len(), tags.len(), "chk bytes must discriminate tags");
        // And byte 6 of a boxed value equals chk_byte(tag).
        for t in tags {
            let b = boxed(t, 42);
            assert_eq!((b >> 48) as u8, chk_byte(t));
        }
    }

    #[test]
    fn undefined_value() {
        assert!(is_boxed(UNDEFINED));
        assert_eq!(tag_of(UNDEFINED), tag::UNDEF);
        assert_eq!(payload_of(UNDEFINED), 0);
    }

    #[test]
    fn trt_fits_8_entries() {
        assert_eq!(trt_rules().len(), 8);
        let s = spr_settings();
        assert!(s.nan_detect());
        assert!(s.overflow_detect());
        assert_eq!(s.shift, 47);
        assert_eq!(s.mask, 0x0f);
    }

    #[test]
    fn randomized_box_payload_roundtrip() {
        let mut rng = Rng::new(0xb0c5);
        for _ in 0..4096 {
            let v = rng.i32();
            assert_eq!(payload_of(box_int(v)), v as i64, "{v}");
        }
    }

    #[test]
    fn randomized_hardware_extraction_matches() {
        // The core's tag datapath must agree with this module.
        let mut rng = Rng::new(0xb0c6);
        for _ in 0..4096 {
            let v = rng.i32();
            let spr = spr_settings();
            let entry = spr.extract(box_int(v), 0);
            assert_eq!(entry.t, tag::INT, "{v}");
            assert_eq!(entry.v as i64, v as i64);
            assert!(!entry.f);
        }
    }
}
