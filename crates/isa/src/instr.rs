//! TRV64 instruction definitions.
//!
//! The instruction set is a 64-bit RISC-style base (close to RV64IMFD in
//! spirit, with a clean fixed 32-bit encoding of our own, see
//! [`crate::encode`]) plus two extensions evaluated by the paper:
//!
//! * the **Typed Architecture** extension (Table 2 of the paper): tagged
//!   memory instructions `tld`/`tsd`, polymorphic ALU instructions
//!   `xadd`/`xsub`/`xmul`, configuration instructions for the tag
//!   extract/insert datapath and the Type Rule Table, and the miscellaneous
//!   `thdl`/`tchk`/`tget`/`tset`;
//! * the **Checked Load** extension (Anderson et al., HPCA'11, the paper's
//!   comparison baseline): `settype` and the fused load-compare-branch
//!   `chklb`.

use crate::{FReg, Reg};
use std::fmt;

/// Register-register integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Mulh,
    Div,
    Divu,
    Rem,
    Remu,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    /// 32-bit add, result sign-extended.
    Addw,
    Subw,
    Mulw,
    Divw,
    Remw,
    Sllw,
    Srlw,
    Sraw,
}

impl AluOp {
    /// All operations, in encoding order.
    pub const ALL: [AluOp; 24] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Mulh,
        AluOp::Div,
        AluOp::Divu,
        AluOp::Rem,
        AluOp::Remu,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Addw,
        AluOp::Subw,
        AluOp::Mulw,
        AluOp::Divw,
        AluOp::Remw,
        AluOp::Sllw,
        AluOp::Srlw,
        AluOp::Sraw,
    ];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Div => "div",
            AluOp::Divu => "divu",
            AluOp::Rem => "rem",
            AluOp::Remu => "remu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Addw => "addw",
            AluOp::Subw => "subw",
            AluOp::Mulw => "mulw",
            AluOp::Divw => "divw",
            AluOp::Remw => "remw",
            AluOp::Sllw => "sllw",
            AluOp::Srlw => "srlw",
            AluOp::Sraw => "sraw",
        }
    }
}

/// Register-immediate integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
    Slli,
    Srli,
    Srai,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
}

impl AluImmOp {
    /// All operations, in encoding order.
    pub const ALL: [AluImmOp; 13] = [
        AluImmOp::Addi,
        AluImmOp::Andi,
        AluImmOp::Ori,
        AluImmOp::Xori,
        AluImmOp::Slti,
        AluImmOp::Sltiu,
        AluImmOp::Slli,
        AluImmOp::Srli,
        AluImmOp::Srai,
        AluImmOp::Addiw,
        AluImmOp::Slliw,
        AluImmOp::Srliw,
        AluImmOp::Sraiw,
    ];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluImmOp::Addi => "addi",
            AluImmOp::Andi => "andi",
            AluImmOp::Ori => "ori",
            AluImmOp::Xori => "xori",
            AluImmOp::Slti => "slti",
            AluImmOp::Sltiu => "sltiu",
            AluImmOp::Slli => "slli",
            AluImmOp::Srli => "srli",
            AluImmOp::Srai => "srai",
            AluImmOp::Addiw => "addiw",
            AluImmOp::Slliw => "slliw",
            AluImmOp::Srliw => "srliw",
            AluImmOp::Sraiw => "sraiw",
        }
    }

    /// Whether the immediate is a 6-bit shift amount rather than a 15-bit
    /// signed value.
    pub fn is_shift(self) -> bool {
        matches!(
            self,
            AluImmOp::Slli
                | AluImmOp::Srli
                | AluImmOp::Srai
                | AluImmOp::Slliw
                | AluImmOp::Srliw
                | AluImmOp::Sraiw
        )
    }
}

/// Memory access width for integer loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    Byte,
    /// 2 bytes.
    Half,
    /// 4 bytes.
    Word,
    /// 8 bytes.
    Double,
}

impl MemWidth {
    /// Access size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
            MemWidth::Double => 8,
        }
    }
}

/// Branch comparison condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl BranchCond {
    /// All conditions, in encoding order.
    pub const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }

    /// Evaluates the condition on two operand values.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Double-precision FP register-register operations (FP register file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    /// Square root; `rs2` is ignored.
    Fsqrt,
    Fmin,
    Fmax,
    /// Sign injection: magnitude of rs1, sign of rs2 (`fsgnj.d`).
    Fsgnj,
    /// Negated sign injection (`fsgnjn.d`); `fsgnjn rd, rs, rs` negates.
    Fsgnjn,
}

impl FpuOp {
    /// All operations, in encoding order.
    pub const ALL: [FpuOp; 9] = [
        FpuOp::Fadd,
        FpuOp::Fsub,
        FpuOp::Fmul,
        FpuOp::Fdiv,
        FpuOp::Fsqrt,
        FpuOp::Fmin,
        FpuOp::Fmax,
        FpuOp::Fsgnj,
        FpuOp::Fsgnjn,
    ];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::Fadd => "fadd.d",
            FpuOp::Fsub => "fsub.d",
            FpuOp::Fmul => "fmul.d",
            FpuOp::Fdiv => "fdiv.d",
            FpuOp::Fsqrt => "fsqrt.d",
            FpuOp::Fmin => "fmin.d",
            FpuOp::Fmax => "fmax.d",
            FpuOp::Fsgnj => "fsgnj.d",
            FpuOp::Fsgnjn => "fsgnjn.d",
        }
    }
}

/// FP comparisons; result is written to an integer register (0 or 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCmpOp {
    Feq,
    Flt,
    Fle,
}

impl FpCmpOp {
    /// All comparisons, in encoding order.
    pub const ALL: [FpCmpOp; 3] = [FpCmpOp::Feq, FpCmpOp::Flt, FpCmpOp::Fle];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpCmpOp::Feq => "feq.d",
            FpCmpOp::Flt => "flt.d",
            FpCmpOp::Fle => "fle.d",
        }
    }
}

/// Polymorphic (typed) ALU operations; bound to the integer or FP ALU at
/// runtime based on the operands' F/I̅ bits (Section 3.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypedAluOp {
    Xadd,
    Xsub,
    Xmul,
}

impl TypedAluOp {
    /// All operations, in encoding order.
    pub const ALL: [TypedAluOp; 3] = [TypedAluOp::Xadd, TypedAluOp::Xsub, TypedAluOp::Xmul];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TypedAluOp::Xadd => "xadd",
            TypedAluOp::Xsub => "xsub",
            TypedAluOp::Xmul => "xmul",
        }
    }

    /// Opcode-class key used when looking up the Type Rule Table.
    pub fn trt_class(self) -> TrtClass {
        match self {
            TypedAluOp::Xadd => TrtClass::Xadd,
            TypedAluOp::Xsub => TrtClass::Xsub,
            TypedAluOp::Xmul => TrtClass::Xmul,
        }
    }
}

/// Opcode-class component of a Type Rule Table key.
///
/// The TRT is looked up with `(class, type_in1, type_in2)`; see
/// [`TrtRule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrtClass {
    Xadd,
    Xsub,
    Xmul,
    /// Stand-alone type check (`tchk` instruction).
    Tchk,
}

impl TrtClass {
    /// All classes, in encoding order.
    pub const ALL: [TrtClass; 4] = [TrtClass::Xadd, TrtClass::Xsub, TrtClass::Xmul, TrtClass::Tchk];

    /// Numeric encoding used in packed rules.
    pub fn code(self) -> u8 {
        match self {
            TrtClass::Xadd => 0,
            TrtClass::Xsub => 1,
            TrtClass::Xmul => 2,
            TrtClass::Tchk => 3,
        }
    }

    /// Inverse of [`TrtClass::code`].
    pub fn from_code(code: u8) -> Option<TrtClass> {
        match code {
            0 => Some(TrtClass::Xadd),
            1 => Some(TrtClass::Xsub),
            2 => Some(TrtClass::Xmul),
            3 => Some(TrtClass::Tchk),
            _ => None,
        }
    }
}

impl fmt::Display for TrtClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrtClass::Xadd => "xadd",
            TrtClass::Xsub => "xsub",
            TrtClass::Xmul => "xmul",
            TrtClass::Tchk => "tchk",
        };
        f.write_str(s)
    }
}

/// One Type Rule Table entry: `(class, in1, in2) → out`.
///
/// Software pushes rules into the TRT with `set_trt Ra`, where `Ra.v` holds
/// the rule in the packed format produced by [`TrtRule::pack`]:
/// bits `[7:0]` = in1, `[15:8]` = in2, `[23:16]` = class code,
/// `[31:24]` = out.
///
/// # Examples
///
/// ```
/// use tarch_isa::{TrtClass, TrtRule};
/// let rule = TrtRule::new(TrtClass::Xadd, 0x13, 0x13, 0x13);
/// assert_eq!(TrtRule::unpack(rule.pack()), Some(rule));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrtRule {
    /// Opcode class of the rule.
    pub class: TrtClass,
    /// First source operand type tag.
    pub in1: u8,
    /// Second source operand type tag.
    pub in2: u8,
    /// Output type tag written to the destination register on a hit.
    pub out: u8,
}

impl TrtRule {
    /// Creates a rule.
    pub fn new(class: TrtClass, in1: u8, in2: u8, out: u8) -> TrtRule {
        TrtRule { class, in1, in2, out }
    }

    /// Packs the rule into the `set_trt` register format.
    pub fn pack(self) -> u64 {
        (self.in1 as u64)
            | ((self.in2 as u64) << 8)
            | ((self.class.code() as u64) << 16)
            | ((self.out as u64) << 24)
    }

    /// Unpacks a rule from the `set_trt` register format.
    ///
    /// Returns `None` if the class code is invalid.
    pub fn unpack(packed: u64) -> Option<TrtRule> {
        let class = TrtClass::from_code(((packed >> 16) & 0xff) as u8)?;
        Some(TrtRule {
            class,
            in1: (packed & 0xff) as u8,
            in2: ((packed >> 8) & 0xff) as u8,
            out: ((packed >> 24) & 0xff) as u8,
        })
    }
}

/// Special-purpose registers written by configuration instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Spr {
    /// `R_offset`: tag double-word selection + NaN-detection enable +
    /// overflow-detection enable (see `tarch-core::tagio`).
    Offset,
    /// `R_mask`: 8-bit tag extraction mask.
    Mask,
    /// `R_shift`: 6-bit starting bit of the tag field.
    Shift,
    /// Push a packed [`TrtRule`] into the Type Rule Table.
    TrtPush,
    /// `R_exptype`: expected type for the Checked Load `chklb` instruction.
    ExpType,
}

impl Spr {
    /// All special-purpose register targets, in encoding order.
    pub const ALL: [Spr; 5] = [Spr::Offset, Spr::Mask, Spr::Shift, Spr::TrtPush, Spr::ExpType];

    /// Assembly mnemonic of the instruction that writes this SPR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Spr::Offset => "setoffset",
            Spr::Mask => "setmask",
            Spr::Shift => "setshift",
            Spr::TrtPush => "set_trt",
            Spr::ExpType => "settype",
        }
    }
}

/// Control and status registers readable with `csrr` (performance counters).
///
/// The paper integrates custom performance counters into the Rocket core for
/// its analysis (Section 6); these expose the same quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Csr {
    /// Elapsed cycles.
    Cycle,
    /// Retired instructions.
    Instret,
    /// Type Rule Table hits (tagged ALU + `tchk`).
    TypeHit,
    /// Type mispredictions (TRT misses + overflow-triggered).
    TypeMiss,
    /// Branch direction/target mispredictions.
    BranchMiss,
    /// L1 I-cache misses.
    ICacheMiss,
    /// L1 D-cache misses.
    DCacheMiss,
}

impl Csr {
    /// All CSRs, in encoding order.
    pub const ALL: [Csr; 7] = [
        Csr::Cycle,
        Csr::Instret,
        Csr::TypeHit,
        Csr::TypeMiss,
        Csr::BranchMiss,
        Csr::ICacheMiss,
        Csr::DCacheMiss,
    ];

    /// Assembly name.
    pub fn name(self) -> &'static str {
        match self {
            Csr::Cycle => "cycle",
            Csr::Instret => "instret",
            Csr::TypeHit => "typehit",
            Csr::TypeMiss => "typemiss",
            Csr::BranchMiss => "branchmiss",
            Csr::ICacheMiss => "icachemiss",
            Csr::DCacheMiss => "dcachemiss",
        }
    }

    /// Parses an assembly name.
    pub fn parse(name: &str) -> Option<Csr> {
        Csr::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// A single TRV64 instruction.
///
/// Variants group instructions by operand format; the inner `op` enums select
/// the concrete operation. Branch/jump `offset` fields are byte offsets
/// relative to the instruction's own PC and must be multiples of 4.
///
/// # Examples
///
/// ```
/// use tarch_isa::{AluOp, Instruction, Reg};
/// let add = Instruction::Alu { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
/// assert_eq!(add.to_string(), "add a0, a1, a2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register-register integer ALU operation.
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Register-immediate integer ALU operation. For shifts the immediate is
    /// a 6-bit amount; otherwise a 15-bit signed value.
    AluImm { op: AluImmOp, rd: Reg, rs1: Reg, imm: i32 },
    /// `rd ← sign_extend(imm << 12)`; `imm` is a 20-bit signed value.
    Lui { rd: Reg, imm: i32 },
    /// Integer load: `rd ← Mem[rs1 + imm]`.
    Load { width: MemWidth, signed: bool, rd: Reg, rs1: Reg, imm: i32 },
    /// Integer store: `Mem[rs1 + imm] ← rs2`.
    Store { width: MemWidth, rs2: Reg, rs1: Reg, imm: i32 },
    /// Conditional branch to `pc + offset`.
    Branch { cond: BranchCond, rs1: Reg, rs2: Reg, offset: i32 },
    /// Jump and link: `rd ← pc + 4; pc ← pc + offset`.
    Jal { rd: Reg, offset: i32 },
    /// Indirect jump and link: `rd ← pc + 4; pc ← (rs1 + imm) & !1`.
    Jalr { rd: Reg, rs1: Reg, imm: i32 },
    /// FP register-register operation (baseline FP register file).
    Fpu { op: FpuOp, rd: FReg, rs1: FReg, rs2: FReg },
    /// FP comparison writing 0/1 to an integer register.
    FpCmp { op: FpCmpOp, rd: Reg, rs1: FReg, rs2: FReg },
    /// FP load: `rd ← Mem[rs1 + imm]` (8 bytes).
    FpLoad { rd: FReg, rs1: Reg, imm: i32 },
    /// FP store: `Mem[rs1 + imm] ← rs2` (8 bytes).
    FpStore { rs2: FReg, rs1: Reg, imm: i32 },
    /// `fcvt.d.l`: convert signed 64-bit integer (x-reg) to double (f-reg).
    FcvtDL { rd: FReg, rs1: Reg },
    /// `fcvt.l.d`: convert double (f-reg) to signed 64-bit integer (x-reg),
    /// rounding toward zero.
    FcvtLD { rd: Reg, rs1: FReg },
    /// `fmv.x.d`: move raw bits from an f-reg to an x-reg.
    FmvXD { rd: Reg, rs1: FReg },
    /// `fmv.d.x`: move raw bits from an x-reg to an f-reg.
    FmvDX { rd: FReg, rs1: Reg },

    // --- Typed Architecture extension (Table 2) ---
    /// Tagged load: `rd.v ← Mem[rs1+imm]`, `rd.t ← extract(...)`,
    /// `rd.f ← F/I̅` per the tag extraction datapath.
    Tld { rd: Reg, rs1: Reg, imm: i32 },
    /// Tagged store: value and re-inserted tag written to memory.
    Tsd { rs2: Reg, rs1: Reg, imm: i32 },
    /// Polymorphic ALU operation with implicit TRT type check.
    Typed { op: TypedAluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Write a special-purpose register from `rs1` (`setoffset`, `setmask`,
    /// `setshift`, `set_trt`, `settype`).
    SetSpr { spr: Spr, rs1: Reg },
    /// Flush all Type Rule Table entries.
    FlushTrt,
    /// `R_hdl ← pc + 4 + offset`: register the type-miss handler address.
    Thdl { offset: i32 },
    /// Stand-alone type check of `(rs1.t, rs2.t)` against the TRT; falls
    /// through on a hit, jumps to `R_hdl` on a miss.
    Tchk { rs1: Reg, rs2: Reg },
    /// `rd.v ← zero_extend(rs1.t)`.
    Tget { rd: Reg, rs1: Reg },
    /// `rd.t ← rs1.v[7:0]` (note operand order follows the paper:
    /// `tset Ra, Rb` writes Rb's tag from Ra's value).
    Tset { rs1: Reg, rd: Reg },

    // --- Checked Load extension (comparison baseline) ---
    /// Fused checked load byte: `rd ← zext(Mem[rs1+imm])`; if the loaded
    /// byte differs from `R_exptype`, redirect to `R_hdl`.
    Chklb { rd: Reg, rs1: Reg, imm: i32 },

    // --- System ---
    /// Read a performance-counter CSR.
    Csrr { rd: Reg, csr: Csr },
    /// Environment call into the native host (helper id in `a7`).
    Ecall,
    /// Stop simulation.
    Halt,
}

impl Instruction {
    /// Assembly mnemonic of the instruction.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::Alu { op, .. } => op.mnemonic(),
            Instruction::AluImm { op, .. } => op.mnemonic(),
            Instruction::Lui { .. } => "lui",
            Instruction::Load { width, signed, .. } => match (width, signed) {
                (MemWidth::Byte, true) => "lb",
                (MemWidth::Byte, false) => "lbu",
                (MemWidth::Half, true) => "lh",
                (MemWidth::Half, false) => "lhu",
                (MemWidth::Word, true) => "lw",
                (MemWidth::Word, false) => "lwu",
                (MemWidth::Double, _) => "ld",
            },
            Instruction::Store { width, .. } => match width {
                MemWidth::Byte => "sb",
                MemWidth::Half => "sh",
                MemWidth::Word => "sw",
                MemWidth::Double => "sd",
            },
            Instruction::Branch { cond, .. } => cond.mnemonic(),
            Instruction::Jal { .. } => "jal",
            Instruction::Jalr { .. } => "jalr",
            Instruction::Fpu { op, .. } => op.mnemonic(),
            Instruction::FpCmp { op, .. } => op.mnemonic(),
            Instruction::FpLoad { .. } => "fld",
            Instruction::FpStore { .. } => "fsd",
            Instruction::FcvtDL { .. } => "fcvt.d.l",
            Instruction::FcvtLD { .. } => "fcvt.l.d",
            Instruction::FmvXD { .. } => "fmv.x.d",
            Instruction::FmvDX { .. } => "fmv.d.x",
            Instruction::Tld { .. } => "tld",
            Instruction::Tsd { .. } => "tsd",
            Instruction::Typed { op, .. } => op.mnemonic(),
            Instruction::SetSpr { spr, .. } => spr.mnemonic(),
            Instruction::FlushTrt => "flush_trt",
            Instruction::Thdl { .. } => "thdl",
            Instruction::Tchk { .. } => "tchk",
            Instruction::Tget { .. } => "tget",
            Instruction::Tset { .. } => "tset",
            Instruction::Chklb { .. } => "chklb",
            Instruction::Csrr { .. } => "csrr",
            Instruction::Ecall => "ecall",
            Instruction::Halt => "halt",
        }
    }

    /// Whether this instruction belongs to the Typed Architecture extension.
    ///
    /// `settype` is attributed to the Checked Load extension even though it
    /// shares the `SetSpr` variant.
    pub fn is_typed_ext(&self) -> bool {
        matches!(
            self,
            Instruction::Tld { .. }
                | Instruction::Tsd { .. }
                | Instruction::Typed { .. }
                | Instruction::FlushTrt
                | Instruction::Thdl { .. }
                | Instruction::Tchk { .. }
                | Instruction::Tget { .. }
                | Instruction::Tset { .. }
        ) || matches!(
            self,
            Instruction::SetSpr { spr, .. } if *spr != Spr::ExpType
        )
    }

    /// Whether this instruction belongs to the Checked Load extension.
    pub fn is_checked_load_ext(&self) -> bool {
        matches!(self, Instruction::Chklb { .. })
            || matches!(self, Instruction::SetSpr { spr: Spr::ExpType, .. })
    }

    /// The integer destination register written by this instruction, if any.
    /// `x0` destinations are reported as `None` (writes to `x0` are dropped).
    pub fn int_dest(&self) -> Option<Reg> {
        let rd = match *self {
            Instruction::Alu { rd, .. }
            | Instruction::AluImm { rd, .. }
            | Instruction::Lui { rd, .. }
            | Instruction::Load { rd, .. }
            | Instruction::Jal { rd, .. }
            | Instruction::Jalr { rd, .. }
            | Instruction::FpCmp { rd, .. }
            | Instruction::FcvtLD { rd, .. }
            | Instruction::FmvXD { rd, .. }
            | Instruction::Tld { rd, .. }
            | Instruction::Typed { rd, .. }
            | Instruction::Tget { rd, .. }
            | Instruction::Tset { rd, .. }
            | Instruction::Chklb { rd, .. }
            | Instruction::Csrr { rd, .. } => rd,
            _ => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.mnemonic();
        match *self {
            Instruction::Alu { rd, rs1, rs2, .. } => write!(f, "{m} {rd}, {rs1}, {rs2}"),
            Instruction::AluImm { rd, rs1, imm, .. } => write!(f, "{m} {rd}, {rs1}, {imm}"),
            Instruction::Lui { rd, imm } => write!(f, "{m} {rd}, {imm}"),
            Instruction::Load { rd, rs1, imm, .. } => write!(f, "{m} {rd}, {imm}({rs1})"),
            Instruction::Store { rs2, rs1, imm, .. } => write!(f, "{m} {rs2}, {imm}({rs1})"),
            Instruction::Branch { rs1, rs2, offset, .. } => {
                write!(f, "{m} {rs1}, {rs2}, {offset:+}")
            }
            Instruction::Jal { rd, offset } => write!(f, "{m} {rd}, {offset:+}"),
            Instruction::Jalr { rd, rs1, imm } => write!(f, "{m} {rd}, {imm}({rs1})"),
            Instruction::Fpu { rd, rs1, rs2, .. } => write!(f, "{m} {rd}, {rs1}, {rs2}"),
            Instruction::FpCmp { rd, rs1, rs2, .. } => write!(f, "{m} {rd}, {rs1}, {rs2}"),
            Instruction::FpLoad { rd, rs1, imm } => write!(f, "{m} {rd}, {imm}({rs1})"),
            Instruction::FpStore { rs2, rs1, imm } => write!(f, "{m} {rs2}, {imm}({rs1})"),
            Instruction::FcvtDL { rd, rs1 } => write!(f, "{m} {rd}, {rs1}"),
            Instruction::FcvtLD { rd, rs1 } => write!(f, "{m} {rd}, {rs1}"),
            Instruction::FmvXD { rd, rs1 } => write!(f, "{m} {rd}, {rs1}"),
            Instruction::FmvDX { rd, rs1 } => write!(f, "{m} {rd}, {rs1}"),
            Instruction::Tld { rd, rs1, imm } => write!(f, "{m} {rd}, {imm}({rs1})"),
            Instruction::Tsd { rs2, rs1, imm } => write!(f, "{m} {rs2}, {imm}({rs1})"),
            Instruction::Typed { rd, rs1, rs2, .. } => write!(f, "{m} {rd}, {rs1}, {rs2}"),
            Instruction::SetSpr { rs1, .. } => write!(f, "{m} {rs1}"),
            Instruction::FlushTrt => f.write_str(m),
            Instruction::Thdl { offset } => write!(f, "{m} {offset:+}"),
            Instruction::Tchk { rs1, rs2 } => write!(f, "{m} {rs1}, {rs2}"),
            Instruction::Tget { rd, rs1 } => write!(f, "{m} {rd}, {rs1}"),
            Instruction::Tset { rs1, rd } => write!(f, "{m} {rs1}, {rd}"),
            Instruction::Chklb { rd, rs1, imm } => write!(f, "{m} {rd}, {imm}({rs1})"),
            Instruction::Csrr { rd, csr } => write!(f, "{m} {rd}, {}", csr.name()),
            Instruction::Ecall | Instruction::Halt => f.write_str(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trt_rule_pack_roundtrip() {
        for class in TrtClass::ALL {
            let r = TrtRule::new(class, 0x13, 0x83, 0x13);
            assert_eq!(TrtRule::unpack(r.pack()), Some(r));
        }
    }

    #[test]
    fn trt_rule_bad_class() {
        assert_eq!(TrtRule::unpack(0xff << 16), None);
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval((-1i64) as u64, 0));
        assert!(!BranchCond::Ltu.eval((-1i64) as u64, 0));
        assert!(BranchCond::Ge.eval(0, (-1i64) as u64));
        assert!(BranchCond::Geu.eval((-1i64) as u64, 0));
    }

    #[test]
    fn extension_classification() {
        let tld = Instruction::Tld { rd: Reg::A0, rs1: Reg::A1, imm: 0 };
        assert!(tld.is_typed_ext());
        assert!(!tld.is_checked_load_ext());
        let chk = Instruction::Chklb { rd: Reg::A0, rs1: Reg::A1, imm: 8 };
        assert!(chk.is_checked_load_ext());
        assert!(!chk.is_typed_ext());
        let settype = Instruction::SetSpr { spr: Spr::ExpType, rs1: Reg::A0 };
        assert!(settype.is_checked_load_ext());
        assert!(!settype.is_typed_ext());
    }

    #[test]
    fn dest_of_x0_is_none() {
        let i = Instruction::AluImm { op: AluImmOp::Addi, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 };
        assert_eq!(i.int_dest(), None);
    }

    #[test]
    fn display_formats() {
        let i = Instruction::Load {
            width: MemWidth::Word,
            signed: true,
            rd: Reg::A2,
            rs1: Reg::S10,
            imm: 8,
        };
        assert_eq!(i.to_string(), "lw a2, 8(s10)");
        let x = Instruction::Typed { op: TypedAluOp::Xadd, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
        assert_eq!(x.to_string(), "xadd a0, a1, a2");
    }
}
