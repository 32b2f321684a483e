//! # luart — the register-based Lua-like scripting engine
//!
//! The first of the workspace's three guest engines, and one of the two
//! production-grade-engine stand-ins the paper evaluates (Section 4.1) —
//! beside the stack-based NaN-boxing `jsrt` and the statically typed,
//! untagged `wasmrt` control group. `luart` mirrors Lua 5.3 where it matters to the
//! experiment:
//!
//! * a **register-based** bytecode VM with Lua's 32-bit
//!   opcode/A/B/C instruction format and RK constant operands;
//! * Lua 5.3's **value layout**: 16-byte tag-value pairs (8-byte value,
//!   1-byte tag at offset 8), integer/float number subtypes with tags
//!   `0x13`/`0x83` (float tag MSB = F/I̅ bit);
//! * tables with a dense array part in simulated memory and a (host-side)
//!   hash part; interned strings; GC disabled, as in the paper's runs;
//! * an interpreter whose dispatch loop and handlers are **generated TRV64
//!   assembly executed on the simulated Typed Architecture core**, in three
//!   variants (baseline / Checked Load / Typed) of the five hot bytecodes
//!   of the paper's Table 3.
//!
//! The pipeline: [`compile`] MiniScript to bytecode, [`build_image`] the
//! interpreter for an [`tarch_core::IsaLevel`], then drive it with
//! [`LuaVm`] — the guest-VM shell every engine shares
//! (`tarch_sim::GuestVm`), over this crate's [`Lua`] engine. The
//! simulated interpreter is the only executor of the bytecode: the
//! differential tests run it against `miniscript::Interp`, and a profiled
//! run ([`LuaVm::run_profiled`]) counts each handler's dispatches for
//! Figure 2(a).
//!
//! # Examples
//!
//! ```
//! use luart::LuaVm;
//! use tarch_core::{CoreConfig, IsaLevel};
//!
//! let src = "
//!     local s = 0
//!     for i = 1, 100 do s = s + i end
//!     print(s)
//! ";
//! let mut baseline = LuaVm::from_source(src, IsaLevel::Baseline, CoreConfig::paper())?;
//! let mut typed = LuaVm::from_source(src, IsaLevel::Typed, CoreConfig::paper())?;
//! let rb = baseline.run(10_000_000)?;
//! let rt = typed.run(10_000_000)?;
//! assert_eq!(rb.output, "5050\n");
//! assert_eq!(rt.output, rb.output);
//! // The typed ISA retires fewer instructions for the same program.
//! assert!(rt.counters.instructions < rb.counters.instructions);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bytecode;
mod codegen;
mod compiler;
mod engine;
pub mod helpers;
pub mod image;
pub mod layout;
pub mod native;
mod runtime;

pub use bytecode::{Bc, Builtin, Const, Module, Op, Proto, RK_CONST};
pub use codegen::{build_image, LuaImage};
pub use compiler::{compile, CompileError};
pub use engine::{EngineError, Lua, LuaVm, OpProfile, RunReport};
pub use runtime::LuaHost;
