//! # jsrt — the stack-based, NaN-boxing JavaScript-like scripting engine
//!
//! The second of the workspace's three guest engines (beside the
//! register-based `luart` and the statically typed, untagged `wasmrt`
//! control group), and the engine the paper evaluates in Section 4.2,
//! standing in for SpiderMonkey 17:
//!
//! * a **stack-based** bytecode VM whose binary operators consume the top
//!   of stack;
//! * SpiderMonkey's **NaN-boxing value layout**: doubles stored raw,
//!   non-doubles carry 13 one bits, a 4-bit tag at bits `[50:47]` and a
//!   47-bit payload; integers take the int32 fast path and overflow to
//!   doubles (the overflow-triggered type misprediction of Section 7.1);
//! * dense-element array objects with host-side property maps, interned
//!   strings;
//! * a generated-TRV64 interpreter in three variants of the five hot
//!   bytecodes (ADD, SUB, MUL, GETELEM, SETELEM; paper Table 3), using
//!   the hardware NaN-detection tag datapath in the Typed variant.
//!
//! [`JsVm`] is the guest-VM shell every engine shares
//! (`tarch_sim::GuestVm`), over this crate's [`Js`] engine.
//!
//! # Examples
//!
//! ```
//! use jsrt::JsVm;
//! use tarch_core::{CoreConfig, IsaLevel};
//!
//! let src = "
//!     local s = 0
//!     for i = 1, 100 do s = s + i end
//!     print(s)
//! ";
//! let mut typed = JsVm::from_source(src, IsaLevel::Typed, CoreConfig::paper())?;
//! let report = typed.run(10_000_000)?;
//! assert_eq!(report.output, "5050\n");
//! assert!(report.counters.type_hits > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bytecode;
mod codegen;
mod compiler;
mod engine;
pub mod helpers_mod;
pub mod layout;
mod runtime;

pub use bytecode::{Bc, Builtin, Const, Module, Op, Proto};
pub use codegen::{build_image, JsImage};
pub use compiler::{compile, CompileError};
pub use engine::{EngineError, Js, JsVm, OpProfile, RunReport};
pub use runtime::JsHost;
