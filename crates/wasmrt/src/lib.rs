//! # wasmrt — the WASM-subset, statically typed, untagged-stack engine
//!
//! The third engine in the evaluation, and the control group for the other
//! two: where `luart` (tagged registers) and `jsrt` (NaN-boxed stack) carry
//! type tags on every value at run time, `wasmrt` resolves every type at
//! compile time and carries **none**. It answers the question the paper's
//! hardware raises — *how much of the Typed Architecture win survives if the
//! guest language is statically typed to begin with?*
//!
//! The pipeline:
//!
//! * a **fixpoint type-inference pass** over MiniScript assigns every local,
//!   global, table and function boundary a concrete type (`i64`, `f64`,
//!   string id, table handle) or rejects the program;
//! * the typed program compiles to a **WASM-subset bytecode**: a typed
//!   operand stack, separate `i64.*`/`f64.*` arithmetic with explicit
//!   `f64.convert_i64_s` conversions, structured control flow lowered to
//!   verified branches, direct calls, and untagged 8-byte stack slots;
//! * a [`validate`] pass abstractly interprets every function the way a WASM
//!   engine validates a module — stack depth and slot types are checked
//!   statically, so the interpreter needs no dynamic checks;
//! * the generated interpreter is **identical at every ISA level**: with no
//!   tags to load, check, or predict, there is nothing for `tld`/`tchk`/the
//!   TRT to do, and the Baseline/CheckedLoad/Typed images are byte-for-byte the
//!   same ([`build_image`] asserts this in its tests).
//!
//! Consequently `type_checks`, `type_hits`, `tagged_mem` and `typed_alu`
//! read **zero** on every `wasmrt` run — the quantitative statement that the paper's
//! hardware accelerates exactly the tag traffic a static type system
//! removes at compile time.
//!
//! [`WasmVm`] is the guest-VM shell every engine shares
//! (`tarch_sim::GuestVm`), over this crate's [`Wasm`] engine.
//!
//! # Examples
//!
//! ```
//! use tarch_core::{CoreConfig, IsaLevel};
//! use wasmrt::WasmVm;
//!
//! let src = "
//!     local s = 0
//!     for i = 1, 100 do s = s + i end
//!     print(s)
//! ";
//! // Same guest program, with and without the typed hardware...
//! let mut base = WasmVm::from_source(src, IsaLevel::Baseline, CoreConfig::paper())?;
//! let mut typed = WasmVm::from_source(src, IsaLevel::Typed, CoreConfig::paper())?;
//! let rb = base.run(10_000_000)?;
//! let rt = typed.run(10_000_000)?;
//! assert_eq!(rb.output, "5050\n");
//! assert_eq!(rt.output, "5050\n");
//! // ...runs in exactly the same number of cycles: statically typed code
//! // leaves the type hardware with nothing to accelerate.
//! assert_eq!(rb.counters.cycles, rt.counters.cycles);
//! assert_eq!(rt.counters.type_checks, 0);
//! assert_eq!(rt.counters.tagged_mem, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bytecode;
mod codegen;
mod compiler;
mod engine;
pub mod helpers_mod;
pub mod layout;
mod runtime;

pub use bytecode::{validate, Bc, Builtin, Const, Module, Op, Proto, TyCode, ValidateError};
pub use codegen::{build_image, WasmImage};
pub use compiler::{compile, CompileError};
pub use engine::{EngineError, OpProfile, RunReport, Wasm, WasmVm};
pub use runtime::WasmHost;
