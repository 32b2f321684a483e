//! `wasmrt`'s four parts for the shared guest-VM shell ([`tarch_sim::GuestVm`]):
//! front end (parse, then type-infer and compile), image builder, opcode
//! type and `ecall` host.

use crate::bytecode::{Module, Op};
use crate::codegen::{build_image, WasmImage};
use crate::compiler::{compile, CompileError};
use crate::runtime::WasmHost;
use miniscript::ParseError;
use tarch_core::IsaLevel;
use tarch_isa::asm::AsmError;

/// The `wasmrt` engine, as the shell sees it.
#[derive(Debug, Clone, Copy)]
pub struct Wasm;

impl tarch_sim::Engine for Wasm {
    type Module = Module;
    type Op = Op;
    type Host = WasmHost;
    type ParseError = ParseError;
    type CompileError = CompileError;

    /// The image is the same at every level: it holds no typed-hardware
    /// instruction (see [`WasmImage`]).
    const LEVEL_INVARIANT: bool = true;

    fn front_end(src: &str) -> Result<Module, EngineError> {
        let chunk = miniscript::parse(src).map_err(EngineError::Parse)?;
        compile(&chunk).map_err(EngineError::Compile)
    }

    fn build_image(module: &Module, level: IsaLevel) -> Result<WasmImage, AsmError> {
        build_image(module, level)
    }
}

impl tarch_sim::Opcode for Op {
    const ALL: &'static [Op] = &Op::ALL;

    fn name(self) -> &'static str {
        Op::name(self)
    }
}

/// A ready-to-run `wasmrt` engine instance.
///
/// Its reports' `type_checks`, `type_hits`, `tagged_mem` and `typed_alu`
/// counters are zero by construction: the image contains no
/// typed-hardware instructions (see [`WasmImage`]).
///
/// # Examples
///
/// ```
/// use tarch_core::{CoreConfig, IsaLevel};
/// use wasmrt::WasmVm;
///
/// let mut vm = WasmVm::from_source("print(40 + 2)", IsaLevel::Typed, CoreConfig::paper())?;
/// let report = vm.run(10_000_000)?;
/// assert_eq!(report.output, "42\n");
/// // Statically typed guest: the typed hardware had nothing to do.
/// assert_eq!(report.counters.type_checks, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type WasmVm = tarch_sim::GuestVm<Wasm>;

/// Error from building or running the engine.
pub type EngineError = tarch_sim::EngineError<Wasm>;

/// Results of one engine run.
pub type RunReport = tarch_sim::RunReport<Op>;

/// Per-opcode attribution from an instrumented run.
pub type OpProfile = tarch_sim::OpProfile<Op>;
