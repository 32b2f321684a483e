//! `luart`'s four parts for the shared guest-VM shell ([`tarch_sim::GuestVm`]):
//! front end, image builder, opcode type and `ecall` host.

use crate::bytecode::{Module, Op};
use crate::codegen::{build_image, LuaImage};
use crate::compiler::{compile, CompileError};
use crate::runtime::LuaHost;
use miniscript::ParseError;
use tarch_core::IsaLevel;
use tarch_isa::asm::AsmError;

/// The `luart` engine, as the shell sees it.
#[derive(Debug, Clone, Copy)]
pub struct Lua;

impl tarch_sim::Engine for Lua {
    type Module = Module;
    type Op = Op;
    type Host = LuaHost;
    type ParseError = ParseError;
    type CompileError = CompileError;

    fn front_end(src: &str) -> Result<Module, EngineError> {
        let chunk = miniscript::parse(src).map_err(EngineError::Parse)?;
        compile(&chunk).map_err(EngineError::Compile)
    }

    fn build_image(module: &Module, level: IsaLevel) -> Result<LuaImage, AsmError> {
        build_image(module, level)
    }
}

impl tarch_sim::Opcode for Op {
    const ALL: &'static [Op] = &Op::ALL;

    fn name(self) -> &'static str {
        Op::name(self)
    }
}

/// A ready-to-run `luart` engine instance.
///
/// # Examples
///
/// ```
/// use luart::LuaVm;
/// use tarch_core::{CoreConfig, IsaLevel};
///
/// let mut vm = LuaVm::from_source("print(2 + 40)", IsaLevel::Typed, CoreConfig::paper())?;
/// let report = vm.run(10_000_000)?;
/// assert_eq!(report.output, "42\n");
/// assert!(report.counters.type_hits > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type LuaVm = tarch_sim::GuestVm<Lua>;

/// Error from building or running the engine.
pub type EngineError = tarch_sim::EngineError<Lua>;

/// Results of one engine run.
pub type RunReport = tarch_sim::RunReport<Op>;

/// Per-opcode attribution from an instrumented run.
pub type OpProfile = tarch_sim::OpProfile<Op>;
