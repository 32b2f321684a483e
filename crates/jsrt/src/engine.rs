//! `jsrt`'s four parts for the shared guest-VM shell ([`tarch_sim::GuestVm`]):
//! front end, image builder, opcode type and `ecall` host.

use crate::bytecode::{Module, Op};
use crate::codegen::{build_image, JsImage};
use crate::compiler::{compile, CompileError};
use crate::runtime::JsHost;
use miniscript::ParseError;
use tarch_core::IsaLevel;
use tarch_isa::asm::AsmError;

/// The `jsrt` engine, as the shell sees it.
#[derive(Debug, Clone, Copy)]
pub struct Js;

impl tarch_sim::Engine for Js {
    type Module = Module;
    type Op = Op;
    type Host = JsHost;
    type ParseError = ParseError;
    type CompileError = CompileError;

    fn front_end(src: &str) -> Result<Module, EngineError> {
        let chunk = miniscript::parse(src).map_err(EngineError::Parse)?;
        compile(&chunk).map_err(EngineError::Compile)
    }

    fn build_image(module: &Module, level: IsaLevel) -> Result<JsImage, AsmError> {
        build_image(module, level)
    }
}

impl tarch_sim::Opcode for Op {
    const ALL: &'static [Op] = &Op::ALL;

    fn name(self) -> &'static str {
        Op::name(self)
    }
}

/// A ready-to-run `jsrt` engine instance.
///
/// # Examples
///
/// ```
/// use jsrt::JsVm;
/// use tarch_core::{CoreConfig, IsaLevel};
///
/// let mut vm = JsVm::from_source("print(40 + 2)", IsaLevel::Typed, CoreConfig::paper())?;
/// let report = vm.run(10_000_000)?;
/// assert_eq!(report.output, "42\n");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type JsVm = tarch_sim::GuestVm<Js>;

/// Error from building or running the engine.
pub type EngineError = tarch_sim::EngineError<Js>;

/// Results of one engine run.
pub type RunReport = tarch_sim::RunReport<Op>;

/// Per-opcode attribution from an instrumented run.
pub type OpProfile = tarch_sim::OpProfile<Op>;
