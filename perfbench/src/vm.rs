//! One guest pipeline over the three engines, with a span around each
//! layer call: `<engine>::compile`, `<Engine>Vm::new`, `run`.

use crate::trace::span;
use miniscript::Chunk;
use tarch_core::{BranchStats, CoreConfig, Cpu, IsaLevel, PerfCounters};
use tarch_runner::{EngineKind, ExecError};

/// What a finished run reports, whichever engine ran it.
pub struct Finished {
    pub output: String,
    pub counters: PerfCounters,
    pub branch: BranchStats,
    pub bytecodes: Option<u64>,
}

pub enum Vm {
    Lua(luart::LuaVm),
    Js(jsrt::JsVm),
    Wasm(wasmrt::WasmVm),
}

/// `<engine>::compile` then `<Engine>Vm::new` (image build + load).
pub fn build(
    engine: EngineKind,
    chunk: &Chunk,
    level: IsaLevel,
    core: CoreConfig,
) -> Result<Vm, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    Ok(match engine {
        EngineKind::Lua => {
            let m = span("luart.compile", || luart::compile(chunk)).map_err(|x| e(&x))?;
            Vm::Lua(span("luart.vm_new", || luart::LuaVm::new(&m, level, core)).map_err(|x| e(&x))?)
        }
        EngineKind::Js => {
            let m = span("jsrt.compile", || jsrt::compile(chunk)).map_err(|x| e(&x))?;
            Vm::Js(span("jsrt.vm_new", || jsrt::JsVm::new(&m, level, core)).map_err(|x| e(&x))?)
        }
        EngineKind::Wasm => {
            let m = span("wasmrt.compile", || wasmrt::compile(chunk)).map_err(|x| e(&x))?;
            Vm::Wasm(
                span("wasmrt.vm_new", || wasmrt::WasmVm::new(&m, level, core))
                    .map_err(|x| e(&x))?,
            )
        }
    })
}

macro_rules! finish {
    ($r:expr, $engine:ident, $budget:expr) => {
        match $r {
            Ok(r) => Ok(Finished {
                output: r.output,
                counters: r.counters,
                branch: r.branch,
                bytecodes: r.profile.as_ref().map(|p| p.total_bytecodes()),
            }),
            Err($engine::EngineError::StepLimit { .. }) => {
                Err(ExecError::StepBudget { steps: $budget })
            }
            Err(e) => Err(ExecError::Failed(e.to_string())),
        }
    };
}

impl Vm {
    /// `run` (span `core.run`) or `run_profiled` (span `core.observed_run`).
    pub fn run(&mut self, budget: u64, profiled: bool) -> Result<Finished, ExecError> {
        let name = if profiled {
            "core.observed_run"
        } else {
            "core.run"
        };
        span(name, || match self {
            Vm::Lua(vm) => finish!(
                if profiled {
                    vm.run_profiled(budget)
                } else {
                    vm.run(budget)
                },
                luart,
                budget
            ),
            Vm::Js(vm) => finish!(
                if profiled {
                    vm.run_profiled(budget)
                } else {
                    vm.run(budget)
                },
                jsrt,
                budget
            ),
            Vm::Wasm(vm) => finish!(
                if profiled {
                    vm.run_profiled(budget)
                } else {
                    vm.run(budget)
                },
                wasmrt,
                budget
            ),
        })
    }

    pub fn cpu(&self) -> &Cpu {
        match self {
            Vm::Lua(vm) => vm.cpu(),
            Vm::Js(vm) => vm.cpu(),
            Vm::Wasm(vm) => vm.cpu(),
        }
    }
}
