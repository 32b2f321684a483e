//! The guest-VM shell shared by every scripting engine.
//!
//! An engine differs from the others in four things only: its front end
//! (MiniScript source → its bytecode module), its image builder (module →
//! interpreter + program image for one ISA level), its opcode type and
//! its `ecall` host. [`Engine`] names those four, and declares whether
//! the image depends on the ISA level at all. Everything else — the
//! machine and the shared image, construction, the run loops, per-opcode
//! attribution, the report and the error type — is written once here, in
//! [`GuestVm`].

use crate::machine::{Machine, RunOutcome, SimError};
use crate::native::{HostState, NativeHost};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
use tarch_core::{BranchStats, CoreConfig, Cpu, IsaLevel, PerfCounters};
use tarch_isa::asm::{AsmError, Program, ProgramBuilder};

/// A bytecode opcode: the key of per-opcode attribution.
pub trait Opcode: Copy + Eq + Hash + fmt::Debug + Send + Sync + 'static {
    /// Every opcode. The image has one handler per opcode, at the symbol
    /// `op_<name>`.
    const ALL: &'static [Self];

    /// The opcode's mnemonic.
    fn name(self) -> &'static str;
}

/// An engine's `ecall` host: the engine's own runtime tables around the
/// [`HostState`] every host keeps.
pub trait GuestHost: NativeHost + Clone + fmt::Debug + Send {
    /// A host around `state`, with empty engine tables.
    fn new(state: HostState) -> Self;

    /// The shared state: interned strings, output, heap.
    fn state(&self) -> &HostState;
}

/// What an engine supplies to the shell. Implemented by a unit marker
/// type per engine.
pub trait Engine: Clone + fmt::Debug + 'static {
    /// The compiled bytecode module.
    type Module;
    /// The bytecode opcode.
    type Op: Opcode;
    /// The `ecall` host.
    type Host: GuestHost;
    /// The front end's parse error.
    type ParseError: Error + 'static;
    /// The front end's compile error.
    type CompileError: Error + 'static;

    /// Whether [`Engine::build_image`] emits the same image at every ISA
    /// level. The level reaches the simulated machine only through the
    /// image, so such an engine runs a program identically at every
    /// level, and a harness may simulate one level and reuse its result
    /// for the others. `tests/image_digests.rs` checks every engine that
    /// declares it.
    const LEVEL_INVARIANT: bool = false;

    /// The front end: parses and compiles MiniScript source.
    ///
    /// # Errors
    ///
    /// [`EngineError::Parse`] or [`EngineError::Compile`].
    fn front_end(src: &str) -> Result<Self::Module, EngineError<Self>>;

    /// The image builder: generates the interpreter and program image.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] if the emitted program fails to assemble (a
    /// codegen bug).
    fn build_image(module: &Self::Module, level: IsaLevel) -> Result<Image<Self::Op>, AsmError>;
}

/// Error from building or running an engine.
#[derive(Debug)]
pub enum EngineError<E: Engine> {
    /// MiniScript parse error.
    Parse(E::ParseError),
    /// Bytecode compilation error.
    Compile(E::CompileError),
    /// Interpreter assembly error (codegen bug).
    Asm(AsmError),
    /// Simulation error (trap or runtime error).
    Sim(SimError),
    /// The step budget ran out before the program halted.
    StepLimit {
        /// The budget that was exhausted.
        max_steps: u64,
    },
}

impl<E: Engine> fmt::Display for EngineError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => e.fmt(f),
            EngineError::Compile(e) => e.fmt(f),
            EngineError::Asm(e) => e.fmt(f),
            EngineError::Sim(e) => e.fmt(f),
            EngineError::StepLimit { max_steps } => {
                write!(f, "program did not halt within {max_steps} simulated instructions")
            }
        }
    }
}

impl<E: Engine> Error for EngineError<E> {}

impl<E: Engine> From<AsmError> for EngineError<E> {
    fn from(e: AsmError) -> EngineError<E> {
        EngineError::Asm(e)
    }
}

impl<E: Engine> From<SimError> for EngineError<E> {
    fn from(e: SimError) -> EngineError<E> {
        EngineError::Sim(e)
    }
}

/// A built engine image: the assembled interpreter and program, plus the
/// metadata the host and the attribution run need.
#[derive(Debug, Clone)]
pub struct Image<Op> {
    /// The assembled program.
    pub program: Program,
    /// Handler entry pcs, one per opcode, sorted by address.
    pub handler_entries: Vec<(Op, u64)>,
    /// Interned strings; index is the string id used in value payloads.
    pub strings: Vec<String>,
    /// The ISA level the image was generated for.
    pub level: IsaLevel,
}

impl<Op: Opcode> Image<Op> {
    /// Assembles the program and finds each opcode's handler by its
    /// `op_<name>` symbol.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] if the program fails to assemble.
    ///
    /// # Panics
    ///
    /// If a handler symbol is missing (a codegen bug).
    pub fn finish(
        b: ProgramBuilder,
        strings: Vec<String>,
        level: IsaLevel,
    ) -> Result<Image<Op>, AsmError> {
        let program = b.finish()?;
        let mut handler_entries: Vec<(Op, u64)> = Op::ALL
            .iter()
            .map(|&op| (op, program.symbol(&format!("op_{}", op.name())).expect("handler symbol")))
            .collect();
        handler_entries.sort_by_key(|&(_, pc)| pc);
        Ok(Image { program, handler_entries, strings, level })
    }
}

/// Per-opcode attribution from an instrumented run.
#[derive(Debug, Clone)]
pub struct OpProfile<Op> {
    /// Dynamic bytecode count per opcode.
    pub dynamic: HashMap<Op, u64>,
    /// Native instructions attributed to each opcode's handler (including
    /// the following dispatch sequence).
    pub instructions: HashMap<Op, u64>,
}

impl<Op> Default for OpProfile<Op> {
    fn default() -> OpProfile<Op> {
        OpProfile { dynamic: HashMap::new(), instructions: HashMap::new() }
    }
}

impl<Op: Eq + Hash> OpProfile<Op> {
    /// Total dynamic bytecodes.
    pub fn total_bytecodes(&self) -> u64 {
        self.dynamic.values().sum()
    }

    /// Average native instructions per dynamic instance of `op`.
    pub fn instr_per_bytecode(&self, op: Op) -> f64 {
        let d = self.dynamic.get(&op).copied().unwrap_or(0);
        if d == 0 {
            0.0
        } else {
            self.instructions.get(&op).copied().unwrap_or(0) as f64 / d as f64
        }
    }
}

/// Results of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport<Op> {
    /// Everything the program printed.
    pub output: String,
    /// Hardware performance counters.
    pub counters: PerfCounters,
    /// Branch predictor statistics.
    pub branch: BranchStats,
    /// The ISA level that ran.
    pub level: IsaLevel,
    /// Per-opcode attribution (only from [`GuestVm::run_profiled`]).
    pub profile: Option<OpProfile<Op>>,
}

impl<Op> RunReport<Op> {
    /// Control-flow mispredictions per kilo-instruction (Figure 7 metric).
    pub fn branch_mpki(&self) -> f64 {
        self.counters.per_kilo_instr(self.branch.total_misses())
    }
}

impl<Op: Opcode> RunReport<Op> {
    /// The same report with its profile keyed by opcode name, for callers
    /// that do not know the engine.
    pub fn named(self) -> RunReport<&'static str> {
        let by_name = |m: HashMap<Op, u64>| m.into_iter().map(|(op, n)| (op.name(), n)).collect();
        RunReport {
            output: self.output,
            counters: self.counters,
            branch: self.branch,
            level: self.level,
            profile: self.profile.map(|p| OpProfile {
                dynamic: by_name(p.dynamic),
                instructions: by_name(p.instructions),
            }),
        }
    }
}

/// A ready-to-run guest VM: the simulated machine with the engine's host,
/// and the engine's image loaded into it.
#[derive(Debug, Clone)]
pub struct GuestVm<E: Engine> {
    machine: Machine<E::Host>,
    // Immutable after construction and shared by reference count, so
    // cloning a VM (fleet tenants) never deep-copies the program image.
    image: Arc<Image<E::Op>>,
}

impl<E: Engine> GuestVm<E> {
    /// Builds an engine for a compiled module.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if code generation fails.
    pub fn new(
        module: &E::Module,
        level: IsaLevel,
        core: CoreConfig,
    ) -> Result<Self, EngineError<E>> {
        let image = Arc::new(E::build_image(module, level)?);
        let host = E::Host::new(HostState::new(image.strings.clone()));
        let mut machine = Machine::new(core, host);
        machine.load(&image.program);
        Ok(GuestVm { machine, image })
    }

    /// Parses, compiles and builds an engine in one step.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on parse/compile/codegen failures.
    pub fn from_source(
        src: &str,
        level: IsaLevel,
        core: CoreConfig,
    ) -> Result<Self, EngineError<E>> {
        GuestVm::new(&E::front_end(src)?, level, core)
    }

    /// The generated image (program + metadata).
    pub fn image(&self) -> &Image<E::Op> {
        &self.image
    }

    /// The simulated core (read access for measurement tooling).
    pub fn cpu(&self) -> &Cpu {
        self.machine.cpu()
    }

    /// The simulated core, mutably (measurement tooling, e.g. enabling
    /// the opcode-pair profile behind `repro bench --profile-pairs`).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        self.machine.cpu_mut()
    }

    /// Everything the program has printed so far.
    pub fn output(&self) -> &str {
        self.machine.host().state().output()
    }

    /// Runs one scheduling slice of up to `max_steps` simulated
    /// instructions, servicing `ecall`s. Unlike [`GuestVm::run`],
    /// exhausting the slice is not an error — the VM can be resumed with
    /// another call — so this is the entry point for preemptive schedulers.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on traps and runtime errors.
    pub fn run_slice(&mut self, max_steps: u64) -> Result<RunOutcome, EngineError<E>> {
        Ok(self.machine.run(max_steps)?)
    }

    /// Whether the guest program has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.machine.cpu().is_halted()
    }

    /// Runs to completion (up to `max_steps` simulated instructions).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on traps, runtime errors, or step-limit
    /// exhaustion.
    pub fn run(&mut self, max_steps: u64) -> Result<RunReport<E::Op>, EngineError<E>> {
        let outcome = self.machine.run(max_steps)?;
        self.finish(outcome, max_steps, None)
    }

    /// Runs with per-opcode attribution: dynamic bytecode counts and native
    /// instructions per handler (regenerates Figures 2(b) and 9). The run
    /// is an ordinary block-engine run with the core's per-handler
    /// recorder attached to the image's handler entries (see
    /// [`Cpu::enable_handler_profile`]).
    ///
    /// # Errors
    ///
    /// Same as [`GuestVm::run`].
    pub fn run_profiled(&mut self, max_steps: u64) -> Result<RunReport<E::Op>, EngineError<E>> {
        let entries: Vec<u64> = self.image.handler_entries.iter().map(|&(_, pc)| pc).collect();
        self.machine.cpu_mut().enable_handler_profile(&entries);
        let outcome = self.machine.run(max_steps)?;
        let counts = self.machine.cpu().handler_profile().expect("attribution enabled above");
        // The profile holds only the ops that ran.
        let nonzero = |counts: &[u64]| -> HashMap<E::Op, u64> {
            let ops = self.image.handler_entries.iter().map(|&(op, _)| op);
            ops.zip(counts).filter(|&(_, &n)| n > 0).map(|(op, &n)| (op, n)).collect()
        };
        let profile = OpProfile {
            dynamic: nonzero(&counts.dispatches),
            instructions: nonzero(&counts.instructions),
        };
        self.finish(outcome, max_steps, Some(profile))
    }

    fn finish(
        &self,
        outcome: RunOutcome,
        max_steps: u64,
        profile: Option<OpProfile<E::Op>>,
    ) -> Result<RunReport<E::Op>, EngineError<E>> {
        match outcome {
            RunOutcome::Halted => Ok(RunReport {
                output: self.output().to_string(),
                counters: *self.machine.cpu().counters(),
                branch: self.machine.cpu().branch_stats(),
                level: self.image.level,
                profile,
            }),
            RunOutcome::StepLimit => Err(EngineError::StepLimit { max_steps }),
        }
    }
}
