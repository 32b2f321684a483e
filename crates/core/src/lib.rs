//! # tarch-core — the Typed Architecture processor model
//!
//! This crate is the paper's primary contribution in simulator form: a
//! single-issue, in-order, 5-stage RISC core (Rocket-class, paper Table 6)
//! augmented with the Typed Architecture pipeline of Section 3:
//!
//! * a **unified typed register file** ([`RegFile`]) where every entry
//!   carries `R.v`, `R.t` (8-bit type tag) and `R.f` (F/I̅ bit);
//! * the **Type Rule Table** ([`TypeRuleTable`]), an 8-entry CAM consulted
//!   by polymorphic `xadd`/`xsub`/`xmul` and by `tchk`, producing the output
//!   tag on a hit and redirecting to `R_hdl` on a type misprediction;
//! * the **tag extract/insert datapath** ([`SprState`]) configured by
//!   `R_offset`/`R_shift`/`R_mask`, including NaN-boxing detection and
//!   overflow-triggered mispredictions;
//! * the paper's front end: 128-entry gshare + 62-entry BTB + 2-entry RAS
//!   ([`BranchPredictor`]) with a 2-cycle redirect penalty;
//! * L1 caches, TLBs and DDR3 latencies from `tarch-mem`;
//! * hardware [`PerfCounters`] for every quantity in the evaluation.
//!
//! [`Cpu`] executes TRV64 programs functionally while advancing a
//! cycle-approximate timing scoreboard; [`TypedState`] provides the
//! context-switch save/restore of Section 5.
//!
//! # Examples
//!
//! Run the paper's Figure 3 fast path: a typed `ADD` over two Lua-layout
//! values in simulated memory.
//!
//! ```
//! use tarch_core::{CoreConfig, Cpu, StepEvent};
//! use tarch_isa::text::assemble;
//!
//! let src = "
//!     li   t0, 0b001          # R_offset: tag in next double-word (Lua)
//!     setoffset t0
//!     li   t0, 0xff
//!     setmask t0
//!     li   t0, 0x13001313     # TRT rule: xadd (Int, Int) -> Int
//!     set_trt t0
//!     li   s10, 0x20000       # rb
//!     li   s9,  0x20010       # rc
//!     tld  a2, 0(s10)
//!     tld  a3, 0(s9)
//!     thdl slow
//!     xadd a2, a2, a3
//!     tsd  a2, 0(s10)
//!     halt
//! slow:
//!     halt
//! ";
//! let mut program = assemble(src, 0x1000, 0x20000)?;
//! // Two Lua values: ival=40 tag=0x13(Int), ival=2 tag=0x13.
//! program.data = vec![0; 32];
//! program.data[0..8].copy_from_slice(&40u64.to_le_bytes());
//! program.data[8] = 0x13;
//! program.data[16..24].copy_from_slice(&2u64.to_le_bytes());
//! program.data[24] = 0x13;
//!
//! let mut cpu = Cpu::new(CoreConfig::paper());
//! cpu.load_program(&program);
//! while cpu.step()? != StepEvent::Halted {}
//! assert_eq!(cpu.mem().read_u64(0x20000), 42);   // value written back
//! assert_eq!(cpu.mem().read_u8(0x20008), 0x13);  // tag written back
//! assert_eq!(cpu.counters().type_hits, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod blocks;
mod bpred;
mod codegen;
mod config;
mod counters;
mod cpu;
mod ctxsw;
mod observe;
mod pairprof;
mod pgo;
mod predecode;
mod regfile;
mod tagio;
mod trt;

pub use blocks::{BlockOp, BlockStats, BlockTable, MAX_BLOCK_LEN};
pub use bpred::{BranchPredictor, BranchStats};
pub use codegen::{BlockExit, CodeGenerator, CompiledBlock, Interp, Template};
pub use config::{BranchConfig, CoreConfig, IsaLevel, LatencyConfig};
pub use counters::PerfCounters;
pub use cpu::{canonical_f64_bits, Cpu, StepEvent, Trap};
pub use ctxsw::TypedState;
pub use observe::HandlerProfile;
pub use pairprof::PairProfile;
pub use pgo::{EdgeProfile, PgoProfile, LINK_HINT_SLOTS};
pub use predecode::{PredecodeStats, PredecodeTable};
pub use regfile::{RegFile, TaggedValue, UNTYPED_TAG};
pub use tagio::{is_nan_boxed, Inserted, SprState, TagDword, NANBOX_FP_TAG};
pub use trt::TypeRuleTable;

// The observability layer ([`CoreConfig::trace`] carries its config;
// `Cpu::tracer`/`Cpu::finish_trace` expose its output). Re-exported
// whole so downstream crates reach `trace::chrome`/`trace::report`
// without a separate dependency edge.
pub use tarch_trace as trace;
pub use tarch_trace::{TraceConfig, TraceSummary, Tracer};
