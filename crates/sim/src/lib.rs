//! # tarch-sim — machine integration
//!
//! Glue between the Typed Architecture core (`tarch-core`) and the software
//! that runs on it:
//!
//! * [`Machine`] — a core plus a [`NativeHost`] servicing `ecall`s, with
//!   run loops (plain, step-budgeted, and observed for per-handler
//!   attribution);
//! * [`NativeHost`] / [`Cost`] — the native helper interface and its
//!   documented affine cost model (see [`native`] module docs for why
//!   helper costs are identical across ISA levels);
//! * [`SimError`] — unified trap/host error reporting;
//! * [`GuestVm`] — the guest-VM shell all three scripting engines share.
//!
//! The scripting engines (`luart`, `jsrt`, `wasmrt`) each implement
//! [`Engine`]: a front end, an image builder, an [`Opcode`] type and a
//! [`GuestHost`] (their [`NativeHost`] around the shared [`HostState`]).
//! [`GuestVm`] supplies everything else: construction, the run loops,
//! per-opcode attribution, [`RunReport`] and [`EngineError`].

mod guest;
mod machine;
pub mod native;

pub use guest::{Engine, EngineError, GuestHost, GuestVm, Image, OpProfile, Opcode, RunReport};
pub use machine::{Machine, RunOutcome, SimError};
pub use native::{
    Cost, HostError, HostState, NativeHost, NoHost, StringTable, HEAP_BASE, HEAP_LIMIT,
    HELPER_CPI_TENTHS,
};
