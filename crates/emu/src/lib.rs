//! Functional emulator for the `clustered` virtual ISA.
//!
//! The emulator executes an assembled [`Program`](clustered_isa::Program)
//! at architectural level and emits one [`DynInst`] record per executed
//! instruction. Those records — carrying the static instruction, the
//! resolved effective address of memory operations, and the outcome of
//! control transfers — are the *dynamic trace* the `clustered-sim`
//! timing model consumes.
//!
//! This mirrors the trace-driven substitution documented in the
//! repository's `DESIGN.md`: the ISCA 2003 paper used an
//! execution-driven SimpleScalar; here functional execution and timing
//! are decoupled, with branch mispredictions modelled in the timing
//! simulator by stalling fetch until resolution.
//!
//! # Examples
//!
//! ```
//! use clustered_isa::assemble;
//! use clustered_emu::{trace, Machine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "li r1, 4
//!      loop: addi r1, r1, -1
//!      bnez r1, loop
//!      halt",
//! )?;
//!
//! // Architectural execution:
//! let mut m = Machine::new(program.clone());
//! m.run_to_halt(1_000)?;
//! assert_eq!(m.int_reg(1), 0);
//!
//! // Or as a dynamic trace:
//! let branches = trace(program)
//!     .filter_map(Result::ok)
//!     .filter(|d| d.branch.is_some())
//!     .count();
//! assert_eq!(branches, 4);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod decoded;
mod fxhash;
mod machine;
mod memory;
mod trace;

pub use decoded::{DecodedInst, TraceSource};
pub use fxhash::{FastMap, U64Hasher};
pub use machine::{trace, EmuError, Machine, Trace};
pub use memory::Memory;
pub use trace::{BranchKind, BranchOutcome, DynInst, MemAccess};
