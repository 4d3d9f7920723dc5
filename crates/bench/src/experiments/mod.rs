//! The experiments themselves, one module per paper artifact. Each exposes
//! `run(&Cli)`; the `src/bin/*` wrappers and the `all` binary call these.

pub mod ablations;
pub mod ext_disks;
pub mod ext_errors;
pub mod ext_hybrid;
pub mod ext_multichannel;
pub mod ext_phases;
pub mod ext_tails;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table1;

/// What an experiment's `run` returns: an error when a sweep cell failed
/// or a result table could not be written, already reported on stderr.
pub type Outcome = Result<(), Box<dyn std::error::Error>>;
