//! The unified, stage-tagged pipeline error.
//!
//! Every fallible step of the certification pipeline — loading and parsing
//! the EASL spec, deriving the abstraction, parsing and lowering the
//! mini-Java client, and running an engine — surfaces through [`CanvasError`]
//! at the binary frontier. The error carries the [`Stage`] that failed, an
//! [`ErrorKind`] classifying the failure, and (when the underlying error
//! points into source text) a 1-based line number, so drivers can render a
//! consistent `error[stage/kind]` diagnostic and scripts can grep for it.

use std::fmt;

use crate::certifier::CertifyError;
use canvas_easl::EaslError;

/// Writes to stdout. A reader that has gone away (`canvas … | head`) drops
/// the rest of the output instead of panicking, so the run still ends with
/// its own exit code. Both binaries print through this, via
/// [`crate::out!`] and [`crate::outln!`].
///
/// # Panics
///
/// On any other write error, like `print!`.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        assert!(e.kind() == std::io::ErrorKind::BrokenPipe, "failed printing to stdout: {e}");
    }
}

/// The message of a caught panic's payload (`panic!` with a literal or a
/// formatted string), for reporting a contained panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => { $crate::out!("\n") };
    ($($arg:tt)*) => { $crate::out!("{}\n", format_args!($($arg)*)) };
}

/// The pipeline stage an error was raised in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Command-line argument handling.
    Cli,
    /// Reading or parsing the EASL specification.
    SpecLoad,
    /// Deriving the abstraction from the spec (§4.1/§4.2).
    Derivation,
    /// Parsing, lowering or inlining the mini-Java client.
    ClientFrontend,
    /// Running a certification engine over the client.
    Certification,
    /// Loading or persisting the incremental certificate cache.
    Cache,
}

impl Stage {
    /// The stable kebab-case name used in rendered diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Cli => "cli",
            Stage::SpecLoad => "spec-load",
            Stage::Derivation => "derivation",
            Stage::ClientFrontend => "client-frontend",
            Stage::Certification => "certification",
            Stage::Cache => "cache",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What went wrong, independent of where.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// Bad command-line usage.
    Usage,
    /// The file could not be read.
    Io,
    /// The source text failed to lex, parse or resolve.
    Parse,
    /// Abstraction derivation failed.
    Derive,
    /// The client has no static `main` entry point.
    NoEntryPoint,
    /// The relational engine exceeded its hard state budget.
    StateBudget,
    /// An engine panicked and the panic was contained.
    EnginePanic,
}

impl ErrorKind {
    /// The stable kebab-case name used in rendered diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Usage => "usage",
            ErrorKind::Io => "io",
            ErrorKind::Parse => "parse",
            ErrorKind::Derive => "derive",
            ErrorKind::NoEntryPoint => "no-entry-point",
            ErrorKind::StateBudget => "state-budget",
            ErrorKind::EnginePanic => "engine-panic",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A pipeline error with enough structure for a driver to render a
/// consistent diagnostic: the failed [`Stage`], the [`ErrorKind`], an
/// optional 1-based source line, and a human-readable message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CanvasError {
    /// The pipeline stage that failed.
    pub stage: Stage,
    /// The failure classification.
    pub kind: ErrorKind,
    /// 1-based source line the error points at; `0` when not applicable.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl CanvasError {
    /// A new error with no source position.
    pub fn new(stage: Stage, kind: ErrorKind, message: impl Into<String>) -> CanvasError {
        CanvasError { stage, kind, line: 0, message: message.into() }
    }

    /// A bad-usage error from the CLI stage.
    pub fn usage(message: impl Into<String>) -> CanvasError {
        CanvasError::new(Stage::Cli, ErrorKind::Usage, message)
    }

    /// A file-read failure attributed to the given stage.
    pub fn io(stage: Stage, path: &str, err: &std::io::Error) -> CanvasError {
        CanvasError::new(stage, ErrorKind::Io, format!("cannot read {path}: {err}"))
    }

    /// A spec-side parse/resolve error. (`EaslError` doubles as the
    /// mini-Java `SourceError`, so attribution to a stage is explicit
    /// rather than via `From`.)
    pub fn spec(err: &EaslError) -> CanvasError {
        CanvasError {
            stage: Stage::SpecLoad,
            kind: ErrorKind::Parse,
            line: err.line(),
            message: err.message().to_string(),
        }
    }

    /// A client-side parse/lower error.
    pub fn client(err: &EaslError) -> CanvasError {
        CanvasError {
            stage: Stage::ClientFrontend,
            kind: ErrorKind::Parse,
            line: err.line(),
            message: err.message().to_string(),
        }
    }
}

impl From<CertifyError> for CanvasError {
    fn from(e: CertifyError) -> CanvasError {
        match &e {
            CertifyError::Derive(d) => {
                CanvasError::new(Stage::Derivation, ErrorKind::Derive, d.to_string())
            }
            CertifyError::Source(s) => CanvasError::client(s),
            CertifyError::NoMain => {
                CanvasError::new(Stage::ClientFrontend, ErrorKind::NoEntryPoint, e.to_string())
            }
            CertifyError::StateBudget { .. } => {
                CanvasError::new(Stage::Certification, ErrorKind::StateBudget, e.to_string())
            }
            CertifyError::Panicked { .. } => {
                CanvasError::new(Stage::Certification, ErrorKind::EnginePanic, e.to_string())
            }
        }
    }
}

impl fmt::Display for CanvasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}/{}]", self.stage, self.kind)?;
        if self.line > 0 {
            write!(f, " line {}", self.line)?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for CanvasError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_stage_kind_and_line() {
        let e = CanvasError::client(&EaslError::new(4, "unexpected token"));
        assert_eq!(e.to_string(), "error[client-frontend/parse] line 4: unexpected token");
        let e = CanvasError::usage("unknown flag --frob");
        assert_eq!(e.to_string(), "error[cli/usage]: unknown flag --frob");
    }

    #[test]
    fn certify_errors_map_to_stages() {
        let e: CanvasError = CertifyError::NoMain.into();
        assert_eq!((e.stage, e.kind), (Stage::ClientFrontend, ErrorKind::NoEntryPoint));
        let e: CanvasError =
            CertifyError::Panicked { engine: crate::Engine::ScmpFds, message: "boom".into() }
                .into();
        assert_eq!((e.stage, e.kind), (Stage::Certification, ErrorKind::EnginePanic));
        assert!(e.to_string().contains("boom"), "{e}");
    }

    #[test]
    fn spec_and_client_attribution_differ() {
        let raw = EaslError::new(2, "bad spec");
        assert_eq!(CanvasError::spec(&raw).stage, Stage::SpecLoad);
        assert_eq!(CanvasError::client(&raw).stage, Stage::ClientFrontend);
    }
}
