//! The proof-carrying certificate format (Abstraction-Carrying Code).
//!
//! A [`Certificate`] packages the *fixpoint solution* of a whole-program
//! certification run — per `(method, entry)` cell, the claimed per-node
//! may-be-1 sets (FDS) or valuation sets (relational) — together with the
//! claimed verdict and binding digests for the client source, the
//! specification, and the derived abstraction. An untrusted certification
//! service can ship the certificate to a client, and the client revalidates
//! it with the small `canvas-check` crate by a *single-pass* replay: verify
//! the claimed solution is a post-fixpoint of the trusted boolean-program
//! transfer functions and that the claimed violation set is exactly the one
//! the solution implies. No engine code is trusted; correctness comes only
//! from passing the checker.
//!
//! The serialized form is line-oriented, versioned ([`CERT_FORMAT`]) and
//! byte-stable: serializing the same certificate twice produces identical
//! bytes, and the trailing `sha` line carries an FNV-1a digest of every
//! preceding byte, so any accidental corruption (a flipped bit, a truncated
//! tail) is rejected before replay even starts. Deliberate tampering that
//! recomputes the digest is caught by the replay itself.

use std::fmt;

use crate::boolprog::{BoolProgram, EntryAssumption, Operand, Rhs};
use crate::derived::Derived;

/// Header line of the serialized certificate; bump on breaking changes.
pub const CERT_FORMAT: &str = "canvas-cert/1";

/// 64-bit FNV-1a, the digest used throughout the certificate format and
/// the workspace's one byte-wise FNV-1a: `canvas-incr`'s fingerprint hasher
/// and the delta re-solve's edge digests are built on it. This crate is
/// already a dependency of both, so sharing it adds nothing to the
/// checker's trusted base.
#[derive(Clone, Debug)]
pub struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A fresh hasher.
    pub fn new() -> Digest {
        Digest(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a length-prefixed string (prefix-collision safe).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

/// FNV-1a of a string's raw bytes (used to bind the exact client source).
pub fn digest_str(s: &str) -> u64 {
    let mut d = Digest::new();
    d.write(s.as_bytes());
    d.finish()
}

/// A digest of the derived abstraction's observable content (spec name,
/// families and statement abstractions). Binds a certificate to the exact
/// abstraction the checker will replay with. Computed once, by
/// [`Derived::new`]: a `Derived` is immutable, so the digest cannot go
/// stale.
pub fn derived_digest(d: &Derived) -> u64 {
    d.digest()
}

/// A digest of a boolean program's replay-relevant structure: predicate
/// count, nodes, entry seeds, edges with their parallel assignments, and
/// check sites. Emitter and checker both transform the client and compare
/// digests, so any skew between their transforms is reported as a shape
/// mismatch instead of a baffling post-fixpoint failure.
pub fn bp_digest(bp: &BoolProgram) -> u64 {
    let mut h = Digest::new();
    h.write_usize(bp.preds.len());
    h.write_usize(bp.node_count);
    h.write_usize(bp.entry);
    h.write_usize(bp.entry_unknown.len());
    for &k in &bp.entry_unknown {
        h.write_usize(k);
    }
    h.write_usize(bp.edges.len());
    for e in &bp.edges {
        h.write_usize(e.from);
        h.write_usize(e.to);
        h.write_usize(e.assigns.len());
        for (dst, rhs) in &e.assigns {
            h.write_usize(*dst);
            match rhs {
                Rhs::Havoc => h.write_u64(u64::MAX),
                Rhs::Disj(ops) => {
                    h.write_usize(ops.len());
                    for op in ops {
                        match op {
                            Operand::Const(c) => {
                                h.write(&[0]);
                                h.write(&[u8::from(*c)]);
                            }
                            Operand::Var(v) => {
                                h.write(&[1]);
                                h.write_usize(*v);
                            }
                        }
                    }
                }
            }
        }
    }
    h.write_usize(bp.checks.len());
    for c in &bp.checks {
        h.write_usize(c.node);
        h.write_u64(u64::from(c.site.span.line));
        h.write_u64(u64::from(c.site.span.col));
        h.write_str(&c.site.what);
        h.write_usize(c.preds.len());
        for op in &c.preds {
            match op {
                Operand::Const(c) => {
                    h.write(&[0]);
                    h.write(&[u8::from(*c)]);
                }
                Operand::Var(v) => {
                    h.write(&[1]);
                    h.write_usize(*v);
                }
            }
        }
    }
    h.finish()
}

/// The fixpoint-solution payload of one certificate cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CellSolution {
    /// Per-node may-be-1 predicate sets (the FDS engine's solution):
    /// `nodes[i]` lists the indices that may be 1 at node `i`, sorted.
    MayOne {
        /// One sorted index list per node.
        nodes: Vec<Vec<u32>>,
    },
    /// Per-node sets of full valuations (the relational engine's solution):
    /// each valuation is a sorted index list; valuation lists are sorted.
    Relational {
        /// One sorted valuation-set per node.
        nodes: Vec<Vec<Vec<u32>>>,
    },
    /// The engine produced no replayable solution (TVLA/heap/interproc
    /// engines, or an inconclusive run). Such a certificate records the
    /// verdict but cannot be independently revalidated.
    Unavailable {
        /// Why.
        reason: String,
    },
}

/// One `(method, entry-assumption)` cell of a whole-program certificate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CertCell {
    /// Qualified method name, e.g. `Main.main`.
    pub method: String,
    /// The entry assumption the cell was analysed under.
    pub entry: EntryAssumption,
    /// Claimed predicate-instance count (the solution's bit width).
    pub preds: u32,
    /// Digest of the boolean program the solution is a fixpoint of.
    pub bp_digest: u64,
    /// The claimed solution.
    pub solution: CellSolution,
}

/// One claimed potential violation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CertViolation {
    /// Qualified method name.
    pub method: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Human-readable call description, e.g. `i.next()`.
    pub what: String,
}

/// A replayable whole-program certificate (see the module docs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Engine name, e.g. `scmp-fds` (informational; the replay semantics is
    /// determined per cell by the solution kind).
    pub engine: String,
    /// Specification name.
    pub spec: String,
    /// Digest of the derived abstraction ([`derived_digest`]).
    pub derived: u64,
    /// Digest of the exact client source text ([`digest_str`]).
    pub source: u64,
    /// One cell per `(method, entry)` pair, `main` (clean entry) first.
    pub cells: Vec<CertCell>,
    /// The claimed violations, in normalized (sorted, deduplicated) order.
    pub violations: Vec<CertViolation>,
}

/// Why a serialized certificate was rejected before replay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CertFormatError {
    /// Unknown or missing format header.
    Version(String),
    /// The trailing digest does not match the payload bytes.
    DigestMismatch,
    /// A malformed line (with a description).
    Malformed(String),
}

impl fmt::Display for CertFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertFormatError::Version(v) => write!(f, "unsupported certificate format {v:?}"),
            CertFormatError::DigestMismatch => {
                f.write_str("certificate digest mismatch (corrupted or truncated)")
            }
            CertFormatError::Malformed(m) => write!(f, "malformed certificate: {m}"),
        }
    }
}

impl std::error::Error for CertFormatError {}

fn entry_tag(e: EntryAssumption) -> &'static str {
    match e {
        EntryAssumption::Clean => "clean",
        EntryAssumption::Unknown => "unknown",
    }
}

fn parse_entry(s: &str) -> Option<EntryAssumption> {
    match s {
        "clean" => Some(EntryAssumption::Clean),
        "unknown" => Some(EntryAssumption::Unknown),
        _ => None,
    }
}

fn fmt_indices(out: &mut String, bits: &[u32]) {
    if bits.is_empty() {
        out.push('-');
        return;
    }
    for (k, b) in bits.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&b.to_string());
    }
}

fn parse_indices(s: &str) -> Result<Vec<u32>, CertFormatError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            t.parse::<u32>()
                .map_err(|_| CertFormatError::Malformed(format!("bad index list {s:?}")))
        })
        .collect()
}

impl Certificate {
    /// Whether every cell carries a replayable solution.
    pub fn checkable(&self) -> bool {
        !self.cells.is_empty()
            && self.cells.iter().all(|c| !matches!(c.solution, CellSolution::Unavailable { .. }))
    }

    /// Serializes to the versioned, byte-stable text form.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{CERT_FORMAT}");
        let _ = writeln!(out, "engine {}", self.engine);
        let _ = writeln!(out, "spec {}", self.spec);
        let _ = writeln!(out, "derived {:016x}", self.derived);
        let _ = writeln!(out, "source {:016x}", self.source);
        for cell in &self.cells {
            let _ = writeln!(
                out,
                "cell {} {} {:016x} {}",
                entry_tag(cell.entry),
                cell.preds,
                cell.bp_digest,
                cell.method
            );
            match &cell.solution {
                CellSolution::MayOne { nodes } => {
                    let _ = writeln!(out, "may {}", nodes.len());
                    for bits in nodes {
                        out.push_str("  ");
                        fmt_indices(&mut out, bits);
                        out.push('\n');
                    }
                }
                CellSolution::Relational { nodes } => {
                    let _ = writeln!(out, "rel {}", nodes.len());
                    for vals in nodes {
                        out.push_str("  ");
                        if vals.is_empty() {
                            out.push('.');
                        }
                        for (k, v) in vals.iter().enumerate() {
                            if k > 0 {
                                out.push(' ');
                            }
                            fmt_indices(&mut out, v);
                        }
                        out.push('\n');
                    }
                }
                CellSolution::Unavailable { reason } => {
                    let _ = writeln!(out, "unavailable {reason}");
                }
            }
        }
        for v in &self.violations {
            let _ = writeln!(out, "violation {} {} {} {}", v.line, v.col, v.method, v.what);
        }
        let _ = writeln!(out, "sha {:016x}", digest_str(&out));
        out
    }

    /// Parses the text form, verifying the version header and the digest.
    ///
    /// # Errors
    ///
    /// [`CertFormatError`] on a version/digest mismatch or any malformed
    /// line — a parse failure is a *rejection*: nothing about a certificate
    /// that fails to parse may be trusted.
    pub fn parse(text: &str) -> Result<Certificate, CertFormatError> {
        let malformed = |m: &str| CertFormatError::Malformed(m.to_string());
        // split off and verify the trailing digest line first; the text must
        // end with exactly `sha <16 lowercase hex>\n` — no slack that a
        // flipped byte could hide in
        let stripped = text.strip_suffix('\n').ok_or_else(|| malformed("missing final newline"))?;
        let body_end = stripped.rfind('\n').map(|k| k + 1).unwrap_or(0);
        let (payload, sha_line) = text.split_at(body_end);
        let sha_hex = sha_line
            .strip_prefix("sha ")
            .and_then(|s| s.strip_suffix('\n'))
            .ok_or_else(|| malformed("missing digest line"))?;
        if sha_hex.len() != 16
            || !sha_hex.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            return Err(malformed("bad digest line"));
        }
        let claimed = u64::from_str_radix(sha_hex, 16).map_err(|_| malformed("bad digest line"))?;
        if digest_str(payload) != claimed {
            return Err(CertFormatError::DigestMismatch);
        }

        let mut lines = payload.lines();
        match lines.next() {
            Some(v) if v == CERT_FORMAT => {}
            other => return Err(CertFormatError::Version(other.unwrap_or("").to_string())),
        }
        let mut engine = None;
        let mut spec = None;
        let mut derived = None;
        let mut source = None;
        let mut cells: Vec<CertCell> = Vec::new();
        let mut violations = Vec::new();
        let hex = |s: &str| {
            u64::from_str_radix(s, 16)
                .map_err(|_| CertFormatError::Malformed(format!("bad digest field {s:?}")))
        };
        while let Some(line) = lines.next() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "engine" => engine = Some(rest.to_string()),
                "spec" => spec = Some(rest.to_string()),
                "derived" => derived = Some(hex(rest)?),
                "source" => source = Some(hex(rest)?),
                "cell" => {
                    let mut f = rest.splitn(4, ' ');
                    let entry = f
                        .next()
                        .and_then(parse_entry)
                        .ok_or_else(|| malformed("bad cell entry tag"))?;
                    let preds: u32 = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| malformed("bad cell predicate count"))?;
                    let bp = hex(f.next().ok_or_else(|| malformed("bad cell line"))?)?;
                    let method = f.next().ok_or_else(|| malformed("bad cell line"))?.to_string();
                    let sol_head =
                        lines.next().ok_or_else(|| malformed("cell without solution"))?;
                    let (kind, arg) = sol_head.split_once(' ').unwrap_or((sol_head, ""));
                    let solution = match kind {
                        "may" => {
                            let n: usize = arg.parse().map_err(|_| malformed("bad node count"))?;
                            let mut nodes = Vec::with_capacity(n);
                            for _ in 0..n {
                                let row = lines
                                    .next()
                                    .and_then(|l| l.strip_prefix("  "))
                                    .ok_or_else(|| malformed("truncated may solution"))?;
                                nodes.push(parse_indices(row)?);
                            }
                            CellSolution::MayOne { nodes }
                        }
                        "rel" => {
                            let n: usize = arg.parse().map_err(|_| malformed("bad node count"))?;
                            let mut nodes = Vec::with_capacity(n);
                            for _ in 0..n {
                                let row = lines
                                    .next()
                                    .and_then(|l| l.strip_prefix("  "))
                                    .ok_or_else(|| malformed("truncated rel solution"))?;
                                let vals = if row == "." {
                                    Vec::new()
                                } else {
                                    row.split(' ')
                                        .map(parse_indices)
                                        .collect::<Result<Vec<_>, _>>()?
                                };
                                nodes.push(vals);
                            }
                            CellSolution::Relational { nodes }
                        }
                        "unavailable" => CellSolution::Unavailable { reason: arg.to_string() },
                        other => {
                            return Err(CertFormatError::Malformed(format!(
                                "unknown solution kind {other:?}"
                            )))
                        }
                    };
                    cells.push(CertCell { method, entry, preds, bp_digest: bp, solution });
                }
                "violation" => {
                    let mut f = rest.splitn(4, ' ');
                    let line: u32 = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| malformed("bad violation line"))?;
                    let col: u32 = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| malformed("bad violation column"))?;
                    let method = f.next().ok_or_else(|| malformed("bad violation"))?.to_string();
                    let what = f.next().unwrap_or("").to_string();
                    violations.push(CertViolation { method, line, col, what });
                }
                other => return Err(CertFormatError::Malformed(format!("unknown line {other:?}"))),
            }
        }
        Ok(Certificate {
            engine: engine.ok_or_else(|| malformed("missing engine line"))?,
            spec: spec.ok_or_else(|| malformed("missing spec line"))?,
            derived: derived.ok_or_else(|| malformed("missing derived line"))?,
            source: source.ok_or_else(|| malformed("missing source line"))?,
            cells,
            violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        Certificate {
            engine: "scmp-fds".to_string(),
            spec: "cmp".to_string(),
            derived: 0xdead_beef,
            source: 0x1234,
            cells: vec![
                CertCell {
                    method: "Main.main".to_string(),
                    entry: EntryAssumption::Clean,
                    preds: 3,
                    bp_digest: 42,
                    solution: CellSolution::MayOne { nodes: vec![vec![], vec![0, 2], vec![1]] },
                },
                CertCell {
                    method: "Main.helper".to_string(),
                    entry: EntryAssumption::Unknown,
                    preds: 2,
                    bp_digest: 7,
                    solution: CellSolution::Relational {
                        nodes: vec![vec![vec![], vec![0, 1]], vec![]],
                    },
                },
            ],
            violations: vec![CertViolation {
                method: "Main.main".to_string(),
                line: 10,
                col: 9,
                what: "i.next()".to_string(),
            }],
        }
    }

    #[test]
    fn round_trips_byte_stable() {
        let c = sample();
        let t1 = c.to_text();
        let parsed = Certificate::parse(&t1).unwrap();
        assert_eq!(parsed, c);
        assert_eq!(parsed.to_text(), t1, "serialization must be byte-stable");
    }

    #[test]
    fn any_byte_flip_is_rejected() {
        let text = sample().to_text();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 0x01;
            let r = match String::from_utf8(mutated) {
                Ok(s) => Certificate::parse(&s),
                Err(_) => continue, // non-UTF-8 cannot even reach the parser
            };
            assert!(r.is_err(), "flip at byte {i} must be rejected");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let text = sample().to_text();
        for cut in [1, text.len() / 2, text.len() - 2] {
            assert!(Certificate::parse(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unavailable_cells_are_not_checkable() {
        let mut c = sample();
        assert!(c.checkable());
        c.cells[0].solution =
            CellSolution::Unavailable { reason: "engine does not emit solutions".to_string() };
        assert!(!c.checkable());
        let t = c.to_text();
        assert_eq!(Certificate::parse(&t).unwrap(), c);
    }
}
