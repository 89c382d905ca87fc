//! Content fingerprints and cache keys for the incremental certifier.
//!
//! A certificate may be reused only when *everything the analysis could
//! observe* is unchanged. The observable inputs of one `(method, entry,
//! engine)` cell are:
//!
//! * the lowered body of the method itself (hashed by a canonical IR walk
//!   that names variables instead of using program-wide ids, so inserting
//!   a method earlier in the file does not shift every other fingerprint);
//! * the EASL spec and the abstraction derived from it;
//! * the program *environment* the intraprocedural engines consult outside
//!   the body: static variables, class field layouts, the component-type
//!   set, and the S-CMP shape flag;
//! * the *signatures* (not bodies) of directly called client methods — a
//!   client call is havoced from its signature, so editing a callee body
//!   must not invalidate its callers' intraprocedural certificates;
//! * the engine and the budget/explain configuration.
//!
//! The interprocedural engine observes the whole program, so its key uses
//! the whole-program fingerprint. The derived abstraction enters the key as
//! its certificate digest ([`canvas_abstraction::derived_digest`]). The hash
//! is the certificate format's 64-bit FNV-1a (deterministic across runs and
//! platforms); strings are length-prefixed so concatenation cannot alias.

use std::fmt;

use canvas_abstraction::certificate::Digest;
use canvas_core::{Certifier, Engine};
use canvas_easl::Spec;
use canvas_minijava::{AllocSite, Instr, MethodId, MethodIr, Program, VarId};

/// Version of the key-derivation scheme; bumped whenever the canonical walk
/// or the composition below changes, so stale stores miss instead of
/// colliding.
pub const KEY_VERSION: u32 = 2;

/// A 64-bit content fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the 16-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

/// An incremental 64-bit FNV-1a hasher producing [`Fingerprint`]s: the
/// certificate format's [`Digest`], with the writers the canonical walk
/// needs.
#[derive(Clone, Debug, Default)]
pub struct Hasher64(Digest);

impl Hasher64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Hasher64 {
        Hasher64(Digest::new())
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, n: u64) {
        self.0.write_u64(n);
    }

    /// Absorbs a `u32`.
    pub fn write_u32(&mut self, n: u32) {
        self.0.write_u64(u64::from(n));
    }

    /// Absorbs a `usize`.
    pub fn write_usize(&mut self, n: usize) {
        self.0.write_usize(n);
    }

    /// Absorbs a single tag byte (instruction/format discriminants).
    pub fn write_u8(&mut self, n: u8) {
        self.0.write(&[n]);
    }

    /// Absorbs a boolean.
    pub fn write_bool(&mut self, b: bool) {
        self.write_u8(u8::from(b));
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.0.write_str(s);
    }

    /// Absorbs a previously computed fingerprint.
    pub fn write_fp(&mut self, fp: Fingerprint) {
        self.0.write_u64(fp.0);
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.0.finish())
    }
}

/// Fingerprint of the EASL spec (name + full class/method structure; the
/// `Debug` form resolves interned symbols to their names, so it is stable
/// across runs).
pub fn fingerprint_spec(spec: &Spec) -> Fingerprint {
    let mut h = Hasher64::new();
    h.write_str(spec.name());
    h.write_str(&format!("{:?}", spec.classes()));
    h.finish()
}

/// Fingerprint of the engine + budget configuration of `certifier`. State
/// budgets and governor limits shape the *output* (exhaustion degradation,
/// inconclusive cut-offs), so certificates are keyed on them; the deadline
/// is reduced to its presence (the instant itself is wall-clock).
pub fn fingerprint_config(certifier: &Certifier, engine: Engine) -> Fingerprint {
    let mut h = Hasher64::new();
    h.write_u32(KEY_VERSION);
    h.write_str(&engine.to_string());
    let (relational, tvla) = certifier.budgets();
    h.write_usize(relational);
    h.write_usize(tvla);
    h.write_bool(certifier.explain());
    let budget = certifier.budget();
    h.write_u64(budget.max_steps.unwrap_or(u64::MAX));
    h.write_usize(budget.max_states.unwrap_or(usize::MAX));
    h.write_bool(budget.deadline.is_some());
    h.finish()
}

/// Canonical per-method operand numbering: variables and allocation sites
/// are program-wide in the IR, so their raw ids shift when *other* methods
/// change. The walk writes each operand's first-seen ordinal plus its name
/// and type instead, making the fingerprint a function of this method's
/// body (and the statics it touches) only.
struct Canon<'a> {
    program: &'a Program,
    vars: Vec<VarId>,
    sites: Vec<AllocSite>,
}

impl<'a> Canon<'a> {
    fn new(program: &'a Program) -> Self {
        Canon { program, vars: Vec::new(), sites: Vec::new() }
    }

    fn var(&mut self, h: &mut Hasher64, id: VarId) {
        let ordinal = match self.vars.iter().position(|&v| v == id) {
            Some(i) => i,
            None => {
                self.vars.push(id);
                self.vars.len() - 1
            }
        };
        let v = self.program.var(id);
        h.write_usize(ordinal);
        h.write_str(&v.name);
        h.write_str(&v.ty.to_string());
        h.write_bool(v.owner.is_none()); // statics are shared environment
    }

    fn opt_var(&mut self, h: &mut Hasher64, id: Option<VarId>) {
        match id {
            Some(id) => {
                h.write_bool(true);
                self.var(h, id);
            }
            None => h.write_bool(false),
        }
    }

    fn site(&mut self, h: &mut Hasher64, site: AllocSite) {
        let ordinal = match self.sites.iter().position(|&s| s == site) {
            Some(i) => i,
            None => {
                self.sites.push(site);
                self.sites.len() - 1
            }
        };
        h.write_usize(ordinal);
    }
}

fn write_at(h: &mut Hasher64, at: &canvas_minijava::Site) {
    // spans are part of the certificate (violation lines come from them):
    // moving a call to another line must miss, even if structure is equal
    h.write_u32(at.span.line);
    h.write_u32(at.span.col);
    h.write_str(&at.what);
}

/// Fingerprint of one lowered method body via the canonical IR walk.
pub fn fingerprint_method(program: &Program, method: &MethodIr) -> Fingerprint {
    let mut h = Hasher64::new();
    let mut canon = Canon::new(program);
    h.write_str(&method.qualified_name());
    h.write_bool(method.is_static);
    h.write_u32(method.span.line);
    h.write_u32(method.span.col);
    h.write_u32(method.end_line);
    h.write_usize(method.params.len());
    for &p in &method.params {
        canon.var(&mut h, p);
    }
    canon.opt_var(&mut h, method.ret_var);
    h.write_usize(method.cfg.node_count());
    h.write_usize(method.cfg.edges().len());
    for e in method.cfg.edges() {
        h.write_usize(e.from.0);
        h.write_usize(e.to.0);
        match &e.instr {
            Instr::Copy { dst, src } => {
                h.write_u8(0);
                canon.var(&mut h, *dst);
                canon.var(&mut h, *src);
            }
            Instr::New { dst, ty, site, args, at } => {
                h.write_u8(1);
                canon.var(&mut h, *dst);
                h.write_str(&ty.to_string());
                canon.site(&mut h, *site);
                h.write_usize(args.len());
                for &a in args {
                    canon.var(&mut h, a);
                }
                write_at(&mut h, at);
            }
            Instr::Load { dst, base, field } => {
                h.write_u8(2);
                canon.var(&mut h, *dst);
                canon.var(&mut h, *base);
                h.write_str(field);
            }
            Instr::Store { base, field, src } => {
                h.write_u8(3);
                canon.var(&mut h, *base);
                h.write_str(field);
                canon.var(&mut h, *src);
            }
            Instr::CallComponent { dst, recv, method, args, known, at } => {
                h.write_u8(4);
                canon.opt_var(&mut h, *dst);
                canon.var(&mut h, *recv);
                h.write_str(method);
                h.write_usize(args.len());
                for &a in args {
                    canon.var(&mut h, a);
                }
                h.write_bool(*known);
                write_at(&mut h, at);
            }
            Instr::CallClient { dst, callee, args, at } => {
                h.write_u8(5);
                canon.opt_var(&mut h, *dst);
                // the callee by name, not id: ids shift with edits elsewhere
                h.write_str(&program.method(*callee).qualified_name());
                h.write_usize(args.len());
                for &a in args {
                    canon.var(&mut h, a);
                }
                write_at(&mut h, at);
            }
            Instr::Nullify { dst } => {
                h.write_u8(6);
                canon.var(&mut h, *dst);
            }
            Instr::Nop => h.write_u8(7),
        }
    }
    h.finish()
}

/// The callable *signature* of a method — what a caller's intraprocedural
/// analysis can observe about it (a client call is havoced from the
/// signature; the body is not consulted).
pub fn fingerprint_signature(program: &Program, method: &MethodIr) -> Fingerprint {
    let mut h = Hasher64::new();
    h.write_str(&method.qualified_name());
    h.write_bool(method.is_static);
    h.write_usize(method.params.len());
    for &p in &method.params {
        let v = program.var(p);
        h.write_str(&v.name);
        h.write_str(&v.ty.to_string());
    }
    match method.ret_var {
        Some(r) => {
            h.write_bool(true);
            h.write_str(&program.var(r).ty.to_string());
        }
        None => h.write_bool(false),
    }
    h.finish()
}

/// The shared program *environment* every method's analysis can observe
/// outside its own body: statics, class field layouts, component types, and
/// the S-CMP shape flag. Method bodies are deliberately excluded (they are
/// covered per-method).
pub fn fingerprint_environment(program: &Program) -> Fingerprint {
    let mut h = Hasher64::new();
    h.write_bool(program.is_scmp_shaped());
    for ty in program.component_types() {
        h.write_str(&ty.to_string());
    }
    for v in program.static_vars() {
        h.write_str(&v.name);
        h.write_str(&v.ty.to_string());
    }
    for c in program.classes() {
        h.write_str(&c.name.to_string());
        h.write_usize(c.fields.len());
        for f in &c.fields {
            h.write_str(&f.name);
            h.write_str(&f.ty.to_string());
        }
        h.write_usize(c.statics.len());
        for f in &c.statics {
            h.write_str(&f.name);
            h.write_str(&f.ty.to_string());
        }
    }
    h.finish()
}

/// All fingerprints of one parsed program: per-method body hashes, the
/// shared environment, per-method dependency sets (direct-callee
/// signatures), and the whole-program hash used by the interprocedural
/// engine.
#[derive(Clone, Debug)]
pub struct ProgramFingerprints {
    methods: Vec<Fingerprint>,
    deps: Vec<Fingerprint>,
    environment: Fingerprint,
    program: Fingerprint,
}

impl ProgramFingerprints {
    /// Computes every fingerprint for `program`.
    pub fn new(program: &Program) -> ProgramFingerprints {
        let methods: Vec<Fingerprint> =
            program.methods().iter().map(|m| fingerprint_method(program, m)).collect();
        let signatures: Vec<Fingerprint> =
            program.methods().iter().map(|m| fingerprint_signature(program, m)).collect();
        let environment = fingerprint_environment(program);
        let call_graph = program.call_graph();
        let deps = program
            .methods()
            .iter()
            .map(|m| {
                let mut h = Hasher64::new();
                h.write_fp(environment);
                if let Some(callees) = call_graph.get(&m.id) {
                    for c in callees {
                        h.write_fp(signatures[c.0]);
                    }
                }
                h.finish()
            })
            .collect();
        let mut h = Hasher64::new();
        h.write_fp(environment);
        for &m in &methods {
            h.write_fp(m);
        }
        let program_fp = h.finish();
        ProgramFingerprints { methods, deps, environment, program: program_fp }
    }

    /// The body fingerprint of `method`.
    pub fn method(&self, id: MethodId) -> Fingerprint {
        self.methods[id.0]
    }

    /// The dependency fingerprint of `method` (environment + direct-callee
    /// signatures).
    pub fn deps(&self, id: MethodId) -> Fingerprint {
        self.deps[id.0]
    }

    /// The shared environment fingerprint.
    pub fn environment(&self) -> Fingerprint {
        self.environment
    }

    /// The whole-program fingerprint (environment + every method body).
    pub fn program(&self) -> Fingerprint {
        self.program
    }
}

/// Fingerprint of a raw source text (length-prefixed, so it composes into
/// manifests without aliasing). This is the per-program digest recorded in
/// a fleet corpus manifest: it identifies the *bytes* handed to the
/// frontend, not the parsed IR, so a manifest can be checked without
/// parsing anything.
pub fn fingerprint_source(source: &str) -> Fingerprint {
    let mut h = Hasher64::new();
    h.write_str(source);
    h.finish()
}

/// Fingerprint of a corpus manifest: the ordered sequence of
/// `(program name, source fingerprint)` entries. Order is part of the
/// digest — a manifest is a concrete file listing, and two listings that
/// disagree on order are different artifacts.
pub fn fingerprint_manifest<'a>(
    entries: impl IntoIterator<Item = (&'a str, Fingerprint)>,
) -> Fingerprint {
    let mut h = Hasher64::new();
    let mut n: u64 = 0;
    for (name, fp) in entries {
        h.write_str(name);
        h.write_fp(fp);
        n += 1;
    }
    h.write_u64(n);
    h.finish()
}

/// The cache key of one `(method, entry, engine)` cell: the method body,
/// its dependency set, the spec + derived-abstraction digest, the entry
/// assumption, and the engine/budget configuration.
pub fn cell_key(
    method: Fingerprint,
    deps: Fingerprint,
    spec: Fingerprint,
    derived: Fingerprint,
    config: Fingerprint,
    entry_unknown: bool,
) -> Fingerprint {
    let mut h = Hasher64::new();
    h.write_fp(method);
    h.write_fp(deps);
    h.write_fp(spec);
    h.write_fp(derived);
    h.write_fp(config);
    h.write_bool(entry_unknown);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3: &str = r#"
class Main {
    static void main() {
        Set v = new Set();
        Iterator i1 = v.iterator();
        i1.next();
        v.add("x");
        if (true) { i1.next(); }
    }
}
"#;

    fn parse(src: &str) -> Program {
        Program::parse(src, &canvas_easl::builtin::cmp()).expect("parses")
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let p1 = parse(FIG3);
        let p2 = parse(FIG3);
        let f1 = ProgramFingerprints::new(&p1);
        let f2 = ProgramFingerprints::new(&p2);
        assert_eq!(f1.program(), f2.program());
        let m = p1.main_method().expect("main");
        assert_eq!(f1.method(m.id), f2.method(m.id));
        let spec = canvas_easl::builtin::cmp();
        assert_eq!(fingerprint_spec(&spec), fingerprint_spec(&spec));
    }

    #[test]
    fn editing_a_method_changes_only_its_fingerprint() {
        let base = r#"
class Main {
    static void helper(Set s) { s.add("x"); }
    static void main() {
        Set v = new Set();
        Iterator i = v.iterator();
        i.next();
    }
}
"#;
        let edited = r#"
class Main {
    static void helper(Set s) { s.add("x"); s.add("y"); }
    static void main() {
        Set v = new Set();
        Iterator i = v.iterator();
        i.next();
    }
}
"#;
        let pb = parse(base);
        let pe = parse(edited);
        let fb = ProgramFingerprints::new(&pb);
        let fe = ProgramFingerprints::new(&pe);
        let helper_b = pb.method_named("Main.helper").expect("helper").id;
        let helper_e = pe.method_named("Main.helper").expect("helper").id;
        let main_b = pb.main_method().expect("main").id;
        let main_e = pe.main_method().expect("main").id;
        assert_ne!(fb.method(helper_b), fe.method(helper_e), "edited body must re-hash");
        assert_eq!(fb.method(main_b), fe.method(main_e), "untouched body must not");
        // main does not call helper, so its dependency set is unchanged too
        assert_eq!(fb.deps(main_b), fe.deps(main_e));
        assert_ne!(fb.program(), fe.program(), "whole-program hash sees the edit");
    }

    #[test]
    fn callee_signature_change_invalidates_the_caller_deps() {
        let base = r#"
class Main {
    static void helper(Set s) { s.add("x"); }
    static void main() {
        Set v = new Set();
        Main.helper(v);
    }
}
"#;
        let resigned = r#"
class Main {
    static void helper(Set s, Set t) { s.add("x"); }
    static void main() {
        Set v = new Set();
        Main.helper(v, v);
    }
}
"#;
        let pb = parse(base);
        let pr = parse(resigned);
        let fb = ProgramFingerprints::new(&pb);
        let fr = ProgramFingerprints::new(&pr);
        let main_b = pb.main_method().expect("main").id;
        let main_r = pr.main_method().expect("main").id;
        assert_ne!(fb.deps(main_b), fr.deps(main_r), "caller deps must see the new signature");
    }

    #[test]
    fn spans_are_part_of_the_key() {
        let shifted = FIG3.replacen("class Main", "\nclass Main", 1);
        let p1 = parse(FIG3);
        let p2 = parse(&shifted);
        let f1 = ProgramFingerprints::new(&p1);
        let f2 = ProgramFingerprints::new(&p2);
        let m1 = p1.main_method().expect("main").id;
        let m2 = p2.main_method().expect("main").id;
        assert_ne!(f1.method(m1), f2.method(m2), "violation lines come from spans");
    }

    #[test]
    fn config_and_engine_distinguish_keys() {
        let c = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
        let fds = fingerprint_config(&c, Engine::ScmpFds);
        let rel = fingerprint_config(&c, Engine::ScmpRelational);
        assert_ne!(fds, rel);
        let tighter = Certifier::from_spec(canvas_easl::builtin::cmp())
            .expect("cmp derives")
            .with_budgets(64, 64);
        assert_ne!(fds, fingerprint_config(&tighter, Engine::ScmpFds));
        let explaining = Certifier::from_spec(canvas_easl::builtin::cmp())
            .expect("cmp derives")
            .with_explain(true);
        assert_ne!(fds, fingerprint_config(&explaining, Engine::ScmpFds));
    }

    #[test]
    fn manifest_fingerprints_see_content_order_and_length() {
        let a = fingerprint_source("class A {}");
        let b = fingerprint_source("class B {}");
        assert_ne!(a, b);
        assert_eq!(a, fingerprint_source("class A {}"));
        let m1 = fingerprint_manifest([("p0.mj", a), ("p1.mj", b)]);
        assert_eq!(m1, fingerprint_manifest([("p0.mj", a), ("p1.mj", b)]));
        assert_ne!(m1, fingerprint_manifest([("p1.mj", b), ("p0.mj", a)]), "order matters");
        assert_ne!(m1, fingerprint_manifest([("p0.mj", a)]), "length matters");
        assert_ne!(m1, fingerprint_manifest([("p0.mj", b), ("p1.mj", a)]), "contents matter");
    }

    #[test]
    fn hasher64_is_the_certificate_digest() {
        let mut h = Hasher64::new();
        h.write_u64(0x0123_4567_89ab_cdef);
        h.write_str("canvas");
        h.write_u8(7);
        let mut d = Digest::new();
        d.write_u64(0x0123_4567_89ab_cdef);
        d.write_str("canvas");
        d.write(&[7]);
        assert_eq!(h.finish(), Fingerprint(d.finish()));
        // FNV-1a of the empty input is the offset basis
        assert_eq!(Hasher64::new().finish(), Fingerprint(0xcbf2_9ce4_8422_2325));
    }

    #[test]
    fn fingerprint_display_round_trips() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef);
        assert_eq!(fp.to_string(), "0123456789abcdef");
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
        assert_eq!(Fingerprint::parse("0123"), None);
    }
}
