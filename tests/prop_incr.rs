//! Property-based soundness of the incremental certification cache: a warm
//! answer must always be *semantically identical* to a cold one, whatever
//! the program, whatever the edit, whatever the state of the store on disk.

use std::sync::atomic::{AtomicUsize, Ordering};

use canvas_conformance::incr::store::CertCache;
use canvas_conformance::incr::{report_digest, IncrementalCertifier};
use canvas_conformance::suite::generators::{random_client, RandomCfg};
use canvas_conformance::{Certifier, Engine};
use proptest::prelude::*;

fn certifier() -> Certifier {
    Certifier::from_spec(canvas_conformance::easl::builtin::cmp()).expect("cmp derives")
}

/// Parses a client against the cmp spec.
fn parse(src: &str) -> canvas_conformance::minijava::Program {
    let spec = canvas_conformance::easl::builtin::cmp();
    canvas_conformance::minijava::Program::parse(src, &spec).expect("client parses")
}

fn incremental() -> IncrementalCertifier {
    IncrementalCertifier::new(certifier(), CertCache::in_memory())
}

/// A two-method client whose helper body is a function of the parameters,
/// so a proptest case can model "the user edited one method" precisely.
fn two_method_client(helper_adds: usize, late_use: bool) -> String {
    let mut out = String::from(
        "class Main {\n    static void main() {\n        Set s = new Set();\n        s.add(\"seed\");\n        Iterator i = s.iterator();\n        Main.touch(s);\n        i.next();\n    }\n    static void touch(Set x) {\n",
    );
    for k in 0..helper_adds {
        out.push_str(&format!("        x.add(\"k{k}\");\n"));
    }
    if late_use {
        out.push_str("        Iterator j = x.iterator();\n        j.next();\n");
    }
    out.push_str("    }\n}\n");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Cold vs warm: certifying the same random client twice through
    /// one cache yields semantically identical reports, and the second
    /// pass is answered entirely from the store.
    #[test]
    fn warm_run_matches_cold_run_on_random_clients(
        helpers in 0usize..3,
        stmts in 4usize..14,
        seed in 0u64..500,
    ) {
        let cfg = RandomCfg { helpers, stmts, ..RandomCfg::default() };
        let src = random_client(cfg, seed);
        let inc = incremental();
        for engine in [Engine::ScmpFds, Engine::ScmpInterproc] {
            let (cold, cold_stats) = inc.certify_program_cached(&parse(&src), engine).expect("cold");
            let (warm, warm_stats) = inc.certify_program_cached(&parse(&src), engine).expect("warm");
            prop_assert_eq!(report_digest(&cold), report_digest(&warm), "{}:\n{}", engine, src);
            prop_assert_eq!(cold_stats.hits, 0, "{engine}: cold run must not hit");
            prop_assert_eq!(warm_stats.misses, 0, "{engine}: warm run must not miss");
        }
    }

    /// (b) Invalidation soundness: after an edit to one method, the warm
    /// answer equals a from-scratch certification of the edited program —
    /// never a stale replay of the old one — and for per-method engines
    /// only the edited method's cell re-runs.
    #[test]
    fn editing_one_method_never_yields_a_stale_verdict(
        adds_before in 0usize..3,
        adds_after in 0usize..3,
        late_use in any::<bool>(),
    ) {
        let before = two_method_client(adds_before, late_use);
        let after = two_method_client(adds_after, late_use);
        let reference = certifier();
        for engine in [Engine::ScmpFds, Engine::ScmpInterproc] {
            let inc = incremental();
            inc.certify_program_cached(&parse(&before), engine).expect("cold");
            let (warm, stats) = inc.certify_program_cached(&parse(&after), engine).expect("edited");
            let edited = canvas_conformance::minijava::Program::parse(&after, reference.spec())
                .expect("edited program parses");
            let fresh = reference.certify_program(&edited, engine).expect("fresh");
            prop_assert_eq!(
                report_digest(&warm),
                report_digest(&fresh),
                "{}: cached answer diverged from a from-scratch run\n{}",
                engine,
                after
            );
            if before == after {
                prop_assert_eq!(stats.misses, 0, "{engine}: identical source must be all hits");
            } else if engine != Engine::ScmpInterproc {
                // the edit is confined to `touch`: `main` keys on the callee
                // *signature*, so its cell survives the edit
                prop_assert_eq!(stats.misses, 1, "{engine}: only the edited cell re-runs");
                prop_assert_eq!(stats.hits, 1, "{engine}: the untouched cell stays cached");
            }
        }
    }

    /// (c) Corruption recovery: a store truncated at an arbitrary byte
    /// never errors and never poisons the answer — the reopened cache
    /// still produces the cold answer, at worst with extra misses.
    #[test]
    fn truncated_store_degrades_to_misses_not_wrong_answers(
        adds in 0usize..3,
        cut_permille in 0u32..1000,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "canvas-prop-incr-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let src = two_method_client(adds, true);
        let engine = Engine::ScmpFds;

        let inc = IncrementalCertifier::new(certifier(), CertCache::open(&dir));
        let (cold, _) = inc.certify_program_cached(&parse(&src), engine).expect("cold");
        inc.persist().expect("persist");

        // truncate the on-disk store at an arbitrary char boundary
        let file = dir.join("certs.v2");
        let text = std::fs::read_to_string(&file).expect("store written");
        let mut cut = text.len() as usize * cut_permille as usize / 1000;
        while cut > 0 && !text.is_char_boundary(cut) {
            cut -= 1;
        }
        std::fs::write(&file, &text[..cut]).expect("truncate");

        let reopened = IncrementalCertifier::new(certifier(), CertCache::open(&dir));
        let (again, _) = reopened.certify_program_cached(&parse(&src), engine).expect("reopened");
        prop_assert_eq!(
            report_digest(&cold),
            report_digest(&again),
            "a truncated store must never change the verdict"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A fleet program with one method edited `level` times: each edit appends
/// one more `add` call to the program's first `recv.add(...);` line, so
/// every other line, and with it every other method's cell, is unchanged.
fn edited(source: &str, level: usize) -> String {
    let mut out = String::with_capacity(source.len() + 16 * level);
    let mut done = false;
    for line in source.lines() {
        out.push_str(line);
        let t = line.trim();
        if !done && t.contains(".add(\"") && t.ends_with(");") {
            let recv = &t[..t.find(".add(").unwrap_or(0)];
            for _ in 0..level {
                out.push_str(&format!(" {recv}.add(\"e\");"));
            }
            done = true;
        }
        out.push('\n');
    }
    out
}

/// (d) The program memo answers exactly as the per-cell path would. Two
/// certifiers on two stores of the same kind take one seeded stream of
/// fleet programs, resubmissions and one-method edits. The first gets each
/// source as it is, so a resubmission can be replayed from the memo; the
/// second gets it with a unique trailing comment, which leaves every cell
/// key as it was but never repeats a text, so its memo never answers.
/// Verdicts, certificates, per-run and store-wide cache traffic must agree
/// at every step, on an unbounded store and on one whose budget evicts.
#[test]
fn memo_replay_matches_the_per_cell_path() {
    let params =
        canvas_conformance::fleet::GenParams { programs: 24, seed: 23, ..Default::default() };
    let corpus = canvas_conformance::fleet::generate_with_threads(&params, 1).expect("generates");
    let engine = Engine::ScmpFds;
    for budget in [None, Some(24 * 1024)] {
        let memo = IncrementalCertifier::new(certifier(), CertCache::in_memory_budgeted(budget));
        let cells = IncrementalCertifier::new(certifier(), CertCache::in_memory_budgeted(budget));
        let mut levels = vec![0usize; corpus.len()];
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ budget.unwrap_or(0);
        for step in 0..600 {
            // splitmix64: one draw picks the program, another the edit
            let mut draw = || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let i = (draw() % corpus.len() as u64) as usize;
            if draw() % 10 == 0 {
                levels[i] += 1;
            }
            let source = edited(&corpus[i].source, levels[i]);
            let commented = format!("{source}// {step}\n");
            let (ra, ca, sa) = memo
                .certify_program_certified(&source, &parse(&source), engine)
                .expect("memo side certifies");
            let (rb, mut cb, sb) = cells
                .certify_program_certified(&commented, &parse(&commented), engine)
                .expect("per-cell side certifies");
            let at = format!("budget {budget:?}, step {step}, {}", corpus[i].name);
            assert_eq!(report_digest(&ra), report_digest(&rb), "{at}");
            assert_eq!(sa, sb, "{at}");
            assert_eq!(memo.cache().stats(), cells.cache().stats(), "{at}");
            // the texts differ, so the certificates differ in their source
            // digest (and the checksum over it) only
            assert_ne!(ca.source, cb.source, "{at}");
            cb.source = ca.source;
            assert_eq!(ca.to_text(), cb.to_text(), "{at}");
        }
        let stats = memo.cache().stats();
        assert!(stats.hits > stats.misses, "{budget:?}: the stream is mostly resubmissions");
        if budget.is_some() {
            assert!(stats.evictions > 0, "the budgeted store must evict: {stats:?}");
        }
    }
}
