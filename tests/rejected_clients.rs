//! A client the frontend rejects leaves no trace in the process-global
//! symbol interner: type names stay borrowed from the source until the
//! whole program has lowered, so a long-running `canvas serve` does not
//! grow per distinct rejected name. The interner is process-global, so
//! this file holds a single test.

use canvas_conformance::logic::interner_len;
use canvas_conformance::minijava::Program;

#[test]
fn rejected_clients_intern_no_new_symbol() {
    let spec = canvas_conformance::easl::builtin::cmp();
    let accepted = "class Main { static void main() { Set s = new Set(); s.add(\"x\"); } }";
    Program::parse(accepted, &spec).expect("a valid client parses");
    let before = interner_len();
    for k in 0..1000 {
        let client = match k % 3 {
            // an allocation of an unknown type
            0 => format!("class Main {{ static void main() {{ T{k} x = new T{k}(); }} }}"),
            // a fresh client class, rejected later for an unknown name
            1 => format!(
                "class C{k} {{ Set f{k}; }} class Main {{ static void main() {{ C{k} c = new C{k}(); u{k}.next(); }} }}"
            ),
            // a fresh declared type, rejected by the parser
            _ => format!("class Main {{ static R{k} main(Q{k} q) {{ P{k} p = ; }} }}"),
        };
        assert!(Program::parse(&client, &spec).is_err(), "{client}");
    }
    assert_eq!(interner_len(), before, "rejected clients interned new symbols");
}
