//! Offline journal conformance linter: the CI `analyze` step.
//!
//! ```text
//! cargo run -p conman-bench --bin analyze JOURNAL_obs.json JOURNAL_loop.json
//! ```
//!
//! Each argument is a journal dump (the JSON array written by
//! `Recorder::journal_json`, persisted by the `experiments obs` / `loop`
//! smokes).  Every dump is parsed **strictly** (unknown or malformed events
//! reject the whole file, see `conman_obs::DumpError`) and then replayed
//! through the protocol state machine of `conman_analyze::check_journal`:
//! spans balanced, every frontier walk inside its own goal's diagnose span,
//! stages resolved exactly once within their epoch, no
//! verify before its pass's commits, timestamps monotone, epochs strictly
//! increasing.  Any violation — or any unreadable/unparseable dump — makes
//! the process exit non-zero, failing the CI step.

use conman_analyze::check_journal;
use conman_obs::Postmortem;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: analyze <journal-dump.json>...");
        std::process::exit(2);
    }
    let mut clean = true;
    for path in &paths {
        let dump = match std::fs::read_to_string(path) {
            Ok(d) => d,
            Err(e) => {
                println!("{path}: unreadable: {e}");
                clean = false;
                continue;
            }
        };
        let events = match Postmortem::events_from_json(&dump) {
            Ok(ev) => ev,
            Err(e) => {
                println!("{path}: {e}");
                clean = false;
                continue;
            }
        };
        let violations = check_journal(&events);
        if violations.is_empty() {
            println!("{path}: conforms ({} events)", events.len());
        } else {
            println!(
                "{path}: {} violation(s) over {} events",
                violations.len(),
                events.len()
            );
            for v in &violations {
                println!("  {v}");
            }
            clean = false;
        }
    }
    if !clean {
        std::process::exit(1);
    }
}
