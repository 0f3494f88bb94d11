//! The architecture's rules, one `#[test]` each.
//!
//! CONMan keeps each protocol's complexity inside its module and shows the
//! management plane the least interface that does the job. Each rule below
//! holds one decision of that shape over the source: it bans the spellings
//! of a design that was replaced, or counts the places a step may be built.
//!
//! The helpers read files as `grep -r` does: every file under a root, not
//! only `.rs` files, as lossy UTF-8, line by line. A rule that reads a file
//! "before its tests" cuts it at its first line containing `#[cfg(test)]`.
//! A rule fails with its name and one `path:line: text` per offending line.
//!
//! A rule over nothing fails too. A path it names that does not exist, a
//! root with no file in it, a body that is empty before its tests and an
//! anchor it looks for that is missing all panic, so a rename cannot leave
//! a rule checking nothing. This file spells every banned name, so no rule
//! reads it.

use std::fs;
use std::path::Path;

/// This file, skipped by every walk.
const SELF: &str = "tests/architecture.rs";

/// The roots most bans cover: every crate, the umbrella package, its tests
/// and its examples.
const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];

/// The roots of library code: every crate and the umbrella package.
const CODE: &[&str] = &["crates", "src"];

/// A file of the repository: its path from the repository root, and its
/// text (or the part of it a rule reads).
struct File {
    path: String,
    text: String,
}

impl File {
    /// Reads `path` (from the repository root) as lossy UTF-8.
    fn read(path: &str) -> File {
        let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        let bytes = fs::read(&full).unwrap_or_else(|e| panic!("{path}: no such path ({e})"));
        File {
            path: path.to_owned(),
            text: String::from_utf8_lossy(&bytes).into_owned(),
        }
    }

    /// This file up to its first line containing `#[cfg(test)]`: the part
    /// awk read before its `exit`. Panics when that part is empty.
    fn body(mut self) -> File {
        if let Some(at) = self.text.find("#[cfg(test)]") {
            let cut = self.text[..at].rfind('\n').map_or(0, |newline| newline + 1);
            self.text.truncate(cut);
        }
        assert!(
            !self.text.trim().is_empty(),
            "{}: nothing to check before its first #[cfg(test)]",
            self.path
        );
        self
    }

    /// Each line with its 1-based number.
    fn lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.text.lines().enumerate().map(|(i, line)| (i + 1, line))
    }

    /// Each line with the name of the fn it lies in (the last line at or
    /// above it that starts, indented or not, with `fn `, `pub fn ` or
    /// `pub(crate) fn `) and its 1-based number.
    fn fn_lines(&self) -> impl Iterator<Item = (Option<&str>, usize, &str)> {
        self.lines().scan(None, |inside, (number, line)| {
            let head = line.trim_start();
            if ["fn ", "pub fn ", "pub(crate) fn "]
                .iter()
                .any(|f| head.starts_with(f))
            {
                *inside = fn_name(line);
            }
            Some((*inside, number, line))
        })
    }

    fn hit(&self, number: usize, line: &str) -> String {
        format!("{}:{number}: {line}", self.path)
    }

    /// `path:line: text` for each line of the block that starts at the
    /// first line starting with `anchor` and ends before the next line
    /// starting with `}`, when `bad` holds for the line. Panics when no
    /// line starts with `anchor`.
    fn block_hits(&self, anchor: &str, bad: impl Fn(&str) -> bool) -> Vec<String> {
        let start = self
            .lines()
            .position(|(_, line)| line.starts_with(anchor))
            .unwrap_or_else(|| panic!("{}: no line starts with `{anchor}`", self.path));
        self.lines()
            .skip(start)
            .take_while(|(_, line)| !line.starts_with('}'))
            .filter(|(_, line)| bad(line))
            .map(|(number, line)| self.hit(number, line))
            .collect()
    }

    /// The lines of the block at `anchor` (see [`File::block_hits`]) that
    /// name `String`.
    fn string_fields(&self, anchor: &str) -> Vec<String> {
        self.block_hits(anchor, |line| line.contains("String"))
    }
}

/// Every file under `roots` at any depth, as `grep -r` reads them: files
/// of every kind, symlinks not followed, this file skipped. Panics when a
/// root does not exist or holds no file.
fn tree(roots: &[&str]) -> Vec<File> {
    let mut files = Vec::new();
    for root in roots {
        let before = files.len();
        walk(root, &mut files);
        assert!(files.len() > before, "{root}: no file to check");
    }
    files
}

fn walk(path: &str, files: &mut Vec<File>) {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    let meta = fs::symlink_metadata(&full).unwrap_or_else(|e| panic!("{path}: no such path ({e})"));
    if meta.is_dir() {
        let mut names: Vec<String> = fs::read_dir(&full)
            .unwrap_or_else(|e| panic!("{path}: unreadable directory ({e})"))
            .map(|entry| {
                entry
                    .expect("a directory entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        for name in names {
            walk(&format!("{path}/{name}"), files);
        }
    } else if meta.is_file() && path != SELF {
        files.push(File::read(path));
    }
}

/// The `.rs` files under `dir` at any depth (`find dir -name '*.rs'`).
fn rs_under(dir: &str) -> Vec<File> {
    let files: Vec<File> = tree(&[dir])
        .into_iter()
        .filter(|f| f.path.ends_with(".rs"))
        .collect();
    assert!(!files.is_empty(), "{dir}: no .rs file to check");
    files
}

/// The `.rs` files directly in `dir`, as the shell expands `dir/*.rs`.
fn rs_in(dir: &str) -> Vec<File> {
    let files: Vec<File> = tree(&[dir])
        .into_iter()
        .filter(|f| {
            let name = &f.path[dir.len() + 1..];
            name.ends_with(".rs") && !name.contains('/') && !name.starts_with('.')
        })
        .collect();
    assert!(!files.is_empty(), "{dir}: no .rs file to check");
    files
}

/// Each of `files` before its tests (see [`File::body`]).
fn bodies(files: Vec<File>) -> Vec<File> {
    files.into_iter().map(File::body).collect()
}

/// `path:line: text` for every line of `files` that `bad` holds for.
fn grep(files: &[File], bad: impl Fn(&str) -> bool) -> Vec<String> {
    files
        .iter()
        .flat_map(|file| {
            file.lines()
                .filter(|(_, line)| bad(line))
                .map(|(number, line)| file.hit(number, line))
        })
        .collect()
}

/// The lines of `files` that contain any of `words`.
fn banned(files: &[File], words: &[&str]) -> Vec<String> {
    grep(files, |line| words.iter().any(|word| line.contains(word)))
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `word\b`: `line` holds `word` with no word character after it.
fn ends_word(line: &str, word: &str) -> bool {
    line.match_indices(word)
        .any(|(at, _)| !line[at + word.len()..].starts_with(is_word))
}

/// `\bword`: `line` holds `word` with no word character before it.
fn starts_word(line: &str, word: &str) -> bool {
    line.match_indices(word)
        .any(|(at, _)| !line[..at].ends_with(is_word))
}

/// `Result<[^>]*, String>`: a `Result<` whose first `>` closes `, String>`.
fn result_of_string(line: &str) -> bool {
    line.match_indices("Result<").any(|(at, open)| {
        let rest = &line[at + open.len()..];
        rest.find('>')
            .is_some_and(|close| rest[..close].ends_with(", String"))
    })
}

/// The name in the leftmost `fn [a-z_0-9]+` of `line`, as awk's `match`
/// finds it.
fn fn_name(line: &str) -> Option<&str> {
    line.match_indices("fn ").find_map(|(at, keyword)| {
        let rest = &line[at + keyword.len()..];
        let end = rest
            .find(|c: char| !matches!(c, 'a'..='z' | '_' | '0'..='9'))
            .unwrap_or(rest.len());
        (end > 0).then(|| &rest[..end])
    })
}

/// Fails `rule` with its hits, one per line.
#[track_caller]
fn assert_clean(rule: &str, hits: &[String]) {
    assert!(hits.is_empty(), "{rule}:\n{}", hits.join("\n"));
}

/// No spec carries a name map: a rule's class and gateway travel with
/// their values, the reverse rule's prefix is a field, a filter names
/// modules only (its module resolves their addresses), and the NM keeps no
/// write-only copy of relayed field responses. These are the names the
/// pass-through and the filter's field map went by; none may come back.
#[test]
fn a_spec_carries_what_its_module_reads() {
    let hits = banned(
        &tree(EVERYWHERE),
        &[
            "resolved_fields",
            "record_resolved",
            "gateway-prefix",
            "vlan-name",
            "FilterField",
            "BadFilterField",
            "FilterWithoutAddress",
            "\"from-address\"",
            "\"to-address\"",
            "\"to-port\"",
        ],
    );
    assert_clean("A spec carries what its module reads", &hits);
}

/// showActual lists the ids delete takes: no module renders or stores a
/// line of prose for it, and ModuleActual has no counter map (a module's
/// counts travel in pollCounters' CounterSnapshot). The word boundary
/// after `perf_report` spares `ModuleAbstraction::perf_reporting`, Table
/// II's field.
#[test]
fn a_component_has_one_name() {
    let words = ["in_applied_order", "note_applied", "filters_installed"];
    let hits = grep(&tree(EVERYWHERE), |line| {
        words.iter().any(|word| line.contains(word)) || ends_word(line, "perf_report")
    });
    assert_clean("A component has one name", &hits);
}

/// The blackboard is PipeId -> PipeFacts: no module formats a key or a
/// value for it and none parses one back, so a fact cannot be present but
/// unreadable. These are the helpers and the string shapes the map went
/// by; none may come back.
#[test]
fn modules_share_typed_facts() {
    let hits = banned(
        &tree(EVERYWHERE),
        &[
            "pipe_key",
            "pipe_attr",
            "parse_attach",
            "\"pipe.",
            "\"tunnel:",
            "\"mpls:",
        ],
    );
    assert_clean("Modules share typed facts", &hits);
}

/// A module-to-module envelope's body is bytes the sending module encoded;
/// the receiver decodes it or refuses it, and never digs a field out of a
/// JSON value with a default. conman-modules therefore needs no serde at
/// all, which `the_journal_is_the_only_json` holds.
#[test]
fn modules_speak_their_own_dialects() {
    let hits = banned(
        &tree(&["crates/conman-modules/src"]),
        &["json!", ".as_u64()", ".as_bool()", ".as_str()"],
    );
    assert_clean("Modules speak their own dialects", &hits);
}

/// Every management message is a binary frame of conman-core's wire
/// module, carried by the channel in binary frames of its own: no JSON arm,
/// no sniffing for `{`, no JSON embedded inside a frame, no JSON flood
/// frame. Up to each file's first #[cfg(test)], no file of conman-core or
/// of mgmt-channel names the embedding helpers, the sniff or the JSON
/// codec (`the_journal_is_the_only_json` keeps serde out of both).
#[test]
fn the_channel_speaks_one_codec() {
    let json = ["put_json", "read_json", "is_binary", "WireCodec::Json"];
    let mut hits = banned(&bodies(rs_under("crates/conman-core/src")), &json);
    hits.extend(banned(&bodies(rs_under("crates/mgmt-channel/src")), &json));
    assert_clean("The channel speaks one codec", &hits);
}

/// The one thing that must be JSON is the flight recorder's journal dump,
/// which conman-obs writes (`journal.rs`) and reads back (`postmortem.rs`).
/// Nothing else reads a derived serialisation: up to its first
/// #[cfg(test)], no other file under a crate's `src` names serde, and no
/// manifest but conman-obs's lists a serde crate in a dependency section,
/// dev-dependencies included (the workspace's own table only names the
/// vendored paths).
#[test]
fn the_journal_is_the_only_json() {
    const JOURNAL: [&str; 2] = [
        "crates/conman-obs/src/journal.rs",
        "crates/conman-obs/src/postmortem.rs",
    ];
    let (manifests, sources): (Vec<File>, Vec<File>) = tree(&["crates"])
        .into_iter()
        .filter(|f| f.path.ends_with("/Cargo.toml") || f.path.contains("/src/"))
        .partition(|f| f.path.ends_with("/Cargo.toml"));
    for path in JOURNAL {
        assert!(
            sources.iter().any(|f| f.path == path),
            "{path}: no such file"
        );
    }
    let sources = sources
        .into_iter()
        .filter(|f| f.path.ends_with(".rs") && !JOURNAL.contains(&f.path.as_str()));
    let mut hits = banned(&bodies(sources.collect()), &["serde"]);

    let manifests = manifests
        .into_iter()
        .chain([File::read("Cargo.toml")])
        .filter(|m| m.path != "crates/conman-obs/Cargo.toml");
    for manifest in manifests {
        let mut section = "";
        for (number, line) in manifest.lines() {
            if line.starts_with('[') {
                section = line;
            }
            let dependencies = section.ends_with("dependencies]");
            if line.starts_with("serde") && dependencies && section != "[workspace.dependencies]" {
                hits.push(manifest.hit(number, line));
            }
        }
    }
    assert_clean("The journal is the only JSON", &hits);
}

/// runtime::verify checks a Plan as a Plan: no string-keyed neutral model,
/// no re-check of the teardown against the creates it is derived from, no
/// second copy of run_batch's commit-order partition. These are the names
/// that model went by; none may come back. (That conman-core does not
/// depend on the journal checker is CI's "Crate dependency edges" step.)
#[test]
fn plans_are_checked_in_their_own_types() {
    let hits = banned(
        &tree(EVERYWHERE),
        &[
            "BatchModel",
            "GoalModel",
            "DeviceOps",
            "verify_batch",
            "check_teardowns",
            "check_commit_order",
            "check_goal_refcounts",
            "TeardownMismatch",
            "CommitOrderConflict",
            "RefcountMismatch",
            "Severity",
            "scripts_model",
            "module_users_model",
        ],
    );
    assert_clean("Plans are checked in their own types", &hits);
}

/// A failure travels from module to operator as one Refusal and lands in a
/// goal as a GoalFailure; no layer writes prose for it. The agent, the
/// primitives and the module interface carry no String in a Result or an
/// Option except SwitchSpec::local_prefix (a prefix, not a failure), no
/// goal keeps its error as text, and neither ModuleError nor PlanError
/// renders one.
#[test]
fn a_failure_has_one_type() {
    let files: Vec<File> = ["agent", "primitives", "module"]
        .iter()
        .map(|name| File::read(&format!("crates/conman-core/src/{name}.rs")))
        .collect();
    let strings = grep(&files, |line| {
        result_of_string(line) || line.contains("Option<String>")
    });
    assert!(
        strings.len() == 1 && strings[0].contains("pub local_prefix: Option<String>"),
        "A failure has one type: the String in a Result or an Option must be \
         SwitchSpec::local_prefix alone, found:\n{}",
        strings.join("\n")
    );
    let hits = banned(
        &tree(&["crates"]),
        &[
            "last_error: Option<String>",
            "impl Display for ModuleError",
            "impl fmt::Display for ModuleError",
            "impl Display for PlanError",
            "impl fmt::Display for PlanError",
        ],
    );
    assert_clean("A failure has one type", &hits);
}

/// The NM plans from what modules advertise (their showPotential answers):
/// no file of nm/ or runtime/ names a protocol kind before its tests.
/// `tests/properties.rs`'s `planning_is_blind_to_module_names` renames
/// every kind and checks the plans come out the same; this keeps the
/// branches from coming back.
#[test]
fn the_nm_knows_no_protocol() {
    let mut files = rs_in("crates/conman-core/src/nm");
    files.extend(rs_in("crates/conman-core/src/runtime"));
    let hits = banned(
        &bodies(files),
        &[
            "ModuleKind::Eth",
            "ModuleKind::Ip",
            "ModuleKind::Gre",
            "ModuleKind::Mpls",
            "ModuleKind::Vlan",
        ],
    );
    assert_clean("The NM knows no protocol", &hits);
}

/// Telemetry, diagnosis and the journal carry closed types: a module's
/// snapshot is drop counts keyed by DropReason, a suspect's evidence is
/// (reason, count) pairs, and a journal event holds ids and enums. Prose
/// is rendered only where something prints it. No String field is left in
/// TraceKind but Note's text, none in CounterSnapshot, Suspect or
/// LoopDiagnosis, and no drop reason or pipe label is formatted into a
/// key.
#[test]
fn the_loop_speaks_types() {
    let rule = "The loop speaks types";
    let trace = File::read("crates/conman-obs/src/journal.rs").string_fields("pub enum TraceKind");
    assert!(
        trace.len() == 1 && trace[0].contains("text: String"),
        "{rule}: TraceKind's one String must be Note's `text: String`, found:\n{}",
        trace.join("\n")
    );
    let mut hits = File::read("crates/conman-core/src/abstraction.rs")
        .string_fields("pub struct CounterSnapshot");
    hits.extend(
        File::read("crates/conman-diagnose/src/report.rs").string_fields("pub struct Suspect "),
    );
    hits.extend(
        File::read("crates/conman-core/src/runtime/loop.rs")
            .string_fields("pub struct LoopDiagnosis"),
    );
    hits.extend(banned(
        &tree(&["crates"]),
        &[
            "format!(\"{reason:?}\")",
            "format!(\"{:?}\", DropReason",
            "\"phy:",
            "\"up:",
            "\"down:",
        ],
    ));
    assert_clean(rule, &hits);
}

/// Every way of putting a plan on the network shares one triage, one path
/// choice and one replace step: the pool and its one-worker oracle are one
/// engine, and the suspect-fallback lives in choose_goal_path alone. The
/// second planner, the engine's boolean fork and the sequential probe
/// variant may not come back, and the memoised search has exactly one
/// caller (the one worker loop).
#[test]
fn one_reconcile_engine() {
    let rule = "One reconcile engine";
    let hits = banned(
        &tree(CODE),
        &[
            "plan_goal_or_reinstall",
            "reconcile_sequential_with",
            "parallel: bool",
        ],
    );
    assert_clean(rule, &hits);
    let reconcile = [File::read("crates/conman-core/src/runtime/reconcile.rs")];
    assert!(
        reconcile[0].text.contains("fn choose_goal_path_memo"),
        "{rule}: reconcile.rs defines no choose_goal_path_memo"
    );
    let calls = grep(&reconcile, |line| {
        line.contains("choose_goal_path_memo(") && !line.contains("fn choose_goal_path_memo")
    });
    assert!(
        calls.len() <= 1,
        "{rule}: choose_goal_path_memo has {} call sites:\n{}",
        calls.len(),
        calls.join("\n")
    );
}

/// A plan becomes an applied goal in one place. The strict runner is one
/// function, not a stage half and a commit half joined by a staged batch,
/// and the batched pass, the per-goal oracle and execute_plan share one
/// replace step: reconcile.rs calls the strict runner on one line, and
/// only the prepare helper that readies the step's plans takes a goal's
/// applied plan out of the store (withdraw_many takes it to tear the goal
/// down for good).
#[test]
fn one_replace_step() {
    let rule = "One replace step";
    let halves = [
        "fn stage_batch",
        "fn commit_batch",
        "fn run_plans",
        "fn replace_goal",
    ];
    let mut hits = grep(&tree(&["crates/conman-core/src"]), |line| {
        line.contains("StagedBatch") || halves.iter().any(|word| ends_word(line, word))
    });
    let reconcile = File::read("crates/conman-core/src/runtime/reconcile.rs").body();
    let runs = grep(std::slice::from_ref(&reconcile), |line| {
        line.contains("run_staged(")
    });
    assert!(
        runs.len() == 1,
        "{rule}: reconcile.rs calls the strict runner on {} lines, not one:\n{}",
        runs.len(),
        runs.join("\n")
    );
    for (inside, number, line) in reconcile.fn_lines() {
        let taker = matches!(inside, Some("prepare" | "withdraw_many"));
        if line.contains("take_applied(") && !taker {
            hits.push(reconcile.hit(number, line));
        }
    }
    assert_clean(rule, &hits);
}

/// A transaction changes a device only through StageBatch / CommitBatch /
/// AbortBatch: a goal that fails mid-batch is rolled back by a nested
/// lenient teardown transaction, never by a fire-and-forget Script, so
/// every delete it sends is journaled. Both runners share one abort step,
/// so txn.rs builds an AbortBatch in one place.
#[test]
fn transactions_speak_stage_commit_abort() {
    let rule = "Transactions speak Stage/Commit/Abort";
    let mut hits = grep(&tree(CODE), |line| starts_word(line, "run_script("));
    let txn = [File::read("crates/conman-core/src/runtime/txn.rs").body()];
    hits.extend(banned(&txn, &["WireMessage::Script", "run_scripts"]));
    assert_clean(rule, &hits);
    let aborts = banned(&txn, &["WireMessage::AbortBatch {"]);
    assert!(
        aborts.len() == 1,
        "{rule}: txn.rs builds AbortBatch in {} places:\n{}",
        aborts.len(),
        aborts.join("\n")
    );
}

/// Both runners commit through one step: every device is sent its
/// CommitBatch before the NM quiesces once, as execute_path sends every
/// device its script. So txn.rs builds a CommitBatch in one place, and the
/// hook moments between two devices' commits, which a wave does not have,
/// may not come back.
#[test]
fn a_batch_commits_in_one_wave() {
    let rule = "A batch commits in one wave";
    let txn = [File::read("crates/conman-core/src/runtime/txn.rs").body()];
    let commits = banned(&txn, &["WireMessage::CommitBatch {"]);
    assert!(
        commits.len() == 1,
        "{rule}: txn.rs builds CommitBatch in {} places:\n{}",
        commits.len(),
        commits.join("\n")
    );
    let hits = banned(
        &tree(EVERYWHERE),
        &["TxnEvent::Staged", "TxnEvent::Committed"],
    );
    assert_clean(rule, &hits);
}

/// The engine asks is_local_address, Rib::lookup and RouteTable::lookup
/// for every packet it handles, and a fan-out edge router holds a tunnel,
/// a rule and a route per goal. All three answer from sorted indexes. This
/// rule only bans the three spellings the removed full walks had; a walk
/// written another way passes it. What holds the property is
/// `crates/netsim/tests/lookup_equivalence.rs` (the indexes answer as the
/// linear walks did) and the 256/64-goal lookup-work ratio test in
/// `tests/loop.rs`.
#[test]
fn a_packets_lookups_do_not_walk_the_fleet() {
    let files = bodies(vec![
        File::read("crates/netsim/src/config.rs"),
        File::read("crates/netsim/src/route.rs"),
    ]);
    let hits = banned(
        &files,
        &[
            ".any(|t| t.address",
            ".filter(|r| r.dest.contains(dst))",
            "for rule in &self.rules {",
        ],
    );
    assert_clean("A packet's lookups do not walk the fleet", &hits);
}

/// ManagedNetwork::audit() asks every device what it holds (showActual)
/// and compares the answers with the applied plans' claims: the one
/// definition of device residue. These are the test-side helpers it
/// replaced and the agent accessor only they read; none may come back.
#[test]
fn device_truth_has_one_check() {
    let helpers = [
        "fn listed",
        "fn claimed",
        "fn assert_lists_only",
        "fn assert_no_orphans",
    ];
    let hits = grep(
        &tree(&["tests", "examples", "crates/conman-bench"]),
        |line| {
            helpers.iter().any(|helper| ends_word(line, helper))
                || line.contains("staged_segment_count")
                || line.contains("known_gap")
        },
    );
    assert_clean("Device truth has one check", &hits);
}

/// A primitive meets one admission step before any of it runs: the agent's
/// checks common to every module (modules exist, pipe ids free, a switch
/// stands on a pipe of its module) and each module's pure `admit`, at
/// stage and over a whole Script. Commit runs what stage admitted without
/// checking again, so no create path refuses: the old module-existence
/// check may not come back, and before its tests no file of
/// conman-modules/src builds a ModuleError but a body it cannot decode
/// outside an `admit` or a `parse` helper. A line is inside the function
/// whose `fn` line came last in its file.
#[test]
fn stage_is_the_one_check() {
    let rule = "Stage is the one check";
    let mut hits = banned(&tree(CODE), &["validate_primitive"]);
    for file in bodies(rs_in("crates/conman-modules/src")) {
        let mut current = "";
        for (number, line) in file.lines() {
            if let Some(name) = fn_name(line) {
                current = name;
            }
            let builds = line.match_indices("ModuleError::").any(|(at, path)| {
                line[at + path.len()..].starts_with(|c: char| c.is_ascii_uppercase())
            });
            if builds
                && !line.contains("ModuleError::UndecodableBody")
                && !matches!(current, "admit" | "parse")
            {
                hits.push(file.hit(number, line));
            }
        }
    }
    assert_clean(rule, &hits);
}

/// An agent's transaction state is one table: the txn id it holds, the
/// boot it was written under and each goal's segment, moved by one
/// transition `match` for every StageBatch, CommitBatch and AbortBatch.
/// The map of many txns it replaced, and the `retain` guess that pruned
/// that map, may not come back. `agent.rs`'s
/// `every_transition_of_the_held_table` holds the transitions themselves.
#[test]
fn a_device_holds_one_transaction() {
    let agent = [File::read("crates/conman-core/src/agent.rs").body()];
    let hits = banned(&agent, &["staged_batches", ".retain("]);
    assert_clean("A device holds one transaction", &hits);
}

/// A module pairs an incoming exchange with the pipe the message names,
/// so goals crossing the same devices in opposite directions commit in one
/// wave. run_batch's device-order partition and the batch-of-one
/// fallback it fed may not come back.
#[test]
fn opposite_directions_share_a_wave() {
    let hits = banned(
        &tree(EVERYWHERE),
        &[
            "commit_index",
            "violators",
            "outcome.fallback",
            "fallback: Vec<",
        ],
    );
    assert_clean("Opposite directions share a wave", &hits);
}

/// IP, GRE, MPLS and VLAN pair a peer's message with a pipe through one
/// table (conman-modules/src/exchange.rs), by name: a message pairs with
/// the pipe it names when that pipe waits for a message of its role from
/// its sender, and anything else with nothing. The per-module peer
/// indexes, owed sets and the fallback to a peer's lowest pipe may not come
/// back, nor the table's own order-based index (waiting pipes keyed by peer
/// and role, taken lowest first), nor GRE's creation-order tunnel slots: a
/// GRE tunnel is the switch rule that names its two pipes. The behavioural
/// test is conman-modules' `delivery.rs`,
/// `every_delivery_order_pairs_each_pipe_with_its_own_goal`: every delivery
/// order of two goals each way over one peer pair, with one envelope
/// duplicated and one dropped, for each of the four modules.
#[test]
fn an_exchange_pairs_with_a_waiting_pipe_or_nothing() {
    let modules = tree(&["crates/conman-modules/src"]);
    let (exchange, others): (Vec<File>, Vec<File>) = modules
        .into_iter()
        .partition(|f| f.path.rsplit('/').next() == Some("exchange.rs"));
    assert!(
        !exchange.is_empty(),
        "crates/conman-modules/src: no exchange.rs"
    );
    let mut hits = banned(
        &others,
        &[
            "by_peer",
            "unlearned_by_peer",
            "unfilled_by_peer",
            "pending_queries",
            "pending_exchanges",
            "pending_trunks",
            "TrunkState",
            "fn unindex",
        ],
    );
    let slots = [
        "TunnelSlot",
        "slot_for",
        "slot_of_pipe",
        "next_slot",
        "awaits_tunnel",
    ];
    hits.extend(banned(&others, &slots));
    hits.extend(banned(&exchange, &slots));
    let order = [
        "fn unwait",
        "waiting: BTreeMap<(usize, bool)",
        "peers: Vec<ModuleRef>",
        "fn peer(&self, peer: &ModuleRef)",
    ];
    hits.extend(banned(&others, &order));
    hits.extend(banned(&exchange, &order));
    assert_clean("An exchange pairs with a waiting pipe or nothing", &hits);
}

/// A frame writes each device id's eight raw bytes once, in its device
/// list right after the tag; everywhere else it names the device by its
/// index in that list. The in-band channel's flood header names its two
/// devices, origin and destination, once each. In library code under
/// crates/*/src, up to each file's first #[cfg(test)], only wire.rs's
/// `fn put_device_list` and inband.rs's `fn flood_frame` turn a
/// number into raw bytes for a frame: no other line calls `to_le_bytes` or
/// `to_ne_bytes`, or writes with `.put_raw(` anything but a module body's
/// IPv4 address (`octets()`). (Netsim's packet headers are big-endian and
/// data plane.) The behavioural test is conman-core's
/// `wire::tests::no_frame_holds_a_device_id_twice`.
#[test]
fn a_frame_writes_each_device_once() {
    let files: Vec<File> = bodies(rs_under("crates"))
        .into_iter()
        .filter(|f| f.path.contains("/src/"))
        .collect();
    let writers = [
        ("crates/conman-core/src/wire.rs", "fn put_device_list("),
        ("crates/mgmt-channel/src/inband.rs", "fn flood_frame("),
    ];
    let raw = |line: &str| {
        line.contains("to_le_bytes")
            || line.contains("to_ne_bytes")
            || (line.contains(".put_raw(") && !line.contains("octets()"))
    };
    let (mut hits, mut written) = (Vec::new(), [0; 2]);
    for file in &files {
        let mut inside = None;
        for (number, line) in file.lines() {
            if let Some(w) = writers
                .iter()
                .position(|&(path, anchor)| file.path == path && line.starts_with(anchor))
            {
                inside = Some(w);
            } else if line.starts_with('}') {
                inside = None;
            }
            if raw(line) {
                match inside {
                    Some(w) => written[w] += 1,
                    None => hits.push(file.hit(number, line)),
                }
            }
        }
    }
    for ((path, anchor), written) in writers.iter().zip(written) {
        assert!(
            written > 0,
            "{path}: no line starts with `{anchor}` and writes raw bytes"
        );
    }
    assert_clean("A frame writes each device once", &hits);
}

/// A forwarded frame is written once.  The engine reads a received frame
/// in place (every decoder returns its payload as a slice) and writes each
/// outgoing frame once, innermost bytes first and each header prepended,
/// into the buffer the network lends it; the network copies each frame once
/// more, into the `Arc<[u8]>` its link and trace share.  So before its tests
/// `engine.rs` calls none of the encoders that return a fresh `Vec`, builds
/// an `EthernetFrame` only off the IPv4 path (`EthernetFrame::new(` once in
/// `fn ethernet_header(`, whose frame carries `()`, and once in the
/// switch's `fn bridge_input(`, whose customer frame borrows the trunk
/// frame's payload), and copies bytes out
/// (`.to_vec()`) only where they outlive the frame: the management queue
/// (`handle_frame`), a local delivery (`local_input`) and a packet parked
/// for ARP (`transmit_via_arp`).  A quiet 256-goal tick made 44 873 heap
/// calls while every hop decoded into and encoded from owned buffers, 7 695
/// since; `tests/quiet_allocs.rs` bounds the count per delivered frame.
#[test]
fn a_forwarded_frame_is_written_once() {
    let engine = File::read("crates/netsim/src/engine.rs").body();
    let encoders = [
        "encode_packet(",
        "encode_datagram(",
        "encode_stack(",
        "push_tag(",
        "EthernetFrame {",
        "EthernetFrame::encode",
        "frame.encode()",
        "customer.encode()",
    ];
    let keepers = ["handle_frame", "local_input", "transmit_via_arp"];
    let builders = ["ethernet_header", "bridge_input"];
    let (mut hits, mut kept, mut built) = (Vec::new(), [0; 3], [0; 2]);
    let mut inside = None;
    for (number, line) in engine.lines() {
        if line.trim_start().starts_with("fn ") || line.trim_start().starts_with("pub(crate) fn ") {
            inside = fn_name(line);
        }
        let at = |names: &[&str]| names.iter().position(|&name| inside == Some(name));
        if line.contains(".to_vec()") {
            match at(&keepers) {
                Some(k) => kept[k] += 1,
                None => hits.push(engine.hit(number, line)),
            }
        }
        if line.contains("EthernetFrame::new(") {
            match at(&builders) {
                Some(b) => built[b] += 1,
                None => hits.push(engine.hit(number, line)),
            }
        }
        if encoders.iter().any(|word| line.contains(word)) {
            hits.push(engine.hit(number, line));
        }
    }
    for (name, count) in keepers.iter().zip(kept).chain(builders.iter().zip(built)) {
        assert_eq!(
            count, 1,
            "engine.rs: `fn {name}` is the one place of its kind"
        );
    }
    assert_clean("A forwarded frame is written once", &hits);
}

/// A module keeps what it reads from a spec, not the spec: IP's pipe
/// record holds the pipe's shape and the address it learned, and the peer
/// of an exchanging pipe is held once, in `exchange.rs`. So before its
/// tests no line under conman-modules' src declares `name: Type` where the
/// type holds a `PipeSpec` other than behind a leading `&` (a field, or a
/// by-value parameter, which no module takes). What a converged fleet
/// holds is `experiments fleet`'s `held after the pass` line, bounded by
/// `tests/held_state.rs` (48 110 B per goal while IP's record cloned its
/// spec, 30 901 B since).
#[test]
fn a_module_keeps_what_it_reads() {
    let holds_a_spec = |line: &str| {
        let line = line.trim_start();
        let line = (line.strip_prefix("pub(crate) "))
            .or_else(|| line.strip_prefix("pub "))
            .unwrap_or(line);
        line.split_once(':').is_some_and(|(name, ty)| {
            !name.is_empty()
                && name.chars().all(is_word)
                && !ty.trim_start().starts_with('&')
                && starts_word(ty, "PipeSpec")
                && ends_word(ty, "PipeSpec")
        })
    };
    let hits = grep(&bodies(rs_under("crates/conman-modules/src")), holds_a_spec);
    assert_clean("A module keeps what it reads", &hits);
}

/// A message is counted at the NM's door.  The channel only moves bytes:
/// before its tests no file of `mgmt-channel` keeps a per-device counter
/// board or taps the recorder per message.  The NM counts and taps its own
/// messages, every sent one in `ManagedNetwork`'s one send door and every
/// received one in its one receive door, both in `runtime/mod.rs`: before
/// their tests no other file of conman-core records a message, and
/// `runtime/mod.rs` records each direction inside one `fn`.
#[test]
fn a_message_is_counted_at_the_nms_door() {
    let words = [
        "CounterBoard",
        "record_sent",
        "record_received",
        "on_message(",
    ];
    let mut hits = banned(&bodies(rs_under("crates/mgmt-channel/src")), &words);

    const DOORS: &str = "crates/conman-core/src/runtime/mod.rs";
    let records = [
        [
            "MessageDirection::Sent",
            "sent +=",
            "sent_by_category.entry(",
        ],
        [
            "MessageDirection::Received",
            "received +=",
            "received_by_category.entry(",
        ],
    ];
    let direction = |line: &str| {
        (records.iter()).position(|spellings| spellings.iter().any(|word| line.contains(word)))
    };
    let mut doors: [Vec<&str>; 2] = Default::default();
    let files = bodies(rs_under("crates/conman-core/src"));
    for file in &files {
        for (inside, number, line) in file.fn_lines() {
            let Some(dir) = direction(line) else { continue };
            match inside {
                Some(name) if file.path == DOORS => doors[dir].push(name),
                _ => hits.push(file.hit(number, line)),
            }
        }
    }
    for (door, spellings) in doors.iter_mut().zip(&records) {
        door.dedup();
        assert_eq!(
            door.len(),
            1,
            "{DOORS}: {spellings:?} is recorded in one fn, not in {door:?}"
        );
    }
    assert_clean("A message is counted at the NM's door", &hits);
}

/// A goal remembers what it sent. Once its batch has sent a plan's stage
/// frames, the NM keeps the bytes it staged and drops the typed scripts
/// before the stage round runs an agent: neither `AppliedPlan` nor the `StagedScripts` it holds
/// names a `Primitive`, a `DeviceScript` or a `ScriptSet`.
#[test]
fn a_goal_remembers_what_it_sent() {
    let typed = |line: &str| {
        ["Primitive", "DeviceScript", "ScriptSet"]
            .iter()
            .any(|word| line.contains(word))
    };
    let mut hits =
        File::read("crates/conman-core/src/nm/goal.rs").block_hits("pub struct AppliedPlan", typed);
    hits.extend(
        File::read("crates/conman-core/src/nm/script.rs")
            .block_hits("pub struct StagedScripts", typed),
    );
    assert_clean("A goal remembers what it sent", &hits);
}

/// Threads start in one place: the runtime's pool, whose `fan_out` hands
/// each worker a contiguous chunk of its items, each with its own result
/// slot, so no output depends on how many workers ran. Path search and the
/// agents of a transaction round both fan out through it, at the one width
/// of their pass. Under `crates/*/src`, `thread::scope` and
/// `thread::spawn` appear only inside that function.
#[test]
fn threads_start_in_one_place() {
    const POOL: &str = "crates/conman-core/src/runtime/pool.rs";
    let starts = |line: &str| line.contains("thread::scope") || line.contains("thread::spawn");
    let (mut hits, mut pooled) = (Vec::new(), 0);
    for file in rs_under("crates")
        .iter()
        .filter(|f| f.path.contains("/src/"))
    {
        for (inside, number, line) in file.fn_lines() {
            if !starts(line) {
                continue;
            }
            match inside {
                Some("fan_out") if file.path == POOL => pooled += 1,
                _ => hits.push(file.hit(number, line)),
            }
        }
    }
    assert!(pooled > 0, "{POOL}: fan_out starts no thread");
    assert_clean("Threads start in one place", &hits);
}

#[test]
#[should_panic(expected = "no such path")]
fn a_rule_over_a_missing_path_fails() {
    File::read("crates/conman-core/src/no_such_file.rs");
}

#[test]
#[should_panic(expected = "no line starts with")]
fn a_rule_over_a_missing_anchor_fails() {
    File::read("crates/conman-diagnose/src/report.rs").string_fields("pub(crate) struct Suspect ");
}

#[test]
#[should_panic(expected = "nothing to check before its first #[cfg(test)]")]
fn a_rule_over_an_empty_body_fails() {
    let file = File {
        path: "tests-only.rs".to_owned(),
        text: "#[cfg(test)]\nmod tests {}\n".to_owned(),
    };
    file.body();
}
