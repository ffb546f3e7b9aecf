//! The paper reproduction: one registry entry per output row of
//! DESIGN.md § 5, and the `figures` command that runs them.
//!
//! ```text
//! figures <id>... | all [--obs <path>] [--store <path>] [--from-store <path>]
//! ```
//!
//! An [`Entry`] runs its experiment and returns a [`Report`]: the exact
//! text the binary prints, the JSON documents, and (for `--store`) the
//! raw trace bundles. [`run`] writes `<id>.txt` and `<stem>.json` for
//! every report into the artifact directory, and the golden suite in
//! `crates/conformance` compares the same reports with the committed
//! copy in `artifacts/` — one copy of each output, built one way.
//!
//! Every report is content-derived (no wall-clock, no host state), so
//! for a fixed [`Scale`] it is byte-identical across
//! `FLUCTRACE_THREADS` settings and across runs.
//!
//! Exit codes of [`run`]: 0 on success; 1 when a check failed or an
//! output could not be written (everything else is still written); 2
//! for an unknown or missing id, an unknown flag, or `--store` /
//! `--from-store` on anything but one entry with raw bundles.

use crate::obs_support::{obs_probe, write_snapshot, SharedArgs};
use crate::store_support::{self, spill_config, write_segments};
use crate::Scale;
use fluctrace_analysis::Figure;
use fluctrace_cpu::TraceBundle;
use std::path::Path;

/// `println!` into a [`Report`]'s text.
macro_rules! say {
    ($r:expr) => {
        $r.text.push('\n')
    };
    ($r:expr, $($fmt:tt)+) => {{
        use std::fmt::Write as _;
        let _ = writeln!($r.text, $($fmt)+);
    }};
}

mod acl;
mod apps;
mod overload;
mod sampling;

/// Exit code: a check failed or an output could not be written.
const EXIT_FAILED: u8 = 1;
/// Exit code: the command line names no runnable entry.
const EXIT_USAGE: u8 = 2;

/// What one entry produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything the entry prints; written as `<id>.txt`.
    pub text: String,
    /// JSON documents as `(stem, contents)`; written as `<stem>.json`.
    pub docs: Vec<(String, String)>,
    /// Raw trace bundles, one store segment each (only when the entry
    /// ran with `keep_bundles`).
    pub bundles: Vec<TraceBundle>,
    /// Checks that failed. The rest of the report is still complete.
    pub failures: Vec<String>,
}

impl Report {
    /// The files the report is written as: `<id>.txt` with the text,
    /// then `<stem>.json` per document.
    pub fn files<'a>(&'a self, id: &str) -> impl Iterator<Item = (String, &'a str)> {
        let docs = self
            .docs
            .iter()
            .map(|(stem, doc)| (format!("{stem}.json"), doc.as_str()));
        std::iter::once((format!("{id}.txt"), self.text.as_str())).chain(docs)
    }

    fn figure(&mut self, fig: &Figure) {
        self.docs.push((fig.id.clone(), fig.to_json()));
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }
}

/// One reproduced table, figure or section.
pub struct Entry {
    /// `figures <id>`, and the stem of `<id>.txt`.
    pub id: &'static str,
    /// Run at a scale. With `keep_bundles` the report also carries the
    /// raw bundles; the text and documents must not change.
    pub run: fn(Scale, bool) -> Report,
    /// `--from-store`: the report on a replayed bundle. `None` for an
    /// entry that has no raw bundles.
    pub replay: Option<fn(TraceBundle) -> Report>,
}

/// Every entry, in DESIGN.md § 5 order.
#[rustfmt::skip]
pub const REGISTRY: &[Entry] = &[
    Entry { id: "fig1", run: apps::fig1, replay: None },
    Entry { id: "fig2", run: apps::fig2, replay: None },
    Entry { id: "table1", run: apps::table1, replay: None },
    Entry { id: "fig4", run: sampling::fig4, replay: Some(|_| Report::default()) },
    Entry { id: "table2", run: apps::table2, replay: None },
    Entry { id: "fig8", run: apps::fig8, replay: None },
    Entry { id: "table3", run: acl::table3, replay: None },
    Entry { id: "fig9", run: acl::fig9, replay: Some(|_| Report::default()) },
    Entry { id: "fig10", run: acl::fig10, replay: None },
    Entry { id: "data_volume", run: acl::data_volume, replay: None },
    Entry { id: "overload", run: overload::overload, replay: Some(overload::replay) },
    Entry { id: "depgraph", run: overload::depgraph, replay: None },
    Entry { id: "tradeoff", run: sampling::tradeoff, replay: None },
    Entry { id: "motivation", run: acl::motivation, replay: None },
    Entry { id: "tail_latency", run: apps::tail_latency, replay: None },
];

/// The registry entry named `id`.
pub fn entry(id: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// The `figures` binary: run the entries `args.rest` names out of
/// `registry`, print each report, write its outputs into `dir`, and
/// return the exit code (module docs).
pub fn run(registry: &[Entry], args: &SharedArgs, dir: &Path, scale: Scale) -> u8 {
    let entries = match select(registry, args) {
        Ok(entries) => entries,
        Err(e) => {
            let ids: Vec<_> = registry.iter().map(|e| e.id).collect();
            eprintln!(
                "figures: {e}\nusage: figures <id>... | all [--obs <path>] [--store <path>] \
                 [--from-store <path>]\nids: {}",
                ids.join(" ")
            );
            return EXIT_USAGE;
        }
    };
    let mut ok = true;
    if let Some(path) = &args.from_store {
        ok &= replay_store(entries[0], path);
    } else {
        for entry in &entries {
            if entries.len() > 1 {
                println!("\n================ {} ================\n", entry.id);
            }
            ok &= produce(entry, args.store.as_deref(), dir, scale);
        }
    }
    if let Some(path) = &args.obs {
        obs_probe();
        println!();
        ok &= wrote("[obs]", path, write_snapshot(path));
    }
    if ok {
        0
    } else {
        EXIT_FAILED
    }
}

fn select<'a>(registry: &'a [Entry], args: &SharedArgs) -> Result<Vec<&'a Entry>, String> {
    let mut entries = Vec::new();
    for arg in &args.rest {
        if arg.starts_with('-') {
            return Err(format!("unknown flag {arg}"));
        } else if arg == "all" {
            entries.extend(registry);
        } else {
            let entry = registry.iter().find(|e| e.id == arg);
            entries.push(entry.ok_or_else(|| format!("unknown id {arg}"))?);
        }
    }
    if entries.is_empty() {
        return Err("no id given".into());
    }
    let stores = args.store.is_some() || args.from_store.is_some();
    if stores && !matches!(entries[..], [e] if e.replay.is_some()) {
        return Err("--store and --from-store take one id that has raw bundles".into());
    }
    Ok(entries)
}

/// Run one entry: print its report, write its outputs, spill its
/// bundles. False when a check failed or an output was not written.
fn produce(entry: &Entry, store: Option<&Path>, dir: &Path, scale: Scale) -> bool {
    let report = (entry.run)(scale, store.is_some());
    print!("{}", report.text);
    let mut ok = failures_ok(entry, &report);
    println!();
    for (name, body) in report.files(entry.id) {
        let path = dir.join(name);
        let write = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body));
        ok &= wrote("[artifact]", &path, write);
    }
    if let Some(path) = store {
        let bundles: Vec<_> = report.bundles.iter().collect();
        match write_segments(path, &bundles, spill_config()) {
            Ok(stats) => println!(
                "[store] {}: {} segment(s), {} samples (+{} elided), {} marks, {} bytes",
                path.display(),
                bundles.len(),
                stats.samples,
                stats.elided,
                stats.marks,
                stats.bytes
            ),
            Err(e) => {
                eprintln!("[store] write {} failed: {e}", path.display());
                ok = false;
            }
        }
    }
    ok
}

/// `--from-store`: read the store back and print the entry's replay.
fn replay_store(entry: &Entry, path: &Path) -> bool {
    match (store_support::replay(path), entry.replay) {
        (Ok(bundle), Some(replay)) => {
            let report = replay(bundle);
            print!("{}", report.text);
            failures_ok(entry, &report)
        }
        (Err(e), _) => {
            eprintln!("{} --from-store: {e}", entry.id);
            false
        }
        (Ok(_), None) => false,
    }
}

fn failures_ok(entry: &Entry, report: &Report) -> bool {
    for failure in &report.failures {
        eprintln!("{}: check failed: {failure}", entry.id);
    }
    report.failures.is_empty()
}

fn wrote(tag: &str, path: &Path, result: std::io::Result<()>) -> bool {
    match &result {
        Ok(()) => println!("{tag} {}", path.display()),
        Err(e) => eprintln!("{tag} write {} failed: {e}", path.display()),
    }
    result.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fine(_: Scale, keep_bundles: bool) -> Report {
        let mut r = Report::default();
        say!(r, "fine");
        r.docs.push(("fine_doc".into(), "{}".into()));
        if keep_bundles {
            r.bundles.push(TraceBundle::default());
        }
        r
    }

    fn failing(_: Scale, _: bool) -> Report {
        let mut r = fine(Scale::Quick, false);
        r.docs[0].0 = "failing_doc".into();
        r.fail("the numbers are wrong");
        r
    }

    #[rustfmt::skip]
    const ENTRIES: &[Entry] = &[
        Entry { id: "failing", run: failing, replay: None },
        Entry { id: "fine", run: fine, replay: Some(|_| Report::default()) },
    ];

    /// `figures <line>` over `entries`, writing into `dir`.
    fn figures(entries: &[Entry], line: &str, dir: &Path) -> u8 {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let args = crate::obs_support::parse_shared(&argv).expect("well-formed flags");
        run(entries, &args, dir, Scale::Quick)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fluctrace-figures-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<_> = REGISTRY.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len());
    }

    #[test]
    fn an_unwritable_artifact_dir_exits_1() {
        let dir = scratch("unwritable");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a-file"), "").unwrap();
        let under_a_file = dir.join("a-file").join("artifacts");
        assert_eq!(figures(REGISTRY, "table2", &under_a_file), EXIT_FAILED);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn usage_errors_exit_2_and_write_nothing() {
        let dir = scratch("usage");
        for line in ["", "nope", "fine nope", "--diagnose fine", "all_figures"] {
            assert_eq!(figures(ENTRIES, line, &dir), EXIT_USAGE, "{line:?}");
        }
        // Bundles belong to exactly one entry that has them.
        let flt = dir.join("x.flt");
        for line in ["failing --store", "all --store", "fine fine --from-store"] {
            let line = format!("{line} {}", flt.display());
            assert_eq!(figures(ENTRIES, &line, &dir), EXIT_USAGE, "{line:?}");
        }
        assert!(!dir.exists(), "a usage error wrote outputs");
    }

    #[test]
    fn a_failed_check_exits_1_and_still_writes_every_output() {
        let dir = scratch("failed-check");
        assert_eq!(figures(ENTRIES, "all", &dir), EXIT_FAILED);
        for name in [
            "failing.txt",
            "failing_doc.json",
            "fine.txt",
            "fine_doc.json",
        ] {
            assert!(dir.join(name).is_file(), "{name} not written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_spills_then_replays_and_a_missing_store_exits_1() {
        let dir = scratch("store");
        let flt = dir.join("fine.flt").display().to_string();
        assert_eq!(figures(ENTRIES, &format!("fine --store {flt}"), &dir), 0);
        assert_eq!(
            figures(ENTRIES, &format!("fine --from-store {flt}"), &dir),
            0
        );
        let missing = format!("fine --from-store {flt}.missing");
        assert_eq!(figures(ENTRIES, &missing, &dir), EXIT_FAILED);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
