//! `txl fix` sweep over the seeded-bug fixture corpus, with golden-file
//! comparison: the applied patches, residual counts, twin matches and
//! dynamic-gate verdicts for every `*_bug.txl` fixture must match
//! `golden/fix.golden` byte for byte, so any drift in the repair engine
//! or the corpus fails CI loudly. Fixtures whose findings are
//! residual-by-design (rules with no mechanical repair, e.g. TL008)
//! must instead come back byte-identical with no committed twin.
//! `--json PATH` additionally writes the machine-readable patch
//! records CI uploads as an artifact.
//!
//! Usage:
//! ```text
//! cargo run -p bench --release --bin fix                    # compare
//! cargo run -p bench --release --bin fix -- --bless        # regenerate golden
//! cargo run -p bench --release --bin fix -- --json out.json
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use txl::fix::dynamic_check;
use txl::lint::LintConfig;
use txl::{fix_source, FixConfig};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../txl/tests/fixtures")
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/fix.golden")
}

struct Sweep {
    report: String,
    json: String,
}

fn render() -> Result<Sweep, String> {
    let dir = fixtures_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with("_bug.txl"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no *_bug.txl fixtures under {}", dir.display()));
    }

    let cfg = FixConfig {
        lint: LintConfig { write_set_capacity: Some(32), ..LintConfig::default() },
        ..FixConfig::default()
    };
    let mut out = String::new();
    let mut w = gpu_sim::JsonWriter::new();
    w.begin_object();
    w.field_str("tool", "bench-fix");
    w.key("files");
    w.begin_array();
    let mut patches = 0usize;
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let r = fix_source(&src, &cfg).map_err(|e| format!("{name}: {e}"))?;
        if !r.is_clean() {
            // Residual-by-design fixtures: some rules have no mechanical
            // repair (TL008 — the intended wake condition exists only in
            // the author's head). The contract for these is the inverse
            // of the repair contract: no twin is committed, the source
            // must come back byte-identical, and the dynamic gate is
            // skipped (an unwakeable retry spins into the watchdog).
            if r.fixed != src {
                return Err(format!(
                    "{name}: repair left residuals yet modified the source: {:?}",
                    r.residual
                ));
            }
            if !r.applied.is_empty() {
                return Err(format!(
                    "{name}: applied {} patch(es) but still residual: {:?}",
                    r.applied.len(),
                    r.residual
                ));
            }
            let twin_name = name.replace("_bug.txl", "_fixed.txl");
            if dir.join(&twin_name).exists() {
                return Err(format!(
                    "{name}: has residual-only findings but a committed twin {twin_name}; \
                     either the rule gained a repair or the twin is stale"
                ));
            }
            let mut rules: Vec<&str> = r.residual.iter().map(|d| d.rule.id()).collect();
            rules.sort_unstable();
            rules.dedup();
            let _ =
                writeln!(out, "{name}: residual by design ({}), source untouched", rules.join(","));
            w.begin_object();
            w.field_str("file", &name);
            w.key("residual");
            w.begin_array();
            for rule in &rules {
                w.string(rule);
            }
            w.end_array();
            w.end_object();
            continue;
        }
        patches += r.applied.len();
        let _ = writeln!(
            out,
            "{name}: {} patch(es) in {} round(s), {} residual",
            r.applied.len(),
            r.rounds,
            r.residual.len()
        );
        for a in &r.applied {
            let _ = writeln!(out, "{name}:   round {} {}", a.round, a.patch);
        }

        // Byte-exact agreement with the committed post-fix twin.
        let twin_name = name.replace("_bug.txl", "_fixed.txl");
        let twin = std::fs::read_to_string(dir.join(&twin_name))
            .map_err(|e| format!("{name}: missing twin {twin_name}: {e}"))?;
        if r.fixed != twin {
            return Err(format!("{name}: repair does not match {twin_name} byte for byte"));
        }
        let _ = writeln!(out, "{name}: matches {twin_name}");

        // The repaired program must run race- and opacity-clean.
        let gate = dynamic_check(&r.fixed, 7).map_err(|e| format!("{name}: gate: {e}"))?;
        if !gate.is_clean() {
            return Err(format!("{name}: dynamic gate violations: {:?}", gate.violations));
        }
        let _ = writeln!(out, "{name}: dynamic gate clean ({} kernel(s))", gate.kernels);

        w.begin_object();
        w.field_str("file", &name);
        w.field_str("twin", &twin_name);
        w.field_u64("rounds", u64::from(r.rounds));
        w.field_bool("gate_clean", gate.is_clean());
        w.key("applied");
        w.begin_array();
        for a in &r.applied {
            w.begin_object();
            w.field_u64("round", u64::from(a.round));
            w.field_str("rule", a.patch.rule.id());
            w.field_str("kernel", &a.patch.kernel);
            w.field_str("title", &a.patch.title);
            w.key("edits");
            w.begin_array();
            for e in &a.patch.edits {
                w.begin_object();
                w.field_u64("start", u64::from(e.start));
                w.field_u64("end", u64::from(e.end));
                w.field_str("replacement", &e.replacement);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    let _ = writeln!(out, "total: {} fixture(s), {patches} patch(es)", files.len());
    w.end_array();
    w.end_object();
    Ok(Sweep { report: out, json: w.finish() })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();

    let sweep = match render() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fix: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", sweep.report);
    if let Some(p) = json_path {
        if let Err(e) = std::fs::write(&p, &sweep.json) {
            eprintln!("fix: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {p}");
    }

    let golden = golden_path();
    if bless {
        if let Err(e) = std::fs::write(&golden, &sweep.report) {
            eprintln!("fix: cannot write {}: {e}", golden.display());
            return ExitCode::FAILURE;
        }
        println!("blessed {}", golden.display());
        return ExitCode::SUCCESS;
    }
    match std::fs::read_to_string(&golden) {
        Ok(expected) if expected == sweep.report => {
            println!("golden: match ({})", golden.display());
            ExitCode::SUCCESS
        }
        Ok(expected) => {
            eprintln!("fix: output differs from {}:", golden.display());
            for (i, (g, n)) in expected.lines().zip(sweep.report.lines()).enumerate() {
                if g != n {
                    eprintln!("  line {}: golden `{g}`", i + 1);
                    eprintln!("  line {}: actual `{n}`", i + 1);
                }
            }
            let (ne, nr) = (expected.lines().count(), sweep.report.lines().count());
            if ne != nr {
                eprintln!("  line counts differ: golden {ne}, actual {nr}");
            }
            eprintln!("re-bless with: cargo run -p bench --bin fix -- --bless");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fix: cannot read {}: {e}", golden.display());
            eprintln!("create it with: cargo run -p bench --bin fix -- --bless");
            ExitCode::FAILURE
        }
    }
}
