//! tm-lint sweep over the checked-in TXL fixture corpus, with golden-file
//! comparison: the full diagnostic output (rule IDs, positions, messages)
//! for every fixture must match `golden/lint.golden` byte for byte, so any
//! drift in the lint rules, spans, or fixture corpus fails CI loudly.
//!
//! Usage:
//! ```text
//! cargo run -p bench --release --bin lint            # compare
//! cargo run -p bench --release --bin lint -- --bless # regenerate golden
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use txl::lint::{lint_source, LintConfig};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../txl/tests/fixtures")
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/lint.golden")
}

fn render_report() -> Result<String, String> {
    let dir = fixtures_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txl"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .txl fixtures under {}", dir.display()));
    }

    let cfg = LintConfig { write_set_capacity: Some(32), ..LintConfig::default() };
    let mut out = String::new();
    let mut findings = 0usize;
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let diags =
            lint_source(&src, &cfg).map_err(|e| format!("{name}: does not compile: {e}"))?;
        if diags.is_empty() {
            let _ = writeln!(out, "{name}: clean");
        } else {
            for d in &diags {
                findings += 1;
                let _ = writeln!(out, "{name}: {d}");
            }
        }
        // Convention check: seeded-bug fixtures must be flagged, clean
        // twins must not — enforced here so the corpus cannot rot.
        let buggy = name.ends_with("_bug.txl");
        if buggy && diags.is_empty() {
            return Err(format!("{name}: seeded-bug fixture produced no diagnostics"));
        }
        if !buggy && !diags.is_empty() {
            return Err(format!("{name}: clean twin produced diagnostics: {:?}", diags[0]));
        }
    }
    let _ = writeln!(out, "total: {} fixture(s), {findings} finding(s)", files.len());
    Ok(out)
}

fn main() -> ExitCode {
    let bless = std::env::args().any(|a| a == "--bless");
    let report = match render_report() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{report}");

    let golden = golden_path();
    if bless {
        if let Err(e) = std::fs::write(&golden, &report) {
            eprintln!("lint: cannot write {}: {e}", golden.display());
            return ExitCode::FAILURE;
        }
        println!("blessed {}", golden.display());
        return ExitCode::SUCCESS;
    }
    match std::fs::read_to_string(&golden) {
        Ok(expected) if expected == report => {
            println!("golden: match ({})", golden.display());
            ExitCode::SUCCESS
        }
        Ok(expected) => {
            eprintln!("lint: output differs from {}:", golden.display());
            for (i, (g, n)) in expected.lines().zip(report.lines()).enumerate() {
                if g != n {
                    eprintln!("  line {}: golden `{g}`", i + 1);
                    eprintln!("  line {}: actual `{n}`", i + 1);
                }
            }
            let (ne, nr) = (expected.lines().count(), report.lines().count());
            if ne != nr {
                eprintln!("  line counts differ: golden {ne}, actual {nr}");
            }
            eprintln!("re-bless with: cargo run -p bench --bin lint -- --bless");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lint: cannot read {}: {e}", golden.display());
            eprintln!("create it with: cargo run -p bench --bin lint -- --bless");
            ExitCode::FAILURE
        }
    }
}
