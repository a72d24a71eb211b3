//! `txlc` — the TXL compiler driver: parses, checks and reports on TXL
//! source, printing each kernel's signature, local-slot count, and the
//! register-checkpoint set inferred for every `atomic` block.
//!
//! Usage:
//! ```text
//! txlc <file.txl>     # compile a file
//! txlc -              # compile stdin
//! ```
//! Exits nonzero (with a diagnostic on stderr) on any error.

#![forbid(unsafe_code)]

use std::io::Read;
use std::process::ExitCode;
use txl::ast::{Kernel, Stmt};

fn collect_atomics<'k>(stmts: &'k [Stmt], out: &mut Vec<&'k Stmt>) {
    for s in stmts {
        match s {
            Stmt::Atomic { .. } => out.push(s),
            Stmt::If { then_blk, else_blk, .. } => {
                collect_atomics(then_blk, out);
                collect_atomics(else_blk, out);
            }
            Stmt::While { body, .. } => collect_atomics(body, out),
            _ => {}
        }
    }
}

fn slot_names(kernel: &Kernel) -> Vec<String> {
    // Recover slot -> name for diagnostics by walking declarations.
    let mut names = vec![String::new(); kernel.n_slots];
    fn walk(stmts: &[Stmt], names: &mut [String]) {
        for s in stmts {
            match s {
                Stmt::Let { name, slot, .. } if names[*slot].is_empty() => {
                    names[*slot] = name.clone();
                }
                Stmt::If { then_blk, else_blk, .. } => {
                    walk(then_blk, names);
                    walk(else_blk, names);
                }
                Stmt::While { body, .. } => walk(body, names),
                Stmt::Atomic { body, .. } => walk(body, names),
                _ => {}
            }
        }
    }
    walk(&kernel.body, &mut names);
    names
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1) else {
        eprintln!("usage: txlc <file.txl | ->");
        return ExitCode::FAILURE;
    };
    let source = if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("txlc: cannot read stdin: {e}");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("txlc: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let program = match txl::compile(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("txlc: {e}");
            return ExitCode::FAILURE;
        }
    };

    for kernel in &program.kernels {
        let params: Vec<String> = kernel
            .params
            .iter()
            .map(|p| match p.declared_len {
                Some(n) => format!("{}: array[{n}]", p.name),
                None => format!("{}: array", p.name),
            })
            .collect();
        println!("kernel {}({})", kernel.name, params.join(", "));
        println!("  locals: {} slot(s)", kernel.n_slots);
        let mut atomics = Vec::new();
        collect_atomics(&kernel.body, &mut atomics);
        let names = slot_names(kernel);
        if atomics.is_empty() {
            println!("  atomic blocks: none");
        }
        for (i, a) in atomics.iter().enumerate() {
            let Stmt::Atomic { checkpoint, .. } = a else { unreachable!() };
            let pretty: Vec<&str> = checkpoint
                .iter()
                .map(|s| names.get(*s).map(|n| n.as_str()).unwrap_or("?"))
                .collect();
            println!(
                "  atomic #{i}: checkpoint registers {{{}}}",
                if pretty.is_empty() { "∅".to_string() } else { pretty.join(", ") }
            );
        }
    }
    println!("ok: {} kernel(s) compiled", program.kernels.len());
    ExitCode::SUCCESS
}
