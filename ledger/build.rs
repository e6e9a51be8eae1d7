//! Stamps the binary with the compiler version and, when built inside a
//! git checkout, the commit it was built from.

use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only this repository's own history counts: a source export unpacked
    // inside some other git checkout must not report that checkout's HEAD.
    let here = std::fs::canonicalize("..").ok();
    let top = first_line("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| std::fs::canonicalize(t).ok());
    let commit = (here.is_some() && here == top)
        .then(|| first_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=LEDGER_RUSTC={version}");
    println!("cargo:rustc-env=LEDGER_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp after a commit. Only existing paths are watched: cargo
    // re-runs a script on every build while a watched path is missing,
    // and a source export has no `.git`.
    let mut watch = vec!["../.git/HEAD".to_string()];
    if let Some(reference) = first_line("git", &["symbolic-ref", "-q", "HEAD"]) {
        watch.push(format!("../.git/{reference}"));
    }
    for path in watch {
        if std::path::Path::new(&path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}
