//! Captures the toolchain version and the source revision for the host
//! fingerprint that every benchmark record carries.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=MDBENCH_RUSTC={version}");

    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let (rev, watched) = git_rev(&git);
    println!("cargo:rustc-env=MDBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    for path in watched {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// Resolves `HEAD` by reading the repository files directly (source
/// exports without `.git` report `unknown`). Returns the revision and the
/// files whose change should re-run this script.
fn git_rev(git: &Path) -> (String, Vec<PathBuf>) {
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return ("unknown".into(), Vec::new());
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return (head.to_string(), vec![head_path]);
    };
    let ref_path = git.join(reference);
    if let Ok(rev) = std::fs::read_to_string(&ref_path) {
        return (rev.trim().to_string(), vec![head_path, ref_path]);
    }
    let packed_path = git.join("packed-refs");
    let rev = std::fs::read_to_string(&packed_path)
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    (rev, vec![head_path, packed_path])
}
