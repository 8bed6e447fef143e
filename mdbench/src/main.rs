//! MD-GAN training benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path mdbench/Cargo.toml -- \
//!     --workload <mlp-seq|cnn-seq|cnn-thr-b100> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs Algorithm 1 end to end through the public runtime
//! entry points and reports the end-to-end metrics; `--trace 1` replays
//! the workload's calls into every layer (core, nn, tensor, simnet, data,
//! eval) with spans recorded in memory and reports the per-layer metrics.
//! Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a full record with the
//! host fingerprint is written under `mdbench/out/` (and, for traced
//! runs, a Chrome trace under `mdbench/out/traces/`). A correctness
//! violation prints `"correct": false` and exits with status 1. See
//! `mdbench/README.md` for the workloads and the metric map.

mod e2e;
mod host;
mod replay;
mod report;
#[cfg(test)]
mod selftest;
mod spans;
mod workload;

use report::{final_line, json_str};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Cli {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mdbench: {e}");
            eprintln!(
                "usage: mdbench --workload <mlp-seq|cnn-seq|cnn-thr-b100> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = cli.workload;
    let calib_ms = host::calibration_ms();
    let out = if cli.trace {
        replay::run(&w, cli.seed, calib_ms, &out_dir())
    } else {
        e2e::run(&w, cli.seed, cli.seconds)
    };
    let correct = out.errors.is_empty();
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},{},\
         \"correct\":{correct},\"errors\":[{}],\"metrics\":{}}}",
        json_str(w.name),
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        host::fingerprint_json(calib_ms),
        out.detail,
        out.errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(","),
        out.metrics.to_json()
    );
    let dir = out_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        cli.seed,
        u8::from(cli.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &record)) {
        eprintln!("mdbench: cannot write {}: {e}", path.display());
    }
    for e in &out.errors {
        eprintln!("mdbench: CHECK FAILED: {e}");
    }
    eprint!("{} (seed {}):\n{}", w.name, cli.seed, out.metrics.table());
    println!("{record}");
    println!(
        "{}",
        final_line(correct, out.attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
