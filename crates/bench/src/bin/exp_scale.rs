//! Large-`n` scaling of the struct-of-arrays simulation core
//! (`BENCH_scale.json`).
//!
//! Flags:
//!
//! * `--quick` — reduced grid; `--smoke` — the CI grid (one shared cell
//!   plus a single `n = 10^5` execution; writes no file unless `--out`
//!   is given);
//! * `--json` — print the benchmark document instead of the markdown
//!   table;
//! * `--no-timings` — strip the timing fields from the document,
//!   leaving only bit-for-bit reproducible columns; `scripts/check.sh`
//!   byte-compares the `--smoke` form against
//!   `tests/golden/exp_scale_smoke.json`;
//! * `--out PATH` — write the document to `PATH` (default
//!   `BENCH_scale.json` for non-smoke runs);
//! * `--checkpoint PATH` / `--resume` — journal each completed cell to
//!   `PATH` and, on resume, replay it instead of re-timing (see
//!   `docs/RUNNER.md`);
//! * `--inject-panic N` / `ANONET_FAIL_CELL=N` — fault-injection hook;
//! * `--lint-checkpoint PATH` — validate a journal and exit;
//! * `--lint-bench PATH` — re-parse a committed `BENCH_scale.json`
//!   with the vendored float-free JSON reader, re-check the speedup
//!   floor and the `n = 10^5` scaling target, and exit.
//!
//! The cells run serially, one at a time, so their timings do not
//! compete for cores. Every cell re-proves correctness before timing
//! (reference-arm equality on shared cells, the leader deciding exactly
//! `n` at round `horizon + 2`); the document is
//! schema-validated in-process before anything is written, and full
//! runs must additionally pass the acceptance gates (speedup floor at
//! the best shared cell, grid reaching `n = 10^5`).

use anonet_bench::experiments::checkpoint::{lint_journal, run_serial_checkpointed};
use anonet_bench::experiments::runner::{arg_value, GridConfig, RunOutcome};
use anonet_bench::experiments::scale::{
    bench_doc, cell_from_payload, cell_payload, check_gates, grid_specs, lint_committed,
    scaling_table, validate_doc, CellSpec, Grid,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if let Some(path) = arg_value(&args, "--lint-checkpoint") {
        match lint_journal(std::path::Path::new(&path)) {
            Ok(n) => {
                println!("checkpoint ok: {n} records, no truncated lines");
                return;
            }
            Err(e) => {
                eprintln!("error: checkpoint lint failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = arg_value(&args, "--lint-bench") {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let doc = match anonet_trace::json::JsonValue::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: {path} is not float-free JSON: {e}");
                std::process::exit(1);
            }
        };
        match lint_committed(&doc) {
            Ok(()) => {
                println!("{path}: schema, decision bound, speedup floor and scaling target ok");
                return;
            }
            Err(e) => {
                eprintln!("error: BENCH_scale lint failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let grid = if has("--smoke") {
        Grid::Smoke
    } else if has("--quick") {
        Grid::Quick
    } else {
        Grid::Full
    };
    let out_flag = arg_value(&args, "--out");

    let cfg = GridConfig::from_args(&args);
    let specs = grid_specs(grid);
    let ids: Vec<String> = specs.iter().map(CellSpec::id).collect();
    let result = match run_serial_checkpointed(&ids, &cfg, cell_payload, cell_from_payload, |i| {
        specs[i].run()
    }) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut failed = 0usize;
    for (i, outcome) in result.outcomes.iter().enumerate() {
        match outcome {
            RunOutcome::Skipped { resumed: true } => {
                eprintln!("cell {i} (`{}`): resumed from checkpoint", ids[i]);
            }
            RunOutcome::Failed { panic_msg } => {
                failed += 1;
                eprintln!("error: cell {i} (`{}`) failed: {panic_msg}", ids[i]);
            }
            _ => {}
        }
    }
    let Some(cells) = result.complete() else {
        eprintln!(
            "error: {failed} of {} cells failed{}",
            ids.len(),
            if cfg.checkpoint.is_some() {
                "; completed cells are journaled — rerun with --resume to finish"
            } else {
                ""
            }
        );
        std::process::exit(1);
    };

    let timings = !has("--no-timings");
    let doc = bench_doc(&cells, timings);
    if let Err(e) = validate_doc(&doc) {
        eprintln!("error: BENCH_scale schema check failed: {e}");
        std::process::exit(1);
    }
    if grid == Grid::Full {
        if let Err(e) = check_gates(&cells) {
            eprintln!("error: BENCH_scale acceptance gate failed: {e}");
            std::process::exit(1);
        }
    }

    let pretty = serde_json::to_string_pretty(&doc).expect("document serializes");
    if has("--json") {
        println!("{pretty}");
    } else {
        println!("{}", scaling_table(&cells));
    }

    let path = match (grid, out_flag) {
        (Grid::Smoke, None) => None, // smoke validates only
        (_, Some(p)) => Some(p),
        (_, None) => Some("BENCH_scale.json".to_string()),
    };
    match path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, format!("{pretty}\n")) {
                eprintln!("error: cannot write {p}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {p} ({} cells, schema ok)", cells.len());
        }
        None => eprintln!("BENCH_scale schema ok ({} cells, nothing written)", cells.len()),
    }
}
