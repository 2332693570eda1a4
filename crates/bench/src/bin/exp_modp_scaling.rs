//! Mod-p vs exact incremental kernel maintenance (`BENCH_modp.json`).
//!
//! Flags:
//!
//! * `--quick` — reduced grid; `--smoke` — tiny grid, schema check only
//!   (writes no file unless `--out` is given);
//! * `--json` — print the benchmark document instead of the markdown
//!   table;
//! * `--out PATH` — write the document to `PATH` (default
//!   `BENCH_modp.json` for non-smoke runs);
//! * `--checkpoint PATH` / `--resume` — journal each completed cell to
//!   `PATH` and, on resume, replay it instead of re-timing (see
//!   `docs/RUNNER.md`);
//! * `--inject-panic N` / `ANONET_FAIL_CELL=N` — fault-injection hook;
//! * `--no-timings` — omit every wall-clock field from the document,
//!   leaving only deterministic facts (rank, echelon digest), so every
//!   run emits a byte-identical document (`scripts/check.sh` compares
//!   the smoke grid's against `tests/golden/exp_modp_scaling_smoke.json`);
//! * `--lint-checkpoint PATH` — validate a journal and exit;
//! * `--lint-bench PATH` — re-parse and gate a committed
//!   `BENCH_modp.json` and exit.
//!
//! The document is always schema-validated in-process before anything
//! is written, and full-grid runs must additionally pass the
//! acceptance gates (≥ 5× speedup at the largest shared cell, one
//! `n ≥ 512` cell under the exact `n = 128` baseline, and the largest
//! fast cell reaching `n ≥ 10^5` rows at ≥ 3× over the scalar path).

use anonet_bench::experiments::checkpoint::{lint_journal, run_serial_checkpointed};
use anonet_bench::experiments::modp_scaling::{
    bench_doc, cell_from_payload, cell_payload, check_gates, grid_specs, lint_committed,
    scaling_table, validate_doc, CellSpec, Grid,
};
use anonet_bench::experiments::runner::{arg_value, GridConfig, RunOutcome};

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
                println!("{path}: schema, speedup floors and fast scaling target ok");
                return;
            }
            Err(e) => {
                eprintln!("error: BENCH_modp lint failed: {e}");
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

    let doc = bench_doc(&cells, !has("--no-timings"));
    if let Err(e) = validate_doc(&doc) {
        eprintln!("error: BENCH_modp schema check failed: {e}");
        std::process::exit(1);
    }
    if grid == Grid::Full {
        if let Err(e) = check_gates(&cells) {
            eprintln!("error: BENCH_modp acceptance gate failed: {e}");
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
        (_, None) => Some("BENCH_modp.json".to_string()),
    };
    match path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, format!("{pretty}\n")) {
                eprintln!("error: cannot write {p}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {p} ({} cells, schema ok)", cells.len());
        }
        None => eprintln!("BENCH_modp schema ok ({} cells, nothing written)", cells.len()),
    }
}
