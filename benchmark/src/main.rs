//! The repo's benchmark. One command, three uses:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload, as `BENCHMARK.json` specifies it; the last line of standard
//!   output is the result object the driver parses.
//! * no `--workload` — the suite: every workload untraced then traced,
//!   each in a child process as the driver runs it; every metric printed
//!   by name with its unit, the ladder, and the result document and spans
//!   gathered under `benchmark/out/`.
//! * `--aa` — the suite twice on the same build, each end-to-end metric's
//!   two values held against its bound.
//!
//! Exits non-zero when a validity gate trips. See `benchmark/README.md`.

mod cpu;
mod gen;
mod lib_maps;
mod report;
mod rungs;
mod serve;
mod stats;
mod trace;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use proust_bench::args::{usage_exit, Args};
use proust_stm::obs::JsonValue;

use report::{Declared, Outcome, OUT_DIR};
use trace::Spans;

const USAGE: &str = "\
usage: bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--aa] [--inject-fault]
  --workload NAME  run one workload (default: the whole suite, untraced and traced)
  --seed N         seed of every generated input (default 42)
  --seconds S      measured seconds per run (default: run_seconds of BENCHMARK.json)
  --trace 0|1      0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics
  --aa             run the suite twice and compare every end-to-end metric with its bound
  --inject-fault   truncate the ack journal before verify_journal (shows the gate trips)";

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub inject_fault: bool,
}

impl Run {
    /// Distinguishes this process's scratch files from a concurrent run's.
    pub fn tag(&self) -> String {
        std::process::id().to_string()
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn workload_names() -> Vec<String> {
    serve::SPECS
        .iter()
        .map(|spec| spec.name)
        .chain(lib_maps::SPECS.iter().map(|spec| spec.name))
        .map(str::to_string)
        .collect()
}

/// Share of a traced run's seconds spent on the layer rungs.
const RUNG_SHARE: f64 = 0.35;

/// Run `workload` once and hold the outcome against the declaration: a
/// traced run also climbs every rung, per-layer metrics of layers not on
/// the workload's path read 0, and the names emitted must be exactly the
/// names declared.
fn run_workload(
    declared: &Declared,
    workload: &str,
    run: &Run,
    spans: &Spans,
) -> Result<Outcome, String> {
    spans.set_workload(workload);
    let mut outcome = if let Some(spec) = serve::SPECS.iter().find(|spec| spec.name == workload) {
        serve::run(*spec, run, spans)?
    } else if let Some(spec) = lib_maps::SPECS.iter().find(|spec| spec.name == workload) {
        lib_maps::run(*spec, run, spans)?
    } else {
        return Err(format!("unknown workload {workload:?}; one of {:?}", workload_names()));
    };
    if run.traced {
        rungs::run_all(run, run.seconds * RUNG_SHARE, spans, &mut outcome)?;
        outcome.fill_missing(&declared.per_layer);
    }
    outcome.metrics_json(declared.expected(run.traced))?;
    Ok(outcome)
}

/// The command line: the run's parameters, which workload (all of them
/// when `None`), and whether to run the suite twice.
fn parse_cli(default_seconds: f64) -> (Run, Option<String>, bool) {
    let mut run = Run { seed: 42, seconds: default_seconds, traced: false, inject_fault: false };
    let (mut workload, mut aa) = (None, false);
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = Some(args.value("--workload")),
            "--seed" => run.seed = args.parsed("--seed"),
            "--seconds" => {
                run.seconds = args.parsed("--seconds");
                if !(run.seconds > 0.0 && run.seconds <= 60.0) {
                    args.fail("--seconds must be in (0, 60]");
                }
            }
            "--trace" => {
                run.traced = match args.value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    other => args.fail(format_args!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--aa" => aa = true,
            "--inject-fault" => run.inject_fault = true,
            other => args.unknown(other),
        }
    }
    (run, workload, aa)
}

fn out_path(name: &str) -> PathBuf {
    Path::new(OUT_DIR).join(name)
}

fn write_out(name: &str, doc: &JsonValue) {
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(out_path(name), doc.to_json_pretty()));
    if let Err(err) = written {
        eprintln!("{}: {err}", out_path(name).display());
    }
}

fn read_out(name: &str) -> Option<JsonValue> {
    JsonValue::parse(&std::fs::read_to_string(out_path(name)).ok()?).ok()
}

fn result_name(workload: &str, traced: bool) -> String {
    format!("result-{workload}-trace{}.json", u8::from(traced))
}

/// One workload, one mode, the result line last: what the driver runs.
fn single(declared: &Declared, workload: &str, run: &Run) -> bool {
    let fingerprint = report::fingerprint();
    println!("fingerprint {}", fingerprint.to_json());
    println!("seed {} seconds {}", run.seed, run.seconds);
    let spans = Spans::new(run.traced);
    let expected = declared.expected(run.traced);
    let finished = run_workload(declared, workload, run, &spans);
    if run.traced {
        write_out("trace.json", &spans.to_json());
    }
    match finished {
        Ok(outcome) => {
            report::print_run(workload, run.traced, &outcome, expected);
            if run.traced {
                report::print_ladder(workload, &outcome);
                println!("-- where the run's time went (self time per span name, seconds) --");
                for (name, ns) in spans.self_times_ns() {
                    println!("  {name:<40} {:>9.3}", ns as f64 / 1e9);
                }
            }
            let doc = JsonValue::obj([
                ("fingerprint", fingerprint),
                ("runs", JsonValue::Arr(vec![report::run_json(workload, run, &outcome)])),
            ]);
            write_out(&result_name(workload, run.traced), &doc);
            let metrics = outcome.metrics_json(expected).expect("run_workload checked the names");
            println!("{}", report::result_line(true, outcome.attempted, outcome.failed, metrics));
            true
        }
        Err(reason) => {
            println!("INVALID {workload}: {reason}");
            println!("{}", report::result_line(false, 1, 1, JsonValue::obj([])));
            false
        }
    }
}

/// Run `workload` in a child process of this binary, as the driver does:
/// a process per run, so one run's memory, tracer state and page cache
/// never reach the next. Its output passes through; returns the `metrics`
/// of its result line, or `None` when the run was invalid.
fn child(workload: &str, run: &Run) -> Option<JsonValue> {
    let exe = std::env::current_exe().ok()?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &run.seed.to_string()]).args([
        "--seconds",
        &run.seconds.to_string(),
        "--trace",
        if run.traced { "1" } else { "0" },
    ]);
    if run.inject_fault {
        command.arg("--inject-fault");
    }
    let mut child = command.stdout(Stdio::piped()).spawn().ok()?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take()?).lines().map_while(Result::ok) {
        // The result line is for machines; the suite prints the rest.
        if !last.is_empty() {
            println!("{last}");
        }
        last = line;
    }
    let status = child.wait().ok()?;
    let result = JsonValue::parse(&last).ok()?;
    (status.success() && result.get("correct")?.as_bool()?)
        .then(|| result.get("metrics").cloned())?
}

/// The suite: every workload untraced then traced, each in its own
/// process; the per-run result documents and spans are gathered into
/// `result<label>.json` and `trace.json`. Returns each workload's
/// end-to-end metrics, or `None` where a gate tripped.
fn suite(declared: &Declared, run: &Run, label: &str) -> Vec<(String, Option<JsonValue>)> {
    let mut runs = Vec::new();
    let mut spans: Vec<JsonValue> = Vec::new();
    let mut end_to_end = Vec::new();
    for workload in &declared.workloads {
        let mut untraced = None;
        for traced in [false, true] {
            let run = Run { traced, ..*run };
            let Some(metrics) = child(workload, &run) else {
                untraced = None;
                break;
            };
            if let Some(JsonValue::Arr(list)) =
                read_out(&result_name(workload, traced)).and_then(|doc| doc.get("runs").cloned())
            {
                runs.extend(list);
            }
            if traced {
                if let Some(JsonValue::Arr(list)) =
                    read_out("trace.json").and_then(|doc| doc.get("spans").cloned())
                {
                    spans.extend(trace::renumbered(list, spans.len() as u64));
                }
            } else {
                untraced = Some(metrics);
            }
        }
        end_to_end.push((workload.clone(), untraced));
    }
    write_out(
        &format!("result{label}.json"),
        &JsonValue::obj([("fingerprint", report::fingerprint()), ("runs", JsonValue::Arr(runs))]),
    );
    write_out("trace.json", &JsonValue::obj([("spans", JsonValue::Arr(spans))]));
    end_to_end
}

/// `--aa`: the same build measured twice; every end-to-end metric of
/// every workload must agree with itself inside its own bound.
fn compare(
    declared: &Declared,
    first: &[(String, Option<JsonValue>)],
    second: &[(String, Option<JsonValue>)],
) -> bool {
    let mut ok = true;
    println!("-- A/A: same build, two suites --");
    println!(
        "  {:<20} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let value = |metrics: &JsonValue, name: &str| metrics.get(name)?.get("value")?.as_f64();
    for ((workload, a), (_, b)) in first.iter().zip(second) {
        let (Some(a), Some(b)) = (a, b) else {
            println!("  {workload:<20} invalid in one of the suites");
            ok = false;
            continue;
        };
        for decl in &declared.end_to_end {
            let (Some(x), Some(y)) = (value(a, &decl.name), value(b, &decl.name)) else { continue };
            // How much worse the second reads than the first, as the
            // driver reads it; an improvement never fails.
            let worse = if decl.better == "higher" { (x - y) / x } else { (y - x) / x };
            let bound = decl.bound.unwrap_or(0.0);
            let verdict = if worse > bound { "  EXCEEDS" } else { "" };
            ok &= worse <= bound;
            println!(
                "  {workload:<20} {:<18} {x:>14.4} {y:>14.4} {:>+7.2}% {:>6.0}%{verdict}",
                decl.name,
                (y - x) / x * 100.0,
                bound * 100.0
            );
        }
    }
    ok
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!(
            "proust-benchmark: this is a debug build; its numbers would be several times off.\n\
             Run it through benchmark/run.sh, which builds with --release."
        );
        std::process::exit(2);
    }
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|err| format!("BENCHMARK.json (run from the repository root): {err}"))
        .and_then(|text| Declared::parse(&text))
        .unwrap_or_else(|reason| usage_exit(USAGE, reason));
    let (run, workload, aa) = parse_cli(declared.run_seconds);
    let ok = if let Some(workload) = &workload {
        single(&declared, workload, &run)
    } else {
        let first = suite(&declared, &run, "");
        let mut ok = first.iter().all(|(_, metrics)| metrics.is_some());
        if aa {
            let second = suite(&declared, &run, "-second");
            ok &= compare(&declared, &first, &second);
        }
        ok
    };
    std::process::exit(if ok { 0 } else { 1 });
}
