//! The `cargo xtask analyze` gate: three passes over the workspace.
//!
//! 1. **Conflict-abstraction soundness** — `proust_verify::analyze_all`
//!    checks the live request-building functions of every shipped wrapper
//!    against Definition 3.1 on bounded models, cross-checked by the
//!    Appendix E SAT reduction where an encoding exists, and — for the
//!    ordered map's range/point abstraction — by the symbolic interval
//!    pass, which proves soundness over the *unbounded* key domain and
//!    extracts concrete witness keys on refutation. Each verdict records
//!    per-pass wall time and which pass decided it.
//! 2. **Source lints** — the Proustian conventions in [`crate::lint`].
//! 3. **CI wiring** — the loom permutation tests, the Miri/TSan CI jobs
//!    and the benchmark job (`benchmark/run.sh --aa` plus its
//!    `--inject-fault` self-test) must stay wired: this pass verifies the
//!    test files, shim, and workflow entries exist (the jobs themselves
//!    run in CI; see `cargo xtask loom|miri|tsan`).
//!
//! The report is machine-readable JSON (the `proust-obs` dialect, schema
//! `proust-analysis-v1`), with per-structure verdicts, concrete
//! counterexamples on failure, and the static `false_conflict_rate` that
//! the bench harness places next to the measured rate.

use std::fs;
use std::path::Path;

use proust_obs::JsonValue;
use proust_verify::{analyze_all, FaultInjection, StructureVerdict};

use crate::lint::{self, LintFinding};

/// Everything `analyze` produced, plus the overall gate decision.
#[derive(Debug)]
pub struct Analysis {
    /// Pass 1 verdicts.
    pub verdicts: Vec<StructureVerdict>,
    /// Pass 2 findings.
    pub findings: Vec<LintFinding>,
    /// Pass 3 wiring checks: `(description, ok)`.
    pub wiring: Vec<(String, bool)>,
    /// Faults that were injected (recorded in the report).
    pub faults: FaultInjection,
}

impl Analysis {
    /// Whether every pass is green.
    pub fn ok(&self) -> bool {
        self.verdicts.iter().all(|v| v.sound && !v.checkers_disagree())
            && self.findings.is_empty()
            && self.wiring.iter().all(|(_, ok)| *ok)
    }
}

/// Files and workflow fragments pass 3 requires. Kept as data so the
/// report names exactly what went missing.
const WIRING: [(&str, WiringProbe); 8] = [
    ("loom shim vendored", WiringProbe::Exists("shims/loom/src/lib.rs")),
    ("STM loom permutation tests", WiringProbe::Exists("crates/stm/tests/loom_stm.rs")),
    ("abstract-lock loom permutation tests", WiringProbe::Exists("crates/core/tests/loom_lock.rs")),
    ("CI runs the loom job", WiringProbe::WorkflowMentions("--cfg loom")),
    ("CI runs the Miri job", WiringProbe::WorkflowMentions("miri")),
    ("CI runs the TSan job", WiringProbe::WorkflowMentions("thread")),
    ("CI runs the frozen benchmark", WiringProbe::WorkflowMentions("benchmark/run.sh --aa")),
    ("CI proves the benchmark's gate trips", WiringProbe::WorkflowMentions("--inject-fault")),
];

#[derive(Debug, Clone, Copy)]
enum WiringProbe {
    Exists(&'static str),
    WorkflowMentions(&'static str),
}

/// Run all three passes from the workspace `root`.
pub fn run(root: &Path, faults: FaultInjection) -> Analysis {
    let verdicts = analyze_all(&faults);
    let findings = lint::run(root);
    let workflow = fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap_or_default();
    let wiring = WIRING
        .iter()
        .map(|(what, probe)| {
            let ok = match probe {
                WiringProbe::Exists(path) => root.join(path).is_file(),
                WiringProbe::WorkflowMentions(needle) => workflow.contains(needle),
            };
            (what.to_string(), ok)
        })
        .collect();
    Analysis { verdicts, findings, wiring, faults }
}

/// Render the analysis as the `proust-analysis-v1` JSON report.
pub fn to_json(analysis: &Analysis) -> JsonValue {
    let verdicts = analysis
        .verdicts
        .iter()
        .map(|v| {
            JsonValue::obj([
                ("structure", JsonValue::str(v.name)),
                ("abstraction", JsonValue::str(v.abstraction)),
                ("sound", JsonValue::Bool(v.sound)),
                ("pairs_checked", JsonValue::u64(v.pairs_checked as u64)),
                (
                    "counterexample",
                    v.counterexample.as_deref().map_or(JsonValue::Null, JsonValue::str),
                ),
                ("false_conflicts", JsonValue::u64(v.false_conflicts as u64)),
                ("commuting_pairs", JsonValue::u64(v.commuting_pairs as u64)),
                ("false_conflict_rate", JsonValue::num(v.false_conflict_rate())),
                ("sat_sound", v.sat_sound.map_or(JsonValue::Null, JsonValue::Bool)),
                ("sat_witness", v.sat_witness.as_deref().map_or(JsonValue::Null, JsonValue::str)),
                ("symbolic_sound", v.symbolic_sound.map_or(JsonValue::Null, JsonValue::Bool)),
                (
                    "symbolic_witness",
                    v.symbolic_witness.as_deref().map_or(JsonValue::Null, JsonValue::str),
                ),
                ("decided_by", JsonValue::str(v.decided_by())),
                ("exhaustive_ns", JsonValue::u64(v.exhaustive_ns)),
                ("sat_ns", JsonValue::u64(v.sat_ns)),
                ("symbolic_ns", JsonValue::u64(v.symbolic_ns)),
            ])
        })
        .collect();
    let findings = analysis
        .findings
        .iter()
        .map(|f| {
            JsonValue::obj([
                ("file", JsonValue::str(f.file.as_str())),
                ("line", JsonValue::u64(f.line as u64)),
                ("lint", JsonValue::str(f.lint)),
                ("message", JsonValue::str(f.message.as_str())),
            ])
        })
        .collect();
    let wiring = analysis
        .wiring
        .iter()
        .map(|(what, ok)| {
            JsonValue::obj([("check", JsonValue::str(what.as_str())), ("ok", JsonValue::Bool(*ok))])
        })
        .collect();
    JsonValue::obj([
        ("schema", JsonValue::str("proust-analysis-v1")),
        (
            "fault_injection",
            JsonValue::obj([
                ("counter_threshold", JsonValue::num(analysis.faults.counter_threshold as f64)),
                (
                    "mislabel_striped_update",
                    JsonValue::Bool(analysis.faults.mislabel_striped_update),
                ),
                ("weaken_range_scan", JsonValue::Bool(analysis.faults.weaken_range_scan)),
                ("drop_boundary_conflict", JsonValue::Bool(analysis.faults.drop_boundary_conflict)),
            ]),
        ),
        (
            "passes",
            JsonValue::obj([
                (
                    "conflict_abstractions",
                    JsonValue::obj([
                        ("verdicts", JsonValue::Arr(verdicts)),
                        ("sound", JsonValue::Bool(analysis.verdicts.iter().all(|v| v.sound))),
                    ]),
                ),
                (
                    "lints",
                    JsonValue::obj([
                        ("findings", JsonValue::Arr(findings)),
                        ("clean", JsonValue::Bool(analysis.findings.is_empty())),
                    ]),
                ),
                (
                    "concurrency_wiring",
                    JsonValue::obj([
                        ("checks", JsonValue::Arr(wiring)),
                        ("wired", JsonValue::Bool(analysis.wiring.iter().all(|(_, ok)| *ok))),
                    ]),
                ),
            ]),
        ),
        ("ok", JsonValue::Bool(analysis.ok())),
    ])
}

/// Per-pass wall times, compact (`exhaustive 1.2ms, sat 0.3ms`); passes
/// that did not run are omitted.
fn render_pass_times(v: &StructureVerdict) -> String {
    let ms = |ns: u64| format!("{:.1}ms", ns as f64 / 1e6);
    let mut parts = vec![format!("exhaustive {}", ms(v.exhaustive_ns))];
    if v.sat_ns > 0 {
        parts.push(format!("sat {}", ms(v.sat_ns)));
    }
    if v.symbolic_ns > 0 {
        parts.push(format!("symbolic {}", ms(v.symbolic_ns)));
    }
    parts.join(", ")
}

/// Human-readable summary printed to stdout.
pub fn print_summary(analysis: &Analysis) {
    println!("pass 1: conflict-abstraction soundness (Definition 3.1)");
    for v in &analysis.verdicts {
        let sat = match v.sat_sound {
            Some(true) => ", sat: UNSAT (sound)",
            Some(false) => ", sat: SAT (refuted)",
            None => "",
        };
        let symbolic = match v.symbolic_sound {
            Some(true) => ", symbolic: sound over unbounded domain",
            Some(false) => ", symbolic: refuted",
            None => "",
        };
        if v.sound {
            println!(
                "  PASS {:<13} [{}] {} triples, static false-conflict rate {:.3}{}{} \
                 (decided by {}, {})",
                v.name,
                v.abstraction,
                v.pairs_checked,
                v.false_conflict_rate(),
                sat,
                symbolic,
                v.decided_by(),
                render_pass_times(v),
            );
        } else {
            println!("  FAIL {:<13} [{}]{}{}", v.name, v.abstraction, sat, symbolic);
            if let Some(cex) = &v.counterexample {
                println!("       counterexample: {cex}");
            }
            if let Some(witness) = &v.sat_witness {
                println!("       sat witness: {witness}");
            }
            if let Some(witness) = &v.symbolic_witness {
                println!("       symbolic witness: {witness}");
            }
        }
        if v.checkers_disagree() {
            println!("       WARNING: the verification passes disagree — checker bug");
        }
    }
    println!("pass 2: source lints");
    if analysis.findings.is_empty() {
        println!("  PASS no findings");
    } else {
        for f in &analysis.findings {
            println!("  FAIL {}:{} [{}] {}", f.file, f.line, f.lint, f.message);
        }
    }
    println!("pass 3: CI wiring");
    for (what, ok) in &analysis.wiring {
        println!("  {} {}", if *ok { "PASS" } else { "FAIL" }, what);
    }
}
