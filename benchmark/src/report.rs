//! What a run reports and how: the metric names `BENCHMARK.json` declares,
//! the one-line result the driver parses, the fingerprinted result
//! document, and the printed ladder.

use std::process::Command;

use proust_stm::obs::JsonValue;

use crate::Run;

/// Where a run may write: spans, result documents, WAL directories and
/// ack journals. Inside the benchmark's own directory, ignored by git.
pub const OUT_DIR: &str = "benchmark/out";

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Share of the parent's median a change may lose; end-to-end only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads: it is the one
/// place metric names, units and bounds are written down.
#[derive(Debug, Clone)]
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Declared {
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = JsonValue::parse(text).map_err(|err| format!("BENCHMARK.json: {err}"))?;
        let list = |key: &str| {
            doc.get(key).and_then(JsonValue::as_array).ok_or(format!("BENCHMARK.json: no {key}"))
        };
        let field = |item: &JsonValue, key: &str| {
            item.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricDecl {
                        name: field(item, "name")?,
                        unit: field(item, "unit")?,
                        better: field(item, "better")?,
                        bound: item.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declared {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|item| field(item, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run in this mode must emit, all of them.
    pub fn expected(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Request units (serving) or transactions (library) issued in the
    /// measured windows.
    pub attempted: u64,
    /// Of those, the ones refused, errored or given up on.
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Sizes actually used and sample counts behind the percentiles.
    pub sizing: Vec<(String, f64)>,
    /// Measured values that are not declared metrics but that the ladder
    /// or a reader needs beside them.
    pub context: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome { attempted, failed, ..Outcome::default() }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn size(&mut self, name: &str, value: f64) {
        self.sizing.push((name.to_string(), value));
    }

    pub fn keep(&mut self, name: &str, value: f64) {
        self.context.push((name.to_string(), value));
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().chain(&self.context).find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every declared metric no workload-specific code reported reads 0:
    /// the layer is not on this workload's path.
    pub fn fill_missing(&mut self, declared: &[MetricDecl]) {
        for decl in declared {
            if self.get(&decl.name).is_none() {
                self.metric(&decl.name, 0.0);
            }
        }
    }

    /// The `metrics` object of the result line, in declared order. Fails
    /// unless the emitted names are exactly the declared ones and every
    /// value is a finite number.
    pub fn metrics_json(&self, declared: &[MetricDecl]) -> Result<JsonValue, String> {
        for (name, value) in &self.metrics {
            if !declared.iter().any(|decl| decl.name == *name) {
                return Err(format!("metric {name} is not declared in BENCHMARK.json"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
        }
        let mut pairs = Vec::new();
        for decl in declared {
            let mut values = self.metrics.iter().filter(|(name, _)| *name == decl.name);
            let (Some((_, value)), None) = (values.next(), values.next()) else {
                return Err(format!("metric {} must be emitted exactly once", decl.name));
            };
            pairs.push((
                decl.name.as_str(),
                JsonValue::obj([
                    ("value", JsonValue::Num(*value)),
                    ("unit", JsonValue::str(&decl.unit)),
                ]),
            ));
        }
        Ok(JsonValue::obj(pairs))
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: JsonValue) -> String {
    JsonValue::obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::u64(attempted.max(1))),
        ("failed", JsonValue::u64(failed)),
        ("metrics", metrics),
    ])
    .to_json()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and build a result was taken on. A number without these is
/// not comparable with anything.
pub fn fingerprint() -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |text| text.trim().to_string());
    JsonValue::obj([
        ("nproc", JsonValue::u64(crate::cpu::cpus() as u64)),
        ("cpu_model", JsonValue::str(cpu)),
        ("kernel", JsonValue::str(kernel)),
        ("rustc", JsonValue::str(command_line("rustc", &["-V"]))),
        // The driver's checkout is not a git repository: "unknown" there.
        ("git_sha", JsonValue::str(command_line("git", &["rev-parse", "--short", "HEAD"]))),
        ("profile", JsonValue::str("release")),
    ])
}

fn pairs_json(pairs: &[(String, f64)]) -> JsonValue {
    JsonValue::obj(pairs.iter().map(|(name, value)| (name.as_str(), JsonValue::Num(*value))))
}

/// One run as a result-document entry.
pub fn run_json(workload: &str, run: &Run, outcome: &Outcome) -> JsonValue {
    JsonValue::obj([
        ("workload", JsonValue::str(workload)),
        ("seed", JsonValue::u64(run.seed)),
        ("seconds", JsonValue::Num(run.seconds)),
        ("traced", JsonValue::Bool(run.traced)),
        ("attempted", JsonValue::u64(outcome.attempted)),
        ("failed", JsonValue::u64(outcome.failed)),
        ("metrics", pairs_json(&outcome.metrics)),
        ("sizing", pairs_json(&outcome.sizing)),
        ("context", pairs_json(&outcome.context)),
        ("notes", JsonValue::Arr(outcome.notes.iter().map(JsonValue::str).collect())),
    ])
}

/// Print every metric of a run by name, with its unit.
pub fn print_run(workload: &str, traced: bool, outcome: &Outcome, declared: &[MetricDecl]) {
    println!("== {workload} ({}) ==", if traced { "traced run: per-layer" } else { "end to end" });
    for decl in declared {
        if let Some(value) = outcome.get(&decl.name) {
            let bound =
                decl.bound.map_or(String::new(), |b| format!("  [bound {:.0}%]", b * 100.0));
            println!("  {:<34} {:>16.4} {}{bound}", decl.name, value, decl.unit);
        }
    }
    println!(
        "  attempted {} failed {} ({})",
        outcome.attempted,
        outcome.failed,
        outcome
            .sizing
            .iter()
            .map(|(name, value)| format!("{name} {value}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

/// The ladder: `lat_p50_us` of a serving workload composed from the rungs
/// measured in isolation, with what they do not explain as its own line.
pub fn print_ladder(workload: &str, outcome: &Outcome) {
    let Some(lat_p50) = outcome.get("lat_p50_us") else { return };
    let rung = |name: &str| outcome.get(name).unwrap_or(0.0);
    let durable = rung("wal.fsyncs") > 0.0;
    let mut lines = vec![
        (
            "codec: decode + encode one frame",
            (rung("codec.decode_ns_per_frame") + rung("codec.encode_ns_per_frame")) / 1e3,
        ),
        ("reactor: echo round trip p50 (loopback, null handler)", rung("reactor.echo_rtt_p50_us")),
        (
            "server: engine resolve + execute, burst of 1",
            rung("server.engine_ns_per_unit.b1") / 1e3,
        ),
    ];
    if durable {
        lines.push(("wal: append one record", rung("wal.append_ns") / 1e3));
        lines.push(("wal: fsync p50", rung("wal.sync_p50_us")));
    }
    let explained: f64 = lines.iter().map(|(_, us)| us).sum();
    println!("-- ladder: lat_p50_us on {workload}, microseconds --");
    for (what, us) in &lines {
        println!("  {what:<56} {us:>10.3}");
    }
    println!(
        "  {:<56} {:>10.3}",
        "unattributed residual (client, wake-ups, queueing)",
        lat_p50 - explained
    );
    println!("  {:<56} {:>10.3}", "= lat_p50_us as the client saw it", lat_p50);
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declaration_stays_inside_the_contract() {
        let declared = Declared::parse(BENCHMARK_JSON).unwrap();
        assert!((2..=8).contains(&declared.workloads.len()));
        assert!((1..=16).contains(&declared.end_to_end.len()));
        assert!((1..=128).contains(&declared.per_layer.len()));
        assert!(
            (1.0..=60.0).contains(&declared.run_seconds) && declared.run_seconds.fract() == 0.0
        );
        let mut names: Vec<&String> = declared
            .workloads
            .iter()
            .chain(declared.end_to_end.iter().map(|m| &m.name))
            .chain(declared.per_layer.iter().map(|m| &m.name))
            .collect();
        assert!(names.iter().all(|name| valid_name(name)), "names must match [A-Za-z0-9_.-]+");
        names.sort();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        for metric in declared.end_to_end.iter().chain(&declared.per_layer) {
            assert!(matches!(metric.better.as_str(), "higher" | "lower"), "{}", metric.name);
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16, "{}", metric.name);
        }
        for metric in &declared.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        assert!(declared.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = declared.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn declared_workloads_are_the_implemented_ones() {
        let declared = Declared::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(declared.workloads, crate::workload_names());
    }

    #[test]
    fn result_line_lists_exactly_the_declared_names() {
        let declared = Declared::parse(BENCHMARK_JSON).unwrap();
        let mut outcome = Outcome::new(10, 1);
        for decl in &declared.end_to_end {
            outcome.metric(&decl.name, 1.5);
        }
        let metrics = outcome.metrics_json(&declared.end_to_end).unwrap();
        let line = result_line(true, outcome.attempted, outcome.failed, metrics);
        let doc = JsonValue::parse(&line).unwrap();
        let JsonValue::Obj(top) = &doc else { panic!("result line is an object") };
        let keys: Vec<&str> = top.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let JsonValue::Obj(emitted) = doc.get("metrics").unwrap() else { panic!("metrics object") };
        let emitted: Vec<&str> = emitted.iter().map(|(key, _)| key.as_str()).collect();
        let wanted: Vec<&str> = declared.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(emitted, wanted);

        // One name short, one name extra, one value not a number: refused.
        let mut short = outcome.clone();
        short.metrics.pop();
        assert!(short.metrics_json(&declared.end_to_end).is_err());
        let mut extra = outcome.clone();
        extra.metric("not.declared", 1.0);
        assert!(extra.metrics_json(&declared.end_to_end).is_err());
        let mut nan = outcome.clone();
        nan.metrics[0].1 = f64::NAN;
        assert!(nan.metrics_json(&declared.end_to_end).is_err());
    }

    #[test]
    fn missing_layers_read_zero() {
        let declared = Declared::parse(BENCHMARK_JSON).unwrap();
        let mut outcome = Outcome::new(1, 0);
        outcome.metric(&declared.per_layer[0].name, 3.0);
        outcome.fill_missing(&declared.per_layer);
        assert_eq!(outcome.metrics.len(), declared.per_layer.len());
        assert!(outcome.metrics_json(&declared.per_layer).is_ok());
    }
}
