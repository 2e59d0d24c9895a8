//! Golden surface test: a fresh engine driven through a fixed request
//! script must expose exactly the STATS key list, the Prometheus family
//! headers, and the per-op label set recorded in `tests/golden/`. Those
//! files are the contract scrapers and dashboards read; a refactor of the
//! engine must leave them byte-identical.

use proust_server::proto::{parse_line, Line};
use proust_server::{Engine, ServerConfig, Unit};
use proust_stm::obs::{parse_exposition, JsonValue};

/// One request per op kind, so every per-op series is populated.
const SCRIPT: &[&str] = &[
    "PUT m 1 10",
    "GET m 1",
    "DEL m 1",
    "INC c 2",
    "GET c",
    "ENQ q 7",
    "DEQ q",
    "OPUT o 1 11",
    "OGET o 1",
    "SCAN o 0 10",
    "ODEL o 1",
];

/// Run the script on a fresh engine, recording each op's latency the way
/// the serving path does.
fn scripted_engine() -> Engine {
    let engine = Engine::new(&ServerConfig::default());
    for line in SCRIPT {
        let Ok(Line::Data(cmd)) = parse_line(line) else {
            panic!("{line:?} is not a data command");
        };
        let op = engine.resolve(&cmd).expect("registry has room");
        engine.record_op_latency(&op, 1_000);
        engine.execute(&[Unit { ops: vec![op] }]);
    }
    engine
}

fn golden_lines(text: &str) -> Vec<&str> {
    text.lines().filter(|line| !line.is_empty()).collect()
}

fn object_keys(value: &JsonValue) -> Vec<&str> {
    match value {
        JsonValue::Obj(fields) => fields.iter().map(|(key, _)| key.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn stats_keys_match_the_golden_list() {
    let stats = scripted_engine().stats_json(None);
    assert_eq!(object_keys(&stats), golden_lines(include_str!("golden/stats_keys.txt")));
    // The server serves Proustian maps only; the key stays for scrapers.
    assert_eq!(stats.get("baseline"), Some(&JsonValue::Null));
}

#[test]
fn prometheus_headers_match_the_golden_list() {
    let text = scripted_engine().prometheus(None);
    let headers: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("# HELP ") || line.starts_with("# TYPE "))
        .collect();
    assert_eq!(headers, golden_lines(include_str!("golden/prometheus_headers.txt")));
}

#[test]
fn op_labels_match_the_golden_list() {
    let engine = scripted_engine();
    let expected = golden_lines(include_str!("golden/op_labels.txt"));
    let stats = engine.stats_json(None);
    let op_p99 = stats.get("op_p99_ns").expect("op_p99_ns object");
    assert_eq!(object_keys(op_p99), expected);
    let text = engine.prometheus(None);
    let samples = parse_exposition(&text).expect("payload parses");
    let mut labels: Vec<&str> = Vec::new();
    for sample in &samples {
        if sample.name == "proust_request_latency_ns_count" {
            labels.push(sample.label("op").expect("op label"));
        }
    }
    assert_eq!(labels, expected);
}
