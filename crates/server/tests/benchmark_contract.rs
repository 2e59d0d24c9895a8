//! Frozen-API contract: the server surface that `benchmark/` compiles
//! against and the STATS keys its traced run reads. The benchmark builds
//! from its own lockfile, outside the workspace, so a break there would
//! otherwise surface only when someone runs it; naming the surface here
//! makes the same break fail `cargo test`.

use proust_server::proto::Cmd;
use proust_server::{Engine, Op, Resp, ServerConfig, StageBreakdown, Unit};
use proust_stm::obs::{JsonValue, STAGES};

/// One response list per unit, as `execute` returns them.
type Responses = Vec<Vec<Resp>>;

/// The engine as the benchmark's engine rung builds it.
fn benchmark_engine() -> Engine {
    Engine::new(&ServerConfig { shards: 1, trace_sample: 0, ..ServerConfig::default() })
}

#[test]
fn engine_entry_points_keep_their_signatures() {
    let _: fn(&ServerConfig) -> Engine = Engine::new;
    let _: fn(&Engine, &Cmd) -> Result<Op, String> = Engine::resolve;
    let _: fn(&Engine, &[Unit]) -> Responses = Engine::execute;
    let _: fn(&Engine, &[Unit]) -> (Responses, StageBreakdown) = Engine::execute_stages;
}

#[test]
fn every_command_the_benchmark_builds_resolves_and_executes() {
    let engine = benchmark_engine();
    let name = || "contract".to_string();
    let cmds = [
        Cmd::MapPut { name: name(), key: 1, value: 10 },
        Cmd::MapGet { name: name(), key: 1 },
        Cmd::MapDel { name: name(), key: 1 },
        Cmd::CounterInc { name: name(), delta: 2 },
        Cmd::QueueEnq { name: name(), value: 7 },
        Cmd::QueueDeq { name: name() },
        Cmd::OrdPut { name: name(), key: 3, value: 30 },
        Cmd::OrdScan { name: name(), lo: 0, hi: 10 },
    ];
    let ops = cmds.iter().map(|cmd| engine.resolve(cmd)).collect::<Result<Vec<Op>, String>>();
    let unit = Unit { ops: ops.expect("registries have room") };
    let (responses, _) = engine.execute_stages(std::slice::from_ref(&unit));
    let expected = vec![
        Resp::Ok,
        Resp::Value(10),
        Resp::Value(10),
        Resp::Ok,
        Resp::Ok,
        Resp::Value(7),
        Resp::Ok,
        Resp::Entries(vec![(3, 30)]),
    ];
    assert_eq!(responses, [expected]);
    assert_eq!(engine.execute(&[unit]).len(), 1);
}

#[test]
fn stats_keys_the_traced_run_reads_are_present() {
    let stats = benchmark_engine().stats_json(None);
    for key in [
        "requests",
        "starts",
        "commits",
        "conflicts",
        "serial_escalations",
        "lock_wait_ns",
        "busy",
        "batch_fallbacks",
        "batch_occupancy_p50",
        "reactor_wakeups",
        "reactor_backpressure",
        "wal_records",
        "wal_fsyncs",
        "wal_append_bytes",
    ] {
        assert!(stats.get(key).and_then(JsonValue::as_u64).is_some(), "STATS lacks {key}");
    }
    for field in ["stage_p50_ns", "stage_p99_ns"] {
        let stages = stats.get(field).unwrap_or_else(|| panic!("STATS lacks {field}"));
        for stage in STAGES {
            let stage = stage.name();
            assert!(stages.get(stage).and_then(JsonValue::as_u64).is_some(), "{field}.{stage}");
        }
    }
}
