//! `proust-server` rejects unknown flags with a usage message on stderr
//! and exit code 2, before binding anything. The table holds the retired
//! `--baseline` and the six tuning flags that became constants; each is
//! given a value it once accepted.

use std::process::Command;

const RETIRED_FLAGS: [(&str, &str); 7] = [
    ("--baseline", "coarse"),
    ("--cm", "karma"),
    ("--exhaustion", "giveup"),
    ("--max-retries", "64"),
    ("--max-batch", "8"),
    ("--batch-patience", "2"),
    ("--wal-segment-bytes", "1048576"),
];

#[test]
fn retired_flags_are_unknown_arguments() {
    for (flag, value) in RETIRED_FLAGS {
        let out = Command::new(env!("CARGO_BIN_EXE_proust-server"))
            .args([flag, value])
            .output()
            .expect("spawn proust-server");
        assert_eq!(out.status.code(), Some(2), "{flag}: expected exit 2, got {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown argument {flag:?}")), "{flag}: {stderr}");
        assert!(stderr.contains("usage: proust-server"), "{flag}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{flag}: nothing may be served: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
