//! `proust-server` rejects unknown flags with a usage message on stderr
//! and exit code 2, before binding anything.

use std::process::Command;

#[test]
fn baseline_flag_is_an_unknown_argument() {
    let out = Command::new(env!("CARGO_BIN_EXE_proust-server"))
        .args(["--baseline", "coarse"])
        .output()
        .expect("spawn proust-server");
    assert_eq!(out.status.code(), Some(2), "expected exit 2, got {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument \"--baseline\""), "{stderr}");
    assert!(stderr.contains("usage: proust-server"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing may be served: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
