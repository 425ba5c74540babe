//! `repro`'s usage errors: exit 2 and the id list, and no experiment run.

use std::process::Command;

#[test]
fn unknown_ids_and_flags_are_usage_errors() {
    for args in ["", "table9", "all --csv", "table1 --json", "trace --export"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args.split_whitespace())
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty() && err.contains("usage: repro"),
            "{args:?}: {err}"
        );
        assert!(err.contains("order: table1 table2 eq3"), "{args:?}: {err}");
    }
}
