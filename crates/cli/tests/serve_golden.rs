//! The `ddcr serve` reply stream of a recorded session, pinned byte for
//! byte: every decision, bound, slack and rejection-term citation.
//!
//! `tests/data/serve_churn.jsonl` is a 1600-line session on z = 800
//! attachment points in the serve-churn benchmark mix (joins, leave churn,
//! `telemetry` flows, `status`), plus rejected hogs, forced flows, a
//! forced hog that breaks the feasible-set invariant until its station
//! leaves, and requests that must fail in band without changing anything
//! (absent or out-of-fabric stations, a double join, and a flow and a
//! forced flow whose `B_DDCR` terms overflow 64-bit integers).
//! `tests/data/gen_serve_churn.py` writes it;
//! `tests/data/serve_churn.replies` is the reply log it must produce.

use std::fs::File;
use std::process::Command;

#[test]
fn serve_churn_session_replies_match_the_golden_log() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    let session = File::open(format!("{data}/serve_churn.jsonl")).expect("session file");
    let golden = std::fs::read_to_string(format!("{data}/serve_churn.replies")).expect("reply log");
    let out = Command::new(env!("CARGO_BIN_EXE_ddcr"))
        .args(["serve", "--sources", "800"])
        .stdin(session)
        .output()
        .expect("binary runs");
    // The forced hog is a safety violation: the session must end non-zero.
    assert!(!out.status.success(), "forced violation must exit non-zero");
    let replies = String::from_utf8(out.stdout).expect("utf-8 replies");
    assert_eq!(replies.matches("\"ok\":false").count(), 6, "in-band errors");
    for (n, (got, want)) in replies.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "reply {} differs from the golden log", n + 1);
    }
    assert_eq!(replies.lines().count(), golden.lines().count());
    assert_eq!(replies, golden);
}
