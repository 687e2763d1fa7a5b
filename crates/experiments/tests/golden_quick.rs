//! Golden quick outputs: every figure/table binary, run at `--quick`
//! scale, prints exactly the committed `results/quick/<bin>.txt`.
//!
//! Figures read the model clock only, so their output is a pure
//! function of the code. The bins run with `TMPDIR` pointing at a
//! longer, nested directory, where the apps' working directories land,
//! so a charge that depended on a path's location would show; and a
//! busy loop competes for the CPU meanwhile, so host speed leaking into
//! a figure would show too. The bins also run with environment
//! variables that once selected a provider, a collector, a serde mode,
//! the buffer pool, tracing and a cost parameter: nothing in the
//! environment may move a figure.
//!
//! After an intended change to a figure, regenerate its file with
//! `cargo run --release -p experiments --bin <bin> -- --quick > results/quick/<bin>.txt`.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BINS: [(&str, &str); 10] = [
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("fig12", env!("CARGO_BIN_EXE_fig12")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
];

/// Variables that once changed a run from the environment, each set
/// to a non-default value.
const FORMER_KNOBS: [(&str, &str); 6] = [
    ("MONTSALVAT_PROVIDER", "passthrough"),
    ("MONTSALVAT_GC", "block"),
    ("MONTSALVAT_SERDE_FASTPATH", "0"),
    ("MONTSALVAT_SERDE_POOL", "0"),
    ("MONTSALVAT_TRACE", "1"),
    ("MONTSALVAT_RELAY_OVERHEAD_NS", "1"),
];

/// The first line where `got` and `want` differ, for the failure message.
fn first_difference(got: &str, want: &str) -> String {
    let mut want_lines = want.lines();
    for (i, line) in got.lines().enumerate() {
        let expected = want_lines.next().unwrap_or("<end of file>");
        if line != expected {
            return format!("line {}: got {line:?}, want {expected:?}", i + 1);
        }
    }
    format!("output ends early; next wanted line {:?}", want_lines.next())
}

#[test]
fn quick_outputs_match_the_committed_golden_files() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/quick");
    let scratch = std::env::temp_dir().join(format!("golden_quick_{}", std::process::id()));
    let tmpdir = scratch.join("a_much_longer_temporary_directory").join("nested_twice");
    std::fs::create_dir_all(&tmpdir).expect("create TMPDIR");

    let stop = Arc::new(AtomicBool::new(false));
    let busy = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut x = 0u64;
            while !stop.load(Ordering::Relaxed) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        })
    };

    // All bins run at once: they compete with each other as well as
    // with the busy loop. Their outputs are far below a pipe's buffer,
    // so collecting them in order cannot stall a later one.
    let children: Vec<_> = BINS
        .iter()
        .map(|&(name, exe)| {
            let child = Command::new(exe)
                .arg("--quick")
                .env("TMPDIR", &tmpdir)
                .envs(FORMER_KNOBS)
                .stdout(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
            (name, child)
        })
        .collect();
    let mut mismatches = Vec::new();
    for (name, child) in children {
        let out = child.wait_with_output().unwrap_or_else(|e| panic!("wait {name}: {e}"));
        assert!(out.status.success(), "{name} exited with {}", out.status);
        let path = golden.join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let got = String::from_utf8(out.stdout).expect("utf-8 output");
        if got != want {
            mismatches.push(format!("{name}: {}", first_difference(&got, &want)));
        }
    }

    stop.store(true, Ordering::Relaxed);
    busy.join().expect("busy loop");
    let leftovers = std::fs::read_dir(&tmpdir).map(|d| d.count()).unwrap_or(0);
    std::fs::remove_dir_all(&scratch).ok();
    assert!(
        mismatches.is_empty(),
        "quick outputs differ from results/quick:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(leftovers, 0, "every app removes its working directory");
}
