//! `BENCHMARK.json` lists exactly the workloads and metrics the
//! benchmark prints, with the same units and directions.

use perfbench::report::{Spec, END_TO_END, PER_LAYER};
use perfbench::workloads;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The body of the top-level array `key`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    &body[..body.find("\n  ]").expect("array closes")]
}

fn check(json: &str, key: &str, specs: &[Spec]) {
    let body = section(json, key);
    assert_eq!(body.matches("\"name\"").count(), specs.len(), "{key} entries");
    for s in specs {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            s.name, s.unit, s.better
        );
        assert!(body.contains(&entry), "{key} lacks {entry}");
    }
}

#[test]
fn metrics_match_the_specs() {
    let json = benchmark_json();
    check(&json, "end_to_end", END_TO_END);
    check(&json, "per_layer", PER_LAYER);
}

#[test]
fn workloads_match() {
    let json = benchmark_json();
    let body = section(&json, "workloads");
    assert_eq!(body.matches("\"name\"").count(), workloads::ALL.len());
    for w in workloads::ALL {
        assert!(body.contains(&format!("{{\"name\": \"{}\"", w.name)), "missing {}", w.name);
    }
}
