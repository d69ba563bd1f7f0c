//! Self-tests of the benchmark: tiny runs of every workload emit exactly
//! the metrics `BENCHMARK.json` declares, every answer checks out, and the
//! counts that must repeat for a seed do.

use std::path::PathBuf;

use sr_perfbench::plan::{Plan, Workload};
use sr_perfbench::report::Metric;
use sr_perfbench::{run, Outcome, RunConfig};

fn tiny_run(workload: Workload, seed: u64, trace: bool, test: &str) -> Outcome {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{test}-{}-{seed}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let cfg = RunConfig {
        plan: Plan::tiny(workload),
        seed,
        trace,
        work_root: root.clone(),
    };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{} run failed: {e}", workload.name()));
    if let Some(spans) = &out.spans {
        let lines = std::fs::read_to_string(spans)
            .expect("span file")
            .lines()
            .count();
        assert!(lines > 0, "{}: empty span file", workload.name());
    }
    let _ = std::fs::remove_dir_all(root);
    out
}

/// `(name, unit)` of each entry of one list in `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = doc
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> Option<String> {
        let at = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(entry[at..].split('"').next()?.to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|entry| {
            Some((
                field(entry, "name")?,
                field(entry, "unit").unwrap_or_default(),
            ))
        })
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn declared_workloads_all_run() {
    let declared = declared("workloads");
    assert!(declared.len() >= 2);
    for (name, _) in declared {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn every_workload_emits_every_declared_metric_and_answers_correctly() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.first().map(|(n, _)| n.as_str()), Some("setup_s"));
    for w in Workload::ALL {
        let plain = tiny_run(w, 3, false, "emit");
        assert_eq!(
            plain.verdict.failed,
            0,
            "{}: {:?}",
            w.name(),
            plain.verdict.first_failure
        );
        assert_eq!(
            names(&plain.metrics),
            end_to_end,
            "{} end-to-end metrics",
            w.name()
        );
        assert_eq!(value(&plain.metrics, "ok_share"), 1.0);
        for m in &plain.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }

        let traced = tiny_run(w, 3, true, "emit");
        assert_eq!(
            traced.verdict.failed,
            0,
            "{}: {:?}",
            w.name(),
            traced.verdict.first_failure
        );
        assert_eq!(
            names(&traced.metrics),
            per_layer,
            "{} per-layer metrics",
            w.name()
        );
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        assert!(traced.spans.is_some(), "a traced run writes spans");
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for w in Workload::ALL {
        let a = tiny_run(w, 9, false, "repeat-a");
        let b = tiny_run(w, 9, false, "repeat-b");
        for name in ["reads_per_query", "bytes_per_point"] {
            assert_eq!(
                value(&a.metrics, name),
                value(&b.metrics, name),
                "{} {name}",
                w.name()
            );
        }
        let a = tiny_run(w, 9, true, "repeat-c");
        let b = tiny_run(w, 9, true, "repeat-d");
        assert_eq!(
            value(&a.metrics, "pager.frames_per_write"),
            value(&b.metrics, "pager.frames_per_write"),
            "{}",
            w.name()
        );
    }
}
