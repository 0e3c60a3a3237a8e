//! The BENCH export contract: one table, one interpreter.
//!
//! `crates/bench` writes the `BENCH_*.json` documents and `insanectl
//! check-bench` (plus the CI bench-smoke job) re-reads them.  Both sides
//! run [`validate`] over the same row of [`BENCH_FILES`], so the producer
//! and the consumer cannot drift apart, and a record's keys are stated
//! here and in the one function that produces it — nowhere else.
//!
//! The rules are the repository's evidence for tenant isolation and for
//! timing isolation of the critical class; each carries the sentence
//! that says what the gate means, and that sentence is what a failing
//! run prints.

use crate::json::Value;

/// Why a BENCH document failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    what: String,
}

impl SchemaError {
    fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.what)
    }
}

impl std::error::Error for SchemaError {}

/// The closed set of conditions a record can be held to.  The first
/// four are checked on every entry, the last two on the whole document.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Every named integer is ≥ 1: a measurement that was taken, an
    /// event that happened.
    Positive(&'static [&'static str]),
    /// The named integer is 0.
    Zero(&'static str),
    /// The named integers do not decrease left to right (`a ≤ b`, or a
    /// quantile ladder).
    Ascending(&'static [&'static str]),
    /// The named number is finite and > 0.
    FinitePositive(&'static str),
    /// Some entry has the named integer at 0.
    SomeEntryZero(&'static str),
    /// The named integer is ≥ 1 in at least one entry, i.e. its sum
    /// over the document is.
    SumPositive(&'static str),
}

/// One gate: a [`Check`] and the sentence saying what a violation means.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The condition.
    pub check: Check,
    /// What the gate means; printed when it is violated.
    pub means: &'static str,
}

/// The contract of one `BENCH_*.json` file.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpec {
    /// File name under `target/experiments/`.
    pub file: &'static str,
    /// Value of the document's `"schema"` key.
    pub schema: &'static str,
    /// Whether `check-bench` fails when the file is absent.
    pub required: bool,
    /// Non-negative integer keys every entry carries.
    pub ints: &'static [&'static str],
    /// Keys holding any number.
    pub nums: &'static [&'static str],
    /// Gates every document must pass.
    pub rules: &'static [Rule],
}

use Check::{Ascending, FinitePositive, Positive, SomeEntryZero, SumPositive, Zero};

const fn rule(check: Check, means: &'static str) -> Rule {
    Rule { check, means }
}

const NO_SAMPLES: &str = "zero samples: an empty series has no quantiles to report";
const ZERO_BOUND: &str = "zero bound: a ratio gate needs a bound to be held to";

/// `BENCH_throughput.json`; `BENCH_shard_throughput.json` is the same
/// record under another name.  The shard bench's 1.3x scale-out floor
/// compares two entries' rates, which no [`Check`] expresses; it stays
/// in the `shard` suite (DESIGN.md §9.4).
const THROUGHPUT: BenchSpec = BenchSpec {
    file: "BENCH_throughput.json",
    schema: "insane-bench-throughput-v1",
    required: true,
    ints: &["payload_bytes", "messages"],
    nums: &["goodput_gbps"],
    rules: &[rule(
        FinitePositive("goodput_gbps"),
        "goodput must be finite and positive: a pipeline that moved nothing measured nothing",
    )],
};

/// String keys every entry of every record carries: what was measured,
/// and on which testbed profile.
const LABELS: &[&str] = &["system", "testbed"];

/// Every BENCH document the harness writes, in the order `check-bench`
/// reads them.
pub const BENCH_FILES: &[BenchSpec] = &[
    BenchSpec {
        file: "BENCH_latency.json",
        schema: "insane-bench-latency-v1",
        required: true,
        ints: &[
            "payload_bytes",
            "samples",
            "p50_ns",
            "p90_ns",
            "p99_ns",
            "p999_ns",
            "min_ns",
            "max_ns",
        ],
        nums: &["mean_ns"],
        rules: &[
            rule(Positive(&["samples"]), NO_SAMPLES),
            rule(
                Ascending(&["p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"]),
                "quantile ladder not monotone: p50 ≤ p90 ≤ p99 ≤ p99.9 ≤ max holds for any series",
            ),
        ],
    },
    THROUGHPUT,
    BenchSpec {
        file: "BENCH_shard_throughput.json",
        required: false,
        ..THROUGHPUT
    },
    // Tenant isolation against a saturating neighbour (DESIGN.md §10).
    BenchSpec {
        file: "BENCH_noisy_neighbor.json",
        schema: "insane-bench-noisy-neighbor-v1",
        required: false,
        ints: &[
            "payload_bytes",
            "samples",
            "solo_p99_ns",
            "contended_p99_ns",
            "isolation_ratio_x1000",
            "bound_x1000",
            "bulk_rejections",
            "victim_rejections",
        ],
        nums: &[],
        rules: &[
            rule(Positive(&["samples"]), NO_SAMPLES),
            rule(
                Positive(&["solo_p99_ns", "contended_p99_ns"]),
                "the victim's p99 must be positive in both phases",
            ),
            rule(Positive(&["bound_x1000"]), ZERO_BOUND),
            rule(
                Ascending(&["isolation_ratio_x1000", "bound_x1000"]),
                "isolation violated: the victim's contended/solo p99 ratio exceeds the bound (both \
                 in thousandths)",
            ),
            rule(
                Positive(&["bulk_rejections"]),
                "the noisy tenant saturated its limits but saw no typed rejections",
            ),
            rule(
                Zero("victim_rejections"),
                "the well-behaved tenant was rejected; isolation must not punish in-quota tenants",
            ),
        ],
    },
    // Snapshot-cell control-state reads and reload integrity (§12).
    BenchSpec {
        file: "BENCH_hotpath.json",
        schema: "insane-bench-hotpath-v1",
        required: false,
        ints: &[
            "samples",
            "locked_read_ns_x1000",
            "snapshot_read_ns_x1000",
            "uncontended_ratio_x1000",
            "uncontended_bound_x1000",
            "locked_p99_ns",
            "snapshot_p99_ns",
            "contended_ratio_x1000",
            "contended_bound_x1000",
            "reloads",
            "dropped",
            "reordered",
        ],
        nums: &[],
        rules: &[
            rule(Positive(&["samples"]), NO_SAMPLES),
            rule(
                Positive(&["locked_read_ns_x1000", "snapshot_read_ns_x1000"]),
                "per-read timings must be positive",
            ),
            rule(
                Positive(&["uncontended_bound_x1000", "contended_bound_x1000"]),
                ZERO_BOUND,
            ),
            rule(
                Ascending(&["uncontended_ratio_x1000", "uncontended_bound_x1000"]),
                "uncontended regression: with no writer, the snapshot read costs more than the \
                 bound times the locked read it replaced (thousandths)",
            ),
            rule(
                Positive(&["locked_p99_ns", "snapshot_p99_ns"]),
                "contended p99 must be positive",
            ),
            rule(
                Ascending(&["contended_ratio_x1000", "contended_bound_x1000"]),
                "contended tail regression: under a live writer, the snapshot reader's p99 exceeds \
                 the bound times the locked reader's (thousandths)",
            ),
            rule(
                Positive(&["reloads"]),
                "the reload-under-load phase performed no reloads",
            ),
            rule(
                Zero("dropped"),
                "message(s) dropped across a live reload; a hot reload must never lose traffic",
            ),
            rule(
                Zero("reordered"),
                "message(s) reordered across a live reload; a hot reload must never reorder \
                 traffic",
            ),
        ],
    },
    // The OS process boundary and crash reclaim (§13).
    BenchSpec {
        file: "BENCH_ipc.json",
        schema: "insane-bench-ipc-v1",
        required: false,
        ints: &[
            "messages",
            "in_process_p50_ns",
            "in_process_p99_ns",
            "cross_process_p50_ns",
            "cross_process_p99_ns",
            "ratio_x1000",
            "bound_x1000",
            "attach_ns",
            "reclaim_ns",
            "reclaimed_slots",
            "leaked_slots",
        ],
        nums: &[],
        rules: &[
            rule(
                Positive(&["messages"]),
                "zero messages: no round trip was timed",
            ),
            rule(
                Positive(&[
                    "in_process_p50_ns",
                    "in_process_p99_ns",
                    "cross_process_p50_ns",
                    "cross_process_p99_ns",
                ]),
                "round-trip percentiles must be positive for both deployments",
            ),
            rule(
                Ascending(&["in_process_p50_ns", "in_process_p99_ns"]),
                "in-process p50 exceeds p99",
            ),
            rule(
                Ascending(&["cross_process_p50_ns", "cross_process_p99_ns"]),
                "cross-process p50 exceeds p99",
            ),
            rule(Positive(&["bound_x1000"]), ZERO_BOUND),
            rule(
                Ascending(&["ratio_x1000", "bound_x1000"]),
                "process-split overhead: the cross/in-process ratio of the round-trip medians \
                 exceeds the bound (both in thousandths)",
            ),
            rule(
                Positive(&["attach_ns"]),
                "attach latency must be positive",
            ),
            rule(
                Positive(&["reclaimed_slots"]),
                "the crash phase reclaimed no slots — force-reclaim was not exercised",
            ),
            rule(Positive(&["reclaim_ns"]), "reclaim latency not recorded"),
            rule(
                Zero("leaked_slots"),
                "slot(s) leaked after a client crash; every slot the dead client held must come \
                 back",
            ),
        ],
    },
    // Timing isolation of the critical class under bulk load and
    // injected faults (§14).  `lost`, `bulk_rejections`,
    // `injected_drops` and `reorders` are the seeded fault record:
    // required, but unbounded — losses under injected faults are
    // reported, not failed.
    BenchSpec {
        file: "BENCH_isolation.json",
        schema: "insane-bench-isolation-v1",
        required: false,
        ints: &[
            "samples",
            "bulk_burst",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "solo_p999_ns",
            "budget_ns",
            "budget_violations",
            "ratio_x1000",
            "bound_x1000",
            "gate_deferrals",
            "lost",
            "bulk_rejections",
            "injected_drops",
            "reorders",
        ],
        nums: &[],
        rules: &[
            rule(Positive(&["samples"]), NO_SAMPLES),
            rule(
                Positive(&["p50_ns", "p99_ns", "p999_ns", "solo_p999_ns", "budget_ns"]),
                "critical-flow quantiles and the latency budget must be positive",
            ),
            rule(
                Zero("budget_violations"),
                "critical message(s) missed their latency budget; a delivered time-critical \
                 message lands inside it at every load point, bulk saturation or not",
            ),
            rule(Positive(&["bound_x1000"]), ZERO_BOUND),
            rule(
                Ascending(&["ratio_x1000", "bound_x1000"]),
                "tail isolation violated: the critical p99.9 over the solo baseline's exceeds the \
                 bound (both in thousandths)",
            ),
            rule(
                SomeEntryZero("bulk_burst"),
                "no solo baseline (bulk_burst == 0) load point recorded",
            ),
            rule(
                SumPositive("gate_deferrals"),
                "no gate deferrals recorded at any load point: the time-aware gates never held a \
                 frame, so the run measured nothing",
            ),
        ],
    },
];

/// The row of [`BENCH_FILES`] for `file`.
pub fn spec(file: &str) -> Option<&'static BenchSpec> {
    BENCH_FILES.iter().find(|s| s.file == file)
}

/// Validates `doc` against `spec`: the schema tag, every key of every
/// entry, then every rule.
///
/// # Errors
///
/// Describes the first mismatch found; a violated rule is reported with
/// the rule's own sentence.
pub fn validate(spec: &BenchSpec, doc: &Value) -> Result<(), SchemaError> {
    match doc.get("schema").and_then(Value::as_str) {
        Some(got) if got == spec.schema => {}
        Some(got) => {
            return Err(SchemaError::new(format!(
                "schema mismatch: expected {:?}, found {got:?}",
                spec.schema
            )))
        }
        None => return Err(SchemaError::new("missing string key \"schema\"")),
    }
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| SchemaError::new("missing array key \"entries\""))?;
    for (i, entry) in entries.iter().enumerate() {
        let typed = |keys: &[&str], kind: &str, is_kind: fn(&Value) -> bool| match keys
            .iter()
            .find(|k| !entry.get(k).is_some_and(is_kind))
        {
            Some(key) => Err(SchemaError::new(format!(
                "entry {i}: missing {kind} key {key:?}"
            ))),
            None => Ok(()),
        };
        typed(LABELS, "string", |v| v.as_str().is_some())?;
        typed(spec.ints, "integer", |v| v.as_u64().is_some())?;
        typed(spec.nums, "numeric", |v| v.as_f64().is_some())?;
    }
    for rule in spec.rules {
        if let Some(found) = violation(rule.check, entries) {
            return Err(SchemaError::new(format!("{found}: {}", rule.means)));
        }
    }
    Ok(())
}

/// Where and how `entries` break `check`, if they do.  Every key a rule
/// names is a declared field (unit-tested), so it is present and typed
/// by the time this runs.
fn violation(check: Check, entries: &[Value]) -> Option<String> {
    let int = |e: &Value, key: &str| e.get(key).and_then(Value::as_u64).unwrap_or(0);
    let per_entry = |broken: &dyn Fn(&Value) -> Option<String>| {
        entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| broken(e).map(|what| format!("entry {i}: {what}")))
    };
    match check {
        Positive(keys) => per_entry(&|e| {
            let key = keys.iter().find(|k| int(e, k) == 0)?;
            Some(format!("{key} is 0"))
        }),
        Zero(key) => per_entry(&|e| {
            let v = int(e, key);
            (v != 0).then(|| format!("{key} is {v}"))
        }),
        Ascending(keys) => per_entry(&|e| {
            keys.windows(2).find_map(|pair| match pair {
                [a, b] if int(e, a) > int(e, b) => {
                    Some(format!("{a} {} > {b} {}", int(e, a), int(e, b)))
                }
                _ => None,
            })
        }),
        FinitePositive(key) => per_entry(&|e| {
            let v = e.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
            (!v.is_finite() || v <= 0.0).then(|| format!("{key} is {v}"))
        }),
        SomeEntryZero(key) => {
            (!entries.iter().any(|e| int(e, key) == 0)).then(|| format!("no entry has {key} == 0"))
        }
        SumPositive(key) => {
            (!entries.iter().any(|e| int(e, key) > 0)).then(|| format!("{key} is 0 in every entry"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document `spec` accepts, built from the table alone: two
    /// entries, every integer 1 except keys a `Zero` rule pins to 0 and
    /// `SomeEntryZero` keys, which are 0 in the first entry only.
    fn passing(spec: &BenchSpec) -> Value {
        let entry = |first: bool| {
            let int = |key: &'static str| {
                let zero = spec.rules.iter().any(|r| match r.check {
                    Zero(k) => k == key,
                    SomeEntryZero(k) => first && k == key,
                    _ => false,
                });
                (key, Value::Int(u64::from(!zero)))
            };
            Value::object(
                (LABELS.iter().map(|k| (*k, "x".into())))
                    .chain(spec.ints.iter().map(|k| int(k)))
                    .chain(spec.nums.iter().map(|k| (*k, 1.5f64.into()))),
            )
        };
        Value::object([
            ("schema", spec.schema.into()),
            ("factor", 1.0f64.into()),
            ("entries", Value::Array(vec![entry(true), entry(false)])),
        ])
    }

    /// `passing(spec)` with `key` replaced (`None` removes it) in the
    /// last entry, or in every entry.
    fn with(spec: &BenchSpec, key: &str, value: Option<Value>, every_entry: bool) -> Value {
        let mut doc = passing(spec);
        let Value::Object(top) = &mut doc else {
            unreachable!()
        };
        let Some((_, Value::Array(entries))) = top.iter_mut().find(|(k, _)| k == "entries") else {
            unreachable!()
        };
        let skip = if every_entry { 0 } else { entries.len() - 1 };
        for entry in entries.iter_mut().skip(skip) {
            let Value::Object(pairs) = entry else {
                unreachable!()
            };
            pairs.retain(|(k, _)| k != key);
            if let Some(v) = &value {
                pairs.push((key.to_string(), v.clone()));
            }
        }
        doc
    }

    #[track_caller]
    fn rejected(spec: &BenchSpec, doc: &Value, needle: &str) {
        let err = validate(spec, doc).expect_err(needle).to_string();
        assert!(
            err.contains(needle),
            "{}: {err:?} lacks {needle:?}",
            spec.file
        );
    }

    /// `violation` reads rule keys with a default; this is what makes
    /// that default unreachable.
    #[test]
    fn every_rule_names_declared_fields_of_the_kind_it_reads() {
        for spec in BENCH_FILES {
            for rule in spec.rules {
                match rule.check {
                    Positive(keys) | Ascending(keys) => {
                        assert!(!keys.is_empty(), "{}", spec.file);
                        for key in keys {
                            assert!(spec.ints.contains(key), "{}: {key}", spec.file);
                        }
                    }
                    Zero(key) | SomeEntryZero(key) | SumPositive(key) => {
                        assert!(spec.ints.contains(&key), "{}: {key}", spec.file);
                    }
                    FinitePositive(key) => {
                        assert!(spec.nums.contains(&key), "{}: {key}", spec.file);
                    }
                }
                assert!(rule.means.len() > 20, "{}: {:?}", spec.file, rule.check);
            }
        }
    }

    /// For every spec: the generated document passes (also after a
    /// write → parse round trip), and one document per field and per
    /// rule, broken in exactly that place, is rejected with the key
    /// resp. the rule's sentence in the message.  A loop over the table,
    /// so a spec or rule added later is covered without a new test.
    #[test]
    fn each_spec_accepts_its_document_and_rejects_every_single_break() {
        for spec in BENCH_FILES {
            let good = passing(spec);
            assert_eq!(validate(spec, &good), Ok(()), "{}", spec.file);
            let reparsed = Value::parse(&good.to_string()).unwrap();
            assert_eq!(validate(spec, &reparsed), Ok(()), "{}", spec.file);
            assert_eq!(super::spec(spec.file).map(|s| s.file), Some(spec.file));

            let mislabeled = Value::object([
                ("schema", "something-else".into()),
                ("entries", Value::Array(vec![])),
            ]);
            rejected(spec, &mislabeled, "schema mismatch");
            let headless = Value::object([("schema", spec.schema.into())]);
            rejected(spec, &headless, "\"entries\"");

            for key in LABELS {
                rejected(spec, &with(spec, key, None, false), key);
                rejected(spec, &with(spec, key, Some(1u64.into()), false), key);
            }
            for key in spec.ints.iter().chain(spec.nums) {
                rejected(spec, &with(spec, key, None, false), key);
                rejected(spec, &with(spec, key, Some("1".into()), false), key);
            }

            for rule in spec.rules {
                let broken: Vec<Value> = match rule.check {
                    Positive(keys) => keys
                        .iter()
                        .map(|k| with(spec, k, Some(0u64.into()), false))
                        .collect(),
                    Zero(key) => vec![with(spec, key, Some(1u64.into()), false)],
                    Ascending(keys) => keys
                        .windows(2)
                        .map(|pair| with(spec, pair[0], Some(2u64.into()), false))
                        .collect(),
                    FinitePositive(key) => [0.0, -1.0, f64::INFINITY, f64::NAN]
                        .into_iter()
                        .map(|v| with(spec, key, Some(v.into()), false))
                        .collect(),
                    SomeEntryZero(key) => vec![with(spec, key, Some(1u64.into()), true)],
                    SumPositive(key) => vec![with(spec, key, Some(0u64.into()), true)],
                };
                assert!(!broken.is_empty());
                for doc in &broken {
                    rejected(spec, doc, rule.means);
                }
            }
        }
    }

    /// The negative cases the six hand-written validators were tested
    /// with, by the phrase an operator greps a failed run for.
    #[test]
    fn the_named_gate_violations_are_still_rejected() {
        let int = |v: u64| Value::Int(v);
        #[rustfmt::skip]
        let cases: &[(&str, &str, Value, bool, &str)] = &[
            ("BENCH_latency.json", "p90_ns", int(5_000), false, "not monotone"),
            ("BENCH_latency.json", "samples", int(0), false, "zero samples"),
            ("BENCH_throughput.json", "goodput_gbps", 0.0.into(), false, "finite and positive"),
            ("BENCH_shard_throughput.json", "goodput_gbps", 0.0.into(), false, "finite and positive"),
            ("BENCH_noisy_neighbor.json", "isolation_ratio_x1000", int(2_400), false, "isolation violated"),
            ("BENCH_noisy_neighbor.json", "bulk_rejections", int(0), false, "no typed rejections"),
            ("BENCH_noisy_neighbor.json", "victim_rejections", int(3), false, "in-quota"),
            ("BENCH_isolation.json", "budget_violations", int(2), false, "latency budget"),
            ("BENCH_isolation.json", "ratio_x1000", int(2_400), false, "tail isolation violated"),
            ("BENCH_isolation.json", "bulk_burst", int(8), true, "solo baseline"),
            ("BENCH_isolation.json", "gate_deferrals", int(0), true, "never held a frame"),
            ("BENCH_hotpath.json", "uncontended_ratio_x1000", int(1_400), false, "uncontended regression"),
            ("BENCH_hotpath.json", "contended_ratio_x1000", int(2_000), false, "tail regression"),
            ("BENCH_hotpath.json", "reloads", int(0), false, "no reloads"),
            ("BENCH_hotpath.json", "dropped", int(2), false, "dropped"),
            ("BENCH_hotpath.json", "reordered", int(1), false, "reordered"),
            ("BENCH_ipc.json", "ratio_x1000", int(2_400), false, "process-split overhead"),
            ("BENCH_ipc.json", "leaked_slots", int(3), false, "leaked"),
            ("BENCH_ipc.json", "reclaimed_slots", int(0), false, "force-reclaim"),
            ("BENCH_ipc.json", "cross_process_p50_ns", int(5_000), false, "exceeds p99"),
        ];
        for (file, key, value, every_entry, needle) in cases {
            let spec = spec(file).unwrap();
            let doc = with(spec, key, Some(value.clone()), *every_entry);
            rejected(spec, &doc, needle);
        }
        // An isolation document with no load point at all has no solo
        // baseline either.
        let isolation = spec("BENCH_isolation.json").unwrap();
        let empty = Value::object([
            ("schema", isolation.schema.into()),
            ("entries", Value::Array(vec![])),
        ]);
        rejected(isolation, &empty, "solo baseline");
    }
}
