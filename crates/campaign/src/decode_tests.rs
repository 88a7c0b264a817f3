//! Decode robustness of every record read back from outside: checkpoint
//! lines (through `CampaignState::resume`), protocol frames, the config
//! frame, progen's `state.json` (which `compdiff progen evolve
//! --resume` reads), and the campaign's and sancheck's fault plans. One
//! table per decoder refuses, for every field, a missing, a wrong-type,
//! a negative and an out-of-range value with an error naming that field;
//! a seeded byte-mutation loop feeds each surface (each fault-plan grammar
//! example) at least 1,000 mutants, every one of which must decode to
//! `Ok` or a typed `Err` (a panic fails the test, and the test profile
//! checks overflow).

// test-only: unwraps in this module assert test invariants.
use crate::policy::{FaultLedger, RetryPolicy};
use crate::proto::{config_frame, parse_config, read_frame, vm_from_json, vm_to_json, Frame};
use crate::scheduler::{Job, JobOutput};
use crate::state::{CampaignHeader, CampaignState, FailureKind, FailureRecord, JobRecord};
use crate::state::{StateError, CHECKPOINT_FILE};
use crate::{CampaignConfig, CampaignStats, FaultPlan, LintTally, LintTallyError};
use compdiff::Json;
use fuzzing::Rng;
use minc_vm::SessionStats;
use sancheck::SanFaultPlan;
use std::path::PathBuf;
use std::sync::Arc;
use targets::{Target, TargetSpec};

/// How a field is typed, which decides the bad values it is fed.
#[derive(Clone, Copy)]
enum Kind {
    /// A non-negative integer (`u64`, `usize`).
    Unsigned,
    /// A `u32`.
    U32,
    /// An `i64`, or a `u64` seed bit-cast through one: negatives are
    /// valid.
    Signed,
    /// A string (also a hex string, a decimal, or an enum name).
    Str,
    /// An array of strings (or of hex strings).
    Strings,
    /// An array of bytes.
    Bytes,
    /// An array of objects.
    Array,
    /// An object.
    Object,
    /// Any value, required only to be present.
    Present,
}

/// `doc` with the field at `path` (object keys, or array indices in
/// arrays) replaced by `value`, or removed when `value` is `None`.
fn with_field(doc: &Json, path: &[&str], value: Option<&Json>) -> Json {
    let mut doc = doc.clone();
    let mut at = &mut doc;
    for (depth, key) in path.iter().enumerate() {
        let last = depth + 1 == path.len();
        at = match at {
            Json::Object(fields) => {
                let i = fields.iter().position(|(k, _)| k == key).unwrap();
                if last {
                    match value {
                        Some(v) => fields[i].1 = v.clone(),
                        None => {
                            fields.remove(i);
                        }
                    }
                    return doc;
                }
                &mut fields[i].1
            }
            Json::Array(items) => &mut items[key.parse::<usize>().unwrap()],
            other => panic!("no field {key} in {other:?}"),
        };
    }
    unreachable!("empty path")
}

/// The values a field of `kind` must refuse (`None`: the field removed),
/// each with the reason it is bad.
fn bad_values(kind: Kind) -> Vec<(&'static str, Option<Json>)> {
    let lit = |s: &str| Some(Json::parse(s).unwrap());
    let mut bad = vec![("missing", None)];
    match kind {
        Kind::Unsigned | Kind::U32 | Kind::Signed => {
            bad.push(("wrong type", lit(r#""7""#)));
            bad.push(("integral float", lit("2.0")));
            bad.push(("float past i64", lit("1e300")));
            bad.push(("integer literal past i64", lit("9223372036854775808")));
            if !matches!(kind, Kind::Signed) {
                bad.push(("negative", lit("-1")));
            }
            if matches!(kind, Kind::U32) {
                bad.push(("past u32", lit("4294967296")));
            }
        }
        Kind::Str => bad.push(("wrong type", lit("7"))),
        Kind::Strings => {
            bad.push(("wrong type", lit(r#""a""#)));
            bad.push(("non-string element", lit("[7]")));
        }
        Kind::Bytes => {
            bad.push(("wrong type", lit(r#""d4c3""#)));
            bad.push(("negative byte", lit("[-1,0]")));
            bad.push(("byte past u8", lit("[256,0]")));
        }
        Kind::Array => bad.push(("wrong type", lit("{}"))),
        Kind::Object => bad.push(("wrong type", lit("7"))),
        Kind::Present => {}
    }
    bad
}

/// Every bad value of every field in `fields` must make `decode` fail
/// with an error naming the field (the last key of its path).
fn refuses_bad_fields(
    what: &str,
    doc: &Json,
    fields: &[(&[&str], Kind)],
    decode: impl Fn(&Json) -> Result<(), String>,
) {
    decode(doc).unwrap_or_else(|e| panic!("{what}: the valid document fails: {e}"));
    for (path, kind) in fields {
        let key = path.last().unwrap();
        for (why, value) in bad_values(*kind) {
            let bad = with_field(doc, path, value.as_ref());
            match decode(&bad) {
                Ok(()) => panic!("{what}: {path:?} {why} was accepted"),
                Err(e) => assert!(
                    e.contains(&format!("`{key}`")),
                    "{what}: {path:?} {why}: {e}"
                ),
            }
        }
    }
}

fn job_record() -> JobRecord {
    JobRecord {
        target: "tcpdump".to_string(),
        shard: 1,
        execs: 250,
        oracle_execs: 2_500,
        divergent: 3,
        crashes: 1,
        signatures: vec!["sig-a".to_string(), "sig-b".to_string()],
    }
}

fn failure_record() -> FailureRecord {
    FailureRecord {
        target: "tcpdump".to_string(),
        shard: 0,
        attempt: 1,
        kind: FailureKind::Panic,
        message: "boom".to_string(),
    }
}

fn header() -> CampaignHeader {
    CampaignHeader {
        seed: u64::MAX - 3,
        execs_per_target: 1_000,
        shards_per_target: 2,
        targets: vec!["tcpdump".to_string(), "jq".to_string()],
    }
}

/// The header line `CampaignState::create` writes for `header()`
/// (`tag` keeps tests that run at once out of each other's directory).
fn header_line(tag: &str) -> String {
    let dir = temp_dir(&format!("{tag}-header-line"));
    drop(CampaignState::create(&dir, &header()).unwrap());
    let text = std::fs::read_to_string(dir.join(CHECKPOINT_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    text.lines().next().unwrap().to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("compdiff-decode-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Resumes a checkpoint made of `lines` against `header()`.
fn resume_lines(dir: &std::path::Path, lines: &[String]) -> Result<CampaignState, StateError> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(CHECKPOINT_FILE), lines.join("\n") + "\n").unwrap();
    CampaignState::resume(dir, &header())
}

#[test]
fn checkpoint_records_refuse_bad_fields() {
    use Kind::*;
    let job = job_record().to_json();
    let job_fields: &[(&[&str], Kind)] = &[
        (&["target"], Str),
        (&["shard"], U32),
        (&["execs"], Unsigned),
        (&["oracle_execs"], Unsigned),
        (&["divergent"], Unsigned),
        (&["crashes"], Unsigned),
        (&["signatures"], Strings),
    ];
    refuses_bad_fields("job record", &job, job_fields, |v| {
        JobRecord::from_json(v).map(drop)
    });
    let failure = failure_record().to_json();
    let failure_fields: &[(&[&str], Kind)] = &[
        (&["target"], Str),
        (&["shard"], U32),
        (&["attempt"], U32),
        (&["kind"], Str),
        (&["message"], Str),
    ];
    refuses_bad_fields("failure record", &failure, failure_fields, |v| {
        FailureRecord::from_json(v).map(drop)
    });
    let dir = temp_dir("header");
    let header_json = Json::parse(&header_line("fields")).unwrap();
    let header_fields: &[(&[&str], Kind)] = &[
        (&["version"], Signed),
        (&["seed"], Signed),
        (&["execs_per_target"], Unsigned),
        (&["shards"], U32),
        (&["targets"], Strings),
    ];
    // The header decodes through `resume`, which reports a header that
    // does not read as a mismatch.
    refuses_bad_fields(
        "checkpoint header",
        &header_json,
        header_fields,
        |v| match resume_lines(&dir, &[v.render(), job_record().to_json().render()]) {
            Ok(_) => Ok(()),
            Err(StateError::HeaderMismatch(m)) => Err(m),
            Err(other) => panic!("a bad header must be a mismatch, got {other:?}"),
        },
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A record's `"execs": -1`, which resume used to read as 2^64 - 1, is
/// corrupt (the record is not the last line, so not a torn write).
#[test]
fn a_negative_count_in_a_checkpoint_is_corrupt() {
    let dir = temp_dir("negative");
    let bad = job_record()
        .to_json()
        .render()
        .replacen(r#""execs":250"#, r#""execs":-1"#, 1);
    let mut other = job_record();
    other.shard = 0;
    match resume_lines(
        &dir,
        &[header_line("negative"), bad, other.to_json().render()],
    ) {
        Err(StateError::Corrupt { line: 2, message }) => {
            assert_eq!(message, "field `execs` is out of range");
        }
        other => panic!("expected Corrupt at line 2, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A complete last record that parses but does not decode is corrupt,
/// not a torn write: an append cut short never parses, so resume must
/// refuse the record instead of deleting it and re-running its job.
#[test]
fn a_malformed_last_record_is_corrupt_not_torn() {
    let dir = temp_dir("last");
    let mut first = job_record();
    first.shard = 0;
    let negative = job_record()
        .to_json()
        .render()
        .replacen(r#""execs":250"#, r#""execs":-1"#, 1);
    let unknown =
        job_record()
            .to_json()
            .render()
            .replacen(r#""type":"job""#, r#""type":"jobs""#, 1);
    let cases = [
        (negative, "field `execs` is out of range"),
        (unknown, r#"unknown record type Some("jobs")"#),
    ];
    for (bad, want) in cases {
        let lines = [header_line("last"), first.to_json().render(), bad];
        match resume_lines(&dir, &lines) {
            Err(StateError::Corrupt { line: 3, message }) => assert_eq!(message, want),
            other => panic!("expected Corrupt at line 3, got {other:?}"),
        }
        let text = std::fs::read_to_string(dir.join(CHECKPOINT_FILE)).unwrap();
        assert_eq!(text.lines().count(), 3, "the refused record was deleted");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replayed counts saturate: three records each at the JSON maximum
/// sum past `u64::MAX`.
#[test]
fn replayed_counts_saturate() {
    let mut stats = CampaignStats::new(1, 3);
    for shard in 0..3 {
        let rec = JobRecord {
            shard,
            execs: i64::MAX as u64,
            ..job_record()
        };
        stats.absorb(None, &rec);
    }
    assert_eq!(stats.execs, u64::MAX);
    assert_eq!(stats.per_target["tcpdump"].execs, u64::MAX);
}

fn metrics() -> Json {
    Json::obj(vec![("counters", Json::obj(vec![]))])
}

fn vm_stats() -> SessionStats {
    SessionStats {
        runs: 1,
        pages_restored: 2,
        pages_materialized: 3,
        bulk_builtin_ops: 4,
        fallback_builtin_ops: 5,
        poisoned_rebuilds: 6,
        blocks_translated: 7,
        block_cache_hits: 8,
        loader_skips: 9,
    }
}

/// One frame of every kind.
fn every_frame() -> Vec<Frame> {
    vec![
        Frame::LeaseReq,
        Frame::Lease {
            lease: 7,
            job: Job {
                target_index: 3,
                shard: 2,
                attempt: 1,
            },
        },
        Frame::Renew { lease: 7 },
        Frame::Done {
            lease: 7,
            out: JobOutput {
                worker: 0,
                record: job_record(),
                dur_us: 5,
                vm: vm_stats(),
                lint: LintTally {
                    findings: [(staticheck::Defect::IntegerOverflow, 2)].into(),
                    scan_us: 4,
                },
            },
            metrics: metrics(),
        },
        Frame::Failed {
            lease: 8,
            kind: FailureKind::Panic,
            message: "boom".to_string(),
            metrics: metrics(),
        },
        Frame::Ack,
        Frame::Shutdown,
        Frame::Bye { metrics: metrics() },
    ]
}

fn config() -> (CampaignConfig, Vec<Target>) {
    let cfg = CampaignConfig {
        seed: u64::MAX - 3,
        execs_per_target: 777,
        shards_per_target: 3,
        max_input_len: 48,
        batch_size: 8,
        fault_plan: Some(Arc::new(
            FaultPlan::parse("die@tcpdump#0", u64::MAX - 3).unwrap(),
        )),
        fixed_clock_us: Some(5),
        ..CampaignConfig::default()
    };
    let targets = vec![Target {
        spec: TargetSpec {
            name: "tcpdump".to_string(),
            input_type: "pcap",
            version: "4.9",
            magic: [0xD4, 0xC3],
            bugs: Vec::new(),
        },
        src: "int main() { return 0; }".to_string(),
        seeds: vec![vec![0xD4, 0xC3, 0x00], vec![]],
    }];
    (cfg, targets)
}

#[test]
fn frames_refuse_bad_fields() {
    use Kind::*;
    let decode = |v: &Json| Frame::from_json(v).map(drop);
    let frames = every_frame();
    let wire = |i: usize| frames[i].to_json();
    let lease: &[(&[&str], Kind)] = &[
        (&["lease"], Unsigned),
        (&["target"], Unsigned),
        (&["shard"], U32),
        (&["attempt"], U32),
    ];
    refuses_bad_fields("lease frame", &wire(1), lease, decode);
    refuses_bad_fields("renew frame", &wire(2), &[(&["lease"], Unsigned)], decode);
    let mut done: Vec<(&[&str], Kind)> = vec![
        (&["lease"], Unsigned),
        (&["record"], Object),
        (&["record", "execs"], Unsigned),
        (&["record", "shard"], U32),
        (&["record", "signatures"], Strings),
        (&["dur_us"], Unsigned),
        (&["vm"], Object),
        (&["metrics"], Present),
    ];
    let vm = vm_to_json(&vm_stats());
    let vm_paths: Vec<[&str; 2]> = vm.keys().map(|k| ["vm", k]).collect();
    done.extend(vm_paths.iter().map(|p| (&p[..], Unsigned)));
    refuses_bad_fields("done frame", &wire(3), &done, decode);
    let failed: &[(&[&str], Kind)] = &[
        (&["lease"], Unsigned),
        (&["kind"], Str),
        (&["message"], Str),
        (&["metrics"], Present),
    ];
    refuses_bad_fields("failed frame", &wire(4), failed, decode);
    refuses_bad_fields("bye frame", &wire(7), &[(&["metrics"], Present)], decode);
    assert_eq!(vm_from_json(&vm_to_json(&vm_stats())), Ok(vm_stats()));
}

/// The lint tally's errors keep their own variants: a missing or
/// non-object `lint` or `findings` is `Missing`, and any count that is
/// not a non-negative integer is a `BadCount` naming it.
#[test]
fn lint_tallies_refuse_bad_fields() {
    let done = every_frame()[3].to_json();
    let defect = staticheck::Defect::IntegerOverflow.to_string();
    for (path, want) in [
        (vec!["lint"], LintTallyError::Missing),
        (vec!["lint", "findings"], LintTallyError::Missing),
        (
            vec!["lint", "scan_us"],
            LintTallyError::BadCount("scan_us".to_string()),
        ),
        (
            vec!["lint", "findings", defect.as_str()],
            LintTallyError::BadCount(defect.clone()),
        ),
    ] {
        let kind = match want {
            LintTallyError::Missing => Kind::Object,
            _ => Kind::Unsigned,
        };
        // A defect class absent from `findings` has no findings.
        let absent_ok = path.len() == 3;
        for (why, value) in bad_values(kind) {
            if absent_ok && value.is_none() {
                continue;
            }
            let bad = with_field(&done, &path, value.as_ref());
            assert_eq!(
                LintTally::from_frame(&bad),
                Err(want.clone()),
                "{path:?} {why}"
            );
        }
    }
}

#[test]
fn config_frames_refuse_bad_fields() {
    use Kind::*;
    let (cfg, targets) = config();
    let frame = config_frame(&cfg, &targets);
    let (got, got_targets) = parse_config(&frame).unwrap();
    assert_eq!(got.seed, u64::MAX - 3, "the seed reads back by bit-cast");
    assert_eq!(got_targets[0].seeds, targets[0].seeds);
    let fields: &[(&[&str], Kind)] = &[
        (&["seed"], Signed),
        (&["execs_per_target"], Unsigned),
        (&["shards"], U32),
        (&["max_input_len"], Unsigned),
        (&["batch_size"], Unsigned),
        (&["fuzz_impl"], Str),
        (&["step_limit"], Unsigned),
        (&["max_frames"], Unsigned),
        (&["heap_limit"], Unsigned),
        (&["timeout_escalations"], U32),
        (&["fixed_clock_us"], Unsigned),
        (&["fault_plan"], Str),
        (&["targets"], Array),
        (&["targets", "0", "name"], Str),
        (&["targets", "0", "magic"], Bytes),
        (&["targets", "0", "src"], Str),
        (&["targets", "0", "seeds"], Strings),
    ];
    refuses_bad_fields("config frame", &frame, fields, |v| {
        parse_config(v).map(drop)
    });
    // `null` is the encoder's "none" for the two optional fields.
    for key in ["fixed_clock_us", "fault_plan"] {
        let none = with_field(&frame, &[key], Some(&Json::Null));
        assert!(parse_config(&none).is_ok(), "{key}: null");
    }
}

/// Bytes JSON gives meaning to.
const JSON_BYTES: &[u8] = b"0123456789-+.eE\"{}[],:\\ ntfl";

/// Bytes the fault-plan grammars give meaning to.
const PLAN_BYTES: &[u8] = b"0123456789@#*,: ";

/// Applies `1..=4` seeded byte mutations to `bytes`: overwrite, insert,
/// delete, or a byte of `significant`.
fn mutate(bytes: &[u8], significant: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(out.len() + 1);
        match rng.below(4) {
            0 if at < out.len() => out[at] = rng.byte(),
            1 => out.insert(at, rng.byte()),
            2 if at < out.len() => {
                out.remove(at);
            }
            _ if at < out.len() => out[at] = *rng.choose(significant),
            _ => out.push(*rng.choose(significant)),
        }
    }
    out
}

/// Mutants of a checkpoint with jobs and failures, each resumed and
/// replayed the way `campaign::run` replays one: records folded into
/// the stats, failures through the retry policy.
#[test]
fn mutated_checkpoints_resume_or_fail_typed() {
    let dir = temp_dir("mutants");
    let mut st = CampaignState::create(&dir, &header()).unwrap();
    st.append_failure(failure_record()).unwrap();
    st.record(job_record()).unwrap();
    for target in ["tcpdump", "jq"] {
        st.append_failure(FailureRecord {
            target: target.to_string(),
            attempt: 2,
            ..failure_record()
        })
        .unwrap();
        st.record(JobRecord {
            target: target.to_string(),
            shard: 0,
            ..job_record()
        })
        .unwrap();
    }
    drop(st);
    let path = dir.join(CHECKPOINT_FILE);
    let valid = std::fs::read(&path).unwrap();
    let policy = RetryPolicy {
        max_retries: 2,
        quarantine_after: 3,
    };
    let mut rng = Rng::new(0xC4EC);
    let (mut resumed, mut refused) = (0, 0);
    for _ in 0..1_000 {
        std::fs::write(&path, mutate(&valid, JSON_BYTES, &mut rng)).unwrap();
        let Ok(st) = CampaignState::resume(&dir, &header()) else {
            refused += 1;
            continue;
        };
        resumed += 1;
        let mut stats = CampaignStats::new(1, 4);
        for rec in st.done().values() {
            stats.absorb(None, rec);
        }
        let mut ledger = FaultLedger::new();
        for f in st.failures() {
            stats.note_failure(&f.target);
            let d = ledger.note_failure(&policy, &f.target, f.shard, f.attempt);
            stats.note_disposition(&f.target, d);
        }
    }
    assert!(
        resumed > 0 && refused > 0,
        "{resumed} resumed, {refused} refused"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The grammar examples of the `campaign::faults` docs.
const FAULT_PLAN_EXAMPLES: &[&str] = &[
    "panic@tcpdump#1",
    "panic@tcpdump#any*2",
    "panic@any#any*inf",
    "panic@seeded#7*inf",
    "io@jq#0",
    "panic@compile:mujs",
    "fail@compile:jq*inf",
    "io@checkpoint:3",
    "io@checkpoint:any*inf",
    "die@tcpdump#0",
    "drop@conn:1",
    "drop@conn:any*2",
];

/// Mutants of each example plan parse to `Ok` or `Err`, and an accepted
/// plan answers every query an injection point makes of it.
#[test]
fn mutated_fault_plans_parse_or_fail_typed() {
    let mut rng = Rng::new(0xFA17);
    let (mut parsed, mut refused) = (0, 0);
    for example in FAULT_PLAN_EXAMPLES {
        for _ in 0..1_000 {
            let mutant = mutate(example.as_bytes(), PLAN_BYTES, &mut rng);
            let Ok(plan) = FaultPlan::parse(&String::from_utf8_lossy(&mutant), 7) else {
                refused += 1;
                continue;
            };
            parsed += 1;
            for target in ["tcpdump", "jq", "mujs", "any", ""] {
                for n in [0, 1, 2, 7, u32::MAX] {
                    plan.fire_job(target, n, n);
                    plan.fire_compile(target, n);
                }
            }
            for seq in [0, 1, 2, 3, u64::MAX] {
                plan.fire_checkpoint(seq);
                plan.fire_conn(seq);
            }
        }
    }
    assert!(
        parsed > 0 && refused > 0,
        "{parsed} parsed, {refused} refused"
    );
}

/// The grammar examples of the `sancheck::faults` docs.
const SAN_FAULT_PLAN_EXAMPLES: &[&str] = &[
    "suppress@msan",
    "suppress@ubsan#2",
    "fire@ubsan:shift-out-of-bounds",
    "fire@asan:heap-buffer-overflow#3",
];

/// Mutants of each example sanitizer plan parse to `Ok` or `Err`, and an
/// accepted plan re-parses from its `Display` to the same plan.
#[test]
fn mutated_san_fault_plans_parse_or_fail_typed() {
    let mut rng = Rng::new(0x5A4F);
    let (mut parsed, mut refused) = (0, 0);
    for example in SAN_FAULT_PLAN_EXAMPLES {
        for _ in 0..1_000 {
            let mutant = mutate(example.as_bytes(), PLAN_BYTES, &mut rng);
            let text = String::from_utf8_lossy(&mutant);
            let Ok(plan) = SanFaultPlan::parse(&text) else {
                refused += 1;
                continue;
            };
            parsed += 1;
            let shown = plan.to_string();
            assert_eq!(
                SanFaultPlan::parse(&shown),
                Ok(plan),
                "{text:?} shown as {shown:?}"
            );
        }
    }
    assert!(
        parsed > 0 && refused > 0,
        "{parsed} parsed, {refused} refused"
    );
}

/// Reads `bytes` as one frame line the way a transport does.
fn read_one(bytes: &[u8]) -> Option<Json> {
    read_frame(&mut std::io::BufReader::new(bytes))
        .ok()
        .flatten()
}

#[test]
fn mutated_frames_decode_or_fail_typed() {
    let mut rng = Rng::new(0xF2A3E);
    for frame in every_frame() {
        let wire = format!("{}\n", frame.to_json().render()).into_bytes();
        let mut decoded = 0;
        for _ in 0..1_000 {
            if let Some(v) = read_one(&mutate(&wire, JSON_BYTES, &mut rng)) {
                decoded += usize::from(Frame::from_json(&v).is_ok());
            }
        }
        assert!(decoded < 1_000, "{frame:?}: every mutant decoded");
    }
    let (cfg, targets) = config();
    let wire = format!("{}\n", config_frame(&cfg, &targets).render()).into_bytes();
    for _ in 0..1_000 {
        if let Some(v) = read_one(&mutate(&wire, JSON_BYTES, &mut rng)) {
            let _ = parse_config(&v);
        }
    }
}

/// A small evolution state with one of everything: two population
/// entries, an archive, signatures and a find.
fn evolve_state() -> progen::EvolveState {
    let mut state = progen::EvolveState::new(&progen::EvolveConfig {
        seed: 7,
        population: 2,
    });
    state.next_generation = 3;
    state.archive.insert("lint-key".to_string());
    state.seen_signatures.insert("sig".to_string());
    state.divergents.push(progen::DivergentFind {
        source: state.population[0].0.clone(),
        probe: vec![0xab, 0x01],
        signature: "sig".to_string(),
        generation: 2,
        fitness: -5,
    });
    state
}

#[test]
fn evolve_states_refuse_bad_fields() {
    use Kind::*;
    let state = Json::parse(&evolve_state().to_json().render_pretty()).unwrap();
    let fields: &[(&[&str], Kind)] = &[
        (&["seed"], Str),
        (&["population_size"], Unsigned),
        (&["next_generation"], U32),
        (&["population"], Array),
        (&["population", "1", "source"], Str),
        (&["population", "1", "probes"], Strings),
        (&["archive"], Strings),
        (&["seen_signatures"], Strings),
        (&["divergents"], Array),
        (&["divergents", "0", "source"], Str),
        (&["divergents", "0", "probe"], Str),
        (&["divergents", "0", "signature"], Str),
        (&["divergents", "0", "generation"], U32),
        (&["divergents", "0", "fitness"], Signed),
    ];
    let decode = |v: &Json| progen::EvolveState::from_json(v).map(drop);
    refuses_bad_fields("evolve state", &state, fields, decode);
    // Contents the type alone does not rule out.
    for (path, value) in [
        (&["seed"][..], r#""-1""#),
        (&["seed"], r#""18446744073709551616""#),
        (&["population_size"], "1"),
        (&["population_size"], "4097"),
        (&["population", "1", "probes"], r#"["+f"]"#),
        (&["divergents", "0", "probe"], r#""a\u00e90""#),
    ] {
        let bad = with_field(&state, path, Some(&Json::parse(value).unwrap()));
        let err = decode(&bad).unwrap_err();
        let key = path.last().unwrap();
        assert!(err.contains(&format!("`{key}`")), "{path:?} {value}: {err}");
    }
}

/// The two `state.json` edits `compdiff progen evolve --resume` used to
/// accept: a find's generation past `u32` (read as 1) and a numeric
/// archive entry (dropped).
#[test]
fn a_state_with_a_wrapped_generation_or_a_numeric_archive_entry_is_refused() {
    let state = evolve_state().to_json();
    for (path, value, want) in [
        (
            &["divergents", "0", "generation"][..],
            "4294967297",
            "field `generation` is out of range",
        ),
        (
            &["archive"],
            r#"["lint-key",7]"#,
            "field `archive` is not an array of strings",
        ),
    ] {
        let bad = with_field(&state, path, Some(&Json::parse(value).unwrap()));
        let err = progen::EvolveState::from_json(&bad).unwrap_err();
        assert_eq!(err, want);
    }
}

#[test]
fn mutated_evolve_states_decode_or_fail_typed() {
    let valid = evolve_state().to_json().render_pretty().into_bytes();
    let mut rng = Rng::new(0x57A7E);
    let mut decoded = 0;
    for _ in 0..1_000 {
        let mutant = mutate(&valid, JSON_BYTES, &mut rng);
        let Ok(text) = std::str::from_utf8(&mutant) else {
            continue;
        };
        if let Ok(v) = Json::parse(text) {
            decoded += usize::from(progen::EvolveState::from_json(&v).is_ok());
        }
    }
    assert!(decoded < 1_000, "every mutant decoded");
}
