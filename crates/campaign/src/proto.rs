//! The coordinator/worker protocol: the typed [`Frame`]s every worker
//! link carries, and their JSON codec for the process transport (see
//! DESIGN.md §17).
//!
//! Worker threads exchange [`Frame`] values over `mpsc` as they are.
//! Worker processes exchange them as line-delimited JSON over a local
//! TCP socket: one `compdiff::Json` object per line, tagged with a `"t"`
//! field. This module is the only place a frame is JSON-encoded. The
//! conversation:
//!
//! ```text
//! worker → hello {pid}                 coordinator → config {campaign...}   (processes only)
//! worker → lease_req (once, first)     coordinator → lease {lease, target, shard, attempt}
//! worker → renew {lease}               (no reply; refreshes the expiry clock)
//! worker → done {lease, record, ...}   coordinator → ack, then the next lease
//! worker → failed {lease, kind, ...}   coordinator → ack, then the next lease
//! (campaign drained)                   coordinator → shutdown
//! worker → bye {metrics}, closes
//! anyone → status                      coordinator → status {progress...}, closes
//! ```
//!
//! The config frame carries everything a worker process needs to
//! rebuild its `CampaignConfig` and target set; targets travel as (name,
//! magic, src, hex seeds) and are recompiled by the worker's own
//! `BinaryCache`. `DiffConfig::filters` does not cross the wire — the
//! CLI cannot set filters, so campaign workers always run with the
//! default (empty) filter set. No line may exceed [`MAX_FRAME_BYTES`]:
//! the status endpoint accepts connections from any local process, so a
//! reader never buffers an unbounded line.

use crate::scheduler::{Job, JobOutput};
use crate::{CampaignConfig, FailureKind, FaultPlan, JobRecord, LintTally};
use compdiff::{hex_encode, FieldError, Json};
use minc_compile::CompilerImpl;
use minc_vm::SessionStats;
use staticheck::Defect;
use std::io::{BufRead, Read, Write};
use std::sync::Arc;
use targets::{Target, TargetSpec};

/// The largest frame, newline included, a reader accepts. A catalog
/// config frame is under 100 KB.
pub(crate) const MAX_FRAME_BYTES: usize = 4 << 20;

/// One message on a worker link, in either direction.
#[derive(Debug)]
pub(crate) enum Frame {
    /// Worker → coordinator: ready for its first job (every later lease
    /// follows an [`Ack`](Frame::Ack) unasked).
    LeaseReq,
    /// Coordinator → worker: run `job` under lease id `lease`.
    Lease { lease: u64, job: Job },
    /// Worker → coordinator: still working on `lease`.
    Renew { lease: u64 },
    /// Worker → coordinator: the leased job finished. `out.worker` is 0
    /// on the link; the coordinator stamps its own worker index.
    Done {
        lease: u64,
        out: JobOutput,
        metrics: Json,
    },
    /// Worker → coordinator: the leased attempt failed.
    Failed {
        lease: u64,
        kind: FailureKind,
        message: String,
        metrics: Json,
    },
    /// Coordinator → worker: result applied; the next lease (or
    /// `shutdown`) follows.
    Ack,
    /// Coordinator → worker: the campaign is over.
    Shutdown,
    /// Worker → coordinator: final metric snapshot, then the link closes.
    Bye { metrics: Json },
}

impl Frame {
    /// The JSON form of this frame.
    pub(crate) fn to_json(&self) -> Json {
        let (tag, mut fields) = match self {
            Frame::LeaseReq => ("lease_req", vec![]),
            Frame::Lease { lease, job } => (
                "lease",
                vec![
                    ("lease", Json::Int(*lease as i64)),
                    ("target", Json::Int(job.target_index as i64)),
                    ("shard", Json::Int(i64::from(job.shard))),
                    ("attempt", Json::Int(i64::from(job.attempt))),
                ],
            ),
            Frame::Renew { lease } => ("renew", vec![("lease", Json::Int(*lease as i64))]),
            Frame::Done {
                lease,
                out,
                metrics,
            } => (
                "done",
                vec![
                    ("lease", Json::Int(*lease as i64)),
                    ("record", out.record.to_json()),
                    ("dur_us", Json::Int(out.dur_us as i64)),
                    ("vm", vm_to_json(&out.vm)),
                    ("lint", out.lint.to_json()),
                    ("metrics", metrics.clone()),
                ],
            ),
            Frame::Failed {
                lease,
                kind,
                message,
                metrics,
            } => (
                "failed",
                vec![
                    ("lease", Json::Int(*lease as i64)),
                    ("kind", Json::Str(kind.as_str().to_string())),
                    ("message", Json::Str(message.clone())),
                    ("metrics", metrics.clone()),
                ],
            ),
            Frame::Ack => ("ack", vec![]),
            Frame::Shutdown => ("shutdown", vec![]),
            Frame::Bye { metrics } => ("bye", vec![("metrics", metrics.clone())]),
        };
        fields.insert(0, ("t", Json::Str(tag.to_string())));
        Json::obj(fields)
    }

    /// Decodes a frame. Every field the encoder writes is required.
    ///
    /// # Errors
    ///
    /// Names the frame's tag and what is unknown, missing or malformed.
    pub(crate) fn from_json(v: &Json) -> Result<Frame, String> {
        let tag = frame_type(v).unwrap_or("");
        Frame::decode(tag, v).map_err(|e| format!("{tag} frame: {e}"))
    }

    fn decode(tag: &str, v: &Json) -> Result<Frame, String> {
        Ok(match tag {
            "lease_req" => Frame::LeaseReq,
            "lease" => Frame::Lease {
                lease: v.int_field("lease")?,
                job: Job {
                    target_index: v.int_field("target")?,
                    shard: v.int_field("shard")?,
                    attempt: v.int_field("attempt")?,
                },
            },
            "renew" => Frame::Renew {
                lease: v.int_field("lease")?,
            },
            "done" => Frame::Done {
                lease: v.int_field("lease")?,
                out: JobOutput {
                    worker: 0,
                    record: JobRecord::from_json(v.object_field("record")?)?,
                    dur_us: v.int_field("dur_us")?,
                    vm: vm_from_json(v.object_field("vm")?)?,
                    lint: LintTally::from_frame(v).map_err(|e| e.to_string())?,
                },
                metrics: v.field("metrics")?.clone(),
            },
            "failed" => Frame::Failed {
                lease: v.int_field("lease")?,
                kind: FailureKind::parse(v.str_field("kind")?)?,
                message: v.str_field("message")?.to_string(),
                metrics: v.field("metrics")?.clone(),
            },
            "ack" => Frame::Ack,
            "shutdown" => Frame::Shutdown,
            "bye" => Frame::Bye {
                metrics: v.field("metrics")?.clone(),
            },
            _ => return Err("unknown frame type".to_string()),
        })
    }
}

/// Writes one frame: compact JSON, newline, flush.
pub(crate) fn write_frame(w: &mut impl Write, v: &Json) -> std::io::Result<()> {
    writeln!(w, "{}", v.render())?;
    w.flush()
}

/// Reads one frame; `Ok(None)` is a clean EOF (peer closed). A line
/// longer than [`MAX_FRAME_BYTES`] fails with `InvalidData` after
/// buffering at most one byte past the cap.
pub(crate) fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<Json>> {
    let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut line = String::new();
    let n = r.take(MAX_FRAME_BYTES as u64 + 1).read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    Json::parse(line.trim_end())
        .map(Some)
        .map_err(|e| invalid(e.to_string()))
}

/// The frame's `"t"` tag.
pub(crate) fn frame_type(v: &Json) -> Option<&str> {
    v.get("t").and_then(Json::as_str)
}

/// A one-field frame: `{"t": tag}`.
pub(crate) fn tagged(tag: &str) -> Json {
    Json::obj(vec![("t", Json::Str(tag.to_string()))])
}

/// Serializes the campaign parameters plus the selected targets into
/// the config frame a worker process receives after `hello`.
pub(crate) fn config_frame(cfg: &CampaignConfig, targets: &[Target]) -> Json {
    let int = |n: u64| Json::Int(n as i64);
    let vm = &cfg.diff_config.vm;
    let targets_json = targets
        .iter()
        .map(|t| {
            let magic = t.spec.magic.iter().map(|&b| int(b.into())).collect();
            let seeds = t.seeds.iter().map(|s| Json::Str(hex_encode(s))).collect();
            Json::obj(vec![
                ("name", Json::Str(t.spec.name.clone())),
                ("magic", Json::Array(magic)),
                ("src", Json::Str(t.src.clone())),
                ("seeds", Json::Array(seeds)),
            ])
        })
        .collect();
    let spec = |p: &Arc<FaultPlan>| Json::Str(p.spec().to_string());
    Json::obj(vec![
        ("t", Json::Str("config".to_string())),
        ("seed", int(cfg.seed)),
        ("execs_per_target", int(cfg.execs_per_target)),
        ("shards", int(cfg.shards_per_target.into())),
        ("max_input_len", int(cfg.max_input_len as u64)),
        ("batch_size", int(cfg.batch_size as u64)),
        ("fuzz_impl", Json::Str(cfg.fuzz_impl.to_string())),
        ("step_limit", int(vm.step_limit)),
        ("max_frames", int(vm.max_frames as u64)),
        ("heap_limit", int(vm.heap_limit)),
        (
            "timeout_escalations",
            int(cfg.diff_config.timeout_escalations.into()),
        ),
        ("fixed_clock_us", cfg.fixed_clock_us.map_or(Json::Null, int)),
        (
            "fault_plan",
            cfg.fault_plan.as_ref().map_or(Json::Null, spec),
        ),
        ("targets", Json::Array(targets_json)),
    ])
}

/// Rebuilds the worker-side `CampaignConfig` and target set from a
/// config frame, re-parsing the fault plan under the campaign seed. The
/// reconstructed `Target`s carry wire placeholders for the catalog-only
/// metadata (`input_type`, `version`, `bugs`) — the campaign path
/// compiles from `src` and never reads those fields.
pub(crate) fn parse_config(v: &Json) -> Result<(CampaignConfig, Vec<Target>), String> {
    let mut cfg = CampaignConfig {
        // The bit-cast back of `config_frame`'s.
        seed: v.int_field::<i64>("seed")? as u64,
        execs_per_target: v.int_field("execs_per_target")?,
        shards_per_target: v.int_field("shards")?,
        max_input_len: v.int_field("max_input_len")?,
        batch_size: v.int_field("batch_size")?,
        ..CampaignConfig::default()
    };
    let fuzz_impl = v.str_field("fuzz_impl")?;
    cfg.fuzz_impl =
        CompilerImpl::parse(fuzz_impl).ok_or(format!("unknown fuzz_impl `{fuzz_impl}`"))?;
    cfg.diff_config.vm.step_limit = v.int_field("step_limit")?;
    cfg.diff_config.vm.max_frames = v.int_field("max_frames")?;
    cfg.diff_config.vm.heap_limit = v.int_field("heap_limit")?;
    cfg.diff_config.timeout_escalations = v.int_field("timeout_escalations")?;
    cfg.fixed_clock_us = match v.field("fixed_clock_us")? {
        Json::Null => None,
        _ => Some(v.int_field("fixed_clock_us")?),
    };
    cfg.fault_plan = match v.field("fault_plan")? {
        Json::Null => None,
        _ => Some(Arc::new(FaultPlan::parse(
            v.str_field("fault_plan")?,
            cfg.seed,
        )?)),
    };

    let mut targets = Vec::new();
    for t in v.array_field("targets")? {
        let magic = <[u8; 2]>::try_from(t.ints_field::<u8>("magic")?)
            .map_err(|_| "field `magic` is not two bytes")?;
        targets.push(Target {
            spec: TargetSpec {
                name: t.str_field("name")?.to_string(),
                input_type: "wire",
                version: "wire",
                magic,
                bugs: Vec::new(),
            },
            src: t.str_field("src")?.to_string(),
            seeds: t.hex_list_field("seeds")?,
        });
    }
    Ok((cfg, targets))
}

// The `done` frame's `lint` field; public, like the tally, so that
// tests outside the crate can check the codec.
impl LintTally {
    /// The `lint` object of a `done` frame:
    /// `{"scan_us": n, "findings": {"<defect>": n, ...}}`.
    pub fn to_json(&self) -> Json {
        let findings = self
            .findings
            .iter()
            .map(|(d, &n)| (d.to_string(), Json::Int(n as i64)))
            .collect();
        Json::obj(vec![
            ("scan_us", Json::Int(self.scan_us as i64)),
            ("findings", Json::Object(findings)),
        ])
    }

    /// Reads the `lint` object of a `done` frame.
    ///
    /// # Errors
    ///
    /// [`LintTallyError`] when the frame has no `lint` object, a defect
    /// name is unknown, or a count or the scan time is not a
    /// non-negative integer.
    pub fn from_frame(frame: &Json) -> Result<Self, LintTallyError> {
        let missing = |_| LintTallyError::Missing;
        let bad_count = |name: &str| LintTallyError::BadCount(name.to_string());
        let lint = frame.object_field("lint").map_err(missing)?;
        let findings = lint.object_field("findings").map_err(missing)?;
        let mut tally = LintTally {
            scan_us: lint
                .int_field("scan_us")
                .map_err(|_| bad_count("scan_us"))?,
            ..LintTally::default()
        };
        for name in findings.keys() {
            let defect = Defect::parse(name)
                .ok_or_else(|| LintTallyError::UnknownDefect(name.to_string()))?;
            let n = findings.int_field(name).map_err(|_| bad_count(name))?;
            tally.findings.insert(defect, n);
        }
        Ok(tally)
    }
}

/// Why a `done` frame's lint tally does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintTallyError {
    /// The frame has no `lint` object, or the object no `findings`.
    Missing,
    /// A `findings` key names no defect class.
    UnknownDefect(String),
    /// The count of this defect class, or `scan_us`, is not a
    /// non-negative integer.
    BadCount(String),
}

impl std::fmt::Display for LintTallyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintTallyError::Missing => write!(f, "missing lint tally"),
            LintTallyError::UnknownDefect(d) => write!(f, "unknown lint defect `{d}`"),
            LintTallyError::BadCount(k) => write!(f, "bad lint count for `{k}`"),
        }
    }
}

impl std::error::Error for LintTallyError {}

/// The `done` frame's VM-statistics fields, by wire name.
fn vm_fields(vm: &mut SessionStats) -> [(&'static str, &mut u64); 9] {
    [
        ("runs", &mut vm.runs),
        ("pages_restored", &mut vm.pages_restored),
        ("pages_materialized", &mut vm.pages_materialized),
        ("bulk_builtin_ops", &mut vm.bulk_builtin_ops),
        ("fallback_builtin_ops", &mut vm.fallback_builtin_ops),
        ("poisoned_rebuilds", &mut vm.poisoned_rebuilds),
        ("blocks_translated", &mut vm.blocks_translated),
        ("block_cache_hits", &mut vm.block_cache_hits),
        ("loader_skips", &mut vm.loader_skips),
    ]
}

/// Serializes one job's VM-session statistics for the `done` frame.
pub(crate) fn vm_to_json(vm: &SessionStats) -> Json {
    let mut vm = *vm;
    let fields = vm_fields(&mut vm).map(|(k, v)| (k, Json::Int(*v as i64)));
    Json::obj(fields.to_vec())
}

/// Reads the VM statistics back out of a `done` frame's `vm` object.
///
/// # Errors
///
/// The first of the nine fields that is missing or not a non-negative
/// integer.
pub(crate) fn vm_from_json(v: &Json) -> Result<SessionStats, FieldError> {
    let mut vm = SessionStats::default();
    for (k, field) in vm_fields(&mut vm) {
        *field = v.int_field(k)?;
    }
    Ok(vm)
}

#[cfg(test)]
mod tests {
    // test-only: unwraps in this module assert test invariants.
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &tagged("hello")).unwrap();
        write_frame(&mut buf, &tagged("ack")).unwrap();
        let mut r = std::io::BufReader::new(buf.as_slice());
        let first = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame_type(&first), Some("hello"));
        let second = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame_type(&second), Some("ack"));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// An over-cap line is refused with `InvalidData` instead of being
    /// buffered whole; a frame exactly at the cap still reads.
    #[test]
    fn oversized_frames_are_refused_through_a_pipe() {
        let fits = format!("\"{}\"\n", "a".repeat(MAX_FRAME_BYTES - 3));
        assert_eq!(fits.len(), MAX_FRAME_BYTES);
        let mut r = std::io::BufReader::new(fits.as_bytes());
        assert!(read_frame(&mut r).unwrap().is_some(), "at the cap");

        let mut huge = vec![b'a'; MAX_FRAME_BYTES + 10];
        huge.push(b'\n');
        let mut r = std::io::BufReader::new(huge.as_slice());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn typed_frames_roundtrip_through_json() {
        let metrics = Json::obj(vec![("counters", Json::obj(vec![]))]);
        let frames = vec![
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
                    record: JobRecord {
                        target: "jq".to_string(),
                        shard: 2,
                        execs: 10,
                        oracle_execs: 100,
                        divergent: 1,
                        crashes: 0,
                        signatures: vec!["sig".to_string()],
                    },
                    dur_us: 5,
                    vm: SessionStats {
                        block_cache_hits: 9,
                        ..SessionStats::default()
                    },
                    lint: LintTally {
                        findings: [(staticheck::Defect::IntegerOverflow, 2)].into(),
                        scan_us: 4,
                    },
                },
                metrics: metrics.clone(),
            },
            Frame::Failed {
                lease: 8,
                kind: FailureKind::Panic,
                message: "boom".to_string(),
                metrics: metrics.clone(),
            },
            Frame::Ack,
            Frame::Shutdown,
            Frame::Bye { metrics },
        ];
        for f in frames {
            let wire = Json::parse(&f.to_json().render()).unwrap();
            let back = Frame::from_json(&wire).unwrap();
            assert_eq!(format!("{back:?}"), format!("{f:?}"));
            // A `done` frame without its lint tally is refused, never
            // read as an empty lint (tests/proto.rs covers bad tallies).
            if let (Frame::Done { .. }, Json::Object(mut fields)) = (&f, wire) {
                fields.retain(|(k, _)| k != "lint");
                let err = Frame::from_json(&Json::Object(fields)).unwrap_err();
                assert_eq!(err, "done frame: missing lint tally");
            }
        }
        assert!(Frame::from_json(&tagged("nope")).is_err());
        assert!(Frame::from_json(&tagged("done")).is_err(), "missing fields");
    }

    #[test]
    fn config_frame_roundtrips_parameters_and_targets() {
        let mut cfg = CampaignConfig {
            seed: u64::MAX - 3, // exercises the i64 bit-cast
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
        cfg.diff_config.vm.step_limit = 12_345;
        cfg.diff_config.vm.heap_limit = 1 << 20;
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
        let frame = config_frame(&cfg, &targets);
        // The frame survives an actual render/parse cycle (the wire).
        let parsed = Json::parse(&frame.render()).unwrap();
        let (got_cfg, got_targets) = parse_config(&parsed).unwrap();
        assert_eq!(got_cfg.seed, cfg.seed);
        assert_eq!(got_cfg.execs_per_target, 777);
        assert_eq!(got_cfg.shards_per_target, 3);
        assert_eq!(got_cfg.max_input_len, 48);
        assert_eq!(got_cfg.batch_size, 8);
        assert_eq!(got_cfg.diff_config.vm.step_limit, 12_345);
        assert_eq!(got_cfg.diff_config.vm.heap_limit, 1 << 20);
        assert_eq!(got_cfg.fixed_clock_us, Some(5));
        assert_eq!(
            got_cfg.fault_plan.as_ref().map(|p| p.spec()),
            Some("die@tcpdump#0")
        );
        assert_eq!(got_targets.len(), 1);
        assert_eq!(got_targets[0].spec.name, "tcpdump");
        assert_eq!(got_targets[0].spec.magic, [0xD4, 0xC3]);
        assert_eq!(got_targets[0].src, targets[0].src);
        assert_eq!(got_targets[0].seeds, targets[0].seeds);
    }

    #[test]
    fn vm_stats_roundtrip() {
        let vm = SessionStats {
            runs: 1,
            pages_restored: 2,
            pages_materialized: 3,
            bulk_builtin_ops: 4,
            fallback_builtin_ops: 5,
            poisoned_rebuilds: 6,
            blocks_translated: 7,
            block_cache_hits: 8,
            loader_skips: 9,
        };
        assert_eq!(vm_from_json(&vm_to_json(&vm)), Ok(vm));
    }
}
