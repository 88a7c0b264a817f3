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
use crate::{CampaignConfig, FailureKind, FaultPlan, JobRecord};
use compdiff::{hex_decode, hex_encode, Json};
use minc_compile::CompilerImpl;
use minc_vm::SessionStats;
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
        dur_us: u64,
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
                    ("metrics", metrics.clone()),
                ],
            ),
            Frame::Failed {
                lease,
                kind,
                message,
                dur_us,
                metrics,
            } => (
                "failed",
                vec![
                    ("lease", Json::Int(*lease as i64)),
                    ("kind", Json::Str(kind.as_str().to_string())),
                    ("message", Json::Str(message.clone())),
                    ("dur_us", Json::Int(*dur_us as i64)),
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

    /// Decodes a frame.
    ///
    /// # Errors
    ///
    /// Names the unknown tag or the missing or malformed field.
    pub(crate) fn from_json(v: &Json) -> Result<Frame, String> {
        let tag = frame_type(v).unwrap_or("");
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("{tag} frame missing {k}"))
        };
        let small = |k: &str| u32::try_from(u(k)?).map_err(|_| format!("{tag} frame: bad {k}"));
        let metrics = || {
            v.get("metrics")
                .cloned()
                .ok_or(format!("{tag} frame missing metrics"))
        };
        Ok(match tag {
            "lease_req" => Frame::LeaseReq,
            "lease" => Frame::Lease {
                lease: u("lease")?,
                job: Job {
                    target_index: usize::try_from(u("target")?).map_err(|e| e.to_string())?,
                    shard: small("shard")?,
                    attempt: small("attempt")?,
                },
            },
            "renew" => Frame::Renew { lease: u("lease")? },
            "done" => Frame::Done {
                lease: u("lease")?,
                out: JobOutput {
                    worker: 0,
                    record: JobRecord::from_json(
                        v.get("record").ok_or("done frame missing record")?,
                    )?,
                    dur_us: u("dur_us")?,
                    vm: v.get("vm").map(vm_from_json).unwrap_or_default(),
                },
                metrics: metrics()?,
            },
            "failed" => Frame::Failed {
                lease: u("lease")?,
                kind: FailureKind::parse(
                    v.get("kind")
                        .and_then(Json::as_str)
                        .ok_or("failed frame missing kind")?,
                )?,
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                dur_us: u("dur_us")?,
                metrics: metrics()?,
            },
            "ack" => Frame::Ack,
            "shutdown" => Frame::Shutdown,
            "bye" => Frame::Bye {
                metrics: metrics()?,
            },
            other => return Err(format!("unknown frame type `{other}`")),
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
    let int = |k: &str| {
        v.get(k)
            .and_then(Json::as_i64)
            .ok_or(format!("config missing {k}"))
    };
    let mut cfg = CampaignConfig {
        seed: int("seed")? as u64,
        execs_per_target: int("execs_per_target")? as u64,
        shards_per_target: u32::try_from(int("shards")?).map_err(|_| "shards out of range")?,
        max_input_len: usize::try_from(int("max_input_len")?)
            .map_err(|_| "max_input_len out of range")?,
        batch_size: usize::try_from(int("batch_size")?).map_err(|_| "batch_size out of range")?,
        ..CampaignConfig::default()
    };
    let fuzz_impl = v
        .get("fuzz_impl")
        .and_then(Json::as_str)
        .ok_or("config missing fuzz_impl")?;
    cfg.fuzz_impl =
        CompilerImpl::parse(fuzz_impl).ok_or(format!("unknown fuzz_impl `{fuzz_impl}`"))?;
    cfg.diff_config.vm.step_limit = int("step_limit")? as u64;
    cfg.diff_config.vm.max_frames =
        usize::try_from(int("max_frames")?).map_err(|_| "max_frames out of range")?;
    cfg.diff_config.vm.heap_limit = int("heap_limit")? as u64;
    cfg.diff_config.timeout_escalations =
        u32::try_from(int("timeout_escalations")?).map_err(|_| "timeout_escalations range")?;
    cfg.fixed_clock_us = match v.get("fixed_clock_us") {
        Some(Json::Null) | None => None,
        Some(t) => Some(t.as_i64().ok_or("bad fixed_clock_us")? as u64),
    };
    cfg.fault_plan = match v.get("fault_plan") {
        Some(Json::Str(spec)) => Some(Arc::new(FaultPlan::parse(spec, cfg.seed)?)),
        _ => None,
    };

    let mut targets = Vec::new();
    for t in v
        .get("targets")
        .and_then(Json::as_array)
        .ok_or("config missing targets")?
    {
        let name = t
            .get("name")
            .and_then(Json::as_str)
            .ok_or("target missing name")?
            .to_string();
        let magic_arr = t
            .get("magic")
            .and_then(Json::as_array)
            .ok_or("target missing magic")?;
        let byte = |i: usize| {
            magic_arr
                .get(i)
                .and_then(Json::as_u64)
                .and_then(|b| u8::try_from(b).ok())
                .ok_or("bad magic byte")
        };
        let magic = [byte(0)?, byte(1)?];
        let src = t
            .get("src")
            .and_then(Json::as_str)
            .ok_or("target missing src")?
            .to_string();
        let seeds = t
            .get("seeds")
            .and_then(Json::as_array)
            .ok_or("target missing seeds")?
            .iter()
            .map(|s| hex_decode(s.as_str().ok_or("non-string seed")?))
            .collect::<Result<Vec<_>, _>>()?;
        targets.push(Target {
            spec: TargetSpec {
                name,
                input_type: "wire",
                version: "wire",
                magic,
                bugs: Vec::new(),
            },
            src,
            seeds,
        });
    }
    Ok((cfg, targets))
}

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

/// Reads the VM statistics back out of a `done` frame.
pub(crate) fn vm_from_json(v: &Json) -> SessionStats {
    let mut vm = SessionStats::default();
    for (k, field) in vm_fields(&mut vm) {
        *field = v.get(k).and_then(Json::as_u64).unwrap_or(0);
    }
    vm
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
                },
                metrics: metrics.clone(),
            },
            Frame::Failed {
                lease: 8,
                kind: FailureKind::Panic,
                message: "boom".to_string(),
                dur_us: 3,
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
        assert_eq!(vm_from_json(&vm_to_json(&vm)), vm);
    }
}
