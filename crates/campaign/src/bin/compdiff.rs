//! The `compdiff` command-line tool: differential-test, fuzz, triage, and
//! campaign-orchestrate MinC programs the way the paper's artifact drives
//! real C programs.
//!
//! ```text
//! compdiff impls
//! compdiff run  prog.mc [--input STR|--input-file F] [--impls gcc-O0,clang-O3] [--minimize]
//! compdiff fuzz prog.mc [--execs N] [--seed N] [--feedback] [--max-len N]
//! compdiff scan prog.mc              # static analyzers + sanitizers + CompDiff
//! compdiff lint prog.mc [--json]     # IR-level unstable-code lint
//! compdiff lint --all                #   ... over the whole target catalog
//! compdiff sancheck prog.mc [--json] # sanitizer meta-oracle (validate the sanitizers)
//! compdiff sancheck --all            #   ... over the whole target catalog
//! compdiff campaign [--workers N] [--execs-per-target N] [--resume DIR]
//! compdiff campaign --workers-proc N  # coordinator over N worker processes
//! compdiff campaign-worker --connect HOST:PORT   # one worker process
//! compdiff campaign-status --connect HOST:PORT   # live campaign status
//! compdiff progen generate|evolve|reduce   # evolutionary program generation

//! ```

use campaign::{CampaignConfig, StateError};
use compdiff::{
    hex_decode, hex_encode, minimize, CompDiff, CompDiffAfl, DiffConfig, Discrepancy, Json,
};
use fuzzing::{FuzzConfig, Rng};
use minc_compile::CompilerImpl;
use minc_vm::{ExitStatus, SanitizerKind, VmConfig};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use targets::TargetSource;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "impls" => cmd_impls(),
        "run" => cmd_run(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        "scan" => cmd_scan(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "sancheck" => cmd_sancheck(&args[1..]),
        "campaign" => cmd_campaign(&args[1..]),
        "campaign-worker" => cmd_campaign_worker(&args[1..]),
        "campaign-status" => cmd_campaign_status(&args[1..]),
        "progen" => cmd_progen(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "\
compdiff — compiler-driven differential testing for MinC programs

USAGE:
  compdiff impls                         list the compiler implementations
  compdiff run  <prog.mc> [options]      run all binaries on one input
      --input <str>        input bytes (default: empty)
      --input-file <path>  read input bytes from a file
      --impls <a,b,...>    implementations (default: all ten)
      --minimize           shrink the input while the bug persists
  compdiff fuzz <prog.mc> [options]      CompDiff-AFL++ campaign
      --execs <n>          fuzz-binary executions (default 50000)
      --seed <n>           campaign RNG seed (default 1)
      --max-len <n>        maximum input length (default 64)
      --batch-size <n>     inputs per batched oracle sweep (default 16)
      --feedback           NEZHA-style divergence feedback
  compdiff scan <prog.mc>                static analyzers + sanitizers + CompDiff
  compdiff lint <prog.mc> [options]      IR-level unstable-code lint
      --all                lint every catalog target instead of one file
      --dir <dir>          with --all: lint generated *.mc from <dir> instead
      --impls <a,b,...>    provenance implementations (default: all ten)
      --workers <n>        threads for --all (default 4)
      --json               machine-readable output (stable schema)
  compdiff sancheck <prog.mc> [options]  sanitizer meta-oracle: build the static
                                         UB ground-truth map, run every impl's
                                         sanitized build, flag sanitizer false
                                         negatives/alarms and verdict splits
      --all                audit every catalog target instead of one file
      --dir <dir>          with --all: audit generated *.mc from <dir> instead
      --impls <a,b,...>    implementations to cross-check (default: all ten)
      --workers <n>        threads for --all (default 4)
      --input <str>        input bytes fed to every run (default: empty)
      --fault-plan <spec>  plant sanitizer defects, e.g.
                           'suppress@msan,fire@ubsan:shift-out-of-bounds#1'
      --json               machine-readable output (stable schema)
  compdiff campaign [options]            parallel campaign over the target catalog
      --workers <n>          worker threads (default 4; results and, under
                             --fixed-clock, report and metrics stream are
                             identical at any count)
      --execs-per-target <n> fuzz-binary budget per target (default 2000)
      --shards <n>           seed shards per target (default 4)
      --seed <n>             campaign RNG seed (default 0xCA3D)
      --max-len <n>          maximum input length (default 64)
      --batch-size <n>       inputs per batched oracle sweep (default 16;
                             1 = strict per-input interleaving)
      --targets <a,b,...>    restrict to these catalog targets
      --checkpoint <dir>     write checkpoint.jsonl under <dir>
      --resume <dir>         resume a checkpointed campaign from <dir>
      --stop-after <n>       abort after n resolved job attempts (kill testing)
      --max-retries <n>      re-runs granted to a failed job (default 2)
      --quarantine-after <n> failures before a target is quarantined (default 3)
      --fault-plan <spec>    inject deterministic faults, e.g.
                             'panic@tcpdump#0,io@checkpoint:3' (testing)
      --metrics-out <path>   stream telemetry events (JSONL) to <path>
      --progress-every <n>   progress + execs/sec to stderr every n jobs
      --fixed-clock <us>     pin the telemetry clock (deterministic streams)
      --progen-dir <dir>     also fuzz generated programs (*.mc) from <dir>
      --sancheck             post-fuzz sanitizer audit over every selected
                             target (publishes sancheck.* metrics)
      --workers-proc <n>     run the workers as n *processes* instead
                             (JSON frames over a local socket)
      --status-addr-out <p>  write the live status endpoint's host:port to <p>
      --quiet                suppress the live progress line
  compdiff campaign-worker --connect <host:port>
                                         one worker process (spawned by the
                                         coordinator; not normally run by hand)
  compdiff campaign-status --connect <host:port>
                                         query a running coordinator's live
                                         status (progress + merged metrics)
  compdiff progen <subcommand> [options]  evolutionary program generation
    generate --seed <n> [--count <n>] [--out-dir <dir>]
                             emit seeded idiom-biased programs
    evolve --seed <n> --generations <n> [--population <n> (at most 4096)]
           [--out-dir <dir>] [--resume] [--no-reduce]
           [--metrics-out <path>] [--fixed-clock <us>]
                             run the evolutionary loop; writes
                             generations.jsonl, state.json, divergent_*.mc
                             and auto-reduced witness_*.mc under --out-dir
    reduce <prog.mc> [--input <str>|--input-hex <hex>] [--out <path>]
                             shrink a diverging program to a minimal witness";

// The flags each subcommand reads, space-separated; a trailing `=` marks
// a flag whose value is the next token.
const RUN_FLAGS: &str = "--input= --input-file= --impls= --minimize";
const FUZZ_FLAGS: &str = "--execs= --seed= --max-len= --batch-size= --feedback";
const LINT_FLAGS: &str = "--all --dir= --impls= --workers= --json";
const SANCHECK_FLAGS: &str = "--all --dir= --impls= --workers= --input= --fault-plan= --json";
const CAMPAIGN_FLAGS: &str = "--workers= --execs-per-target= --shards= --seed= --max-len= \
    --batch-size= --targets= --checkpoint= --resume= --stop-after= --max-retries= \
    --quarantine-after= --fault-plan= --metrics-out= --progress-every= --fixed-clock= \
    --progen-dir= --sancheck --workers-proc= --status-addr-out= --quiet";
const CONNECT_FLAGS: &str = "--connect=";
const GENERATE_FLAGS: &str = "--seed= --count= --out-dir=";
const EVOLVE_FLAGS: &str = "--seed= --generations= --population= --out-dir= --resume \
    --no-reduce --metrics-out= --fixed-clock=";
const REDUCE_FLAGS: &str = "--input= --input-file= --input-hex= --out=";

/// One subcommand's arguments, checked against the flags it reads.
struct Args {
    /// The program file: the token that is neither a flag nor a flag's
    /// value.
    path: Option<String>,
    /// Each flag given, in order, with its value when it takes one.
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Splits `args` into the flags of `spec` and at most one program
    /// path (none when `takes_path` is false). An unknown flag, a flag
    /// missing its value or a stray positional is an error that names it.
    fn parse(args: &[String], spec: &'static str, takes_path: bool) -> Result<Args, String> {
        let mut out = Args {
            path: None,
            flags: Vec::new(),
        };
        let mut tokens = args.iter();
        while let Some(tok) = tokens.next() {
            if !tok.starts_with("--") {
                if !takes_path || out.path.is_some() {
                    return Err(format!("unexpected argument `{tok}`"));
                }
                out.path = Some(tok.clone());
                continue;
            }
            let Some(flag) = spec
                .split_whitespace()
                .find(|f| f.strip_suffix('=').unwrap_or(f) == tok)
            else {
                return Err(format!("unknown flag `{tok}`"));
            };
            let value = match flag.strip_suffix('=') {
                Some(name) => Some(
                    tokens
                        .next()
                        .ok_or_else(|| format!("flag `{name}` needs a value"))?
                        .clone(),
                ),
                None => None,
            };
            out.flags.push((flag.trim_end_matches('='), value));
        }
        Ok(out)
    }

    /// The value of the first `name` flag.
    fn value(&self, name: &str) -> Option<String> {
        self.flags
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.clone())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }
}

fn load_source(args: &Args) -> Result<String, String> {
    let path = args.path.as_ref().ok_or("missing program file argument")?;
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_impls() -> Result<(), String> {
    println!("default compiler implementations (the paper's ten):");
    for ci in CompilerImpl::default_set() {
        let p = ci.personality();
        println!(
            "  {:<10} eval-order={:?}  stack=0x{:x}  heap=0x{:x}  passes={}",
            ci.to_string(),
            p.eval_order,
            p.stack_base,
            p.heap_base,
            p.pipeline.len()
        );
    }
    Ok(())
}

fn parse_impls(args: &Args) -> Result<Vec<CompilerImpl>, String> {
    match args.value("--impls") {
        None => Ok(CompilerImpl::default_set()),
        Some(list) => list
            .split(',')
            .map(|s| {
                CompilerImpl::parse(s.trim())
                    .ok_or_else(|| format!("unknown implementation `{s}` (try gcc-O2)"))
            })
            .collect(),
    }
}

fn read_input(args: &Args) -> Result<Vec<u8>, String> {
    if let Some(path) = args.value("--input-file") {
        return std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"));
    }
    Ok(args
        .value("--input")
        .map(String::into_bytes)
        .unwrap_or_default())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, RUN_FLAGS, true)?;
    let src = load_source(args)?;
    let impls = parse_impls(args)?;
    if impls.len() < 2 {
        return Err(format!(
            "--impls needs at least two implementations to compare, got {}",
            impls.len()
        ));
    }
    let input = read_input(args)?;
    let diff =
        CompDiff::from_source(&src, &impls, DiffConfig::default()).map_err(|e| e.to_string())?;
    let outcome = diff.run_input(&input);
    if !outcome.divergent {
        println!(
            "stable: all {} implementations agree on this input",
            impls.len()
        );
        let r = &outcome.results[0];
        println!("  status: {}", r.status);
        print!("{}", String::from_utf8_lossy(&r.stdout));
        return Ok(());
    }
    let mut input = input;
    if args.has("--minimize") {
        let (min, stats) = minimize(&diff, &input);
        println!(
            "minimized {} -> {} bytes in {} differential runs",
            stats.original_len, stats.minimized_len, stats.runs
        );
        input = min;
    }
    let outcome = diff.run_input(&input);
    let report = Discrepancy::from_outcome(&diff.impls(), &outcome, &input);
    println!("{}", report.render());
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, FUZZ_FLAGS, true)?;
    let src = load_source(args)?;
    let execs = parse_u64_flag(args, "--execs", 50_000)?;
    let seed = parse_u64_flag(args, "--seed", 1)?;
    let max_len = parse_u64_flag(args, "--max-len", 64)? as usize;
    let batch_size = parse_u64_flag(args, "--batch-size", 16)? as usize;
    if batch_size == 0 {
        return Err("bad --batch-size `0` (must be >= 1)".into());
    }
    let afl = CompDiffAfl::from_source_default(
        &src,
        FuzzConfig {
            max_execs: execs,
            seed,
            max_input_len: max_len,
            batch_size,
            ..Default::default()
        },
        DiffConfig::default(),
    )
    .map_err(|e| e.to_string())?
    .with_divergence_feedback(args.has("--feedback"));
    eprintln!("fuzzing ({execs} execs, seed {seed})...");
    let stats = afl.run(&[vec![b'A'; 4]]);
    println!(
        "execs={} (+{} differential)  corpus={}  edges={}  crashes={}  diffs={} ({} unique)",
        stats.campaign.execs,
        stats.oracle_execs,
        stats.campaign.corpus_len,
        stats.campaign.edges,
        stats.campaign.crashes.len(),
        stats.store.reports().len(),
        stats.store.unique_signatures()
    );
    for rep in stats.store.representatives() {
        println!("\n{}", rep.render());
    }
    Ok(())
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, "", true)?;
    let src = load_source(args)?;
    let checked = minc::check(&src).map_err(|e| e.to_string())?;

    println!("== static analyzers ==");
    let findings = staticheck::run_all(&checked);
    if findings.is_empty() {
        println!("  no findings");
    }
    for f in &findings {
        println!("  {f}");
    }

    println!("\n== sanitizers (empty input) ==");
    let vm = VmConfig::default();
    let bin = sanitizers::compile_sanitized(&src).map_err(|e| e.to_string())?;
    for kind in SanitizerKind::ALL {
        let r = sanitizers::run_sanitized(&bin, b"", &vm, kind);
        match r.status {
            ExitStatus::Sanitizer(f) => println!("  {kind}: {f}"),
            other => println!("  {kind}: clean ({other})"),
        }
    }

    println!("\n== CompDiff (empty input) ==");
    let diff =
        CompDiff::from_source_default(&src, DiffConfig::default()).map_err(|e| e.to_string())?;
    let outcome = diff.run_input(b"");
    if outcome.divergent {
        let report = Discrepancy::from_outcome(&diff.impls(), &outcome, b"");
        println!("{}", report.render());
    } else {
        println!("  stable on the empty input (try `compdiff fuzz`)");
    }
    Ok(())
}

/// Runs `analyze` over every target of the catalog (or a `--dir` of
/// generated programs) in parallel, printing each result in source order
/// so the output is deterministic at any worker count (the CI gate diffs
/// two runs). `json` switches the framing from `== name ==` text blocks
/// to one JSON array of `{target, ...}` objects.
fn run_over_targets(
    args: &Args,
    json: bool,
    analyze: impl Fn(&targets::Target) -> Result<(String, Json), String> + Sync,
) -> Result<(), String> {
    let workers: usize = match args.value("--workers") {
        Some(v) => v.parse().map_err(|_| format!("bad --workers `{v}`"))?,
        None => 4,
    };
    let built = match args.value("--dir") {
        None => TargetSource::targets(&targets::CatalogSource),
        Some(dir) => targets::dir_source(std::path::Path::new(&dir))
            .map_err(|e| format!("bad --dir: {e}"))?
            .targets(),
    };
    let n = built.len();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let outputs = std::sync::Mutex::new(vec![None::<(String, Json)>; n]);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1).min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = match analyze(&built[i]) {
                    Ok(cell) => cell,
                    Err(e) => (
                        format!("  frontend error: {e}\n"),
                        Json::obj(vec![("error", Json::Str(e))]),
                    ),
                };
                // Poison-proof: a panicking sibling worker must not turn
                // this worker's lock acquisition into a second panic.
                outputs.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(cell);
            });
        }
    });
    let mut json_rows = Vec::new();
    for (i, o) in outputs
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .enumerate()
    {
        let Some((text, j)) = o else {
            return Err(format!("worker died before target {i} was reported"));
        };
        if json {
            json_rows.push(match j {
                Json::Object(fields) => {
                    let mut with_name = vec![(
                        "target".to_string(),
                        Json::Str(built[i].spec.name.to_string()),
                    )];
                    with_name.extend(fields);
                    Json::Object(with_name)
                }
                other => Json::obj(vec![
                    ("target", Json::Str(built[i].spec.name.to_string())),
                    ("report", other),
                ]),
            });
        } else {
            print!("== {} ==\n{text}", built[i].spec.name);
        }
    }
    if json {
        println!("{}", Json::Array(json_rows).render_pretty());
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, LINT_FLAGS, true)?;
    let lint = staticheck_ir::UnstableLint {
        impls: parse_impls(args)?,
    };
    let json = args.has("--json");
    if !args.has("--all") {
        let src = load_source(args)?;
        let findings = lint.run_source(&src).map_err(|e| e.to_string())?;
        if json {
            println!(
                "{}",
                sancheck::json::lint_to_json(&findings).render_pretty()
            );
        } else if findings.is_empty() {
            println!("no findings");
        } else {
            print!("{}", staticheck_ir::render(&findings));
        }
        return Ok(());
    }
    run_over_targets(args, json, |t| {
        let findings = lint.run_source(&t.src).map_err(|e| e.to_string())?;
        let text = if findings.is_empty() {
            "  no findings\n".to_string()
        } else {
            staticheck_ir::render(&findings)
                .lines()
                .map(|l| format!("  {l}\n"))
                .collect()
        };
        Ok((text, sancheck::json::lint_to_json(&findings)))
    })
}

fn cmd_sancheck(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, SANCHECK_FLAGS, true)?;
    let mut cfg = sancheck::SancheckConfig {
        impls: parse_impls(args)?,
        input: args
            .value("--input")
            .map(String::into_bytes)
            .unwrap_or_default(),
        ..sancheck::SancheckConfig::default()
    };
    if let Some(spec) = args.value("--fault-plan") {
        cfg.fault_plan =
            sancheck::SanFaultPlan::parse(&spec).map_err(|e| format!("bad --fault-plan: {e}"))?;
    }
    let json = args.has("--json");
    if !args.has("--all") {
        let src = load_source(args)?;
        let report = sancheck::check_source(&src, &cfg).map_err(|e| e.to_string())?;
        if json {
            println!(
                "{}",
                sancheck::json::report_to_json(&report).render_pretty()
            );
        } else {
            print!("{}", report.render());
        }
        return Ok(());
    }
    run_over_targets(args, json, |t| {
        let report = sancheck::check_source(&t.src, &cfg).map_err(|e| e.to_string())?;
        let text: String = report
            .render()
            .lines()
            .map(|l| format!("  {l}\n"))
            .collect();
        Ok((text, sancheck::json::report_to_json(&report)))
    })
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, CAMPAIGN_FLAGS, false)?;
    let mut cfg = CampaignConfig {
        quiet: args.has("--quiet"),
        sancheck: args.has("--sancheck"),
        ..Default::default()
    };
    if let Some(v) = args.value("--workers") {
        cfg.workers = v.parse().map_err(|_| format!("bad --workers `{v}`"))?;
    }
    // The checkpoint header and the config frame carry these as JSON
    // integers (`i64`), so a larger value could not be read back.
    let json_max = i64::MAX as u64;
    cfg.execs_per_target =
        parse_bounded_flag(args, "--execs-per-target", cfg.execs_per_target, json_max)?;
    if let Some(v) = args.value("--shards") {
        cfg.shards_per_target = v.parse().map_err(|_| format!("bad --shards `{v}`"))?;
        if cfg.shards_per_target == 0 {
            return Err("bad --shards `0` (must be >= 1)".into());
        }
    }
    if let Some(v) = args.value("--seed") {
        cfg.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
    }
    cfg.max_input_len =
        parse_bounded_flag(args, "--max-len", cfg.max_input_len as u64, json_max)? as usize;
    cfg.batch_size =
        parse_bounded_flag(args, "--batch-size", cfg.batch_size as u64, json_max)? as usize;
    if cfg.batch_size == 0 {
        return Err("bad --batch-size `0` (must be >= 1)".into());
    }
    if let Some(v) = args.value("--stop-after") {
        cfg.stop_after_jobs = Some(v.parse().map_err(|_| format!("bad --stop-after `{v}`"))?);
    }
    if let Some(v) = args.value("--max-retries") {
        cfg.max_retries = v.parse().map_err(|_| format!("bad --max-retries `{v}`"))?;
    }
    if let Some(v) = args.value("--quarantine-after") {
        cfg.quarantine_after = v
            .parse()
            .map_err(|_| format!("bad --quarantine-after `{v}`"))?;
    }
    if let Some(spec) = args.value("--fault-plan") {
        // Parsed after --seed so seeded#k sites key off the campaign seed.
        let plan = campaign::FaultPlan::parse(&spec, cfg.seed)
            .map_err(|e| format!("bad --fault-plan: {e}"))?;
        cfg.fault_plan = Some(std::sync::Arc::new(plan));
    }
    if let Some(list) = args.value("--targets") {
        cfg.target_filter = Some(list.split(',').map(|s| s.trim().to_string()).collect());
    }
    if let Some(dir) = args.value("--progen-dir") {
        let generated =
            targets::dir_source(Path::new(&dir)).map_err(|e| format!("bad --progen-dir: {e}"))?;
        let label = format!("catalog+{}", generated.label());
        let mut all = TargetSource::targets(&targets::CatalogSource);
        all.extend(generated.targets());
        cfg.source = targets::SharedSource::new(targets::StaticSource::new(label, all));
    }
    if let Some(v) = args.value("--metrics-out") {
        cfg.metrics_out = Some(PathBuf::from(v));
    }
    if let Some(v) = args.value("--progress-every") {
        cfg.progress_every = v
            .parse()
            .map_err(|_| format!("bad --progress-every `{v}`"))?;
    }
    if args.value("--fixed-clock").is_some() {
        cfg.fixed_clock_us = Some(parse_bounded_flag(args, "--fixed-clock", 0, json_max)?);
    }
    if let Some(v) = args.value("--workers-proc") {
        cfg.workers_proc = Some(v.parse().map_err(|_| format!("bad --workers-proc `{v}`"))?);
    }
    if let Some(v) = args.value("--status-addr-out") {
        cfg.status_addr_out = Some(PathBuf::from(v));
    }
    match (args.value("--resume"), args.value("--checkpoint")) {
        (Some(dir), _) => {
            cfg.checkpoint_dir = Some(PathBuf::from(dir));
            cfg.resume = true;
        }
        (None, Some(dir)) => cfg.checkpoint_dir = Some(PathBuf::from(dir)),
        (None, None) => {}
    }

    let report = campaign::run(&cfg).map_err(|e| match e {
        // A mismatched header most often means a stale checkpoint dir.
        campaign::CampaignError::State(StateError::HeaderMismatch(m)) => m,
        other => other.to_string(),
    })?;
    print!("{}", report.render_summary());
    if let Some(path) = &report.checkpoint {
        println!("checkpoint: {}", path.display());
    }
    if report.aborted {
        println!("(aborted by --stop-after; rerun with --resume to finish)");
    }
    Ok(())
}

/// One campaign worker process (spawned by a `--workers-proc`
/// coordinator; see DESIGN.md §17). Not normally invoked by hand.
fn cmd_campaign_worker(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, CONNECT_FLAGS, false)?;
    let addr = args
        .value("--connect")
        .ok_or("campaign-worker needs --connect <host:port> (coordinator address)")?;
    campaign::run_worker(&addr)
}

/// Queries a running coordinator's status endpoint and pretty-prints
/// the live progress object.
fn cmd_campaign_status(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, CONNECT_FLAGS, false)?;
    let addr = args.value("--connect")
        .ok_or("campaign-status needs --connect <host:port> (coordinator address, as written by --status-addr-out)")?;
    let status = campaign::query_status(&addr)?;
    println!("{}", status.render_pretty());
    Ok(())
}

fn cmd_progen(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err(format!("progen needs a subcommand\n{USAGE}"));
    };
    match sub.as_str() {
        "generate" => progen_generate(&args[1..]),
        "evolve" => progen_evolve(&args[1..]),
        "reduce" => progen_reduce(&args[1..]),
        other => Err(format!("unknown progen subcommand `{other}`\n{USAGE}")),
    }
}

fn parse_u64_flag(args: &Args, name: &str, default: u64) -> Result<u64, String> {
    match args.value(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {name} `{v}`")),
    }
}

/// [`parse_u64_flag`] for a flag whose value may not exceed `max`.
fn parse_bounded_flag(args: &Args, name: &str, default: u64, max: u64) -> Result<u64, String> {
    let n = parse_u64_flag(args, name, default)?;
    if n > max {
        return Err(format!("bad {name} `{n}` (must be at most {max})"));
    }
    Ok(n)
}

fn progen_generate(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, GENERATE_FLAGS, false)?;
    let seed = parse_u64_flag(args, "--seed", 1)?;
    let count = parse_u64_flag(args, "--count", 1)?;
    let out_dir = args.value("--out-dir").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    for i in 0..count {
        let mut rng = Rng::new(progen::mix(seed, i));
        let genome = progen::generate(&mut rng);
        match &out_dir {
            Some(dir) => {
                let path = dir.join(format!("gen_{i:03}.mc"));
                std::fs::write(&path, genome.source())
                    .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                let probes: String = genome
                    .probes
                    .iter()
                    .map(|p| format!("{}\n", hex_encode(p)))
                    .collect();
                let ppath = dir.join(format!("gen_{i:03}.probes"));
                std::fs::write(&ppath, probes)
                    .map_err(|e| format!("cannot write {ppath:?}: {e}"))?;
                println!("wrote {}", path.display());
            }
            None => print!("{}", genome.source()),
        }
    }
    Ok(())
}

/// Builds the progen telemetry facade: JSONL event stream when
/// `--metrics-out` is given, fixed clock when `--fixed-clock` is given.
fn progen_telemetry(args: &Args) -> Result<std::sync::Arc<telemetry::Telemetry>, String> {
    let fixed = match args.value("--fixed-clock") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("bad --fixed-clock `{v}`"))?,
        ),
    };
    Ok(match args.value("--metrics-out") {
        Some(path) => {
            let file =
                std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let rec = telemetry::JsonlRecorder::new(std::io::BufWriter::new(file));
            telemetry::Telemetry::clocked(fixed, rec)
        }
        None => telemetry::Telemetry::clocked(fixed, telemetry::NoopRecorder),
    })
}

fn progen_evolve(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, EVOLVE_FLAGS, false)?;
    let seed = parse_u64_flag(args, "--seed", 1)?;
    let generations = parse_bounded_flag(args, "--generations", 4, u64::from(u32::MAX))? as u32;
    let population =
        parse_bounded_flag(args, "--population", 8, progen::MAX_POPULATION as u64)? as usize;
    let out_dir = args.value("--out-dir").map(PathBuf::from);
    let resume = args.has("--resume");
    let reduce_witnesses = !args.has("--no-reduce");
    let tel = progen_telemetry(args)?;

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    let state_path = out_dir.as_ref().map(|d| d.join("state.json"));
    let mut state = match (&state_path, resume) {
        (Some(p), true) if p.exists() => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p:?}: {e}"))?;
            let json = Json::parse(&text).map_err(|e| format!("bad state file: {e}"))?;
            let state = progen::EvolveState::from_json(&json)?;
            if state.seed != seed {
                return Err(format!(
                    "state file has seed {}, command line says {seed}",
                    state.seed
                ));
            }
            state
        }
        _ => progen::EvolveState::new(&progen::EvolveConfig { seed, population }),
    };

    // Append-mode log so a resumed run extends the same JSONL history.
    let mut log = match &out_dir {
        Some(dir) => {
            let path = dir.join("generations.jsonl");
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| format!("cannot open {path:?}: {e}"))?;
            Some(std::io::BufWriter::new(file))
        }
        None => None,
    };

    let gen_counter = tel.registry().counter("progen.generations");
    let div_counter = tel.registry().counter("progen.divergent_programs");
    let best_gauge = tel.registry().gauge("progen.fitness_best");
    let mut prev_divergents = state.divergents.len() as u64;
    let mut log_error = None;
    progen::run_generations(&mut state, generations, |record| {
        gen_counter.add(1);
        best_gauge.set(record.best_fitness.max(0) as u64);
        let total = record.divergent_total as u64;
        div_counter.add(total.saturating_sub(prev_divergents));
        prev_divergents = total;
        tel.event(
            "progen.generation",
            vec![
                ("generation", Json::Int(i64::from(record.generation))),
                ("best_fitness", Json::Int(record.best_fitness)),
                ("divergent_total", Json::Int(record.divergent_total as i64)),
            ],
        );
        eprintln!(
            "gen {:>3}: evaluated {:>3}  best {:>5}  mean {:>5}  divergent {:>2}  archive {:>2}",
            record.generation,
            record.evaluated,
            record.best_fitness,
            record.mean_fitness,
            record.divergent_total,
            record.archive_size
        );
        if let Some(w) = &mut log {
            if let Err(e) = writeln!(w, "{}", record.to_json().render()) {
                log_error.get_or_insert(format!("cannot write generation log: {e}"));
            }
        }
    });
    if let Some(e) = log_error {
        return Err(e);
    }
    if let Some(w) = &mut log {
        w.flush()
            .map_err(|e| format!("cannot flush generation log: {e}"))?;
    }

    if let Some(p) = &state_path {
        std::fs::write(p, state.to_json().render_pretty())
            .map_err(|e| format!("cannot write {p:?}: {e}"))?;
    }

    let mut reduced = 0usize;
    let reduce_counter = tel.registry().counter("progen.reduce_steps");
    for (i, find) in state.divergents.iter().enumerate() {
        if let Some(dir) = &out_dir {
            let dpath = dir.join(format!("divergent_{i:02}.mc"));
            std::fs::write(&dpath, &find.source)
                .map_err(|e| format!("cannot write {dpath:?}: {e}"))?;
            let ipath = dir.join(format!("divergent_{i:02}.input"));
            std::fs::write(&ipath, hex_encode(&find.probe))
                .map_err(|e| format!("cannot write {ipath:?}: {e}"))?;
        }
        if !reduce_witnesses {
            continue;
        }
        let witness = progen::reduce(&find.source, &find.probe)
            .map_err(|e| format!("witness {i} failed to reduce: {e}"))?;
        reduce_counter.add(witness.steps);
        tel.event(
            "progen.reduced",
            vec![
                ("index", Json::Int(i as i64)),
                ("steps", Json::Int(witness.steps as i64)),
                ("signature", Json::Str(witness.signature.clone())),
            ],
        );
        if let Some(dir) = &out_dir {
            let wpath = dir.join(format!("witness_{i:02}.mc"));
            std::fs::write(&wpath, &witness.source)
                .map_err(|e| format!("cannot write {wpath:?}: {e}"))?;
        }
        reduced += 1;
    }

    println!(
        "evolved {generations} generation(s) at seed {seed}: population {}, \
         {} distinct diverging program(s), {reduced} reduced witness(es)",
        state.population.len(),
        state.divergents.len()
    );
    println!("metrics: {}", tel.registry().snapshot().render());
    if let Some(dir) = &out_dir {
        println!("state: {}", dir.join("state.json").display());
    }
    Ok(())
}

fn progen_reduce(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, REDUCE_FLAGS, true)?;
    let src = load_source(args)?;
    let probe = match args.value("--input-hex") {
        Some(h) => hex_decode(&h)?,
        None => read_input(args)?,
    };
    let witness = progen::reduce(&src, &probe)?;
    eprintln!(
        "reduced in {} oracle steps; witness pair impls ({}, {}); signature {}",
        witness.steps, witness.witness_pair.0, witness.witness_pair.1, witness.signature
    );
    match args.value("--out") {
        Some(path) => std::fs::write(&path, &witness.source)
            .map_err(|e| format!("cannot write {path}: {e}"))?,
        None => print!("{}", witness.source),
    }
    Ok(())
}
