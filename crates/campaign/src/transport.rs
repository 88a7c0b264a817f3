//! The two ways the coordinator reaches its workers (DESIGN.md §17).
//!
//! [`Threads`] runs each worker as a thread of this process: typed
//! [`Frame`]s over `mpsc`, and one shared `BinaryCache`, so a campaign
//! compiles each target once however many workers it has. [`Procs`]
//! runs each worker as a `compdiff campaign-worker` process connected
//! over a loopback socket: frames are JSON lines (the `proto` codec),
//! every process compiles through its own cache, and the same socket
//! serves the live status endpoint.

use crate::coordinator::{Ev, Transport};
use crate::proto::{config_frame, frame_type, read_frame, write_frame, Frame, MAX_FRAME_BYTES};
use crate::worker::{serve, Worker};
use crate::{BinaryCache, CampaignConfig, CampaignError, CampaignTelemetry};
use compdiff::Json;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use targets::Target;

/// Worker threads in this process.
pub(crate) struct Threads {
    worker: Arc<Worker>,
    ev_tx: mpsc::Sender<Ev>,
    next_conn: u64,
    handles: Vec<JoinHandle<()>>,
}

impl Threads {
    /// A transport whose workers share one cache, and count every metric
    /// straight into the coordinator's registry.
    pub(crate) fn new(
        cfg: &CampaignConfig,
        targets: &[Target],
        ctel: &CampaignTelemetry,
        ev_tx: mpsc::Sender<Ev>,
    ) -> Self {
        Threads {
            worker: Arc::new(Worker {
                cfg: cfg.clone(),
                targets: targets.to_vec(),
                cache: BinaryCache::counting_into(ctel),
                ctel: CampaignTelemetry::new(Arc::clone(&ctel.tel)),
                ships_metrics: false,
            }),
            ev_tx,
            next_conn: 0,
            handles: Vec::new(),
        }
    }
}

impl Transport for Threads {
    fn spawn(&mut self) -> Result<(), CampaignError> {
        self.next_conn += 1;
        let conn = self.next_conn;
        let worker = Arc::clone(&self.worker);
        let ev_tx = self.ev_tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("campaign-worker-{conn}"))
            .spawn(move || {
                let (out, inbox) = mpsc::channel();
                if ev_tx.send(Ev::Hello { conn, out }).is_err() {
                    return;
                }
                let mut send = |frame| {
                    ev_tx
                        .send(Ev::Frame {
                            conn,
                            frame: Box::new(frame),
                        })
                        .map_err(|_| "coordinator gone".to_string())
                };
                // Jobs have their own unwind boundary; this one only
                // guarantees that the coordinator hears `Gone`.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    serve(&worker, &mut send, &mut || Ok(inbox.recv().ok()))
                }));
                let _ = ev_tx.send(Ev::Gone { conn });
            })
            .map_err(|e| CampaignError::Proto(format!("cannot spawn worker thread: {e}")))?;
        self.handles.push(handle);
        Ok(())
    }

    fn reap(&mut self) {
        for h in self.handles.extract_if(.., |h| h.is_finished()) {
            let _ = h.join();
        }
    }

    fn join(&mut self) {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker processes over a loopback socket.
pub(crate) struct Procs {
    exe: PathBuf,
    addr: String,
    children: Vec<Child>,
    stop_accept: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Procs {
    /// Checks the config frame against the frame cap, binds the
    /// coordinator socket, publishes its address (`status_addr_out`),
    /// and starts accepting worker and status connections.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Proto`] when the config frame is over the cap,
    /// the worker executable cannot be found, or the socket setup fails.
    pub(crate) fn start(
        cfg: &CampaignConfig,
        targets: &[Target],
        ev_tx: mpsc::Sender<Ev>,
    ) -> Result<Self, CampaignError> {
        let config = config_frame(cfg, targets);
        let len = config.render().len() + 1;
        if len > MAX_FRAME_BYTES {
            return Err(CampaignError::Proto(format!(
                "config frame is {len} bytes, over the {MAX_FRAME_BYTES}-byte frame cap"
            )));
        }
        let exe = resolve_worker_exe(cfg)?;
        let proto_err =
            |what: &str, e: std::io::Error| CampaignError::Proto(format!("{what}: {e}"));
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| proto_err("cannot bind coordinator socket", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| proto_err("cannot read coordinator address", e))?
            .to_string();
        if let Some(path) = &cfg.status_addr_out {
            std::fs::write(path, format!("{addr}\n"))
                .map_err(|e| proto_err("cannot write status address file", e))?;
        }
        let stop_accept = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop_accept = Arc::clone(&stop_accept);
            let config = Arc::new(config);
            std::thread::spawn(move || {
                let mut next_id: u64 = 0;
                for stream in listener.incoming() {
                    if stop_accept.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    next_id += 1;
                    let (id, ev_tx, config) = (next_id, ev_tx.clone(), Arc::clone(&config));
                    std::thread::spawn(move || serve_conn(stream, id, &ev_tx, &config));
                }
            })
        };
        Ok(Procs {
            exe,
            addr,
            children: Vec::new(),
            stop_accept,
            accept: Some(accept),
        })
    }
}

impl Transport for Procs {
    fn spawn(&mut self) -> Result<(), CampaignError> {
        let child = Command::new(&self.exe)
            .args(["campaign-worker", "--connect", &self.addr])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| {
                CampaignError::Proto(format!("cannot spawn worker `{}`: {e}", self.exe.display()))
            })?;
        self.children.push(child);
        Ok(())
    }

    fn reap(&mut self) {
        self.children
            .retain_mut(|child| !matches!(child.try_wait(), Ok(Some(_))));
    }

    /// Stops accepting (a dummy connection unblocks the blocking
    /// accept), then waits for every child, killing stragglers after a
    /// grace period.
    fn join(&mut self) {
        self.stop_accept.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for mut child in self.children.drain(..) {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        }
    }
}

/// Serves one accepted connection on its own thread: a status query, or
/// a worker process's whole link (config out, then frames both ways).
fn serve_conn(stream: TcpStream, conn: u64, ev_tx: &mpsc::Sender<Ev>, config: &Json) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let Ok(Some(first)) = read_frame(&mut reader) else {
        return;
    };
    let mut w = BufWriter::new(stream);
    match frame_type(&first) {
        Some("status") => {
            let (reply, rx) = mpsc::channel();
            if ev_tx.send(Ev::Status { reply }).is_ok() {
                if let Ok(status) = rx.recv() {
                    let _ = write_frame(&mut w, &status);
                }
            }
        }
        Some("hello") => {
            if write_frame(&mut w, config).is_err() {
                return;
            }
            let (out, outbox) = mpsc::channel::<Frame>();
            let writer = std::thread::spawn(move || {
                for frame in outbox {
                    if write_frame(&mut w, &frame.to_json()).is_err() {
                        break;
                    }
                }
                // The coordinator dropped the link (a sever, or the
                // campaign is over): the worker must see EOF even while
                // this connection's reader still holds the socket.
                let _ = w.get_ref().shutdown(Shutdown::Both);
            });
            if ev_tx.send(Ev::Hello { conn, out }).is_err() {
                return;
            }
            while let Ok(Some(v)) = read_frame(&mut reader) {
                let ev = match Frame::from_json(&v) {
                    Ok(frame) => Ev::Frame {
                        conn,
                        frame: Box::new(frame),
                    },
                    Err(e) => Ev::Malformed(format!("bad frame from worker {conn}: {e}")),
                };
                let malformed = matches!(ev, Ev::Malformed(_));
                if ev_tx.send(ev).is_err() || malformed {
                    break;
                }
            }
            let _ = ev_tx.send(Ev::Gone { conn });
            let _ = writer.join();
        }
        _ => {}
    }
}

/// Locates the worker executable the coordinator spawns: the config's
/// `worker_exe` if set, else `$COMPDIFF_WORKER_EXE`, else the running
/// `compdiff` binary itself, else a `compdiff` next to (or one directory
/// above) the current executable — the latter finds `target/<profile>/
/// compdiff` from test and bench binaries in `target/<profile>/deps/`.
///
/// # Errors
///
/// [`CampaignError::Proto`] when no candidate exists.
pub fn resolve_worker_exe(cfg: &CampaignConfig) -> Result<PathBuf, CampaignError> {
    if let Some(exe) = &cfg.worker_exe {
        return Ok(exe.clone());
    }
    if let Ok(exe) = std::env::var("COMPDIFF_WORKER_EXE") {
        return Ok(PathBuf::from(exe));
    }
    let exe = std::env::current_exe()
        .map_err(|e| CampaignError::Proto(format!("cannot locate current executable: {e}")))?;
    if exe.file_stem().and_then(|s| s.to_str()) == Some("compdiff") {
        return Ok(exe);
    }
    if let Some(dir) = exe.parent() {
        let sibling = dir.join("compdiff");
        if sibling.is_file() {
            return Ok(sibling);
        }
        if let Some(up) = dir.parent() {
            let above = up.join("compdiff");
            if above.is_file() {
                return Ok(above);
            }
        }
    }
    Err(CampaignError::Proto(
        "cannot locate the compdiff worker executable; set CampaignConfig::worker_exe \
         or the COMPDIFF_WORKER_EXE environment variable"
            .to_string(),
    ))
}

#[cfg(test)]
mod tests {
    // test-only: unwraps in this module assert test invariants.
    use super::*;
    use targets::{SharedSource, StaticSource, TargetSpec};

    /// A config frame no worker could read back is refused before any
    /// worker process is spawned.
    #[test]
    fn oversized_config_frame_is_refused_before_spawning() {
        let big = Target {
            spec: TargetSpec {
                name: "big".to_string(),
                input_type: "text",
                version: "1",
                magic: [0, 0],
                bugs: Vec::new(),
            },
            src: format!(
                "int main() {{ return 0; }}\n//{}\n",
                "x".repeat(MAX_FRAME_BYTES)
            ),
            seeds: vec![Vec::new()],
        };
        let err = crate::run(&CampaignConfig {
            workers_proc: Some(1),
            execs_per_target: 1,
            shards_per_target: 1,
            source: SharedSource::new(StaticSource::new("big", vec![big])),
            ..CampaignConfig::default()
        })
        .unwrap_err();
        assert!(
            matches!(&err, CampaignError::Proto(m) if m.contains("frame cap")),
            "{err}"
        );
    }
}
