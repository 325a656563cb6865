//! The threaded transport around [`ServeCore`].
//!
//! One worker thread executes queued jobs; one reader thread per
//! attached connection feeds request lines in. All state transitions
//! and all socket writes happen under the single state lock, which
//! makes the cursor stream race-free by construction: a result is
//! appended to the client's backlog and written to its live connection
//! atomically, so a concurrent reconnect-with-replay can neither miss
//! it nor see it twice.
//!
//! Connections are transports, clients are identities: a client that
//! drops mid-stream loses nothing (unwritable lines stay retained) and
//! re-attaches with `hello {resume_from}` on a new connection.

use crate::core::{ServeCore, Session};
use crate::error::ServeError;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

struct Shared {
    core: ServeCore,
    writers: HashMap<String, SharedWriter>,
    /// Set once the worker has drained the queue after a shutdown.
    finished: bool,
}

struct Inner {
    state: Mutex<Shared>,
    work: Condvar,
}

/// A running scenario-service daemon.
pub struct Daemon {
    inner: Arc<Inner>,
    worker: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the worker thread around `core`.
    pub fn start(core: ServeCore) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(Shared {
                core,
                writers: HashMap::new(),
                finished: false,
            }),
            work: Condvar::new(),
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || worker_loop(&inner))
        };
        Daemon {
            inner,
            worker: Some(worker),
        }
    }

    /// Attaches one connection: spawns a reader thread that feeds lines
    /// into the core and writes responses back. The thread exits on EOF
    /// or read error; the daemon itself keeps running.
    pub fn attach<R, W>(&self, reader: R, writer: W) -> JoinHandle<()>
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || {
            let shared: SharedWriter = Arc::new(Mutex::new(Box::new(writer)));
            let mut session = Session::new();
            let mut registered: Option<String> = None;
            for line in BufReader::new(reader).lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let Ok(mut st) = inner.state.lock() else {
                    break;
                };
                let responses = st.core.handle_line(&mut session, &line);
                // First successful hello on this connection routes the
                // client's live result stream here.
                if let Some(client) = session.client() {
                    if registered.as_deref() != Some(client) {
                        registered = Some(client.to_string());
                        st.writers.insert(client.to_string(), Arc::clone(&shared));
                    }
                }
                let ok = {
                    let Ok(mut w) = shared.lock() else { break };
                    write_lines(&mut **w, &responses)
                };
                if !ok {
                    // The connection died mid-response; stop routing
                    // live results at it.
                    if let Some(client) = &registered {
                        st.writers.remove(client);
                    }
                    break;
                }
                drop(st);
                inner.work.notify_all();
            }
        })
    }

    /// Requests a drain-and-exit, exactly as a client `shutdown` op
    /// would (used by the binary when stdin reaches EOF).
    pub fn request_shutdown(&self) {
        let mut session = Session::new();
        if let Ok(mut st) = self.inner.state.lock() {
            st.core.handle_line(&mut session, r#"{"op":"shutdown"}"#);
        }
        self.inner.work.notify_all();
    }

    /// True once the worker has drained the queue after a shutdown
    /// request (accept loops poll this).
    pub fn is_finished(&self) -> bool {
        self.inner
            .state
            .lock()
            .map(|st| st.finished)
            .unwrap_or(true)
    }

    /// Waits for the worker to drain the queue and exit.
    /// [`ServeError::Io`] if the state lock was poisoned or the worker
    /// stopped before draining.
    pub fn join(mut self) -> Result<(), ServeError> {
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        let st = self.inner.state.lock().map_err(|_| ServeError::Io {
            detail: "daemon state poisoned".into(),
        })?;
        if st.finished {
            Ok(())
        } else {
            Err(ServeError::Io {
                detail: "worker exited without finishing".into(),
            })
        }
    }
}

fn write_lines(w: &mut dyn Write, lines: &[String]) -> bool {
    for l in lines {
        if writeln!(w, "{l}").is_err() {
            return false;
        }
    }
    w.flush().is_ok()
}

fn worker_loop(inner: &Inner) {
    let Ok(mut st) = inner.state.lock() else {
        return;
    };
    loop {
        while !st.core.has_work() {
            if st.core.draining() {
                st.finished = true;
                inner.work.notify_all();
                return;
            }
            st = match inner.work.wait(st) {
                Ok(g) => g,
                Err(_) => return,
            };
        }
        // Execute under the lock: simulation time is the product here,
        // and holding the lock keeps append-to-backlog + live-write
        // atomic against reconnect replays.
        if let Some(out) = st.core.step() {
            if let Some(w) = st.writers.get(&out.client).map(Arc::clone) {
                let ok = match w.lock() {
                    Ok(mut w) => write_lines(&mut **w, &out.lines),
                    Err(_) => false,
                };
                if !ok {
                    st.writers.remove(&out.client);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServeConfig;
    use spam_scenario::ScenarioSpec;
    use std::os::unix::net::UnixStream;

    #[test]
    fn daemon_streams_results_over_a_socketpair() {
        let daemon = Daemon::start(ServeCore::new(ServeConfig::default()));
        let (client, server) = UnixStream::pair().unwrap();
        daemon.attach(server.try_clone().unwrap(), server);

        let mut spec = ScenarioSpec::example("daemon-smoke");
        spec.topology.switches = 16;
        spec.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 4, len: 64 };
        spec.replications = 1;
        let mut tx = client.try_clone().unwrap();
        writeln!(tx, r#"{{"op":"hello","client":"c1"}}"#).unwrap();
        writeln!(
            tx,
            r#"{{"op":"run","spec":{}}}"#,
            spec.to_json().to_string_compact()
        )
        .unwrap();

        let mut lines = BufReader::new(client).lines();
        let hello = lines.next().unwrap().unwrap();
        assert!(hello.contains("\"hello\""), "{hello}");
        let queued = lines.next().unwrap().unwrap();
        assert!(queued.contains("\"queued\""), "{queued}");
        let result = lines.next().unwrap().unwrap();
        assert!(result.contains("\"result\""), "{result}");
        assert!(result.contains("\"cursor\":1"), "{result}");

        writeln!(tx, r#"{{"op":"shutdown"}}"#).unwrap();
        drop(tx);
        daemon.join().unwrap();
    }
}
