//! Timing wrappers around the public traits the program already accepts:
//! [`ApplyService`] (handed to `serve`), [`Storage`] (handed to
//! `DurableSketchService::open_with`) and [`SolutionOracle`] (handed to
//! `approx_mc_on_oracle`). Only the traced run uses them; untraced runs
//! hand the program its own types.

use crate::trace::{self, Name, Span, Tracer};
use mcf0_formula::Assignment;
use mcf0_sat::{OracleStats, SolutionOracle, XorConstraint};
use mcf0_service::{
    ApplyService, CommandReply, ServiceCommand, ServiceError, Storage, StorageFile,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Times every `apply` as a span whose parent is the client's request span.
/// Commands arrive scoped as `<tenant>::<session>`; tenant `c<i>` is
/// connection `i`, and the k-th command a tenant applies is the k-th
/// request its connection sent.
pub struct TimedService<S> {
    inner: S,
    tracer: Arc<Tracer>,
    applied: HashMap<usize, u64>,
}

impl<S> TimedService<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TimedService {
            inner,
            tracer,
            applied: HashMap::new(),
        }
    }
}

/// The connection index of a scoped command (`c<i>::...`).
fn conn_of(command: &ServiceCommand) -> Option<usize> {
    let scoped = command.sessions().into_iter().next()?;
    scoped.strip_prefix('c')?.split("::").next()?.parse().ok()
}

impl<S: ApplyService> ApplyService for TimedService<S> {
    fn apply(&mut self, command: &ServiceCommand) -> Result<CommandReply, ServiceError> {
        let (req, parent) = match conn_of(command) {
            Some(conn) => {
                let k = self.applied.entry(conn).or_insert(0);
                let req = trace::request_id(conn, *k);
                *k += 1;
                (req, trace::request_span_id(req))
            }
            None => (0, 0),
        };
        let id = self.tracer.next_id();
        let start = self.tracer.now();
        let reply = trace::with_current(id, || self.inner.apply(command));
        let end = self.tracer.now();
        let n = match command {
            ServiceCommand::Ingest { items, .. } => items.len() as u64,
            _ => 0,
        };
        self.tracer.push(Span {
            id,
            parent,
            req,
            name: if command.mutates() {
                Name::ApplyWrite
            } else {
                Name::ApplyRead
            },
            start,
            end,
            n,
        });
        reply
    }
}

/// Times every storage operation as a span under the current span (the
/// apply, or the reopen, that issued it).
pub struct TimedStorage {
    inner: Arc<dyn Storage>,
    tracer: Arc<Tracer>,
}

impl TimedStorage {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Storage>, tracer: Arc<Tracer>) -> Self {
        TimedStorage { inner, tracer }
    }
}

fn timed<T>(
    tracer: &Tracer,
    name: Name,
    bytes: impl Fn(&T) -> u64,
    f: impl FnOnce() -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    let parent = trace::current();
    let start = tracer.now();
    let out = f();
    let end = tracer.now();
    let (name, n) = match &out {
        Ok(v) => (name, bytes(v)),
        Err(_) => (Name::DurableError, 0),
    };
    tracer.push(Span {
        id: tracer.next_id(),
        parent,
        req: 0,
        name,
        start,
        end,
        n,
    });
    out
}

struct TimedFile {
    inner: Box<dyn StorageFile>,
    tracer: Arc<Tracer>,
}

impl StorageFile for TimedFile {
    fn append(&mut self, bytes: &[u8]) -> Result<(), ServiceError> {
        let len = bytes.len() as u64;
        timed(
            &self.tracer,
            Name::DurableAppend,
            |_| len,
            || self.inner.append(bytes),
        )
    }

    fn truncate(&mut self, len: u64) -> Result<(), ServiceError> {
        timed(
            &self.tracer,
            Name::DurableMeta,
            |_| 0,
            || self.inner.truncate(len),
        )
    }

    fn sync(&mut self) -> Result<(), ServiceError> {
        timed(
            &self.tracer,
            Name::DurableFsync,
            |_| 0,
            || self.inner.sync(),
        )
    }
}

impl TimedStorage {
    fn file(
        &self,
        f: impl FnOnce() -> Result<Box<dyn StorageFile>, ServiceError>,
    ) -> Result<Box<dyn StorageFile>, ServiceError> {
        let inner = timed(&self.tracer, Name::DurableMeta, |_| 0, f)?;
        Ok(Box::new(TimedFile {
            inner,
            tracer: self.tracer.clone(),
        }))
    }
}

fn read_len(bytes: &Option<Vec<u8>>) -> u64 {
    bytes.as_ref().map_or(0, |b| b.len() as u64)
}

impl Storage for TimedStorage {
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, ServiceError> {
        self.file(|| self.inner.create(path))
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn StorageFile>, ServiceError> {
        self.file(|| self.inner.open_append(path))
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>, ServiceError> {
        timed(&self.tracer, Name::DurableRead, read_len, || {
            self.inner.read(path)
        })
    }

    fn read_range(
        &self,
        path: &Path,
        offset: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>, ServiceError> {
        timed(&self.tracer, Name::DurableRead, read_len, || {
            self.inner.read_range(path, offset, len)
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), ServiceError> {
        timed(
            &self.tracer,
            Name::DurableMeta,
            |_| 0,
            || self.inner.rename(from, to),
        )
    }

    fn delete(&self, path: &Path) -> Result<(), ServiceError> {
        timed(
            &self.tracer,
            Name::DurableMeta,
            |_| 0,
            || self.inner.delete(path),
        )
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), ServiceError> {
        timed(
            &self.tracer,
            Name::DurableFsync,
            |_| 0,
            || self.inner.sync_dir(dir),
        )
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, ServiceError> {
        timed(
            &self.tracer,
            Name::DurableMeta,
            |_| 0,
            || self.inner.list(dir),
        )
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), ServiceError> {
        timed(
            &self.tracer,
            Name::DurableMeta,
            |_| 0,
            || self.inner.create_dir_all(dir),
        )
    }
}

/// Times every `exists`/`enumerate` as a span under the current span (the
/// count that issued it), with `n` = the oracle calls the call counted.
pub struct TimedOracle<'a> {
    inner: &'a mut dyn SolutionOracle,
    tracer: &'a Tracer,
}

impl<'a> TimedOracle<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn SolutionOracle, tracer: &'a Tracer) -> Self {
        TimedOracle { inner, tracer }
    }

    fn call<T>(&mut self, f: impl FnOnce(&mut dyn SolutionOracle) -> T) -> T {
        let before = self.inner.stats().sat_calls;
        let parent = trace::current();
        let start = self.tracer.now();
        let out = f(&mut *self.inner);
        let end = self.tracer.now();
        self.tracer.push(Span {
            id: self.tracer.next_id(),
            parent,
            req: 0,
            name: Name::Oracle,
            start,
            end,
            n: self.inner.stats().sat_calls - before,
        });
        out
    }
}

impl SolutionOracle for TimedOracle<'_> {
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn assumption_len(&self) -> usize {
        self.inner.assumption_len()
    }

    fn push_assumption(&mut self, xor: &XorConstraint) {
        self.inner.push_assumption(xor);
    }

    fn pop_assumptions_to(&mut self, len: usize) {
        self.inner.pop_assumptions_to(len);
    }

    fn exists(&mut self) -> bool {
        self.call(|o| o.exists())
    }

    fn enumerate(&mut self, limit: usize) -> Vec<Assignment> {
        self.call(|o| o.enumerate(limit))
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}
