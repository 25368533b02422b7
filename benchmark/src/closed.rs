//! Closed-loop drivers: each client thread sends its next provider
//! call only after the previous one completed.

use crate::queries::Ground;
use crate::rig::{raw_call, Client, Driver, Rig};
use crate::spans::Tracer;
use crate::stats::{now_us, process_cpu_us, rss_mb, Samples};
use crate::trace::{generate_ops, Class, Op};
use openflame_geo::Point2;
use openflame_mapdata::{MapPatch, Node, NodeId, Tags};
use openflame_mapserver::protocol::{Request, Response};
use openflame_netsim::Transport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Patches per second the `update_mix_tcp` writer issues, round-robin
/// across venues.
pub const PATCH_RATE_PER_S: f64 = 50.0;
/// Every this-many-th patch is verified visible by a wire search.
const VERIFY_EVERY: u64 = 10;
/// Patched nodes cycle through this many ids per venue, so maps do not
/// grow while the workload runs.
const PATCH_NODES: u64 = 16;
/// Cold calls per measured second: `cold_sim` runs a fixed count so
/// its counters repeat exactly.
pub const COLD_CALLS_PER_S: u64 = 300;

/// Length of one slice of a measured window, seconds. A run's
/// wall-clock metrics are read from its quiet slices (see `main.rs`),
/// so a slice is short enough that some fall between a neighbour's
/// bursts and long enough to hold some hundred calls.
pub const SLICE_S: f64 = 0.25;

/// One correct call: its class, when it completed (open loop: when it
/// was due) on the [`now_us`] clock, and its wall latency, µs.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub class: Class,
    pub at_us: f64,
    pub latency_us: f64,
}

/// What one thread (or a merged set of threads) measured.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Every correct call, in completion order per thread.
    pub done: Vec<Done>,
    /// Wall latency of applied wire patches, µs.
    pub patch: Samples,
    /// Patches confirmed visible by a wire search.
    pub verified: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.done.extend_from_slice(&other.done);
        self.patch.extend(&other.patch);
        self.verified += other.verified;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Correct provider calls (patches and their checks not counted).
    pub fn correct_calls(&self) -> u64 {
        self.done.len() as u64
    }

    /// Wall latencies of the correct calls of one class, µs.
    pub fn latency(&self, class: Class) -> Samples {
        let mut samples = Samples::default();
        for done in self.done.iter().filter(|d| d.class == class) {
            samples.push(done.latency_us);
        }
        samples
    }

    /// Every attempt either was served correctly or failed.
    pub fn accounts(&self) -> bool {
        self.correct_calls() + self.patch.count() as u64 + self.verified + self.failed
            == self.attempted
    }
}

/// Process and transport counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    at_us: f64,
    cpu_us: f64,
    rss_mb: f64,
    msgs: u64,
    bytes: u64,
    sim_us: u64,
}

impl Snapshot {
    pub fn take(transport: &dyn Transport) -> Self {
        let stats = transport.stats();
        Self {
            at_us: now_us(),
            cpu_us: process_cpu_us(),
            rss_mb: rss_mb(),
            msgs: stats.messages,
            bytes: stats.bytes,
            sim_us: transport.now_us(),
        }
    }
}

/// Counter deltas over one measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_us: f64,
    pub msgs: u64,
    pub bytes: u64,
    /// Transport-clock microseconds (simulated time on sim).
    pub clock_us: u64,
}

impl Window {
    /// Two back-to-back windows as one.
    pub fn plus(&self, other: &Window) -> Window {
        Window {
            wall_s: self.wall_s + other.wall_s,
            cpu_us: self.cpu_us + other.cpu_us,
            msgs: self.msgs + other.msgs,
            bytes: self.bytes + other.bytes,
            clock_us: self.clock_us + other.clock_us,
        }
    }

    pub fn between(start: &Snapshot, end: &Snapshot) -> Self {
        Self {
            wall_s: (end.at_us - start.at_us) / 1_000_000.0,
            cpu_us: end.cpu_us - start.cpu_us,
            msgs: end.msgs - start.msgs,
            bytes: end.bytes - start.bytes,
            clock_us: end.sim_us - start.sim_us,
        }
    }
}

/// One slice of a measured window: what ran between two marks.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub wall_s: f64,
    /// Process CPU (every thread) spent in the slice, µs.
    pub cpu_us: f64,
    /// Resident set at the slice's end, MB.
    pub rss_mb: f64,
    /// Wall latency of the correct calls that fell in the slice, µs.
    pub latency: [Samples; 6],
}

impl Slice {
    pub fn calls(&self) -> usize {
        self.latency.iter().map(Samples::count).sum()
    }
}

/// Cuts a window at `marks`: one slice per pair of neighbours, holding
/// the calls of `done` stamped inside it.
pub fn cut(marks: &[Snapshot], done: &[Done]) -> Vec<Slice> {
    let mut done = done.to_vec();
    done.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
    marks
        .windows(2)
        .map(|pair| {
            let from = done.partition_point(|d| d.at_us < pair[0].at_us);
            let to = done.partition_point(|d| d.at_us < pair[1].at_us);
            let mut latency: [Samples; 6] = Default::default();
            for d in &done[from..to] {
                latency[d.class.index()].push(d.latency_us);
            }
            let window = Window::between(&pair[0], &pair[1]);
            Slice {
                wall_s: window.wall_s,
                cpu_us: window.cpu_us,
                rss_mb: pair[1].rss_mb,
                latency,
            }
        })
        .collect()
}

/// What one measured stretch produced: every call, the counter deltas
/// over the whole of it, and its whole slices.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub tally: Tally,
    pub window: Window,
    pub slices: Vec<Slice>,
}

impl Measured {
    /// Two back-to-back stretches as one.
    pub fn append(&mut self, other: Measured) {
        self.tally.merge(&other.tally);
        self.window = self.window.plus(&other.window);
        self.slices.extend(other.slices);
    }
}

/// When a client thread stops.
#[derive(Debug, Clone, Copy)]
enum Until {
    Deadline(Instant),
    Calls(u64),
}

/// One client's closed loop over `ops` (cycled), starting at `*next`.
/// With `cold`, every cache between the client and the data is dropped
/// before each call, outside the timed interval.
fn drive(
    rig: &Rig,
    ground: &Ground,
    client: &Client,
    ops: &[Op],
    next: &mut usize,
    until: Until,
    tracer: Option<&Tracer>,
) -> Tally {
    let cold = rig.spec.driver == Driver::Cold;
    let mut tally = Tally::default();
    loop {
        match until {
            Until::Deadline(deadline) if Instant::now() >= deadline => return tally,
            Until::Calls(calls) if tally.attempted >= calls => return tally,
            _ => {}
        }
        let op = &ops[*next % ops.len()];
        *next += 1;
        tally.attempted += 1;
        let Some(query) = ground.query(&client.hits, op) else {
            tally.failed += 1;
            continue;
        };
        if cold {
            client.client.session().invalidate();
            rig.dep.resolver.flush_cache();
        }
        let root = tracer.and_then(Tracer::begin_root);
        let t0 = Instant::now();
        let answer = query.issue(&client.client);
        let elapsed = t0.elapsed();
        if let Some(tracer) = tracer {
            tracer.end_root(root, op.class.span_name());
        }
        match answer {
            Ok(answer) if ground.check(&client.hits, op, &answer) => tally.done.push(Done {
                class: op.class,
                at_us: now_us(),
                latency_us: elapsed.as_nanos() as f64 / 1_000.0,
            }),
            _ => tally.failed += 1,
        }
    }
}

/// The fixed-rate patch writer of `update_mix_tcp`: `ApplyPatch` over
/// the wire, round-robin across venues, until `stop` is set.
fn write_patches(rig: &Rig, stop: &AtomicBool) -> Tally {
    let transport = rig.transport.as_ref();
    let from = transport.register("patch-writer", None);
    let servers = &rig.dep.venue_servers;
    let mut versions: Vec<u64> = servers
        .iter()
        .map(|s| s.with_map(|m| m.meta().version))
        .collect();
    let mut tally = Tally::default();
    let gap = Duration::from_secs_f64(1.0 / PATCH_RATE_PER_S);
    let t0 = Instant::now();
    let mut seq = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = t0 + gap * seq as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait.min(Duration::from_millis(5)));
            continue;
        }
        let venue = seq as usize % servers.len();
        let round = seq / servers.len() as u64;
        let label = format!("restock-v{venue}n{round}");
        let mut patch = MapPatch::new(versions[venue]);
        patch.upsert_nodes.push(Node::new(
            NodeId(900_000 + round % PATCH_NODES),
            Point2::new(5.0 + (round % PATCH_NODES) as f64 * 0.1, 5.0),
            Tags::new()
                .with("product", "restock")
                .with("name", label.clone()),
        ));
        let to = servers[venue].endpoint();
        tally.attempted += 1;
        let sent = Instant::now();
        match raw_call(transport, from, to, Request::ApplyPatch { patch }) {
            Ok(Response::PatchApplied { version }) => {
                tally.patch.push(sent.elapsed().as_nanos() as f64 / 1_000.0);
                versions[venue] = version;
            }
            _ => tally.failed += 1,
        }
        if seq.is_multiple_of(VERIFY_EVERY) {
            tally.attempted += 1;
            let search = Request::Search {
                query: label.clone(),
                center: None,
                radius_m: f64::INFINITY,
                k: 1,
            };
            let visible = matches!(
                raw_call(transport, from, to, search),
                Ok(Response::Search { results }) if results.first().is_some_and(|r| r.label == label)
            );
            if visible {
                tally.verified += 1;
            } else {
                tally.failed += 1;
            }
        }
        seq += 1;
    }
    tally
}

/// A closed-loop workload's progress between segments: each client's
/// trace and how far it got.
pub struct ClosedRun {
    traces: Vec<Vec<Op>>,
    next: Vec<usize>,
}

impl ClosedRun {
    /// Builds each client's trace from `seed` (client `i` uses
    /// `seed + i`), long enough that a segment rarely wraps.
    pub fn new(rig: &Rig, seed: u64, seconds: f64) -> Self {
        let shape = rig.shape();
        let ops = (seconds * 4_000.0).ceil() as usize + 1_000;
        Self {
            traces: (0..rig.clients.len() as u64)
                .map(|i| generate_ops(&shape, &rig.spec.mix, rig.spec.pick, ops, seed + i))
                .collect(),
            next: vec![0; rig.clients.len()],
        }
    }

    /// The first client's trace (what the replays re-run).
    pub fn trace(&self) -> &[Op] {
        &self.traces[0]
    }

    /// Runs one measured segment of `seconds` on every client (plus the
    /// patch writer on `update_mix_tcp`) and returns what it measured.
    /// This thread marks a slice boundary every [`SLICE_S`] while every
    /// client is still running.
    pub fn segment(&mut self, rig: &Rig, seconds: f64, tracer: Option<&Tracer>) -> Measured {
        let ground = rig.ground();
        let until = match rig.spec.driver {
            Driver::Cold => Until::Calls((seconds * COLD_CALLS_PER_S as f64).round() as u64),
            _ => Until::Deadline(Instant::now() + Duration::from_secs_f64(seconds)),
        };
        let stop_writer = AtomicBool::new(false);
        let transport = rig.transport.as_ref();
        let mut marks = vec![Snapshot::take(transport)];
        let mut tally = Tally::default();
        std::thread::scope(|scope| {
            let writer = (rig.spec.driver == Driver::UpdateMix)
                .then(|| scope.spawn(|| write_patches(rig, &stop_writer)));
            let (finished, reader_finished) = mpsc::channel::<()>();
            let readers: Vec<_> = rig
                .clients
                .iter()
                .zip(&self.traces)
                .zip(self.next.iter_mut())
                .map(|((client, ops), next)| {
                    let (ground, finished) = (&ground, finished.clone());
                    scope.spawn(move || {
                        let tally = drive(rig, ground, client, ops, next, until, tracer);
                        let _ = finished.send(());
                        tally
                    })
                })
                .collect();
            drop(finished);
            let t0 = Instant::now();
            // Until the first client finishes (or one panicked and the
            // channel closed): a slice holds every client's calls.
            loop {
                let boundary = t0 + Duration::from_secs_f64(SLICE_S * marks.len() as f64);
                let wait = boundary.saturating_duration_since(Instant::now());
                match reader_finished.recv_timeout(wait) {
                    Err(mpsc::RecvTimeoutError::Timeout) => marks.push(Snapshot::take(transport)),
                    _ => break,
                }
            }
            for reader in readers {
                tally.merge(&reader.join().expect("client thread panicked"));
            }
            stop_writer.store(true, Ordering::Relaxed);
            if let Some(writer) = writer {
                tally.merge(&writer.join().expect("patch writer panicked"));
            }
        });
        let end = Snapshot::take(transport);
        if marks.len() == 1 {
            // Shorter than a slice: the whole segment is the one slice.
            marks.push(end);
        }
        Measured {
            window: Window::between(&marks[0], &end),
            slices: cut(&marks, &tally.done),
            tally,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(at_us: f64, cpu_us: f64) -> Snapshot {
        Snapshot {
            at_us,
            cpu_us,
            rss_mb: 1.0,
            msgs: 0,
            bytes: 0,
            sim_us: 0,
        }
    }

    #[test]
    fn cut_puts_each_call_in_the_slice_it_completed_in() {
        let done = |class, at_us, latency_us| Done {
            class,
            at_us,
            latency_us,
        };
        // Out of order, as merged from two threads; one call before the
        // first mark and one after the last belong to no slice.
        let calls = [
            done(Class::Tile, 260.0, 9.0),
            done(Class::Search, 10.0, 1.0),
            done(Class::Search, 120.0, 3.0),
            done(Class::Search, 90.0, 2.0),
            done(Class::Search, 5.0, 7.0),
            done(Class::Search, 300.0, 8.0),
        ];
        let marks = [mark(10.0, 0.0), mark(100.0, 40.0), mark(300.0, 100.0)];
        let mut slices = cut(&marks, &calls);
        assert_eq!(slices.len(), 2);
        assert_eq!((slices[0].calls(), slices[1].calls()), (2, 2));
        assert_eq!((slices[0].cpu_us, slices[1].cpu_us), (40.0, 60.0));
        assert!((slices[1].wall_s - 200e-6).abs() < 1e-12);
        let search = Class::Search.index();
        assert_eq!(slices[0].latency[search].median(), 1.5);
        assert_eq!(slices[1].latency[search].median(), 3.0);
        assert_eq!(slices[1].latency[Class::Tile.index()].median(), 9.0);
    }
}
