//! The open-loop driver: pre-encoded raw envelopes submitted on a
//! Poisson schedule whether or not the servers keep up, over a ladder
//! of rates. Latency runs from the *scheduled* send, so a stall is
//! charged to every op it delays.

use crate::closed::{cut, Done, Measured, Snapshot, Tally, Window, SLICE_S};
use crate::queries::{raw_request, raw_response_ok};
use crate::rig::Rig;
use crate::spans::Tracer;
use crate::stats::{now_us, Samples};
use crate::trace::{generate_arrivals, generate_ops, Class, Op};
use openflame_codec::{from_bytes, to_bytes};
use openflame_mapserver::protocol::{Envelope, Response};
use openflame_mapserver::Principal;
use openflame_netsim::{CallHandle, EndpointId};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The rate end-to-end latencies are reported at, ops/s: well below the
/// knee (near 20 k ops/s on the 2-core reference box) yet busy enough
/// that cores rarely halt between ops — at half this rate medians were
/// set by how fast the host wakes an idle core, and spread twice as wide.
pub const REFERENCE_RATE: f64 = 8_000.0;
/// The ladder `max_rate_ok` is read from, ops/s. Every rung passes the
/// limit with room to spare at the seed commit (see README: a rung
/// within 2x of the limit flips between runs and was moved).
pub const LADDER: [f64; 3] = [4_000.0, REFERENCE_RATE, 12_000.0];
/// A rung passes when its pooled p99 stays within this, µs.
pub const LATENCY_LIMIT_US: f64 = 20_000.0;
/// ... and it delivered at least this share of the offered rate.
const MIN_ACHIEVED_SHARE: f64 = 0.95;
/// A rung whose generator finished this much later than scheduled is
/// not reported: the offered load was not the stated one.
const MAX_GENERATOR_SLIP: f64 = 0.05;
/// Logical principals the envelopes are labelled with.
const SESSIONS: usize = 1_000;

/// One rung: a rate held for a time, with spans on or off.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub rate: f64,
    pub seconds: f64,
    pub traced: bool,
}

/// One op, encoded and addressed before the clock starts.
struct Planned {
    at_us: u64,
    from: EndpointId,
    to: EndpointId,
    payload: Vec<u8>,
}

struct InFlight {
    op: usize,
    /// When the op was due, on the [`now_us`] clock.
    due_us: f64,
    lag_us: f64,
    handle: CallHandle,
}

/// What one rung measured.
#[derive(Debug, Clone)]
pub struct StepResult {
    pub step: Step,
    /// Calls are stamped with the time they were due.
    pub measured: Measured,
    /// Latency of every correct op of the rung, µs.
    pub pooled: Samples,
    /// Generator lag of every op (actual minus scheduled send), µs.
    pub lag: Samples,
    /// How much later than scheduled the generator finished, as a
    /// share of the rung's length.
    pub slip: f64,
    pub offered_per_s: f64,
    pub achieved_per_s: f64,
}

impl StepResult {
    /// Whether the generator kept its schedule (else the rung is void).
    pub fn valid(&self) -> bool {
        self.slip <= MAX_GENERATOR_SLIP
    }

    /// Whether the rung met the limit: p99 in time, throughput
    /// delivered, nothing failed.
    pub fn pass(&mut self) -> bool {
        self.valid()
            && self.measured.tally.failed == 0
            && self.pooled.quantile(0.99) <= LATENCY_LIMIT_US
            && self.achieved_per_s >= MIN_ACHIEVED_SHARE * self.offered_per_s
    }
}

/// Runs one rung and returns what it measured and the ops it sent.
/// The ops and arrivals are a pure function of `(seed, index)`.
pub fn run_step(
    rig: &Rig,
    step: Step,
    index: u64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> (StepResult, Vec<Op>) {
    if let Some(tracer) = tracer {
        tracer.set_enabled(step.traced);
    }
    let duration_us = (step.seconds * 1_000_000.0) as u64;
    let step_seed = seed.wrapping_mul(31).wrapping_add(index);
    let arrivals = generate_arrivals(step.rate, duration_us, step_seed);
    let ops = generate_ops(
        &rig.shape(),
        &rig.spec.mix,
        rig.spec.pick,
        arrivals.len(),
        step_seed,
    );
    let ground = rig.ground();
    let frame = rig.outdoor_frame();
    let plan: Vec<Planned> = arrivals
        .iter()
        .zip(&ops)
        .enumerate()
        .map(|(i, (&at_us, op))| {
            let (target, request) = raw_request(&ground, &frame, op);
            let session = i % SESSIONS;
            Planned {
                at_us,
                from: rig.raw_clients[session % rig.raw_clients.len()],
                to: rig.raw_endpoint(target, op.venue),
                payload: to_bytes(&Envelope {
                    principal: Principal::user(format!("s{session}@load.test")),
                    request,
                })
                .to_vec(),
            }
        })
        .collect();
    let last_at_us = plan.last().map_or(1, |p| p.at_us);
    let offered = plan.len();

    let transport = rig.transport.as_ref();
    let mut marks = vec![Snapshot::take(transport)];
    let mut lag = Samples::default();
    let mut tally = Tally::default();
    let mut pooled = Samples::default();
    let mut submit_span_us = 0.0;
    std::thread::scope(|scope| {
        // One collector per class: completions are claimed in submit
        // order, and a 200 KB tile ahead of a search in one queue would
        // be charged to the search.
        let (senders, collectors): (Vec<_>, Vec<_>) = Class::ALL
            .iter()
            .map(|_| {
                let (tx, rx) = mpsc::channel::<InFlight>();
                let (ground, frame, ops) = (&ground, &frame, &ops);
                let collector = scope.spawn(move || {
                    let mut tally = Tally::default();
                    for in_flight in rx {
                        let op = &ops[in_flight.op];
                        tally.attempted += 1;
                        let ok = in_flight.handle.wait().ok().and_then(|transfer| {
                            let response = from_bytes::<Response>(&transfer.payload).ok()?;
                            raw_response_ok(ground, frame, op, &response)
                                .then_some(in_flight.lag_us + transfer.latency_us as f64)
                        });
                        match ok {
                            Some(latency_us) => tally.done.push(Done {
                                class: op.class,
                                at_us: in_flight.due_us,
                                latency_us,
                            }),
                            None => tally.failed += 1,
                        }
                    }
                    tally
                });
                (tx, collector)
            })
            .unzip();
        let t0 = Instant::now();
        let t0_us = now_us();
        for (op, planned) in plan.into_iter().enumerate() {
            let scheduled = Duration::from_micros(planned.at_us);
            // The submitter marks the slice boundaries it passes.
            if scheduled.as_secs_f64() >= SLICE_S * marks.len() as f64 {
                marks.push(Snapshot::take(transport));
            }
            loop {
                let now = t0.elapsed();
                if now >= scheduled {
                    break;
                }
                // Sleep through long gaps, yield through short ones: a
                // sleep overshoots by tens of microseconds.
                match (scheduled - now).checked_sub(Duration::from_micros(150)) {
                    Some(rest) => std::thread::sleep(rest),
                    None => std::thread::yield_now(),
                }
            }
            let lag_us = (t0.elapsed() - scheduled).as_nanos() as f64 / 1_000.0;
            lag.push(lag_us);
            let class = ops[op].class;
            let handle = transport.submit(planned.from, planned.to, planned.payload);
            senders[class.index()]
                .send(InFlight {
                    op,
                    due_us: t0_us + planned.at_us as f64,
                    lag_us,
                    handle,
                })
                .expect("collector alive");
        }
        submit_span_us = t0.elapsed().as_nanos() as f64 / 1_000.0;
        drop(senders);
        for collector in collectors {
            tally.merge(&collector.join().expect("collector panicked"));
        }
    });
    let end = Snapshot::take(transport);
    if marks.len() == 1 {
        // Shorter than a slice: the whole rung is the one slice.
        marks.push(end);
    }
    let window = Window::between(&marks[0], &end);
    for done in &tally.done {
        pooled.push(done.latency_us);
    }
    if let Some(tracer) = tracer {
        tracer.set_enabled(false);
    }
    let result = StepResult {
        step,
        offered_per_s: offered as f64 / (duration_us as f64 / 1_000_000.0),
        achieved_per_s: tally.correct_calls() as f64 / window.wall_s,
        slip: (submit_span_us - last_at_us as f64).max(0.0) / duration_us as f64,
        measured: Measured {
            slices: cut(&marks, &tally.done),
            tally,
            window,
        },
        pooled,
        lag,
    };
    (result, ops)
}
