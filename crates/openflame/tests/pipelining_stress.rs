//! Pipelining stress: many concurrent sessions scatter wide fan-outs
//! over ONE shared real-socket transport, and the transport's
//! worker-thread population stays bounded — it does not grow with
//! fan-out width, session count, served-endpoint count or call volume.
//!
//! This is the acceptance check for the shared-reactor redesign: the
//! old backend budgeted threads *per server* (an accept loop, a
//! dispatch pool and a reader/writer pair per pooled connection each),
//! so a 128-server fleet cost thousands of parked threads. The reactor
//! model multiplexes every connection — client and served side — over
//! one fixed pool of event-loop threads: `reactor_threads()` waiters,
//! sized by the host's cores, plus `DISPATCH_POOL` more. The whole
//! fleet below runs on `reactor_threads() + DISPATCH_POOL` OS threads.
//! The QuicLite datagram backend pins a strictly lower constant: one
//! waiter on every socket (and the RTO deadlines) plus `SERVE_POOL`
//! more, regardless of scale.

use openflame_core::{ClientError, Session};
use openflame_mapserver::protocol::{Envelope, HelloInfo, Request, Response};
use openflame_mapserver::Principal;
use openflame_netsim::tcp::{TcpTransport, DISPATCH_POOL};
use openflame_netsim::udp::{QuicLiteTransport, SERVE_POOL as UDP_SERVE_POOL};
use openflame_netsim::{EndpointId, Transport};
use std::sync::Arc;

const SESSIONS: usize = 8;
const SERVERS: usize = 128;
const ROUNDS: usize = 4;

/// A minimal map-protocol stub: answers every batched request with a
/// `Hello`, like a server that only speaks capability discovery.
fn stub_service() -> Arc<dyn openflame_netsim::WireService> {
    Arc::new(move |_from: EndpointId, payload: &[u8]| {
        let env: Envelope = openflame_codec::from_bytes(payload).expect("well-formed envelope");
        let Request::Batch(items) = env.request else {
            panic!("sessions always batch");
        };
        let answers: Vec<Response> = items
            .iter()
            .map(|_| {
                Response::Hello(HelloInfo {
                    anchor: None,
                    portals: Vec::new(),
                    coverage: Vec::new(),
                })
            })
            .collect();
        openflame_codec::to_bytes(&Response::Batch(answers)).to_vec()
    })
}

/// Registers `SERVERS` stub servers and `SESSIONS` client sessions on
/// one shared transport.
fn build_fleet(shared: &Arc<dyn Transport>) -> (Vec<EndpointId>, Vec<Session>) {
    let servers: Vec<EndpointId> = (0..SERVERS)
        .map(|i| {
            let id = shared.register(&format!("stub-{i}"), None);
            shared.set_service(id, stub_service());
            id
        })
        .collect();
    let sessions: Vec<Session> = (0..SESSIONS)
        .map(|i| {
            let endpoint = shared.register(&format!("session-{i}"), None);
            Session::new(shared.clone(), endpoint, Principal::anonymous())
        })
        .collect();
    (servers, sessions)
}

/// One warm-up scatter per session (cold dials and, on QuicLite, the
/// handshake round happen here), then `ROUNDS` of all sessions
/// scattering two-request batches concurrently.
fn run_stress(servers: &[EndpointId], sessions: &[Session]) {
    for session in sessions {
        let mut warm_up = session.scatter();
        for server in servers {
            warm_up.submit(*server, vec![Request::Hello]);
        }
        for result in warm_up.collect() {
            result.expect("warm-up scatter succeeds");
        }
    }
    std::thread::scope(|scope| {
        for session in sessions {
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let mut scatter = session.scatter();
                    for server in servers {
                        scatter.submit(*server, vec![Request::Hello, Request::Hello]);
                    }
                    for (i, result) in scatter.collect().into_iter().enumerate() {
                        let responses: Result<Vec<Response>, ClientError> = result;
                        let responses = responses
                            .unwrap_or_else(|e| panic!("round {round} branch {i} failed: {e}"));
                        assert_eq!(responses.len(), 2, "positional batch answers");
                        assert!(matches!(responses[0], Response::Hello(_)));
                    }
                }
            });
        }
    });
}

/// Wire accounting is exact at fleet scale: every envelope is one
/// request frame plus one response frame, nothing else rode the
/// sockets, and every session kept the one-envelope-per-server
/// discipline. Transport stats are reset between stress runs, so
/// `messages` covers the last run only; session stats accumulate
/// across all `runs`.
fn assert_accounting(transport: &dyn Transport, orphans: u64, sessions: &[Session], runs: u64) {
    let envelopes = (SESSIONS * (1 + ROUNDS) * SERVERS) as u64;
    assert_eq!(transport.stats().messages, 2 * envelopes);
    assert_eq!(orphans, 0, "no response went unmatched under pipelining");
    for session in sessions {
        let stats = session.stats();
        assert_eq!(stats.batches, runs * ((1 + ROUNDS) * SERVERS) as u64);
    }
}

#[test]
fn worker_threads_bounded_under_concurrent_fanout() {
    let transport = TcpTransport::new(42);
    let shared: Arc<dyn Transport> = Arc::new(transport.clone());
    // This test pins the thread census and wire accounting, not
    // latency: a generous call deadline keeps a loaded CI host (the
    // whole fan-out shares its cores with sibling test binaries) from
    // timing out a branch and failing the run for the wrong reason.
    shared.set_timeout_us(60_000_000);
    let (servers, sessions) = build_fleet(&shared);

    // Thread population: the reactor pool plus the dispatch pool,
    // full stop. Registering 128 served endpoints and dialing
    // 8 × 128 client connections must not have grown it — there is no
    // per-server or per-connection term left in the budget.
    run_stress(&servers, &sessions);
    let ceiling = transport.reactor_threads() + DISPATCH_POOL;
    let now = transport.worker_threads();
    assert_eq!(
        now, ceiling,
        "tcp worker threads must equal reactor pool ({}) + dispatch pool ({DISPATCH_POOL}), got {now}",
        transport.reactor_threads()
    );

    // And stable: another full stress round reuses the same threads.
    transport.reset_stats();
    run_stress(&servers, &sessions);
    assert_eq!(
        transport.worker_threads(),
        ceiling,
        "steady-state scattering must not spawn further workers"
    );

    assert_accounting(shared.as_ref(), transport.orphan_responses(), &sessions, 2);
}

#[test]
fn quiclite_worker_threads_bounded_under_concurrent_fanout() {
    // The same stress on the datagram backend, whose thread constant
    // is strictly below TCP's: one event-loop thread multiplexes all
    // 128 serve sockets and the client socket and runs their RTO
    // deadlines, and SERVE_POOL workers dispatch for the whole fleet.
    // TCP's floor is reactor_threads() + DISPATCH_POOL ≥ 1 + 8, so the
    // datagram census stays under it on any host.
    let transport = QuicLiteTransport::new(42);
    let shared: Arc<dyn Transport> = Arc::new(transport.clone());
    // Same generous deadline as the tcp test: census, not latency.
    shared.set_timeout_us(60_000_000);
    let (servers, sessions) = build_fleet(&shared);

    run_stress(&servers, &sessions);
    let ceiling = 1 + UDP_SERVE_POOL;
    let now = transport.worker_threads();
    assert!(
        now <= ceiling,
        "worker threads {now} exceed the QuicLite ceiling {ceiling}"
    );
    assert!(
        ceiling < 1 + DISPATCH_POOL,
        "datagram thread ceiling must stay strictly below the tcp floor"
    );

    transport.reset_stats();
    run_stress(&servers, &sessions);
    assert_eq!(
        transport.worker_threads(),
        now,
        "steady-state scattering must not spawn further workers"
    );

    assert_accounting(shared.as_ref(), transport.orphan_responses(), &sessions, 2);
}
