//! `[R]` per-layer figures: the workload's own inputs replayed through
//! one layer's public function, in-process, after the traced run.

use crate::queries::{raw_request, Ground, RawTarget};
use crate::rig::{self, Driver, Rig, Spec};
use crate::stats::Samples;
use crate::trace::{Class, Op};
use openflame_cells::{CellId, Region, RegionCoverer};
use openflame_codec::framing::{write_frame, FrameDecoder};
use openflame_codec::{from_bytes, to_bytes};
use openflame_core::QueryKind;
use openflame_dns::RecordType;
use openflame_geo::Point2;
use openflame_mapdata::{MapPatch, Node, NodeId, Tags};
use openflame_mapserver::naming::{cell_to_name, QUERY_LEVEL};
use openflame_mapserver::protocol::{Envelope, Request, Response};
use openflame_mapserver::Principal;
use openflame_netsim::BackendKind;
use openflame_tiles::TileCoord;
use std::hint::black_box;
use std::time::Instant;

/// Ops replayed per layer: enough for a steady median, cheap enough to
/// run after every traced workload.
const REPLAY_OPS: usize = 300;
/// Discovery walks replayed (each is a real DNS round on sockets).
const RESOLVE_ROUNDS: usize = 40;
/// Patches replayed in-process.
const PATCHES: usize = 8;
/// The level venues register their coverings at.
const COVERING_LEVEL: u8 = 13;

/// Median microseconds (and counts) per layer.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub plan_us: f64,
    pub plan_targets: f64,
    pub plan_pruned: f64,
    pub cover_us: f64,
    pub resolve_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub frame_us: f64,
    pub bytes_per_envelope: f64,
    /// Engine time per class, in [`Class::ALL`] order.
    pub engine_us: [f64; 6],
    pub rebuild_us: f64,
    pub patch_apply_us: f64,
    /// Wall time of one call of this trace on the simulator, where
    /// sockets cost nothing: client + engine CPU.
    pub sim_call_us: f64,
}

fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_nanos() as f64 / 1_000.0)
}

fn query_kind(class: Class) -> QueryKind {
    match class {
        Class::Search => QueryKind::Search,
        Class::Route => QueryKind::Route,
        Class::Localize => QueryKind::Localize,
        Class::Tile => QueryKind::Tile,
        Class::Geocode => QueryKind::Geocode,
        Class::ReverseGeocode => QueryKind::ReverseGeocode,
    }
}

/// Replays the first ops of `ops` through every layer.
pub fn run(rig: &Rig, ops: &[Op], seed: u64) -> Replay {
    let ops = &ops[..ops.len().min(REPLAY_OPS)];
    let ground = rig.ground();
    let mut replay = Replay::default();
    plan(rig, &ground, ops, &mut replay);
    cover_and_resolve(rig, &ground, ops, &mut replay);
    codec_and_engines(rig, &ground, ops, &mut replay);
    patches(rig, &mut replay);
    replay.sim_call_us = sim_call_us(&rig.spec, ops, seed);
    replay
}

/// `core::plan`: the planner's own time and what it kept and pruned.
fn plan(rig: &Rig, ground: &Ground, ops: &[Op], replay: &mut Replay) {
    let Some(client) = rig.clients.first() else {
        return;
    };
    let (mut plan_us, mut targets, mut pruned) = (Samples::default(), 0usize, 0usize);
    for op in ops {
        let (plan, us) = time_us(|| {
            client.client.plan_query(
                query_kind(op.class),
                ground.point(op),
                rig.spec.search_radius_m,
            )
        });
        if let Ok(plan) = plan {
            plan_us.push(us);
            targets += plan.consulted();
            pruned += plan.pruned_count();
        }
    }
    let n = plan_us.count().max(1) as f64;
    replay.plan_us = plan_us.median();
    replay.plan_targets = targets as f64 / n;
    replay.plan_pruned = pruned as f64 / n;
}

/// `cells` coverings and a cold `dns` resolution of the query cell.
fn cover_and_resolve(rig: &Rig, ground: &Ground, ops: &[Op], replay: &mut Replay) {
    let coverer = RegionCoverer::default();
    let mut cover_us = Samples::default();
    for op in ops {
        let region = Region::Cap {
            center: ground.point(op),
            radius_m: rig.dep.world.venues[op.venue].radius_m,
        };
        cover_us.push(time_us(|| coverer.covering_at_level(&region, COVERING_LEVEL)).1);
    }
    replay.cover_us = cover_us.median();

    let mut resolve_us = Samples::default();
    for op in ops.iter().take(RESOLVE_ROUNDS) {
        let Ok(cell) = CellId::from_latlng(ground.point(op), QUERY_LEVEL) else {
            continue;
        };
        let name = cell_to_name(cell);
        let queries = [
            (name.clone(), RecordType::MapSrv),
            (name, RecordType::FleetSrv),
        ];
        rig.dep.resolver.flush_cache();
        resolve_us.push(time_us(|| rig.dep.resolver.resolve_many(&queries)).1);
    }
    replay.resolve_us = resolve_us.median();
}

/// `codec` on the trace's envelopes and responses, and each engine
/// through the map server's public service functions.
fn codec_and_engines(rig: &Rig, ground: &Ground, ops: &[Op], replay: &mut Replay) {
    let frame = rig.outdoor_frame();
    let principal = Principal::anonymous();
    let (mut encode, mut decode, mut framing) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut engines: [Samples; 6] = Default::default();
    let mut envelope_bytes = 0usize;
    let mut envelopes = 0usize;
    for op in ops {
        let (target, request) = raw_request(ground, &frame, op);
        let server = match target {
            RawTarget::Venue => rig.venue_server(op.venue),
            RawTarget::Outdoor => rig.dep.outdoor_server.clone(),
        };
        let envelope = Envelope {
            principal: principal.clone(),
            request: request.clone(),
        };
        // Both directions of the exchange count as one sample each.
        let (request_bytes, us) = time_us(|| to_bytes(&envelope));
        encode.push(us);
        decode.push(time_us(|| from_bytes::<Envelope>(&request_bytes)).1);
        let response = server.dispatch(&principal, request.clone());
        let (response_bytes, us) = time_us(|| to_bytes(&response));
        encode.push(us);
        decode.push(time_us(|| from_bytes::<Response>(&response_bytes)).1);
        for payload in [&request_bytes[..], &response_bytes[..]] {
            let mut framed = Vec::with_capacity(payload.len() + 32);
            write_frame(&mut framed, 1, 1, payload).expect("writing to a Vec cannot fail");
            framing.push(
                time_us(|| {
                    let mut decoder = FrameDecoder::new();
                    decoder.extend(&framed);
                    decoder.next_frame()
                })
                .1,
            );
            envelope_bytes += payload.len();
            envelopes += 1;
        }

        let us = match request {
            Request::Search {
                query,
                center,
                radius_m,
                k,
            } => {
                time_us(|| {
                    server
                        .search(&principal, &query, center, radius_m, k as usize)
                        .ok()
                })
                .1
            }
            Request::Route { from, to } => {
                time_us(|| server.route(&principal, NodeId(from), NodeId(to)).ok()).1
            }
            Request::Localize { cues } => time_us(|| server.localize(&principal, &cues).ok()).1,
            Request::GetTile { z, x, y } => {
                time_us(|| server.tile(&principal, TileCoord { z, x, y }).ok()).1
            }
            Request::Geocode { query, k } => {
                time_us(|| server.geocode(&principal, &query, k as usize).ok()).1
            }
            Request::ReverseGeocode { pos, radius_m } => {
                time_us(|| server.reverse_geocode(&principal, pos, radius_m).ok()).1
            }
            _ => continue,
        };
        engines[op.class.index()].push(us);
    }
    replay.encode_us = encode.median();
    replay.decode_us = decode.median();
    replay.frame_us = framing.median();
    replay.bytes_per_envelope = envelope_bytes as f64 / envelopes.max(1) as f64;
    for (out, samples) in replay.engine_us.iter_mut().zip(engines.iter_mut()) {
        *out = samples.median();
    }
}

/// `mapserver` rebuild and `mapdata` patch application, on venue 0.
fn patches(rig: &Rig, replay: &mut Replay) {
    let server = rig.venue_server(0);
    let principal = Principal::anonymous();
    let (mut rebuild, mut apply) = (Samples::default(), Samples::default());
    for i in 0..PATCHES as u64 {
        let mut map = server.with_map(|m| m.clone());
        let mut patch = MapPatch::new(map.meta().version);
        patch.upsert_nodes.push(Node::new(
            NodeId(950_000 + i % 4),
            Point2::new(6.0 + i as f64 * 0.1, 6.0),
            Tags::new()
                .with("product", "replay")
                .with("name", format!("replay-restock-{i}")),
        ));
        apply.push(time_us(|| patch.apply(&mut map)).1);
        rebuild.push(time_us(|| server.apply_patch(&principal, &patch)).1);
    }
    replay.rebuild_us = rebuild.median();
    replay.patch_apply_us = apply.median();
}

/// The same trace on the simulator: one single-threaded client (or
/// raw submitter), where wall time is CPU time and sockets cost
/// nothing.
fn sim_call_us(spec: &Spec, ops: &[Op], seed: u64) -> f64 {
    let sim = rig::build(
        &Spec {
            backend: BackendKind::Sim,
            clients: 1,
            ..spec.clone()
        },
        seed,
        None,
    );
    let ground = sim.ground();
    let mut calls = Samples::default();
    if spec.driver == Driver::Open {
        let frame = sim.outdoor_frame();
        for op in ops {
            let (target, request) = raw_request(&ground, &frame, op);
            let to = sim.raw_endpoint(target, op.venue);
            let from = sim.raw_clients[0];
            calls.push(time_us(|| rig::raw_call(sim.transport.as_ref(), from, to, request)).1);
        }
    } else {
        let client = &sim.clients[0];
        for op in ops {
            if let Some(query) = ground.query(&client.hits, op) {
                calls.push(time_us(|| query.issue(&client.client)).1);
            }
        }
    }
    // The mean, not the median: it is subtracted from a mean (CPU per
    // call) to leave the socket cost.
    calls.mean()
}
