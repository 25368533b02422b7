//! The per-layer table: `[T]` figures from spans, `[C]` figures from
//! the layers' own public counters, joined with the `[R]` replays.

use crate::rig::Rig;
use crate::spans::{children_of, self_time_us, union_len, Span};
use crate::stats::Samples;
use openflame_core::{DiscoveryStats, SessionStats};
use openflame_dns::ResolverStats;
use openflame_netsim::QuicStats;
use std::collections::BTreeMap;

/// The layers' public counters at one instant, summed over clients.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    session: SessionStats,
    discovery: DiscoveryStats,
    resolver: ResolverStats,
    quic: QuicStats,
}

impl Counters {
    pub fn take(rig: &Rig) -> Self {
        let mut session = SessionStats::default();
        let mut discovery = DiscoveryStats::default();
        for client in &rig.clients {
            let s = client.client.session().stats();
            session.batches += s.batches;
            session.batched_requests += s.batched_requests;
            session.hello_hits += s.hello_hits;
            session.hello_misses += s.hello_misses;
            session.discovery_hits += s.discovery_hits;
            session.discovery_misses += s.discovery_misses;
            session.cache_evictions += s.cache_evictions + s.coverage_evictions;
            session.busy_retries += s.busy_retries;
            let d = client.client.discovery().stats();
            discovery.lookups += d.lookups;
        }
        Self {
            session,
            discovery,
            resolver: rig.dep.resolver.stats(),
            quic: rig
                .quic
                .as_ref()
                .map(|q| q.quic_stats())
                .unwrap_or_default(),
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing, when it has any.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn with_samples(self, samples: usize) -> Self {
        Self {
            samples: Some(samples),
            ..self
        }
    }
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
    }
}

fn timing(name: &str, samples: &mut Samples, q: f64) -> Metric {
    metric(name, samples.quantile(q), "us").with_samples(samples.count())
}

/// `[C]` figures over one traced segment of `calls` calls.
pub fn counter_metrics(rig: &Rig, before: &Counters, after: &Counters, calls: u64) -> Vec<Metric> {
    let d = |f: fn(&Counters) -> u64| f(after) - f(before);
    let per_call = |n: u64| ratio(n, calls);
    let hello_hits = d(|c| c.session.hello_hits);
    let discovery_hits = d(|c| c.session.discovery_hits);
    let transport = rig.transport.as_ref();
    let orphans = match (&rig.tcp, &rig.quic) {
        (Some(tcp), _) => tcp.orphan_responses(),
        (_, Some(quic)) => quic.orphan_responses(),
        _ => 0,
    };
    let max_depth = rig
        .map_servers()
        .iter()
        .map(|s| transport.dispatch_depth(s.endpoint()))
        .max()
        .unwrap_or(0);
    vec![
        metric(
            "core.session.batches_per_call",
            per_call(d(|c| c.session.batches)),
            "count",
        ),
        metric(
            "core.session.requests_per_batch",
            ratio(d(|c| c.session.batched_requests), d(|c| c.session.batches)),
            "count",
        ),
        metric(
            "core.session.hello_hit_ratio",
            ratio(hello_hits, hello_hits + d(|c| c.session.hello_misses)),
            "ratio",
        ),
        metric(
            "core.session.discovery_hit_ratio",
            ratio(
                discovery_hits,
                discovery_hits + d(|c| c.session.discovery_misses),
            ),
            "ratio",
        ),
        metric(
            "core.session.evictions",
            d(|c| c.session.cache_evictions) as f64,
            "count",
        ),
        metric(
            "core.session.busy_retries",
            d(|c| c.session.busy_retries) as f64,
            "count",
        ),
        metric(
            "core.discovery.lookups_per_call",
            per_call(d(|c| c.discovery.lookups)),
            "count",
        ),
        metric(
            "dns.upstream_per_call",
            per_call(d(|c| c.resolver.upstream_queries)),
            "count",
        ),
        metric(
            "dns.cache_hit_ratio",
            ratio(d(|c| c.resolver.cache_hits), d(|c| c.resolver.queries)),
            "ratio",
        ),
        metric(
            "netsim.worker_threads",
            transport.worker_threads() as f64,
            "count",
        ),
        metric("netsim.max_dispatch_depth", max_depth as f64, "count"),
        metric(
            "netsim.shed_requests",
            transport.shed_requests() as f64,
            "count",
        ),
        metric("netsim.orphan_responses", orphans as f64, "count"),
        metric(
            "netsim.quic.retransmits_per_call",
            per_call(d(|c| c.quic.retransmits)),
            "count",
        ),
        metric(
            "netsim.quic.packets_per_call",
            per_call(d(|c| c.quic.packets_sent)),
            "count",
        ),
    ]
}

/// `[T]` figures from the spans of one traced segment of `wall_s`.
///
/// Per provider call (root span): `client_self` is the root minus the
/// union of its wire spans; the wire union splits into the part some
/// serve span covers (`blocking_serve`) and the rest
/// (`blocking_wire_self`: transport, framing and queue wait in both
/// directions). The three add up to the root exactly, call by call;
/// `bench.span_closure` reports how well their per-class *medians*
/// add up to the median call.
pub fn span_metrics(spans: &[Span], wall_s: f64) -> Vec<Metric> {
    let children = children_of(spans);
    let kids = |id: u64| {
        children
            .get(&id)
            .map(|v| v.as_slice())
            .unwrap_or_default()
            .iter()
            .map(|&i| &spans[i])
    };

    let (mut root_us, mut client_self) = (Samples::default(), Samples::default());
    let (mut blocking_wire_self, mut blocking_serve) = (Samples::default(), Samples::default());
    // Per class: [root, client self, wire self, serve], for the closure.
    let mut by_class: BTreeMap<&str, [Samples; 4]> = BTreeMap::new();
    let mut dns_wire_total = 0.0;
    for root in spans.iter().filter(|s| s.name.starts_with("provider.")) {
        let mut wires: Vec<(f64, f64)> = kids(root.id).map(|w| (w.start_us, w.end_us)).collect();
        let mut serves: Vec<(f64, f64)> = kids(root.id)
            .flat_map(|w| kids(w.id))
            .map(|s| (s.start_us, s.end_us))
            .collect();
        let mut dns: Vec<(f64, f64)> = kids(root.id)
            .filter(|w| w.name == "wire.dns")
            .map(|w| (w.start_us, w.end_us))
            .collect();
        let wire_union = union_len(&mut wires, root.start_us, root.end_us);
        let serve_union = union_len(&mut serves, root.start_us, root.end_us);
        dns_wire_total += union_len(&mut dns, root.start_us, root.end_us);
        let parts = [
            root.duration_us(),
            root.duration_us() - wire_union,
            wire_union - serve_union,
            serve_union,
        ];
        root_us.push(parts[0]);
        client_self.push(parts[1]);
        blocking_wire_self.push(parts[2]);
        blocking_serve.push(parts[3]);
        for (samples, part) in by_class.entry(root.name).or_default().iter_mut().zip(parts) {
            samples.push(part);
        }
    }

    let (mut wire, mut wire_self) = (Samples::default(), Samples::default());
    let (mut serve_map, mut serve_dns) = (Samples::default(), Samples::default());
    for span in spans {
        match span.name {
            "wire.map" | "wire.dns" => {
                wire.push(span.duration_us());
                wire_self.push(self_time_us(span, spans, &children));
            }
            "serve.map" => serve_map.push(span.duration_us()),
            "serve.dns" => serve_dns.push(span.duration_us()),
            _ => {}
        }
    }

    // Medians add up only within a class (the mix is multi-modal), so
    // the closure compares per-class medians, summed over classes.
    let (mut parts, mut whole) = (0.0, 0.0);
    for [root, client, wire, serve] in by_class.values_mut() {
        parts += client.median() + wire.median() + serve.median();
        whole += root.median();
    }
    let closure = if whole == 0.0 { 0.0 } else { parts / whole };
    let serve_total: f64 = spans
        .iter()
        .filter(|s| s.name == "serve.map")
        .map(Span::duration_us)
        .sum();
    vec![
        timing("core.client_self_us", &mut client_self, 0.5),
        timing("core.blocking_wire_self_us", &mut blocking_wire_self, 0.5),
        timing("core.blocking_serve_us", &mut blocking_serve, 0.5),
        metric(
            "dns.wire_us_per_call",
            dns_wire_total / root_us.count().max(1) as f64,
            "us",
        ),
        timing("dns.serve_us", &mut serve_dns, 0.5),
        timing("netsim.wire_us", &mut wire, 0.5),
        timing("netsim.wire_p99_us", &mut wire, 0.99),
        timing("netsim.wire_self_us", &mut wire_self, 0.5),
        timing("mapserver.serve_us", &mut serve_map, 0.5),
        timing("mapserver.serve_p99_us", &mut serve_map, 0.99),
        metric(
            "mapserver.busy_share",
            serve_total / (wall_s * 1_000_000.0).max(1.0),
            "ratio",
        ),
        metric("bench.span_closure", closure, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_us,
            end_us,
            endpoint: 0,
            bytes: 0,
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    #[test]
    fn a_call_splits_into_client_wire_and_serve_time() {
        // One call of 100 µs: two parallel map branches (10..60 and
        // 20..80), each served for part of its flight, and one DNS
        // exchange (0..5) with no serve span.
        let spans = vec![
            span(1, 0, "provider.search", 0.0, 100.0),
            span(2, 1, "wire.map", 10.0, 60.0),
            span(3, 1, "wire.map", 20.0, 80.0),
            span(4, 1, "wire.dns", 0.0, 5.0),
            span(5, 2, "serve.map", 30.0, 40.0),
            span(6, 3, "serve.map", 35.0, 65.0),
        ];
        let m = span_metrics(&spans, 0.001);
        // Wire union = 0..5 + 10..80 = 75; serve union = 30..65 = 35.
        assert_eq!(value(&m, "core.client_self_us"), 25.0);
        assert_eq!(value(&m, "core.blocking_serve_us"), 35.0);
        assert_eq!(value(&m, "core.blocking_wire_self_us"), 40.0);
        assert_eq!(value(&m, "bench.span_closure"), 1.0);
        assert_eq!(value(&m, "dns.wire_us_per_call"), 5.0);
        assert_eq!(value(&m, "mapserver.serve_us"), 20.0);
        assert_eq!(value(&m, "mapserver.busy_share"), 0.04);
        // Wire self times: 50-10, 60-30, 5-0 → median 30.
        assert_eq!(value(&m, "netsim.wire_self_us"), 30.0);
    }

    #[test]
    fn raw_wire_traffic_has_no_roots_and_no_closure() {
        let spans = vec![
            span(1, 0, "wire.map", 0.0, 50.0),
            span(2, 1, "serve.map", 10.0, 30.0),
        ];
        let m = span_metrics(&spans, 1.0);
        assert_eq!(value(&m, "bench.span_closure"), 0.0);
        assert_eq!(value(&m, "core.client_self_us"), 0.0);
        assert_eq!(value(&m, "netsim.wire_self_us"), 30.0);
    }
}
