//! Property-based tests for the network simulation.

use openflame_netsim::{BackendKind, EndpointId, NetError, Transport};
use std::sync::Arc;

/// A simulator with one server answering `reply(request)` and one client.
fn served(seed: u64, reply: fn(&[u8]) -> Vec<u8>) -> (Arc<dyn Transport>, EndpointId, EndpointId) {
    let net = BackendKind::Sim.build(seed);
    let server = net.register("s", None);
    net.set_service(
        server,
        Arc::new(move |_from: EndpointId, p: &[u8]| reply(p)),
    );
    let client = net.register("c", None);
    (net, client, server)
}

fn echo(seed: u64) -> (Arc<dyn Transport>, EndpointId, EndpointId) {
    served(seed, <[u8]>::to_vec)
}
use proptest::prelude::*;

proptest! {
    #[test]
    fn clock_is_monotone_under_any_call_sequence(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..3, 0usize..512), 1..40),
    ) {
        let (net, client, server) = echo(seed);
        let mut last = net.now_us();
        for (op, size) in ops {
            match op {
                0 => {
                    let _ = net.call(client, server, vec![0u8; size]);
                }
                1 => net.advance_us(size as u64),
                _ => {
                    let handles = [0u8, 1].map(|b| net.submit(client, server, vec![b; size]));
                    for handle in handles {
                        let _ = handle.wait();
                    }
                }
            }
            let now = net.now_us();
            prop_assert!(now >= last, "clock went backwards: {last} -> {now}");
            last = now;
        }
    }

    #[test]
    fn same_seed_same_trace(seed in any::<u64>(), sizes in proptest::collection::vec(0usize..256, 1..20)) {
        let run = |sizes: &[usize]| {
            let (net, client, server) = echo(seed);
            for &s in sizes {
                let _ = net.call(client, server, vec![7u8; s]);
            }
            (net.now_us(), net.stats())
        };
        prop_assert_eq!(run(&sizes), run(&sizes));
    }

    #[test]
    fn byte_accounting_is_exact(
        sizes in proptest::collection::vec(0usize..1024, 1..20),
    ) {
        let (net, client, server) = served(3, |_| vec![9u8; 10]);
        for &s in &sizes {
            net.call(client, server, vec![0u8; s]).unwrap();
        }
        let expected: u64 = sizes.iter().map(|&s| s as u64 + 10).sum();
        prop_assert_eq!(net.stats().bytes, expected);
        prop_assert_eq!(net.stats().messages, sizes.len() as u64 * 2);
    }

    #[test]
    fn down_endpoints_always_error_never_panic(seed in any::<u64>()) {
        let (net, client, server) = echo(seed);
        net.set_down(server, true);
        for _ in 0..5 {
            let r = net.call(client, server, vec![1]);
            prop_assert!(matches!(r, Err(NetError::EndpointDown(_))));
        }
    }
}
