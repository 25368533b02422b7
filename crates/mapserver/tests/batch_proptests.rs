//! Property-based round-trip coverage for the batched wire protocol:
//! arbitrary flat batches of requests and responses must survive
//! encode → decode bit-exactly inside an [`Envelope`]. Items are drawn
//! from the spec's Appendix B vectors, so every variant of both
//! directions rides in a batch.

mod vectors;

use openflame_codec::{from_bytes, to_bytes, Wire};
use openflame_mapserver::protocol::{Envelope, Request, Response};
use openflame_mapserver::Principal;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Every non-batch message of a direction the appendix has a vector for.
fn request_pool() -> Vec<Request> {
    let mut pool = vectors::decoded::<Request>("Request");
    pool.retain(|r| !matches!(r, Request::Batch(_)));
    pool
}

fn response_pool() -> Vec<Response> {
    let mut pool = vectors::decoded::<Response>("Response");
    pool.retain(|r| !matches!(r, Response::Batch(_)));
    pool
}

fn drawn_from<T: Clone>(pool: Vec<T>) -> impl Strategy<Value = T> {
    (0..pool.len()).prop_map(move |i| pool[i].clone())
}

fn arb_inner_request() -> impl Strategy<Value = Request> {
    drawn_from(request_pool())
}

fn arb_inner_response() -> impl Strategy<Value = Response> {
    drawn_from(response_pool())
}

/// The draw pool is every variant but `Batch` — by the table's own
/// list, so a new message rides in these batches the day it gets its
/// vector.
#[test]
fn every_variant_but_batch_is_in_the_draw_pool() {
    fn tags<T: Wire>(pool: &[T]) -> BTreeSet<u8> {
        pool.iter().map(|item| to_bytes(item)[0]).collect()
    }
    let but_batch = |rows: &[(u8, &str)]| -> BTreeSet<u8> {
        let rows = rows.iter().filter(|row| row.1 != "Batch");
        rows.map(|row| row.0).collect()
    };
    assert_eq!(tags(&request_pool()), but_batch(Request::TAGS));
    assert_eq!(tags(&response_pool()), but_batch(Response::TAGS));
}

proptest! {
    #[test]
    fn request_batches_round_trip(requests in proptest::collection::vec(arb_inner_request(), 0..12)) {
        let env = Envelope {
            principal: Principal::user_via_app("prop@test", "batch"),
            request: Request::Batch(requests.clone()),
        };
        let back = from_bytes::<Envelope>(&to_bytes(&env)).unwrap();
        prop_assert_eq!(back.request, Request::Batch(requests));
    }

    #[test]
    fn response_batches_round_trip(responses in proptest::collection::vec(arb_inner_response(), 0..12)) {
        let batch = Response::Batch(responses);
        let back = from_bytes::<Response>(&to_bytes(&batch)).unwrap();
        prop_assert_eq!(back, batch);
    }

    #[test]
    fn batched_and_sequential_encodings_stay_decodable(requests in proptest::collection::vec(arb_inner_request(), 1..8)) {
        // A batch is never larger than the sum of its parts wrapped in
        // individual envelopes — the amortization the client relies on.
        let principal = Principal::anonymous();
        let batch_len = to_bytes(&Envelope {
            principal: principal.clone(),
            request: Request::Batch(requests.clone()),
        })
        .len();
        let split_len: usize = requests
            .iter()
            .map(|req| {
                to_bytes(&Envelope {
                    principal: principal.clone(),
                    request: req.clone(),
                })
                .len()
            })
            .sum();
        prop_assert!(batch_len <= split_len + 2, "batch {batch_len} vs split {split_len}");
    }
}
