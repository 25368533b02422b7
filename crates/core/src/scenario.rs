//! The paper §2 grocery-navigation scenario, end to end.
//!
//! "A user wishes to search for a product of interest, e.g., a
//! particular flavor of seaweed, near their location. The application
//! then provides the user with pedestrian navigation guidance to the
//! exact shelf in a grocery store nearby that stocks the seaweed."
//!
//! [`run_grocery_scenario`] executes that flow under each provider
//! architecture and reports what succeeded — the executable form of the
//! paper's Figure 1 vs Figure 2 comparison, asserted by
//! `federation_end_to_end::scenario_comparison_federated_wins_indoors`.
//!
//! The flow itself is written once, against `&dyn SpatialProvider`:
//! the *same* search → route → localize sequence runs under every
//! architecture, and only provider construction differs. What the
//! centralized baselines cannot do (find inventory, localize indoors)
//! shows up as missing data in the report, not as a different code
//! path.

use crate::centralized::CentralizedProvider;
use crate::deployment::{Deployment, DeploymentConfig};
use crate::provider::{LocalizeQuery, RouteQuery, SearchQuery, SpatialProvider};
use crate::ClientError;
use openflame_geo::LatLng;
use openflame_localize::{GnssModel, LocationCue, RadioMap};
use openflame_mapdata::ElementId;
use openflame_netsim::{BackendKind, Transport};
use openflame_worldgen::{WalkTrace, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which architecture serves the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProviderKind {
    /// Figure 2: OpenFLAME federation.
    Federated,
    /// Figure 1 with realistic data: outdoor public map only.
    CentralizedPublic,
    /// Figure 1 with impossible data: everything merged (upper bound).
    CentralizedOmniscient,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct GroceryScenarioReport {
    /// The architecture measured.
    pub provider: ProviderKind,
    /// The product searched for.
    pub product: String,
    /// Whether the product was found at all.
    pub found_product: bool,
    /// Whether navigation reached the exact shelf (vs. at best the
    /// storefront).
    pub route_reaches_shelf: bool,
    /// Total route length if any route was produced, meters.
    pub route_length_m: Option<f64>,
    /// Median localization error along the walk, outdoors, meters.
    pub outdoor_median_err_m: Option<f64>,
    /// Median localization error along the walk, indoors, meters.
    /// `None` when no indoor estimates were available at all.
    pub indoor_median_err_m: Option<f64>,
    /// Fraction of indoor samples with any localization estimate.
    pub indoor_availability: f64,
    /// Messages exchanged during the scenario.
    pub messages: u64,
    /// Bytes exchanged during the scenario.
    pub bytes: u64,
}

fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(values[values.len() / 2])
}

/// Runs the scenario for `product_idx` under the chosen architecture.
///
/// The user starts on the street ~80 m from the store, searches for the
/// product, navigates toward the shelf, and localizes continuously
/// along the way. Only provider *construction* depends on `provider`;
/// the flow runs through [`SpatialProvider`] for every architecture.
pub fn run_grocery_scenario(
    world: &World,
    provider: ProviderKind,
    product_idx: usize,
    seed: u64,
) -> Result<GroceryScenarioReport, ClientError> {
    run_grocery_scenario_on(world, provider, product_idx, seed, BackendKind::Sim)
}

/// [`run_grocery_scenario`] on an explicit wire backend: the *same*
/// provider-agnostic flow over the simulator or over real loopback TCP
/// sockets.
pub fn run_grocery_scenario_on(
    world: &World,
    provider: ProviderKind,
    product_idx: usize,
    seed: u64,
    backend: BackendKind,
) -> Result<GroceryScenarioReport, ClientError> {
    match provider {
        ProviderKind::Federated => {
            let dep = Deployment::build(
                world.clone(),
                DeploymentConfig {
                    net_seed: seed,
                    backend,
                    ..Default::default()
                },
            );
            run_with_provider(
                &dep.client,
                dep.transport.as_ref(),
                &dep.world,
                provider,
                product_idx,
                seed,
            )
        }
        ProviderKind::CentralizedPublic | ProviderKind::CentralizedOmniscient => {
            let transport = backend.build(seed);
            let central = if provider == ProviderKind::CentralizedOmniscient {
                CentralizedProvider::omniscient_on(transport.clone(), world)
            } else {
                CentralizedProvider::public_only_on(transport.clone(), world)
            };
            run_with_provider(
                &central,
                transport.as_ref(),
                world,
                provider,
                product_idx,
                seed,
            )
        }
    }
}

/// Generates the localization cue stream along the ground-truth walk.
fn localization_cues(
    world: &World,
    venue_idx: usize,
    trace: &WalkTrace,
    seed: u64,
) -> Vec<(usize, LatLng, Vec<LocationCue>, bool)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ca71e);
    let gnss = GnssModel::default();
    let venue = &world.venues[venue_idx];
    let radio = RadioMap::survey(
        venue.beacons.clone(),
        openflame_geo::Point2::new(-5.0, -5.0),
        openflame_geo::Point2::new(60.0, 45.0),
        2.0,
    );
    let mut out = Vec::new();
    for (i, sample) in trace.samples.iter().enumerate().step_by(5) {
        let mut cues = Vec::new();
        if let Some(cue) = gnss.sample(&mut rng, sample.geo, sample.indoors) {
            cues.push(cue);
        }
        if let Some((v, local)) = sample.venue_local {
            debug_assert_eq!(v, venue_idx);
            cues.push(radio.observe(&mut rng, local, 3.0));
        }
        out.push((i, sample.geo, cues, sample.indoors));
    }
    out
}

/// The provider-agnostic paper §2 flow (see module docs).
fn run_with_provider(
    provider: &dyn SpatialProvider,
    transport: &dyn Transport,
    world: &World,
    kind: ProviderKind,
    product_idx: usize,
    seed: u64,
) -> Result<GroceryScenarioReport, ClientError> {
    let product = world.products[product_idx].clone();
    let venue_idx = product.venue;
    transport.reset_stats();
    // The user stands on the street near the store (coarse GPS puts
    // discovery in the right cell).
    let user_geo = world.venues[venue_idx].hint.destination(225.0, 80.0);
    // 1. Search for the product.
    let search = provider.search(SearchQuery {
        query: product.name.clone(),
        location: user_geo,
        radius_m: 5_000.0,
        k: 5,
    });
    let top_hit = match search {
        Ok(outcome) => outcome.hits.into_iter().next(),
        // A provider with no data for the query still runs the rest of
        // the errand (the paper §2 status quo).
        Err(ClientError::NothingDiscovered(_)) | Err(ClientError::NotFound(_)) => None,
        Err(e) => return Err(e),
    };
    let found_product = top_hit
        .as_ref()
        .map(|h| h.result.label == product.name)
        .unwrap_or(false);
    // 2. Navigate as far as the data allows.
    let (route_length_m, route_reaches_shelf) = if found_product {
        let hit = top_hit.expect("found_product implies a hit");
        let target_node = match hit.result.element {
            ElementId::Node(n) => Some(n),
            _ => None,
        };
        match provider.route(RouteQuery {
            from: user_geo,
            target: hit,
        }) {
            Ok(outcome) => {
                let reaches = target_node
                    .map(|n| {
                        outcome
                            .route
                            .legs
                            .last()
                            .and_then(|leg| leg.route.nodes.last().copied())
                            == Some(n.0)
                    })
                    .unwrap_or(false);
                (Some(outcome.route.total_length_m), reaches)
            }
            Err(_) => (None, false),
        }
    } else {
        // Fall back to routing to the storefront (the paper §2 status quo:
        // guidance stops at the door).
        let storefront = provider
            .search(SearchQuery {
                query: world.venues[venue_idx].name.clone(),
                location: user_geo,
                radius_m: f64::INFINITY,
                k: 1,
            })
            .ok()
            .and_then(|outcome| outcome.hits.into_iter().next());
        match storefront {
            Some(hit) => match provider.route(RouteQuery {
                from: user_geo,
                target: hit,
            }) {
                Ok(outcome) => (Some(outcome.route.total_length_m), false),
                Err(_) => (None, false),
            },
            None => (None, false),
        }
    };
    // 3. Localize along the walk.
    let trace = WalkTrace::into_venue(world, venue_idx, 80.0);
    let mut outdoor_errs = Vec::new();
    let mut indoor_errs = Vec::new();
    let mut indoor_total = 0usize;
    let mut indoor_answered = 0usize;
    for (i, coarse_geo, cues, indoors) in localization_cues(world, venue_idx, &trace, seed) {
        if cues.is_empty() {
            if indoors {
                indoor_total += 1;
            }
            continue;
        }
        let outcome = provider.localize(LocalizeQuery {
            coarse: coarse_geo,
            cues,
        })?;
        let sample = &trace.samples[i];
        if indoors {
            indoor_total += 1;
            // Indoor truth is in the venue frame; venue estimates are in
            // the same frame, so the error is directly comparable.
            let venue_estimate = outcome
                .estimates
                .iter()
                .find(|e| e.server_id.starts_with("venue-"));
            if let Some(est) = venue_estimate {
                indoor_answered += 1;
                let (_, local_truth) = sample.venue_local.expect("indoor sample");
                indoor_errs.push(est.estimate.pos.distance(local_truth));
            }
        } else if let Some(est_geo) = outcome
            .estimates
            .iter()
            .find(|e| e.estimate.technology == "gnss")
            .and_then(|e| e.geo)
        {
            // Outdoor estimates carry a geographic position whenever the
            // producing server is anchored.
            outdoor_errs.push(est_geo.haversine_distance(sample.geo));
        }
    }
    let stats = transport.stats();
    Ok(GroceryScenarioReport {
        provider: kind,
        product: product.name.clone(),
        found_product,
        route_reaches_shelf,
        route_length_m,
        outdoor_median_err_m: median(&mut outdoor_errs),
        indoor_median_err_m: median(&mut indoor_errs),
        indoor_availability: if indoor_total == 0 {
            0.0
        } else {
            indoor_answered as f64 / indoor_total as f64
        },
        messages: stats.messages,
        bytes: stats.bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_worldgen::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::default())
    }

    #[test]
    fn federated_completes_the_scenario() {
        let report = run_grocery_scenario(&world(), ProviderKind::Federated, 3, 11).unwrap();
        assert!(report.found_product, "federation must find the product");
        assert!(report.route_reaches_shelf, "route must reach the shelf");
        assert!(report.route_length_m.unwrap() > 10.0);
        assert!(
            report.indoor_availability > 0.5,
            "indoor localization mostly available"
        );
        assert!(
            report.indoor_median_err_m.unwrap() < 10.0,
            "indoor error {:?}",
            report.indoor_median_err_m
        );
        assert!(report.messages > 0);
    }

    #[test]
    fn centralized_public_fails_indoors() {
        let report =
            run_grocery_scenario(&world(), ProviderKind::CentralizedPublic, 3, 11).unwrap();
        assert!(
            !report.found_product,
            "paper §2: no inventory in the public map"
        );
        assert!(!report.route_reaches_shelf);
        assert_eq!(report.indoor_median_err_m, None);
        assert_eq!(report.indoor_availability, 0.0);
        // It can still route to the storefront.
        assert!(report.route_length_m.is_some());
    }

    #[test]
    fn centralized_omniscient_finds_but_cannot_localize() {
        let report =
            run_grocery_scenario(&world(), ProviderKind::CentralizedOmniscient, 3, 11).unwrap();
        assert!(report.found_product, "omniscient map has the data");
        assert!(
            report.route_reaches_shelf,
            "and the merged graph routes to it"
        );
        // But localization still dies at the door (paper §2's sharpest point).
        assert_eq!(report.indoor_median_err_m, None);
    }

    #[test]
    fn outdoor_localization_works_everywhere() {
        for kind in [ProviderKind::Federated, ProviderKind::CentralizedPublic] {
            let report = run_grocery_scenario(&world(), kind, 7, 13).unwrap();
            let err = report
                .outdoor_median_err_m
                .expect("outdoor GNSS always available");
            assert!(err < 15.0, "{kind:?} outdoor err {err}");
        }
    }

    #[test]
    fn federated_spends_fewer_messages_than_unbatched_would() {
        // The batched session path: a full scenario's message count must
        // stay well below one message per primitive request (the
        // pre-batching wire discipline). This guards the amortization
        // from regressing silently.
        let report = run_grocery_scenario(&world(), ProviderKind::Federated, 3, 11).unwrap();
        let session_heavy_upper_bound = 400;
        assert!(
            report.messages < session_heavy_upper_bound,
            "scenario burned {} messages — batching or session caching regressed",
            report.messages
        );
    }
}
