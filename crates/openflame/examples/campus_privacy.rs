//! The paper §5.3 security model in action: user-, service- and
//! application-level access control on a campus map server.
//!
//! Run with: `cargo run --release --example campus_privacy`

use openflame_core::{
    Deployment, DeploymentConfig, LocalizeQuery, OpenFlameClient, RouteQuery, SearchQuery,
    SpatialProvider,
};
use openflame_localize::{LocationCue, RadioMap};
use openflame_mapserver::{AccessPolicy, Principal, Rule, ServiceKind};
use openflame_worldgen::{World, WorldConfig};

fn main() {
    // The campus policy from the paper:
    //  - tiles for everyone (so anyone can view the map),
    //  - search only for people with a university identity,
    //  - localization only through the official campus-nav app.
    let policy = AccessPolicy::locked()
        .with(ServiceKind::Info, vec![Rule::AllowAll])
        .with(ServiceKind::Tiles, vec![Rule::AllowAll])
        .with(
            ServiceKind::Search,
            vec![Rule::AllowUserDomain("@cmu.edu".into()), Rule::DenyAll],
        )
        .with(
            ServiceKind::Route,
            vec![Rule::AllowUserDomain("@cmu.edu".into()), Rule::DenyAll],
        )
        .with(
            ServiceKind::Localize,
            vec![Rule::AllowApp("campus-nav".into()), Rule::DenyAll],
        );
    let world = World::generate(WorldConfig {
        stores: 4,
        ..WorldConfig::default()
    });
    let dep = Deployment::build(
        world,
        DeploymentConfig {
            venue_policy: policy,
            ..DeploymentConfig::default()
        },
    );
    let venue = dep.world.venues[0].clone();
    let product = dep.world.products[1].clone();
    println!(
        "campus venue: {} (policy: locked down per paper §5.3)\n",
        venue.name
    );

    let radio = RadioMap::survey(
        venue.beacons.clone(),
        openflame_geo::Point2::new(-5.0, -5.0),
        openflame_geo::Point2::new(60.0, 45.0),
        2.0,
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let beacon_cue = radio.observe(&mut rng, openflame_geo::Point2::new(10.0, 8.0), 2.0);

    let identities: [(&str, Principal); 4] = [
        ("anonymous visitor", Principal::anonymous()),
        ("gmail user", Principal::user("alice@gmail.com")),
        (
            "cmu student (own app)",
            Principal::user_via_app("bob@cmu.edu", "my-hack"),
        ),
        (
            "cmu student (campus-nav)",
            Principal::user_via_app("bob@cmu.edu", "campus-nav"),
        ),
    ];
    println!(
        "{:<28} {:>8} {:>8} {:>10}",
        "identity", "search", "route", "localize"
    );
    for (label, principal) in identities {
        // One client per identity: principals are builder-time
        // configuration, not mutable state.
        let client = OpenFlameClient::builder()
            .principal(principal)
            .build_on(dep.transport.clone(), dep.resolver.clone());
        let search = || {
            client.search(SearchQuery {
                query: product.name.clone(),
                location: venue.hint,
                radius_m: 2_000.0,
                k: 3,
            })
        };
        let search_ok = search()
            .map(|found| found.hits.iter().any(|h| h.result.label == product.name))
            .unwrap_or(false);
        let route_ok = if search_ok {
            let target = (search().unwrap().hits.into_iter())
                .find(|h| h.result.label == product.name)
                .unwrap();
            let from = venue.hint.destination(200.0, 80.0);
            client.route(RouteQuery { from, target }).is_ok()
        } else {
            false
        };
        let cues = vec![beacon_cue.clone()];
        let localize_ok = client
            .localize(LocalizeQuery {
                coarse: venue.hint,
                cues,
            })
            .map(|found| (found.estimates.iter()).any(|e| e.server_id.starts_with("venue-")))
            .unwrap_or(false);
        println!("{label:<28} {search_ok:>8} {route_ok:>8} {localize_ok:>10}");
    }

    // Tiles remain open to everyone (service-level separation).
    let gps = LocationCue::Gnss {
        fix: dep.world.config.center,
        accuracy_m: 4.0,
    };
    let outdoor = dep
        .client
        .localize(LocalizeQuery {
            coarse: dep.world.config.center,
            cues: vec![gps],
        })
        .unwrap();
    println!(
        "\nanonymous outdoor localization still works via the public world map: {}",
        !outdoor.estimates.is_empty()
    );
    let denied = dep.venue_servers[0].stats().denied;
    println!("requests denied by the campus server during this demo: {denied}");
    println!("\nA centralized provider could not express any of this: its data is");
    println!("either fully public or absent (paper §5.3).");
}
